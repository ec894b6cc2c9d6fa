//! EXP-8 — Service naming: `GetPid` local table vs network broadcast
//! (paper §4.2).
//!
//! Paper: "In response to a GetPid, the kernel checks its local table and,
//! if that fails and the scope is not local, broadcasts to query other
//! kernels on the network." The broadcast also has the §2.2 cost: every
//! kernel on the network spends time filtering queries not meant for it.

use crate::report::{ms, ExpReport, ExpRow};
use std::time::Duration;
use vkernel::SimDomain;
use vnet::Params1984;
use vproto::{Scope, ServiceId};

/// Measures a local-table `GetPid` hit and a broadcast hit in a domain of
/// `hosts` logical hosts.
pub fn measure_getpid(params: Params1984, hosts: usize) -> (Duration, Duration) {
    assert!(hosts >= 2);
    let domain = SimDomain::new(params);
    let all: Vec<_> = (0..hosts).map(|_| domain.add_host()).collect();
    let ws = all[0];
    let far = all[hosts - 1];
    domain.spawn(ws, "local-svc", |ctx| {
        ctx.set_pid(ServiceId::TIME_SERVER, Scope::Both);
        while ctx.receive().is_ok() {}
    });
    domain.spawn(far, "far-svc", |ctx| {
        ctx.set_pid(ServiceId::PRINT_SERVER, Scope::Both);
        while ctx.receive().is_ok() {}
    });
    domain.run();
    domain
        .client(ws, |ctx| {
            let t0 = ctx.now();
            for _ in 0..10 {
                ctx.get_pid(ServiceId::TIME_SERVER, Scope::Both).unwrap();
            }
            let t1 = ctx.now();
            for _ in 0..10 {
                ctx.get_pid(ServiceId::PRINT_SERVER, Scope::Both).unwrap();
            }
            let t2 = ctx.now();
            ((t1 - t0) / 10, (t2 - t1) / 10)
        })
        .expect("getpid runs")
}

/// Runs EXP-8.
pub fn run() -> ExpReport {
    let mut rep = ExpReport::new(
        "EXP-8",
        "GetPid: local kernel table vs network broadcast (paper §4.2)",
    );
    for &hosts in &[2usize, 8, 30] {
        let (local, broadcast) = measure_getpid(Params1984::ethernet_3mbit(), hosts);
        rep.push(ExpRow::measured_only(
            format!("local table hit, {hosts}-host domain"),
            ms(local),
            "ms",
        ));
        rep.push(ExpRow::measured_only(
            format!("broadcast hit, {hosts}-host domain"),
            ms(broadcast),
            "ms",
        ));
    }
    rep.note("30 hosts ≈ the paper's installation ('about 30' workstations, §6)");
    rep.note("broadcast cost grows with domain size because every kernel filters the query — the cost the paper flags for the multicast technique in §2.2");
    rep
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn local_hit_is_much_cheaper_than_broadcast() {
        let (local, broadcast) = measure_getpid(Params1984::ethernet_3mbit(), 8);
        assert!(broadcast > local * 10, "{local:?} vs {broadcast:?}");
    }

    #[test]
    fn broadcast_cost_grows_with_domain() {
        let (_, b2) = measure_getpid(Params1984::ethernet_3mbit(), 2);
        let (_, b30) = measure_getpid(Params1984::ethernet_3mbit(), 30);
        assert!(b30 > b2, "{b2:?} vs {b30:?}");
    }

    #[test]
    fn local_hit_cost_is_independent_of_domain() {
        let (l2, _) = measure_getpid(Params1984::ethernet_3mbit(), 2);
        let (l30, _) = measure_getpid(Params1984::ethernet_3mbit(), 30);
        assert_eq!(l2, l30);
    }
}
