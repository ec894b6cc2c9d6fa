//! EXP-1 — The basic message transaction (paper §3.1, Figure 1).
//!
//! Paper: "The time for a Send-Receive-Reply sequence using 32-byte
//! messages between two processes on separate 10 MHz SUN workstations
//! connected by a 3 Mbit Ethernet is 2.56 milliseconds."

use crate::report::{ms, ExpReport, ExpRow};
use bytes::Bytes;
use std::time::Duration;
use vkernel::{Ipc, SimDomain};
use vnet::Params1984;
use vproto::{Message, RequestCode};

fn echo_server(ctx: &dyn Ipc) {
    while let Ok(rx) = ctx.receive() {
        let msg = rx.msg;
        ctx.reply(rx, msg, Bytes::new()).ok();
    }
}

/// Measures one 32-byte transaction between `client_host` and a server on
/// `server_host`, averaged over `iters` rounds.
pub fn measure_txn(params: Params1984, same_host: bool, iters: u32) -> Duration {
    let domain = SimDomain::new(params);
    let a = domain.add_host();
    let b = if same_host { a } else { domain.add_host() };
    let server = domain.spawn(b, "echo", echo_server);
    domain
        .client(a, move |ctx| {
            let t0 = ctx.now();
            for _ in 0..iters {
                ctx.send(server, Message::request(RequestCode::Echo), Bytes::new(), 0)
                    .unwrap();
            }
            (ctx.now() - t0) / iters
        })
        .expect("client completed")
}

/// Runs EXP-1.
pub fn run() -> ExpReport {
    let mut rep = ExpReport::new(
        "EXP-1",
        "32-byte Send-Receive-Reply message transaction (paper §3.1, Figure 1)",
    );
    let remote3 = measure_txn(Params1984::ethernet_3mbit(), false, 100);
    let local3 = measure_txn(Params1984::ethernet_3mbit(), true, 100);
    let remote10 = measure_txn(Params1984::ethernet_10mbit(), false, 100);
    rep.push(ExpRow::with_paper(
        "remote transaction, 3 Mbit Ethernet",
        2.56,
        ms(remote3),
        "ms",
    ));
    rep.push(ExpRow::with_paper(
        "local transaction (SOSP'83 kernel measurement)",
        0.77,
        ms(local3),
        "ms",
    ));
    rep.push(ExpRow::measured_only(
        "remote transaction, 10 Mbit Ethernet",
        ms(remote10),
        "ms",
    ));
    rep.note("remote/local ratio is the structural cost of crossing the network kernel");
    rep
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reproduces_paper_values_exactly() {
        let rep = run();
        let remote = rep.row("remote transaction, 3 Mbit Ethernet").unwrap();
        assert!((remote.measured - 2.56).abs() < 0.01, "{}", remote.measured);
        let local = rep
            .row("local transaction (SOSP'83 kernel measurement)")
            .unwrap();
        assert!((local.measured - 0.77).abs() < 0.01, "{}", local.measured);
    }

    #[test]
    fn faster_network_helps_but_cpu_dominates() {
        let rep = run();
        let r3 = rep
            .row("remote transaction, 3 Mbit Ethernet")
            .unwrap()
            .measured;
        let r10 = rep
            .row("remote transaction, 10 Mbit Ethernet")
            .unwrap()
            .measured;
        assert!(r10 < r3);
        // Small packets are CPU-bound: 10 Mbit helps by < 25%.
        assert!(r10 > r3 * 0.75);
    }
}
