//! EXP-7 — Distributed name interpretation vs a centralized name server
//! (the paper's §2.2 comparison).
//!
//! Three claims, three measurements:
//!
//! * **Efficiency**: "Separating the name of an object from its
//!   implementation introduces the extra cost of interacting with one more
//!   server — the name server — every time a name is referenced."
//! * **Consistency**: "deleting a named object requires notifying the name
//!   server ... If one of the servers crashes during the operation, the
//!   system will be left inconsistent."
//! * **Reliability**: "A name server ... represents a central failure
//!   point."

use crate::report::{ms, ExpReport, ExpRow};
use std::time::Duration;
use vcentral::{central_name_server, object_store, CentralClient, DeleteCrash};
use vkernel::SimDomain;
use vnet::Params1984;
use vproto::{ContextId, ContextPair, OpenMode};
use vruntime::NameClient;
use vservers::{file_server, FileServerConfig};

/// Latency of opening a (remote) object under both models.
pub fn measure_open_latency(params: Params1984) -> (Duration, Duration) {
    // Distributed: one transaction straight to the implementing server.
    let distributed = {
        let domain = SimDomain::new(params.clone());
        let (ws, sm) = (domain.add_host(), domain.add_host());
        let fs = domain.spawn(sm, "fs", |ctx| {
            file_server(
                ctx,
                FileServerConfig {
                    preload: vec![("obj.dat".into(), vec![0u8; 100])],
                    ..FileServerConfig::default()
                },
            )
        });
        domain
            .client(ws, move |ctx| {
                let client = NameClient::new(ctx, ContextPair::new(fs, ContextId::DEFAULT));
                let t0 = ctx.now();
                for _ in 0..10 {
                    client.open("obj.dat", OpenMode::Read).unwrap();
                }
                (ctx.now() - t0) / 10
            })
            .expect("distributed open")
    };
    // Centralized: a name-server transaction, then an open-by-id.
    let centralized = {
        let domain = SimDomain::new(params);
        let (ws, ns_host, store_host) = (domain.add_host(), domain.add_host(), domain.add_host());
        domain.spawn(ns_host, "central", |ctx| central_name_server(ctx));
        let store = domain.spawn(store_host, "store", |ctx| object_store(ctx));
        domain.run();
        domain
            .client(ws, move |ctx| {
                let client = CentralClient::new(ctx).unwrap();
                client.create(store, "obj.dat", &[0u8; 100]).unwrap();
                let t0 = ctx.now();
                for _ in 0..10 {
                    client.open("obj.dat").unwrap();
                }
                (ctx.now() - t0) / 10
            })
            .expect("centralized open")
    };
    (distributed, centralized)
}

/// Outcome of the consistency fault-injection run.
#[derive(Debug, Clone, Copy)]
pub struct ConsistencyOutcome {
    /// Deletes attempted under each model.
    pub attempts: usize,
    /// Names that still resolve but whose object is gone (centralized).
    pub central_dangling: usize,
    /// Same measure for the distributed model.
    pub distributed_dangling: usize,
}

/// Runs `attempts` deletes, crashing after the object-delete step every
/// `crash_every`-th time, under both models; counts dangling names.
pub fn measure_consistency(
    params: Params1984,
    attempts: usize,
    crash_every: usize,
) -> ConsistencyOutcome {
    // Centralized model.
    let central_dangling = {
        let domain = SimDomain::new(params.clone());
        let (ws, sm) = (domain.add_host(), domain.add_host());
        domain.spawn(sm, "central", |ctx| central_name_server(ctx));
        let store = domain.spawn(sm, "store", |ctx| object_store(ctx));
        domain.run();
        domain
            .client(ws, move |ctx| {
                let client = CentralClient::new(ctx).unwrap();
                let mut dangling = 0;
                for i in 0..attempts {
                    let name = format!("f{i}");
                    client.create(store, &name, b"x").unwrap();
                    let crash = if i % crash_every == 0 {
                        DeleteCrash::AfterObjectDelete
                    } else {
                        DeleteCrash::None
                    };
                    client.delete(&name, crash).unwrap();
                    // A dangling name: lookup succeeds, open fails.
                    if client.lookup(&name).is_ok() && client.open(&name).is_err() {
                        dangling += 1;
                    }
                }
                dangling
            })
            .expect("centralized consistency run")
    };
    // Distributed model: delete is a single-server operation; a "crash at
    // the same point" aborts *before* anything happened or after the whole
    // delete — there is no window in which name and object can disagree.
    let distributed_dangling = {
        let domain = SimDomain::new(params);
        let (ws, sm) = (domain.add_host(), domain.add_host());
        let fs = domain.spawn(sm, "fs", |ctx| {
            file_server(ctx, FileServerConfig::default())
        });
        domain.run();
        domain
            .client(ws, move |ctx| {
                let client = NameClient::new(ctx, ContextPair::new(fs, ContextId::DEFAULT));
                let mut dangling = 0;
                for i in 0..attempts {
                    let name = format!("f{i}");
                    client.write_file(&name, b"x").unwrap();
                    client.remove(&name).unwrap();
                    // Name and object live in the same server: either both
                    // are gone or neither is.
                    let still_named = client.query(&name).is_ok();
                    let still_opens = client.open(&name, OpenMode::Read).is_ok();
                    if still_named != still_opens {
                        dangling += 1;
                    }
                }
                dangling
            })
            .expect("distributed consistency run")
    };
    ConsistencyOutcome {
        attempts,
        central_dangling,
        distributed_dangling,
    }
}

/// Runs EXP-7.
pub fn run() -> ExpReport {
    let mut rep = ExpReport::new(
        "EXP-7",
        "distributed interpretation vs centralized name server (paper §2.2)",
    );
    let (dist, central) = measure_open_latency(Params1984::ethernet_3mbit());
    rep.push(ExpRow::measured_only(
        "open latency, distributed",
        ms(dist),
        "ms",
    ));
    rep.push(ExpRow::measured_only(
        "open latency, centralized",
        ms(central),
        "ms",
    ));
    rep.push(ExpRow::measured_only(
        "centralized overhead per name reference",
        ms(central) - ms(dist),
        "ms",
    ));
    let outcome = measure_consistency(Params1984::ethernet_3mbit(), 50, 5);
    rep.push(ExpRow::measured_only(
        "dangling names after 50 deletes w/ 20% crashes, centralized",
        outcome.central_dangling as f64,
        "names",
    ));
    rep.push(ExpRow::measured_only(
        "dangling names after 50 deletes w/ 20% crashes, distributed",
        outcome.distributed_dangling as f64,
        "names",
    ));
    // Reliability: with the central name server dead, nothing can be
    // opened by name, even though the object server is healthy.
    let domain = SimDomain::new(Params1984::ethernet_3mbit());
    let (ws, sm) = (domain.add_host(), domain.add_host());
    let ns = domain.spawn(sm, "central", |ctx| central_name_server(ctx));
    let store = domain.spawn(sm, "store", |ctx| object_store(ctx));
    domain.run();
    domain
        .client(ws, move |ctx| {
            let client = CentralClient::new(ctx).unwrap();
            client.create(store, "x", b"x").unwrap();
        })
        .unwrap();
    domain.kill(ns);
    let reachable: f64 = domain
        .client(ws, move |ctx| match CentralClient::new(ctx) {
            Ok(c) => f64::from(u8::from(c.open("x").is_ok())),
            Err(_) => 0.0,
        })
        .unwrap();
    rep.push(ExpRow::measured_only(
        "objects reachable after name-server crash, centralized",
        reachable,
        "frac",
    ));
    rep.note("the paper gives no numbers for §2.2; the claims under test are structural: one extra transaction per reference, a crash window that dangles names only in the centralized model, and a central failure point");
    rep
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn centralized_pays_roughly_one_extra_transaction() {
        let (dist, central) = measure_open_latency(Params1984::ethernet_3mbit());
        let extra = ms(central) - ms(dist);
        // One extra remote transaction ≈ 2.56 ms (± name payload effects).
        assert!((1.5..4.0).contains(&extra), "extra {extra}");
    }

    #[test]
    fn only_centralized_model_dangles() {
        let outcome = measure_consistency(Params1984::ethernet_3mbit(), 25, 5);
        assert!(outcome.central_dangling >= 4, "{outcome:?}");
        assert_eq!(outcome.distributed_dangling, 0, "{outcome:?}");
    }

    #[test]
    fn report_has_reliability_row() {
        let rep = run();
        let r = rep
            .row("objects reachable after name-server crash, centralized")
            .unwrap();
        assert_eq!(r.measured, 0.0);
    }
}
