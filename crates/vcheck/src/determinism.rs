//! Pass 2: the determinism gate.
//!
//! The virtual-time kernel is the substrate for every quantitative claim in
//! this repository, so its scheduling must be bit-for-bit reproducible:
//! the same workload run twice must produce the *same ordered event
//! stream*, not merely the same summary numbers. This pass runs each
//! workload twice and compares:
//!
//! * the kernel-level event-stream hash ([`vkernel::SimDomain::event_hash`]
//!   — every delivery and sender resumption, with virtual times and
//!   transaction ids) for a canned rendezvous/forward/multicast scenario;
//! * an FNV hash of the full report (labels, values, notes) for every
//!   experiment in [`vsim::EXPERIMENTS`] — every quantitative claim in
//!   EXPERIMENTS.md must be reproducible bit for bit.

use crate::Violation;
use bytes::Bytes;
use std::time::Duration;
use vkernel::SimDomain;
use vnet::{FaultConfig, Params1984, Partition};
use vproto::fnv1a;
use vproto::{Message, RequestCode};
use vsim::ExpReport;

/// Runs a canned multi-host scenario — rendezvous, a forward chain, a
/// multicast group send, and a mid-flight kill — and returns the kernel's
/// event-stream hash at quiescence.
pub fn scenario_event_hash() -> u64 {
    let domain = SimDomain::new(Params1984::ethernet_3mbit());
    let (a, b, c) = (domain.add_host(), domain.add_host(), domain.add_host());

    // An echo server on host B, and a relay on host C that forwards
    // everything to the echo server (a 2-hop forward chain).
    let echo = domain.spawn(b, "echo", |ctx| {
        while let Ok(rx) = ctx.receive() {
            let msg = rx.msg;
            ctx.reply(rx, msg, Bytes::new()).ok();
        }
    });
    let relay = domain.spawn(c, "relay", move |ctx| {
        while let Ok(rx) = ctx.receive() {
            let msg = rx.msg;
            ctx.forward(rx, echo, msg).ok();
        }
    });

    // A multicast group of two members on different hosts.
    let group = domain
        .client(a, |ctx| ctx.create_group())
        .expect("group client completes");
    for (host, name) in [(b, "m1"), (c, "m2")] {
        domain.spawn(host, name, move |ctx| {
            ctx.join_group(group).ok();
            while let Ok(rx) = ctx.receive() {
                let msg = rx.msg;
                ctx.reply(rx, msg, Bytes::new()).ok();
            }
        });
    }
    domain.run();

    let victim = domain.spawn(b, "victim", |ctx| {
        while let Ok(rx) = ctx.receive() {
            let msg = rx.msg;
            ctx.reply(rx, msg, Bytes::new()).ok();
        }
    });

    domain.client(a, move |ctx| {
        for _ in 0..4 {
            ctx.send(echo, Message::request(RequestCode::Echo), Bytes::new(), 0)
                .ok();
        }
        ctx.send(
            relay,
            Message::request(RequestCode::Echo),
            Bytes::from_static(b"via relay"),
            0,
        )
        .ok();
        ctx.send_group(group, Message::request(RequestCode::Echo), Bytes::new())
            .ok();
    });
    domain.kill(victim);
    domain.run();
    domain.event_hash()
}

/// Hashes everything observable about an experiment report.
pub fn report_hash(report: &ExpReport) -> u64 {
    let mut text = String::new();
    text.push_str(report.id);
    text.push('\n');
    text.push_str(&report.title);
    text.push('\n');
    for row in &report.rows {
        text.push_str(&row.label);
        text.push('|');
        if let Some(p) = row.paper {
            text.push_str(&format!("{:016x}", p.to_bits()));
        }
        text.push('|');
        text.push_str(&format!("{:016x}", row.measured.to_bits()));
        text.push('|');
        text.push_str(row.unit);
        text.push('\n');
    }
    for note in &report.notes {
        text.push_str(note);
        text.push('\n');
    }
    fnv1a(text.as_bytes())
}

/// Runs the canned scenario again, but under a seeded fault plane with a
/// mid-run scheduled crash: loss, duplication, jitter, retransmission and
/// crash events all fold into the event hash, so two same-seed runs must
/// still be bit-identical.
pub fn faulty_scenario_event_hash() -> u64 {
    let cfg = FaultConfig::lossless(0xC4EC)
        .with_loss(0.05)
        .with_dup(0.02)
        .with_jitter(Duration::from_micros(400));
    let domain = SimDomain::with_faults(Params1984::ethernet_3mbit(), cfg);
    let (a, b) = (domain.add_host(), domain.add_host());
    let echo = domain.spawn(b, "echo", |ctx| {
        while let Ok(rx) = ctx.receive() {
            let msg = rx.msg;
            ctx.reply(rx, msg, Bytes::new()).ok();
        }
    });
    let victim = domain.spawn(b, "victim", |ctx| {
        while let Ok(rx) = ctx.receive() {
            let msg = rx.msg;
            ctx.sleep(Duration::from_millis(30));
            ctx.reply(rx, msg, Bytes::new()).ok();
        }
    });
    let t0 = domain.run();
    domain.schedule_crash(victim, t0 + Duration::from_millis(10));
    domain.client(a, move |ctx| {
        // This transaction is cut down by the scheduled crash...
        ctx.send(victim, Message::request(RequestCode::Echo), Bytes::new(), 0)
            .ok();
        // ...and these ride the lossy link, retransmitting as needed.
        for _ in 0..16 {
            ctx.send(echo, Message::request(RequestCode::Echo), Bytes::new(), 0)
                .ok();
        }
    });
    domain.run();
    domain.event_hash()
}

/// The canned scenario again, under an *asymmetric* partition riding on a
/// lossy plane: requests from A deliver, replies from B are severed for a
/// window mid-run, then heal. Partition-severed attempts are their own
/// event kind in the hash, so two same-seed runs must still be
/// bit-identical — and a run with the cut must differ from one without.
pub fn partitioned_scenario_event_hash(cut: bool) -> u64 {
    let cfg = FaultConfig::lossless(0xC4ED).with_loss(0.02);
    let domain = SimDomain::with_faults(Params1984::ethernet_3mbit(), cfg);
    let (a, b) = (domain.add_host(), domain.add_host());
    let echo = domain.spawn(b, "echo", |ctx| {
        while let Ok(rx) = ctx.receive() {
            let msg = rx.msg;
            ctx.reply(rx, msg, Bytes::new()).ok();
        }
    });
    let t0 = domain.run();
    if cut {
        let start = t0 + Duration::from_millis(5);
        domain.schedule_partition(Partition::one_way(
            b,
            a,
            start,
            Some(start + Duration::from_millis(40)),
        ));
    }
    domain.client(a, move |ctx| {
        // Spread the sends across the cut window and past the heal: some
        // replies are severed (their ladders burn fully), later ones ride
        // the healed link again.
        for _ in 0..8 {
            ctx.send(echo, Message::request(RequestCode::Echo), Bytes::new(), 0)
                .ok();
            ctx.sleep(Duration::from_millis(10));
        }
    });
    domain.run();
    domain.event_hash()
}

/// Runs the determinism gate: every workload twice, comparing hashes.
pub fn run() -> Vec<Violation> {
    let mut out = Vec::new();

    let (h1, h2) = (scenario_event_hash(), scenario_event_hash());
    if let Some(v) = compare("kernel scenario event stream", h1, h2) {
        out.push(v);
    }

    let (f1, f2) = (faulty_scenario_event_hash(), faulty_scenario_event_hash());
    if let Some(v) = compare("kernel faulty-scenario event stream", f1, f2) {
        out.push(v);
    }

    let (p1, p2) = (
        partitioned_scenario_event_hash(true),
        partitioned_scenario_event_hash(true),
    );
    if let Some(v) = compare("kernel partitioned-scenario event stream", p1, p2) {
        out.push(v);
    }

    for (id, runner) in vsim::EXPERIMENTS {
        let (r1, r2) = (report_hash(&runner()), report_hash(&runner()));
        if let Some(v) = compare(&format!("experiment {id}"), r1, r2) {
            out.push(v);
        }
    }
    out
}

/// Returns a violation if two same-seed runs hashed differently.
pub fn compare(what: &str, first: u64, second: u64) -> Option<Violation> {
    (first != second).then(|| Violation {
        pass: "determinism",
        rule: "determinism",
        file: String::new(),
        line: 0,
        message: format!(
            "{what} diverged between two same-seed runs \
             ({first:016x} vs {second:016x})"
        ),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenario_hash_is_stable() {
        assert_eq!(scenario_event_hash(), scenario_event_hash());
    }

    #[test]
    fn faulty_scenario_hash_is_stable() {
        assert_eq!(faulty_scenario_event_hash(), faulty_scenario_event_hash());
    }

    #[test]
    fn partitioned_scenario_hash_is_stable_and_cut_sensitive() {
        assert_eq!(
            partitioned_scenario_event_hash(true),
            partitioned_scenario_event_hash(true)
        );
        // The cut must actually change the event stream — otherwise the
        // gate would pass with partitions silently disconnected.
        assert_ne!(
            partitioned_scenario_event_hash(true),
            partitioned_scenario_event_hash(false)
        );
    }

    #[test]
    fn compare_flags_divergence() {
        assert!(compare("x", 1, 2).is_some());
        assert!(compare("x", 7, 7).is_none());
    }

    #[test]
    fn report_hash_sees_value_changes() {
        let mut a = ExpReport::new("EXP-T", "t");
        a.push(vsim::ExpRow::with_paper("row", 1.0, 2.0, "ms"));
        let mut b = ExpReport::new("EXP-T", "t");
        b.push(vsim::ExpRow::with_paper("row", 1.0, 2.5, "ms"));
        assert_ne!(report_hash(&a), report_hash(&b));
    }
}
