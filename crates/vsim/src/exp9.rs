//! EXP-9 — Multicast name mapping over a server group (paper §7 future
//! work; also §2.2's "another method").
//!
//! "A near-term project is to replace the low-level service naming using
//! GetPid and SetPid with a mechanism based on multicast Send. Using this
//! mechanism, a single context could be implemented transparently by a
//! group of servers working in cooperation."
//!
//! Here a context is implemented by N servers, each owning a share of the
//! names. A client maps a name by multicasting a `QueryName` to the group;
//! the owner replies, the others discard the request. Compared against the
//! prefix-server indirection for the same mapping.

use crate::report::{ms, ExpReport, ExpRow};
use bytes::Bytes;
use std::time::Duration;
use vkernel::{GroupId, Ipc, SimDomain};
use vnaming::{build_csname_request, CsRequest};
use vnet::Params1984;
use vproto::{fields, ContextId, CsName, Message, ReplyCode, RequestCode};

/// A group member owning every name that starts with its tag digit.
fn group_member(ctx: &dyn Ipc, group: GroupId, tag: u8) {
    ctx.join_group(group).expect("join group");
    while let Ok(rx) = ctx.receive() {
        let msg = rx.msg;
        if !msg.is_csname_request() {
            drop(rx);
            continue;
        }
        let payload = match ctx.move_from(&rx) {
            Ok(p) => p,
            Err(_) => continue,
        };
        let req = match CsRequest::parse(&msg, &payload) {
            Ok(r) => r,
            Err(_) => {
                drop(rx);
                continue;
            }
        };
        // Own the name? First byte selects the owner.
        if req.remaining().first() == Some(&tag) {
            let mut m = Message::ok();
            m.set_context_id(ContextId::DEFAULT);
            m.set_pid_at(fields::W_PID_LO, ctx.my_pid());
            ctx.reply(rx, m, Bytes::new()).ok();
        } else {
            // Not ours: discard, exactly as the paper's §2.2 describes —
            // the cost is the examine-and-discard work on every member.
            drop(rx);
        }
    }
}

/// Maps one name via group multicast in a domain with `members` servers,
/// returning the mapping latency.
pub fn measure_multicast_map(params: Params1984, members: usize) -> Duration {
    let domain = SimDomain::new(params);
    let ws = domain.add_host();
    let group = {
        let (tx, rx) = crossbeam::channel::bounded(1);
        domain.spawn(ws, "setup", move |ctx| {
            let _ = tx.send(ctx.create_group());
        });
        domain.run();
        rx.recv().expect("group created")
    };
    for i in 0..members {
        let host = domain.add_host();
        let tag = b'0' + (i as u8 % 10);
        domain.spawn(host, "member", move |ctx| group_member(ctx, group, tag));
    }
    domain.run();
    domain
        .client(ws, move |ctx| {
            // Name owned by the member tagged '3' (exists for members>3).
            let name = CsName::from("3-things/obj");
            let (msg, payload) =
                build_csname_request(RequestCode::QueryName, ContextId::DEFAULT, &name, &[]);
            let t0 = ctx.now();
            let reply = ctx.send_group(group, msg, payload).unwrap();
            assert_eq!(reply.msg.reply_code(), ReplyCode::Ok);
            ctx.now() - t0
        })
        .expect("multicast map")
}

/// Runs EXP-9.
pub fn run() -> ExpReport {
    let mut rep = ExpReport::new(
        "EXP-9",
        "multicast name mapping by a server group (paper §7 future work)",
    );
    for &members in &[4usize, 8, 16] {
        let t = measure_multicast_map(Params1984::ethernet_3mbit(), members);
        rep.push(ExpRow::measured_only(
            format!("group QueryName, {members} member servers"),
            ms(t),
            "ms",
        ));
    }
    // Reference: the prefix-server route for the same kind of mapping costs
    // one local transaction + prefix processing + one forwarded transaction
    // (measured in EXP-4 as ≈5.2 ms for a local target).
    rep.push(ExpRow::measured_only(
        "reference: prefix-server mapping (EXP-4 prefix+local open)",
        5.14,
        "ms",
    ));
    rep.note("one packet on the wire reaches all members; the growth with group size is the per-kernel filter cost the paper warns about in §2.2");
    rep
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn multicast_mapping_succeeds_and_is_transaction_scale() {
        let t = measure_multicast_map(Params1984::ethernet_3mbit(), 8);
        let v = ms(t);
        // One multicast + one unicast reply: a few ms.
        assert!((2.0..8.0).contains(&v), "{v}");
    }

    #[test]
    fn cost_grows_with_group_size() {
        let t4 = measure_multicast_map(Params1984::ethernet_3mbit(), 4);
        let t16 = measure_multicast_map(Params1984::ethernet_3mbit(), 16);
        assert!(t16 > t4, "{t4:?} vs {t16:?}");
    }

    #[test]
    fn owner_actually_answers() {
        // Implicit in measure (assert inside), but check a different owner.
        let domain = SimDomain::new(Params1984::ethernet_3mbit());
        let ws = domain.add_host();
        let group = {
            let (tx, rx) = crossbeam::channel::bounded(1);
            domain.spawn(ws, "setup", move |ctx| {
                let _ = tx.send(ctx.create_group());
            });
            domain.run();
            rx.recv().unwrap()
        };
        let mut member_pids = Vec::new();
        for i in 0..6usize {
            let host = domain.add_host();
            let tag = b'0' + i as u8;
            member_pids
                .push(domain.spawn(host, "member", move |ctx| group_member(ctx, group, tag)));
        }
        domain.run();
        let owner_of_5 = member_pids[5];
        let replier = domain
            .client(ws, move |ctx| {
                let name = CsName::from("5xyz");
                let (msg, payload) =
                    build_csname_request(RequestCode::QueryName, ContextId::DEFAULT, &name, &[]);
                let reply = ctx.send_group(group, msg, payload).unwrap();
                reply.msg.pid_at(fields::W_PID_LO)
            })
            .unwrap();
        assert_eq!(replier, owner_of_5);
    }
}
