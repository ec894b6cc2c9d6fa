//! Behavioural tests for the real-thread kernel: rendezvous semantics,
//! forwarding, MoveTo/MoveFrom, failure modes, groups, and service naming.

use bytes::Bytes;
use vkernel::{Domain, Ipc, IpcError};
use vproto::{Message, ReplyCode, RequestCode, Scope, ServiceId};

fn echo_server(ctx: &dyn Ipc) {
    while let Ok(rx) = ctx.receive() {
        let msg = rx.msg;
        let payload = ctx.move_from(&rx).unwrap();
        ctx.reply(rx, msg, payload).ok();
    }
}

#[test]
fn send_receive_reply_roundtrip() {
    let domain = Domain::new();
    let host = domain.add_host();
    let server = domain.spawn(host, "echo", echo_server);
    let reply = domain
        .client(host, move |ctx| {
            ctx.send(
                server,
                Message::request(RequestCode::Echo),
                Bytes::from_static(b"hello"),
                64,
            )
        })
        .unwrap();
    assert_eq!(reply.msg.request_code(), Some(RequestCode::Echo));
    assert_eq!(&reply.data[..], b"hello");
}

#[test]
fn sender_identity_is_visible_to_receiver() {
    let domain = Domain::new();
    let host = domain.add_host();
    let server = domain.spawn(host, "who", |ctx| {
        while let Ok(rx) = ctx.receive() {
            let mut m = Message::ok();
            m.set_pid_at(5, rx.from);
            ctx.reply(rx, m, Bytes::new()).ok();
        }
    });
    let (me, reported) = domain.client(host, move |ctx| {
        let r = ctx
            .send(server, Message::request(RequestCode::Echo), Bytes::new(), 0)
            .unwrap();
        (ctx.my_pid(), r.msg.pid_at(5))
    });
    assert_eq!(me, reported);
}

#[test]
fn forward_makes_reply_come_from_third_process() {
    // Paper §3.1: "it appears as though the sender originally sent to the
    // third process".
    let domain = Domain::new();
    let host = domain.add_host();
    let backend = domain.spawn(host, "backend", |ctx| {
        while let Ok(rx) = ctx.receive() {
            // The backend sees the ORIGINAL sender, not the forwarder.
            let mut m = Message::ok();
            m.set_pid_at(5, rx.from);
            m.set_pid_at(7, ctx.my_pid());
            ctx.reply(rx, m, Bytes::new()).ok();
        }
    });
    let front = domain.spawn(host, "front", move |ctx| {
        while let Ok(rx) = ctx.receive() {
            let msg = rx.msg;
            ctx.forward(rx, backend, msg).ok();
        }
    });
    let (client_pid, seen_sender, replier) = domain.client(host, move |ctx| {
        let r = ctx
            .send(front, Message::request(RequestCode::Echo), Bytes::new(), 0)
            .unwrap();
        (ctx.my_pid(), r.msg.pid_at(5), r.msg.pid_at(7))
    });
    assert_eq!(seen_sender, client_pid);
    assert_eq!(replier, backend);
}

#[test]
fn forward_preserves_payload_for_move_from() {
    let domain = Domain::new();
    let host = domain.add_host();
    let backend = domain.spawn(host, "backend", |ctx| {
        while let Ok(rx) = ctx.receive() {
            let payload = ctx.move_from(&rx).unwrap();
            ctx.reply(rx, Message::ok(), payload).ok();
        }
    });
    let front = domain.spawn(host, "front", move |ctx| {
        while let Ok(rx) = ctx.receive() {
            let msg = rx.msg;
            ctx.forward(rx, backend, msg).ok();
        }
    });
    let reply = domain
        .client(host, move |ctx| {
            ctx.send(
                front,
                Message::request(RequestCode::Echo),
                Bytes::from_static(b"via-forward"),
                64,
            )
        })
        .unwrap();
    assert_eq!(&reply.data[..], b"via-forward");
}

#[test]
fn move_to_accumulates_before_reply() {
    let domain = Domain::new();
    let host = domain.add_host();
    let server = domain.spawn(host, "chunker", |ctx| {
        while let Ok(mut rx) = ctx.receive() {
            ctx.move_to(&mut rx, b"part1-").unwrap();
            ctx.move_to(&mut rx, b"part2-").unwrap();
            ctx.reply(rx, Message::ok(), Bytes::from_static(b"tail"))
                .ok();
        }
    });
    let reply = domain
        .client(host, move |ctx| {
            ctx.send(
                server,
                Message::request(RequestCode::Echo),
                Bytes::new(),
                64,
            )
        })
        .unwrap();
    assert_eq!(&reply.data[..], b"part1-part2-tail");
}

#[test]
fn buffer_overflow_reported_to_both_sides() {
    let domain = Domain::new();
    let host = domain.add_host();
    let (err_tx, err_rx) = crossbeam::channel::bounded(1);
    let server = domain.spawn(host, "bloat", move |ctx| {
        while let Ok(rx) = ctx.receive() {
            let result = ctx.reply(rx, Message::ok(), Bytes::from(vec![0u8; 100]));
            let _ = err_tx.send(result);
        }
    });
    let client_result = domain.client(host, move |ctx| {
        ctx.send(
            server,
            Message::request(RequestCode::Echo),
            Bytes::new(),
            10,
        )
    });
    assert_eq!(client_result.unwrap_err(), IpcError::BufferOverflow);
    assert_eq!(err_rx.recv().unwrap(), Err(IpcError::BufferOverflow));
}

#[test]
fn move_to_rejects_overflow_but_keeps_transaction_open() {
    let domain = Domain::new();
    let host = domain.add_host();
    let server = domain.spawn(host, "careful", |ctx| {
        while let Ok(mut rx) = ctx.receive() {
            assert_eq!(
                ctx.move_to(&mut rx, &[0u8; 999]),
                Err(IpcError::BufferOverflow)
            );
            // Transaction still completes normally afterwards.
            ctx.reply(rx, Message::ok(), Bytes::from_static(b"ok"))
                .unwrap();
        }
    });
    let reply = domain
        .client(host, move |ctx| {
            ctx.send(server, Message::request(RequestCode::Echo), Bytes::new(), 8)
        })
        .unwrap();
    assert_eq!(&reply.data[..], b"ok");
}

#[test]
fn send_to_nonexistent_process_fails_fast() {
    let domain = Domain::new();
    let host = domain.add_host();
    let bogus = vproto::Pid::new(host, 9999);
    let err = domain
        .client(host, move |ctx| {
            ctx.send(bogus, Message::request(RequestCode::Echo), Bytes::new(), 0)
        })
        .unwrap_err();
    assert_eq!(err, IpcError::NoProcess);
}

#[test]
fn dropping_received_unreplied_unblocks_sender_with_error() {
    let domain = Domain::new();
    let host = domain.add_host();
    let server = domain.spawn(host, "dropper", |ctx| {
        while let Ok(rx) = ctx.receive() {
            drop(rx); // never reply
        }
    });
    let err = domain
        .client(host, move |ctx| {
            ctx.send(server, Message::request(RequestCode::Echo), Bytes::new(), 0)
        })
        .unwrap_err();
    assert_eq!(err, IpcError::ProcessDied);
}

#[test]
fn killed_server_unblocks_pending_sender() {
    let domain = Domain::new();
    let host = domain.add_host();
    let (ready_tx, ready_rx) = crossbeam::channel::bounded(1);
    // A server that stalls forever after signalling readiness.
    let server = domain.spawn(host, "stall", move |ctx| {
        let rx = ctx.receive().unwrap();
        let _ = ready_tx.send(());
        // Hold the transaction until killed.
        match ctx.receive() {
            Ok(_) | Err(_) => drop(rx),
        }
    });
    let d2 = domain.clone();
    let result = std::thread::spawn(move || {
        d2.client(host, move |ctx| {
            ctx.send(server, Message::request(RequestCode::Echo), Bytes::new(), 0)
        })
    });
    ready_rx.recv().unwrap();
    domain.kill(server);
    assert_eq!(result.join().unwrap().unwrap_err(), IpcError::ProcessDied);
}

#[test]
fn registry_rebinding_after_crash() {
    // Paper §4.2: a storage server recreated after a crash has a different
    // pid but is the same service.
    let domain = Domain::new();
    let host = domain.add_host();
    let v1 = domain.spawn(host, "svc1", |ctx| {
        ctx.set_pid(ServiceId::FILE_SERVER, Scope::Both);
        while ctx.receive().is_ok() {}
    });
    // Wait for registration.
    while domain
        .registry()
        .lookup(ServiceId::FILE_SERVER, Scope::Both, host)
        .is_none()
    {
        std::thread::yield_now();
    }
    domain.kill(v1);
    assert!(domain
        .registry()
        .lookup(ServiceId::FILE_SERVER, Scope::Both, host)
        .is_none());
    let v2 = domain.spawn(host, "svc2", |ctx| {
        ctx.set_pid(ServiceId::FILE_SERVER, Scope::Both);
        while ctx.receive().is_ok() {}
    });
    while domain
        .registry()
        .lookup(ServiceId::FILE_SERVER, Scope::Both, host)
        .is_none()
    {
        std::thread::yield_now();
    }
    let found = domain.client(host, |ctx| ctx.get_pid(ServiceId::FILE_SERVER, Scope::Both));
    assert_eq!(found, Some(v2));
    assert_ne!(v1, v2);
}

#[test]
fn get_pid_scopes_separate_local_and_public_servers() {
    let domain = Domain::new();
    let (a, b) = (domain.add_host(), domain.add_host());
    domain.spawn(a, "local-prefix", |ctx| {
        ctx.set_pid(ServiceId::CONTEXT_PREFIX, Scope::Local);
        while ctx.receive().is_ok() {}
    });
    // Wait for registration to land.
    while domain
        .registry()
        .lookup(ServiceId::CONTEXT_PREFIX, Scope::Both, a)
        .is_none()
    {
        std::thread::yield_now();
    }
    let from_a = domain.client(a, |ctx| ctx.get_pid(ServiceId::CONTEXT_PREFIX, Scope::Both));
    let from_b = domain.client(b, |ctx| ctx.get_pid(ServiceId::CONTEXT_PREFIX, Scope::Both));
    assert!(from_a.is_some());
    assert!(from_b.is_none(), "local-scope server must stay private");
}

#[test]
fn group_send_first_reply_wins() {
    let domain = Domain::new();
    let host = domain.add_host();
    let group = domain.client(host, |ctx| ctx.create_group());
    for tag in [1u16, 2, 3] {
        let g = group;
        domain.spawn(host, "member", move |ctx| {
            ctx.join_group(g).unwrap();
            ctx.set_pid(ServiceId::new(7000 + tag as u32), Scope::Both);
            while let Ok(rx) = ctx.receive() {
                let mut m = Message::ok();
                m.set_word(5, tag);
                ctx.reply(rx, m, Bytes::new()).ok();
            }
        });
    }
    // Wait until all three members joined.
    for tag in [1u32, 2, 3] {
        while domain
            .registry()
            .lookup(ServiceId::new(7000 + tag), Scope::Both, host)
            .is_none()
        {
            std::thread::yield_now();
        }
    }
    let reply = domain
        .client(host, move |ctx| {
            ctx.send_group(group, Message::request(RequestCode::Echo), Bytes::new())
        })
        .unwrap();
    assert_eq!(reply.msg.reply_code(), ReplyCode::Ok);
    assert!((1..=3).contains(&reply.msg.word(5)));
}

#[test]
fn group_send_with_no_members_errors() {
    let domain = Domain::new();
    let host = domain.add_host();
    let err = domain
        .client(host, |ctx| {
            let g = ctx.create_group();
            ctx.send_group(g, Message::request(RequestCode::Echo), Bytes::new())
        })
        .unwrap_err();
    assert_eq!(err, IpcError::NoReply);
}

#[test]
fn group_send_to_unknown_group_errors() {
    let domain = Domain::new();
    let host = domain.add_host();
    let err = domain
        .client(host, |ctx| {
            ctx.send_group(
                vkernel::GroupId(424242),
                Message::request(RequestCode::Echo),
                Bytes::new(),
            )
        })
        .unwrap_err();
    assert_eq!(err, IpcError::NoSuchGroup);
}

#[test]
fn many_concurrent_clients_are_all_served() {
    let domain = Domain::new();
    let host = domain.add_host();
    let server = domain.spawn(host, "echo", echo_server);
    let mut handles = Vec::new();
    for i in 0..32u32 {
        let d = domain.clone();
        handles.push(std::thread::spawn(move || {
            d.client(host, move |ctx| {
                let mut m = Message::request(RequestCode::Echo);
                m.set_word32(5, i);
                let r = ctx.send(server, m, Bytes::new(), 0).unwrap();
                r.msg.word32(5)
            })
        }));
    }
    let mut results: Vec<u32> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    results.sort_unstable();
    assert_eq!(results, (0..32).collect::<Vec<_>>());
}

#[test]
fn shutdown_terminates_servers_cleanly() {
    let domain = Domain::new();
    let host = domain.add_host();
    for _ in 0..4 {
        domain.spawn(host, "echo", echo_server);
    }
    domain.shutdown(); // must not hang
}

#[test]
fn thread_kernel_has_no_cost_model() {
    // Every 1984 millisecond lives on the virtual-time kernel.
    let domain = Domain::new();
    let host = domain.add_host();
    assert!(domain.client(host, |ctx| ctx.net().is_none()));
}

// ---- Rendezvous edge cases -------------------------------------------
//
// Each body runs under a watchdog, so a lost wake-up fails the test
// instead of stalling the run, and ends in `Domain::shutdown`, which in
// debug builds asserts that the invariant ledger holds no open transaction.

fn with_watchdog(body: impl FnOnce() + Send + 'static) {
    use std::sync::mpsc::{channel, RecvTimeoutError};
    const LIMIT: std::time::Duration = std::time::Duration::from_secs(120);
    let (done_tx, done_rx) = channel();
    let worker = std::thread::spawn(move || {
        body();
        let _ = done_tx.send(());
    });
    match done_rx.recv_timeout(LIMIT) {
        Ok(()) => worker.join().unwrap(),
        // The sender was dropped unsent: the body panicked.
        Err(RecvTimeoutError::Disconnected) => {
            std::panic::resume_unwind(worker.join().unwrap_err())
        }
        Err(RecvTimeoutError::Timeout) => panic!("rendezvous hung for {LIMIT:?}"),
    }
}

fn wait_for(domain: &Domain, host: vproto::LogicalHost, service: ServiceId) {
    while domain
        .registry()
        .lookup(service, Scope::Both, host)
        .is_none()
    {
        std::thread::yield_now();
    }
}

#[test]
fn late_group_reply_never_completes_the_next_transaction() {
    with_watchdog(|| {
        const MARK: u16 = 0xEC40;
        let domain = Domain::new();
        let host = domain.add_host();
        let group = domain.client(host, |ctx| ctx.create_group());
        for tag in [1u16, 2, 3] {
            domain.spawn(host, "member", move |ctx| {
                ctx.join_group(group).unwrap();
                ctx.set_pid(ServiceId::new(7100 + u32::from(tag)), Scope::Both);
                while let Ok(rx) = ctx.receive() {
                    let mut m = Message::ok();
                    m.set_word(5, tag);
                    ctx.reply(rx, m, Bytes::new()).ok();
                }
            });
            wait_for(&domain, host, ServiceId::new(7100 + u32::from(tag)));
        }
        // Unlike a group member's reply, the plain server's carries MARK
        // and the request's own word.
        let plain = domain.spawn(host, "plain", |ctx| {
            while let Ok(rx) = ctx.receive() {
                let mut m = rx.msg;
                m.set_word(6, MARK);
                ctx.reply(rx, m, Bytes::new()).ok();
            }
        });
        domain.client(host, move |ctx| {
            for i in 0..10_000u16 {
                let first = ctx
                    .send_group(group, Message::request(RequestCode::Echo), Bytes::new())
                    .unwrap();
                assert!((1..=3).contains(&first.msg.word(5)));
                // Two members' replies are still in flight here.
                let mut m = Message::request(RequestCode::Echo);
                m.set_word(5, 100 + i);
                let reply = ctx.send(plain, m, Bytes::new(), 0).unwrap();
                assert_eq!(
                    (reply.msg.word(5), reply.msg.word(6)),
                    (100 + i, MARK),
                    "round {i}: a stale group reply completed a later send"
                );
            }
        });
        domain.shutdown();
    });
}

#[test]
fn envelope_left_in_an_exited_process_mailbox_fails_its_sender() {
    with_watchdog(|| {
        let domain = Domain::new();
        let host = domain.add_host();
        // Forwarding to itself queues the envelope in the server's own
        // mailbox; the server then exits without ever receiving it.
        let server = domain.spawn(host, "quitter", |ctx| {
            let rx = ctx.receive().unwrap();
            let msg = rx.msg;
            ctx.forward(rx, ctx.my_pid(), msg).unwrap();
        });
        let err = domain
            .client(host, move |ctx| {
                ctx.send(server, Message::request(RequestCode::Echo), Bytes::new(), 0)
            })
            .unwrap_err();
        assert_eq!(err, IpcError::ProcessDied);
        domain.shutdown();
    });
}

#[test]
fn send_to_self_is_rejected() {
    // The envelope would sit in the sender's own mailbox while the sender
    // parks on its reply cell: neither the send nor the domain's teardown
    // could ever finish.
    with_watchdog(|| {
        let domain = Domain::new();
        let host = domain.add_host();
        let err = domain
            .client(host, |ctx| {
                ctx.send(
                    ctx.my_pid(),
                    Message::request(RequestCode::Echo),
                    Bytes::new(),
                    0,
                )
            })
            .unwrap_err();
        assert_eq!(err, IpcError::BadOperation("send to self would deadlock"));
        domain.shutdown();
    });
}

#[test]
fn send_racing_kill_resolves_and_never_blocks() {
    with_watchdog(|| {
        let domain = Domain::new();
        let host = domain.add_host();
        for round in 0..200 {
            let server = domain.spawn(host, "echo", echo_server);
            let (warm_tx, warm_rx) = crossbeam::channel::bounded(1);
            let d = domain.clone();
            let sender = std::thread::spawn(move || {
                d.client(host, move |ctx| {
                    let mut warm_tx = Some(warm_tx);
                    loop {
                        match ctx.send(server, Message::request(RequestCode::Echo), Bytes::new(), 0)
                        {
                            Ok(_) => {
                                if let Some(tx) = warm_tx.take() {
                                    let _ = tx.send(());
                                }
                            }
                            Err(e) => return e,
                        }
                    }
                })
            });
            // The kill lands while the client is somewhere inside its loop.
            warm_rx.recv().unwrap();
            domain.kill(server);
            let err = sender.join().unwrap();
            assert!(
                matches!(err, IpcError::NoProcess | IpcError::ProcessDied),
                "round {round}: {err:?}"
            );
        }
        domain.shutdown();
    });
}

#[test]
fn forward_chain_delivers_move_to_segments_in_hop_order() {
    with_watchdog(|| {
        let domain = Domain::new();
        let host = domain.add_host();
        let last = domain.spawn(host, "hop4", |ctx| {
            while let Ok(mut rx) = ctx.receive() {
                ctx.move_to(&mut rx, b"4-").unwrap();
                ctx.reply(rx, Message::ok(), Bytes::from_static(b"tail"))
                    .ok();
            }
        });
        let first = [b"3-", b"2-", b"1-"]
            .into_iter()
            .fold(last, |next, segment| {
                domain.spawn(host, "hop", move |ctx| {
                    while let Ok(mut rx) = ctx.receive() {
                        ctx.move_to(&mut rx, segment).unwrap();
                        let msg = rx.msg;
                        ctx.forward(rx, next, msg).ok();
                    }
                })
            });
        let reply = domain
            .client(host, move |ctx| {
                ctx.send(first, Message::request(RequestCode::Echo), Bytes::new(), 64)
            })
            .unwrap();
        assert_eq!(&reply.data[..], b"1-2-3-4-tail");
        domain.shutdown();
    });
}

#[test]
fn received_dropped_on_another_thread_unblocks_the_sender() {
    with_watchdog(|| {
        let domain = Domain::new();
        let host = domain.add_host();
        let (hand_tx, hand_rx) = crossbeam::channel::bounded::<vkernel::Received>(1);
        let dropper = std::thread::spawn(move || {
            while let Ok(rx) = hand_rx.recv() {
                drop(rx);
            }
        });
        let server = domain.spawn(host, "hander", move |ctx| {
            while let Ok(rx) = ctx.receive() {
                hand_tx.send(rx).unwrap();
            }
        });
        let err = domain
            .client(host, move |ctx| {
                ctx.send(server, Message::request(RequestCode::Echo), Bytes::new(), 0)
            })
            .unwrap_err();
        assert_eq!(err, IpcError::ProcessDied);
        // Shutting down drops the server's `hand_tx`, which ends the
        // dropper thread.
        domain.shutdown();
        dropper.join().unwrap();
    });
}
