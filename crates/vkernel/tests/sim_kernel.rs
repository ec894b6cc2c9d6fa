//! Behavioural and timing tests for the virtual-time kernel: the paper's
//! primitive measurements, determinism, concurrency in virtual time, and
//! failure modes.

use bytes::Bytes;
use std::time::Duration;
use vkernel::{Ipc, IpcError, SimDomain};
use vnet::Params1984;
use vproto::{Message, RequestCode, Scope, ServiceId};

fn echo_server(ctx: &dyn Ipc) {
    while let Ok(rx) = ctx.receive() {
        let msg = rx.msg;
        ctx.reply(rx, msg, Bytes::new()).ok();
    }
}

fn micros(d: Duration) -> u64 {
    d.as_micros() as u64
}

#[test]
fn local_transaction_is_770_us() {
    let domain = SimDomain::new(Params1984::ethernet_3mbit());
    let host = domain.add_host();
    let server = domain.spawn(host, "echo", echo_server);
    let elapsed = domain
        .client(host, move |ctx| {
            let t0 = ctx.now();
            ctx.send(server, Message::request(RequestCode::Echo), Bytes::new(), 0)
                .unwrap();
            ctx.now() - t0
        })
        .unwrap();
    assert_eq!(micros(elapsed), 770);
}

#[test]
fn remote_transaction_is_2560_us() {
    let domain = SimDomain::new(Params1984::ethernet_3mbit());
    let (a, b) = (domain.add_host(), domain.add_host());
    let server = domain.spawn(b, "echo", echo_server);
    let elapsed = domain
        .client(a, move |ctx| {
            let t0 = ctx.now();
            ctx.send(server, Message::request(RequestCode::Echo), Bytes::new(), 0)
                .unwrap();
            ctx.now() - t0
        })
        .unwrap();
    assert_eq!(micros(elapsed), 2560);
}

#[test]
fn virtual_time_is_deterministic_across_runs() {
    let run_once = || {
        let domain = SimDomain::new(Params1984::ethernet_3mbit());
        let (a, b) = (domain.add_host(), domain.add_host());
        let server = domain.spawn(b, "echo", echo_server);
        for _ in 0..3 {
            domain
                .client(a, move |ctx| {
                    ctx.send(server, Message::request(RequestCode::Echo), Bytes::new(), 0)
                        .unwrap();
                })
                .unwrap();
        }
        domain.virtual_now().as_nanos()
    };
    let first = run_once();
    for _ in 0..5 {
        assert_eq!(run_once(), first);
    }
}

#[test]
fn sixty_four_kb_move_to_reproduces_program_load() {
    // Paper §3.1: 64 KB program load in 338 ms (data already in memory).
    let domain = SimDomain::new(Params1984::ethernet_3mbit());
    let (a, b) = (domain.add_host(), domain.add_host());
    let image = vec![0xABu8; 64 * 1024];
    let server = domain.spawn(b, "loader", move |ctx| {
        while let Ok(mut rx) = ctx.receive() {
            ctx.move_to(&mut rx, &image).unwrap();
            ctx.reply(rx, Message::ok(), Bytes::new()).ok();
        }
    });
    let elapsed = domain
        .client(a, move |ctx| {
            let t0 = ctx.now();
            let r = ctx
                .send(
                    server,
                    Message::request(RequestCode::Echo),
                    Bytes::new(),
                    64 * 1024,
                )
                .unwrap();
            assert_eq!(r.data.len(), 64 * 1024);
            ctx.now() - t0
        })
        .unwrap();
    let ms = elapsed.as_millis() as i64;
    assert!(
        (ms - 338).abs() <= 6,
        "program load took {ms} ms, paper reports 338 ms"
    );
}

#[test]
fn independent_pairs_overlap_in_virtual_time() {
    // Two disjoint client/server pairs each doing 10 remote transactions:
    // the domain finishes in ~the time of ONE pair, not the sum.
    let domain = SimDomain::new(Params1984::ethernet_3mbit());
    let (a, b, c, d) = (
        domain.add_host(),
        domain.add_host(),
        domain.add_host(),
        domain.add_host(),
    );
    let s1 = domain.spawn(b, "echo1", echo_server);
    let s2 = domain.spawn(d, "echo2", echo_server);
    for (client_host, server) in [(a, s1), (c, s2)] {
        domain.spawn(client_host, "driver", move |ctx| {
            for _ in 0..10 {
                ctx.send(server, Message::request(RequestCode::Echo), Bytes::new(), 0)
                    .unwrap();
            }
        });
    }
    let end = domain.run();
    let ms = end.as_millis_f64();
    // One pair needs 10 × 2.56 = 25.6 ms; serialized would be 51.2 ms.
    assert!(
        (25.0..27.0).contains(&ms),
        "virtual completion {ms} ms — pairs did not overlap"
    );
}

#[test]
fn forward_charges_an_extra_hop() {
    let domain = SimDomain::new(Params1984::ethernet_3mbit());
    let host = domain.add_host();
    let backend = domain.spawn(host, "backend", echo_server);
    let front = domain.spawn(host, "front", move |ctx| {
        while let Ok(rx) = ctx.receive() {
            let msg = rx.msg;
            ctx.forward(rx, backend, msg).ok();
        }
    });
    let direct = domain
        .client(host, move |ctx| {
            let t0 = ctx.now();
            ctx.send(
                backend,
                Message::request(RequestCode::Echo),
                Bytes::new(),
                0,
            )
            .unwrap();
            ctx.now() - t0
        })
        .unwrap();
    let forwarded = domain
        .client(host, move |ctx| {
            let t0 = ctx.now();
            ctx.send(front, Message::request(RequestCode::Echo), Bytes::new(), 0)
                .unwrap();
            ctx.now() - t0
        })
        .unwrap();
    // One extra local hop: 385 µs.
    assert_eq!(micros(forwarded) - micros(direct), 385);
}

#[test]
fn move_from_is_costlier_for_remote_senders() {
    let domain = SimDomain::new(Params1984::ethernet_3mbit());
    let (a, b) = (domain.add_host(), domain.add_host());
    let server = domain.spawn(b, "reader", |ctx| {
        while let Ok(rx) = ctx.receive() {
            let t0 = ctx.now();
            ctx.move_from(&rx).unwrap();
            let cost = ctx.now() - t0;
            let mut m = Message::ok();
            m.set_word32(5, cost.as_micros() as u32);
            ctx.reply(rx, m, Bytes::new()).ok();
        }
    });
    let cost_of = |client_host| {
        let domain = domain.clone();
        domain
            .client(client_host, move |ctx| {
                let r = ctx
                    .send(
                        server,
                        Message::request(RequestCode::Echo),
                        Bytes::from_static(b"0123456789abcdef"),
                        0,
                    )
                    .unwrap();
                r.msg.word32(5)
            })
            .unwrap()
    };
    let remote = cost_of(a);
    let local = cost_of(b);
    assert!(remote > local, "remote {remote} µs vs local {local} µs");
    // The remote fetch is the calibrated 700 µs plus the copy.
    assert!(remote >= 700, "remote fetch {remote} µs");
}

#[test]
fn get_pid_broadcast_costs_more_than_local_hit() {
    let domain = SimDomain::new(Params1984::ethernet_3mbit());
    let (a, b) = (domain.add_host(), domain.add_host());
    domain.spawn(a, "local-svc", |ctx| {
        ctx.set_pid(ServiceId::TIME_SERVER, Scope::Both);
        while ctx.receive().is_ok() {}
    });
    domain.spawn(b, "remote-svc", |ctx| {
        ctx.set_pid(ServiceId::PRINT_SERVER, Scope::Both);
        while ctx.receive().is_ok() {}
    });
    domain.run();
    let (t_local, t_remote) = domain
        .client(a, |ctx| {
            let t0 = ctx.now();
            ctx.get_pid(ServiceId::TIME_SERVER, Scope::Both).unwrap();
            let t1 = ctx.now();
            ctx.get_pid(ServiceId::PRINT_SERVER, Scope::Both).unwrap();
            let t2 = ctx.now();
            (t1 - t0, t2 - t1)
        })
        .unwrap();
    assert!(
        t_remote > t_local * 10,
        "broadcast {t_remote:?} should dwarf local probe {t_local:?}"
    );
}

#[test]
fn killed_server_fails_blocked_sender() {
    let domain = SimDomain::new(Params1984::ethernet_3mbit());
    let host = domain.add_host();
    // A server that receives but never replies.
    let server = domain.spawn(host, "sink", |ctx| {
        let mut held = Vec::new();
        while let Ok(rx) = ctx.receive() {
            held.push(rx);
        }
    });
    let result = std::sync::Arc::new(parking_lot::Mutex::new(None));
    let out = std::sync::Arc::clone(&result);
    domain.spawn(host, "victim", move |ctx| {
        let r = ctx.send(server, Message::request(RequestCode::Echo), Bytes::new(), 0);
        *out.lock() = Some(r);
    });
    domain.run(); // server holds the transaction; victim blocked
    domain.kill(server);
    domain.run();
    let got = result.lock().take();
    // Either the kill-path error or the Drop-path error is acceptable; the
    // sender must be unblocked with a failure.
    match got {
        Some(Err(IpcError::ProcessDied)) => {}
        other => panic!("expected ProcessDied, got {other:?}"),
    }
}

#[test]
fn group_send_first_reply_wins_and_costs_multicast() {
    let domain = SimDomain::new(Params1984::ethernet_3mbit());
    let hosts: Vec<_> = (0..4).map(|_| domain.add_host()).collect();
    let group = {
        // Create group from a setup process.
        let (tx, rx) = crossbeam::channel::bounded(1);
        domain.spawn(hosts[0], "setup", move |ctx| {
            let _ = tx.send(ctx.create_group());
        });
        domain.run();
        rx.recv().unwrap()
    };
    for (i, &h) in hosts.iter().enumerate().skip(1) {
        let delay = Duration::from_millis(i as u64); // member i replies after i ms
        domain.spawn(h, "member", move |ctx| {
            ctx.join_group(group).unwrap();
            while let Ok(rx) = ctx.receive() {
                ctx.sleep(delay);
                let mut m = Message::ok();
                m.set_word(5, i as u16);
                ctx.reply(rx, m, Bytes::new()).ok();
            }
        });
    }
    domain.run();
    let winner = domain
        .client(hosts[0], move |ctx| {
            let r = ctx
                .send_group(group, Message::request(RequestCode::Echo), Bytes::new())
                .unwrap();
            r.msg.word(5)
        })
        .unwrap();
    // The fastest member (index 1, 1 ms think time) must win.
    assert_eq!(winner, 1);
}

#[test]
fn ten_mbit_network_is_faster_than_three() {
    let time_for = |params: Params1984| {
        let domain = SimDomain::new(params);
        let (a, b) = (domain.add_host(), domain.add_host());
        let server = domain.spawn(b, "echo", echo_server);
        domain
            .client(a, move |ctx| {
                let t0 = ctx.now();
                ctx.send(
                    server,
                    Message::request(RequestCode::Echo),
                    Bytes::from(vec![0u8; 1024]),
                    0,
                )
                .unwrap();
                ctx.now() - t0
            })
            .unwrap()
    };
    assert!(time_for(Params1984::ethernet_10mbit()) < time_for(Params1984::ethernet_3mbit()));
}

#[test]
fn sleep_orders_processes_by_wake_time() {
    let domain = SimDomain::new(Params1984::ethernet_3mbit());
    let host = domain.add_host();
    let log = std::sync::Arc::new(parking_lot::Mutex::new(Vec::new()));
    for (name, delay_ms) in [("slow", 30u64), ("fast", 10), ("mid", 20)] {
        let log = std::sync::Arc::clone(&log);
        domain.spawn(host, name, move |ctx| {
            ctx.sleep(Duration::from_millis(delay_ms));
            log.lock().push(delay_ms);
        });
    }
    domain.run();
    assert_eq!(*log.lock(), vec![10, 20, 30]);
}

#[test]
fn send_under_certain_loss_times_out_with_exact_ladder_cost() {
    // loss_p = 1.0: every remote transmission is lost; the kernel walks
    // its whole retransmission ladder and surfaces Timeout, charging the
    // sender exactly the ladder's give-up cost: 5 + 10 + 20 + 40 + 80 ms.
    use vnet::FaultConfig;
    let cfg = FaultConfig::lossless(7).with_loss(1.0);
    let domain = SimDomain::with_faults(Params1984::ethernet_3mbit(), cfg);
    let (a, b) = (domain.add_host(), domain.add_host());
    let server = domain.spawn(b, "echo", echo_server);
    let (err, elapsed) = domain
        .client(a, move |ctx| {
            let t0 = ctx.now();
            let err = ctx
                .send(server, Message::request(RequestCode::Echo), Bytes::new(), 0)
                .unwrap_err();
            (err, ctx.now() - t0)
        })
        .unwrap();
    assert_eq!(err, IpcError::Timeout);
    assert_eq!(elapsed, Duration::from_millis(155));
    let stats = domain.fault_stats();
    assert_eq!(stats.exhausted, 1);
    assert_eq!(stats.retransmits, 0);
}

#[test]
fn local_sends_are_immune_to_loss() {
    // The fault plane models the network: same-host transactions never
    // traverse it and succeed even at loss_p = 1.0.
    use vnet::FaultConfig;
    let domain = SimDomain::with_faults(
        Params1984::ethernet_3mbit(),
        FaultConfig::lossless(7).with_loss(1.0),
    );
    let host = domain.add_host();
    let server = domain.spawn(host, "echo", echo_server);
    let elapsed = domain
        .client(host, move |ctx| {
            let t0 = ctx.now();
            ctx.send(server, Message::request(RequestCode::Echo), Bytes::new(), 0)
                .unwrap();
            ctx.now() - t0
        })
        .unwrap();
    assert_eq!(micros(elapsed), 770);
    assert_eq!(domain.fault_stats().drops, 0);
}

#[test]
fn scheduled_crash_fires_at_its_virtual_time() {
    let domain = SimDomain::new(Params1984::ethernet_3mbit());
    let host = domain.add_host();
    let server = domain.spawn(host, "echo", echo_server);
    let t0 = domain.run();
    domain.schedule_crash(server, t0 + Duration::from_millis(50));
    let (before, after) = domain
        .client(host, move |ctx| {
            // Before the crash time the server answers...
            let before = ctx
                .send(server, Message::request(RequestCode::Echo), Bytes::new(), 0)
                .is_ok();
            // ...after it, the pid is gone.
            ctx.sleep(Duration::from_millis(100));
            let after = ctx.send(server, Message::request(RequestCode::Echo), Bytes::new(), 0);
            (before, after)
        })
        .unwrap();
    assert!(before, "server must be alive before its crash time");
    assert!(
        matches!(after, Err(IpcError::NoProcess | IpcError::ProcessDied)),
        "server must be dead after its crash time: {after:?}"
    );
}

#[test]
fn group_send_fails_over_when_a_member_crashes_mid_transaction() {
    // Two group members: the fast one receives the multicast and then
    // crashes (at a scheduled virtual time) while holding the transaction;
    // the surviving member's reply must still resolve the sender — the
    // deliver()/dead-target path masks the death (paper §7).
    let domain = SimDomain::new(Params1984::ethernet_3mbit());
    let hosts: Vec<_> = (0..3).map(|_| domain.add_host()).collect();
    let group = {
        let (tx, rx) = crossbeam::channel::bounded(1);
        domain.spawn(hosts[0], "setup", move |ctx| {
            let _ = tx.send(ctx.create_group());
        });
        domain.run();
        rx.recv().unwrap()
    };
    // Member 1 ("doomed"): replies only after a 1 s think time — it will
    // be crashed long before that while the transaction is outstanding.
    let doomed = domain.spawn(hosts[1], "doomed", move |ctx| {
        ctx.join_group(group).unwrap();
        while let Ok(rx) = ctx.receive() {
            ctx.sleep(Duration::from_secs(1));
            let mut m = Message::ok();
            m.set_word(5, 1);
            ctx.reply(rx, m, Bytes::new()).ok();
        }
    });
    // Member 2 ("survivor"): replies after 50 ms.
    domain.spawn(hosts[2], "survivor", move |ctx| {
        ctx.join_group(group).unwrap();
        while let Ok(rx) = ctx.receive() {
            ctx.sleep(Duration::from_millis(50));
            let mut m = Message::ok();
            m.set_word(5, 2);
            ctx.reply(rx, m, Bytes::new()).ok();
        }
    });
    let t0 = domain.run();
    domain.schedule_crash(doomed, t0 + Duration::from_millis(20));
    let winner = domain
        .client(hosts[0], move |ctx| {
            ctx.send_group(group, Message::request(RequestCode::Echo), Bytes::new())
                .map(|r| r.msg.word(5))
        })
        .unwrap();
    assert_eq!(winner, Ok(2), "the surviving member must answer");
}

#[test]
fn group_send_fails_cleanly_when_every_member_crashes_mid_transaction() {
    let domain = SimDomain::new(Params1984::ethernet_3mbit());
    let hosts: Vec<_> = (0..2).map(|_| domain.add_host()).collect();
    let group = {
        let (tx, rx) = crossbeam::channel::bounded(1);
        domain.spawn(hosts[0], "setup", move |ctx| {
            let _ = tx.send(ctx.create_group());
        });
        domain.run();
        rx.recv().unwrap()
    };
    let member = domain.spawn(hosts[1], "member", move |ctx| {
        ctx.join_group(group).unwrap();
        while let Ok(rx) = ctx.receive() {
            ctx.sleep(Duration::from_secs(1));
            ctx.reply(rx, Message::ok(), Bytes::new()).ok();
        }
    });
    let t0 = domain.run();
    domain.schedule_crash(member, t0 + Duration::from_millis(20));
    let res = domain
        .client(hosts[0], move |ctx| {
            ctx.send_group(group, Message::request(RequestCode::Echo), Bytes::new())
                .map(|r| r.msg.word(5))
        })
        .unwrap();
    assert!(res.is_err(), "no member left to answer: {res:?}");
}

#[test]
fn send_to_self_is_rejected() {
    let domain = SimDomain::new(Params1984::ethernet_3mbit());
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
        .unwrap()
        .unwrap_err();
    assert_eq!(err, IpcError::BadOperation("send to self would deadlock"));
}

// ---- The baton's wake paths --------------------------------------------
//
// A baton pass wakes exactly one thread: the next holder. Nothing else is
// woken when a process is killed, a crash is scheduled or a `Received` is
// dropped, because none of those changes who holds the baton. Each test
// below runs under a watchdog, so a lost wake-up fails it instead of
// stalling the run, and ends by dropping its domain, which joins every
// process thread and, in debug builds, asserts that the invariant ledger
// holds no open transaction.

fn with_watchdog(body: impl FnOnce() + Send + 'static) {
    use std::sync::mpsc::{channel, RecvTimeoutError};
    const LIMIT: Duration = Duration::from_secs(20);
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
        Err(RecvTimeoutError::Timeout) => panic!("the sim kernel hung for {LIMIT:?}"),
    }
}

/// Sends a message on `tx` when dropped: when the process body owning it
/// returns, or its thread ends without running it.
struct OnDrop(std::sync::mpsc::Sender<()>);

impl Drop for OnDrop {
    fn drop(&mut self) {
        let _ = self.0.send(());
    }
}

fn echo_once(
    domain: &SimDomain,
    host: vproto::LogicalHost,
    to: vproto::Pid,
) -> Result<(), IpcError> {
    domain
        .client(host, move |ctx| {
            ctx.send(to, Message::request(RequestCode::Echo), Bytes::new(), 0)
                .map(drop)
        })
        .expect("client ran")
}

#[test]
fn killing_a_process_parked_in_receive() {
    with_watchdog(|| {
        let domain = SimDomain::new(Params1984::ethernet_3mbit());
        let host = domain.add_host();
        let (gone_tx, gone_rx) = std::sync::mpsc::channel();
        let server = domain.spawn(host, "echo", move |ctx| {
            let _gone = OnDrop(gone_tx);
            echo_server(ctx);
        });
        let other = domain.spawn(host, "other", echo_server);
        assert_eq!(echo_once(&domain, host, server), Ok(()));
        // The server is parked in `receive`; killing it wakes nobody.
        domain.kill(server);
        assert_eq!(echo_once(&domain, host, server), Err(IpcError::NoProcess));
        assert_eq!(echo_once(&domain, host, other), Ok(()));
        assert!(gone_rx.try_recv().is_err(), "parked until shutdown");
        drop(domain);
        gone_rx
            .try_recv()
            .expect("shutdown reached the killed thread");
    });
}

#[test]
fn killing_a_process_that_was_never_scheduled() {
    with_watchdog(|| {
        let domain = SimDomain::new(Params1984::ethernet_3mbit());
        let host = domain.add_host();
        let ran = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
        let flag = std::sync::Arc::clone(&ran);
        let (gone_tx, gone_rx) = std::sync::mpsc::channel();
        let gone = OnDrop(gone_tx);
        let doomed = domain.spawn(host, "doomed", move |_| {
            let _gone = gone;
            flag.store(true, std::sync::atomic::Ordering::SeqCst);
        });
        domain.kill(doomed);
        let server = domain.spawn(host, "echo", echo_server);
        assert_eq!(echo_once(&domain, host, server), Ok(()));
        assert_eq!(echo_once(&domain, host, doomed), Err(IpcError::NoProcess));
        drop(domain);
        // Its thread was parked waiting for a first turn that never came;
        // shutdown ended it without running the body.
        gone_rx.try_recv().expect("the unstarted thread ended");
        assert!(!ran.load(std::sync::atomic::Ordering::SeqCst));
    });
}

#[test]
fn a_crash_behind_a_killed_ready_process_still_fires() {
    with_watchdog(|| {
        let domain = SimDomain::new(Params1984::ethernet_3mbit());
        let host = domain.add_host();
        let server = domain.spawn(host, "echo", echo_server);
        let t0 = domain.run();
        // The killed process leaves a stale entry in the ready queue, ahead
        // of the crash; `run()` must skip it and still execute the crash.
        let doomed = domain.spawn(host, "doomed", |_| {});
        domain.kill(doomed);
        domain.schedule_crash(server, t0 + Duration::from_millis(5));
        domain.run();
        assert_eq!(echo_once(&domain, host, server), Err(IpcError::NoProcess));
    });
}

#[test]
fn scheduled_crash_of_a_parked_server_while_run_drives_a_client() {
    with_watchdog(|| {
        let domain = SimDomain::new(Params1984::ethernet_3mbit());
        let (a, b) = (domain.add_host(), domain.add_host());
        let server = domain.spawn(b, "echo", echo_server);
        domain.run();
        let (started_tx, started_rx) = std::sync::mpsc::channel();
        let (result_tx, result_rx) = std::sync::mpsc::channel();
        domain.spawn(a, "client", move |ctx| {
            let mut answered = 0u32;
            let err = loop {
                match ctx.send(server, Message::request(RequestCode::Echo), Bytes::new(), 0) {
                    Ok(_) => answered += 1,
                    Err(e) => break e,
                }
                if answered == 1 {
                    let _ = started_tx.send(());
                }
                // Between sends the server is parked in `receive`.
                ctx.sleep(Duration::from_millis(1));
            };
            let _ = result_tx.send((answered, err));
        });
        let driver = {
            let domain = domain.clone();
            std::thread::spawn(move || domain.run())
        };
        started_rx.recv().expect("the client is running");
        domain.schedule_crash(server, domain.virtual_now() + Duration::from_millis(5));
        driver
            .join()
            .expect("run() returned once the client gave up");
        let (answered, err) = result_rx.recv().expect("the client finished");
        assert!(answered >= 1);
        assert!(
            matches!(err, IpcError::NoProcess | IpcError::ProcessDied),
            "{err:?}"
        );
        drop(domain);
    });
}

#[test]
fn received_dropped_on_a_foreign_thread_resumes_the_sender_on_next_run() {
    with_watchdog(|| {
        let domain = SimDomain::new(Params1984::ethernet_3mbit());
        let host = domain.add_host();
        let (held_tx, held_rx) = std::sync::mpsc::channel();
        let server = domain.spawn(host, "smuggler", move |ctx| {
            while let Ok(rx) = ctx.receive() {
                let _ = held_tx.send(rx);
            }
        });
        let (result_tx, result_rx) = std::sync::mpsc::channel();
        domain.spawn(host, "client", move |ctx| {
            let r = ctx.send(server, Message::request(RequestCode::Echo), Bytes::new(), 0);
            let _ = result_tx.send(r.map(drop));
        });
        domain.run();
        let rx = held_rx.recv().expect("the server handed the request out");
        assert!(result_rx.try_recv().is_err(), "the sender is blocked");
        // Dropped on this thread, outside the simulation: the sender is
        // made ready, and nobody is woken until a driver runs the domain.
        std::thread::spawn(move || drop(rx)).join().unwrap();
        domain.run();
        assert_eq!(result_rx.recv(), Ok(Err(IpcError::ProcessDied)));
        drop(domain);
    });
}

#[test]
fn dropping_a_domain_with_killed_parked_threads() {
    with_watchdog(|| {
        const SERVERS: usize = 16;
        let domain = SimDomain::new(Params1984::ethernet_3mbit());
        let host = domain.add_host();
        let (gone_tx, gone_rx) = std::sync::mpsc::channel();
        let servers: Vec<_> = (0..SERVERS)
            .map(|_| {
                let gone = OnDrop(gone_tx.clone());
                domain.spawn(host, "echo", move |ctx| {
                    let _gone = gone;
                    echo_server(ctx);
                })
            })
            .collect();
        drop(gone_tx);
        domain.run();
        for &server in &servers {
            domain.kill(server);
        }
        drop(domain);
        assert_eq!(gone_rx.try_iter().count(), SERVERS);
    });
}

/// Wall time per echo transaction to `to`, over one round of a few
/// transactions: short enough that a kernel paying milliseconds per pass
/// still fails the test below in seconds.
fn wall_ns_per_txn(domain: &SimDomain, host: vproto::LogicalHost, to: vproto::Pid) -> f64 {
    const PER_ROUND: u32 = 50;
    domain
        .client(host, move |ctx| {
            let t0 = std::time::Instant::now();
            for _ in 0..PER_ROUND {
                ctx.send(to, Message::request(RequestCode::Echo), Bytes::new(), 0)
                    .unwrap();
            }
            t0.elapsed().as_nanos() as f64 / f64::from(PER_ROUND)
        })
        .expect("client ran")
}

#[test]
fn transaction_wall_time_does_not_grow_with_parked_processes() {
    const BYSTANDERS: usize = 512;
    const ROUNDS: usize = 9;
    let world = |bystanders: usize| {
        let domain = SimDomain::new(Params1984::ethernet_3mbit());
        let host = domain.add_host();
        for _ in 0..bystanders {
            domain.spawn(host, "bystander", echo_server);
        }
        let echo = domain.spawn(host, "echo", echo_server);
        domain.run();
        (domain, host, echo)
    };
    let (quiet, crowded) = (world(0), world(BYSTANDERS));
    let (mut best_quiet, mut best_crowded) = (f64::MAX, f64::MAX);
    // Alternate the two worlds so both see the same machine, and keep each
    // one's fastest round so a preempted round does not count.
    for _ in 0..ROUNDS {
        best_quiet = best_quiet.min(wall_ns_per_txn(&quiet.0, quiet.1, quiet.2));
        best_crowded = best_crowded.min(wall_ns_per_txn(&crowded.0, crowded.1, crowded.2));
    }
    let ratio = best_crowded / best_quiet;
    assert!(
        ratio <= 10.0,
        "{BYSTANDERS} parked processes make a transaction {ratio:.1}x slower \
         ({best_crowded:.0} vs {best_quiet:.0} ns): a baton pass wakes bystanders"
    );
}
