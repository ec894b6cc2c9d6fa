//! Every message gets an answer. All nine servers, and the §2 baseline's
//! central name server and object store, run on the thread kernel and
//! receive arbitrary requests — known and unknown operation codes,
//! arbitrary words and payloads, CSname requests with arbitrary names and
//! indices — and every `send` must return, `Ok` or `Err`, before a watchdog
//! fires. The one request allowed to wait is a pipe read with nothing to
//! read; it must be answered once the case ends by releasing every instance
//! and removing every pipe.
//!
//! Beside the property, the rule `serve` keeps for a spent forward budget,
//! on the virtual-time kernel where a lost reply reads `Timeout`.

use bytes::Bytes;
use proptest::prelude::*;
use std::sync::mpsc;
use std::time::Duration;
use vcentral::{central_name_server, object_store};
use vkernel::{Domain, Ipc, SimDomain};
use vnaming::{build_csname_request, MAX_FORWARDS};
use vnet::{Params1984, Partition};
use vproto::{
    fields, ContextId, ContextPair, CsName, LogicalHost, Message, Pid, ReplyCode, RequestCode,
    Scope, ServiceId,
};
use vruntime::sync_status;
use vservers::{
    file_server, internet_server, mail_server, pipe_server, prefix_server, printer_server,
    program_manager, terminal_server, time_server, DegradedPrefixConfig, FileServerConfig,
    InternetConfig, MailConfig, PipeConfig, PrefixConfig, PrinterConfig, ProgramConfig,
    TerminalConfig, TimeConfig,
};

/// Long enough for any answer on a loaded machine.
const WATCHDOG: Duration = Duration::from_secs(20);
/// How long a pipe read gets to answer before it counts as parked.
const SETTLE: Duration = Duration::from_millis(50);
/// Room for the largest read the protocol can ask for.
const RECV_CAP: usize = 1 << 16;

/// Every request code the protocol defines, weighted towards the I/O
/// protocol and the CSname core; the strategy mixes in arbitrary codes too.
const CODES: [u16; 46] = [
    0x0001, 0x0002, 0x0003, 0x0004, 0x0005, 0x0006, 0x0007, 0x0008, 0x0009, 0x000A, 0x000B, 0x000C,
    0x000D, 0x000E, 0x000F, 0x0010, 0x0011, 0x8001, 0x8002, 0x8003, 0x8004, 0x8005, 0x8006, 0x8007,
    0x8008, 0x8009, 0x0002, 0x0002, 0x0002, 0x0003, 0x0003, 0x0003, 0x0004, 0x0005, 0x8001, 0x8002,
    0x8004, 0x8004, 0x8004, 0x8004, 0x8004, 0x8005, 0x8006, 0x8007, 0x8007, 0x8009,
];
/// Name bytes that mean something to some server: separators, prefix
/// brackets, mail and connection syntax, and the preloaded names.
const NAME_BYTES: &[u8] = b"ab/[]@:.1";

/// One arbitrary request.
#[derive(Debug, Clone)]
struct Request {
    code: u16,
    /// Words 1..16: context, name fields, instance, offset, count, ...
    words: Vec<u16>,
    name: Vec<u8>,
    extra: Vec<u8>,
    /// Overwrite the context (default or home) and the name-length and
    /// name-index words to match `name`, so CSname requests also get past
    /// parsing.
    well_formed: bool,
    index: usize,
}

impl Request {
    fn message(&self) -> (Message, Bytes) {
        let mut msg = Message::request_raw(self.code);
        for (i, w) in self.words.iter().enumerate() {
            msg.set_word(i + 1, *w);
        }
        if self.well_formed {
            msg.set_context_id(ContextId::new(u32::from(self.words[0] % 2)))
                .set_name_length(self.name.len() as u16)
                .set_name_index(self.index.min(self.name.len()) as u16);
        }
        (msg, [&self.name[..], &self.extra[..]].concat().into())
    }
}

fn request() -> impl Strategy<Value = Request> {
    // Mostly defined codes; mostly small words, so instance ids, modes and
    // offsets hit live state; mostly well-formed CSname fields.
    let code = (0..CODES.len() + 8, any::<u16>())
        .prop_map(|(i, raw)| CODES.get(i).copied().unwrap_or(raw));
    let word = (0u16..5, any::<u16>()).prop_map(|(w, raw)| if w < 4 { w } else { raw });
    let name_byte = (0..NAME_BYTES.len()).prop_map(|i| NAME_BYTES[i]);
    (
        code,
        collection::vec(word, 15),
        collection::vec(name_byte, 0..6),
        collection::vec(any::<u8>(), 0..24),
        (0..4).prop_map(|i| i != 0),
        0usize..14,
    )
        .prop_map(|(code, words, name, extra, well_formed, index)| Request {
            code,
            words,
            name,
            extra,
            well_formed,
            index,
        })
}

/// Spawns `server` and waits until it has registered `service`.
fn spawn(
    domain: &Domain,
    host: LogicalHost,
    service: ServiceId,
    server: impl FnOnce(&dyn Ipc) + Send + 'static,
) -> Pid {
    let pid = domain.spawn(host, "server", server);
    while domain
        .registry()
        .lookup(service, Scope::Both, host)
        .is_none()
    {
        std::thread::yield_now();
    }
    pid
}

/// Ten servers in one domain, so requests forward between them. The
/// pipe server gets a domain of its own: nothing can forward into it, so
/// every pipe a case creates is one the case itself named.
struct World {
    domain: Domain,
    host: LogicalHost,
    servers: Vec<(&'static str, Pid)>,
    pipes: Domain,
    pipe_host: LogicalHost,
    pipe: Pid,
}

impl World {
    fn boot() -> World {
        let domain = Domain::new();
        let host = domain.add_host();
        let fs = spawn(&domain, host, ServiceId::FILE_SERVER, |ctx| {
            let config = FileServerConfig {
                preload: vec![("a/b".into(), b"file".to_vec())],
                home: Some("a".into()),
                ..FileServerConfig::default()
            };
            file_server(ctx, config)
        });
        let prefix = spawn(&domain, host, ServiceId::CONTEXT_PREFIX, move |ctx| {
            let config = PrefixConfig {
                preload_direct: vec![("a".into(), ContextPair::new(fs, ContextId::DEFAULT))],
                preload_logical: vec![("b".into(), ServiceId::FILE_SERVER, ContextId::HOME)],
                degraded: Some(DegradedPrefixConfig::default()),
                ..PrefixConfig::default()
            };
            prefix_server(ctx, config)
        });
        let servers = vec![
            ("file", fs),
            ("prefix", prefix),
            (
                "terminal",
                spawn(&domain, host, ServiceId::TERMINAL_SERVER, |ctx| {
                    terminal_server(ctx, TerminalConfig::default())
                }),
            ),
            (
                "mail",
                spawn(&domain, host, ServiceId::MAIL_SERVER, |ctx| {
                    mail_server(ctx, MailConfig::new("a").with_peer("b", Pid::NULL))
                }),
            ),
            (
                "printer",
                spawn(&domain, host, ServiceId::PRINT_SERVER, |ctx| {
                    printer_server(ctx, PrinterConfig::default())
                }),
            ),
            (
                "internet",
                spawn(&domain, host, ServiceId::INTERNET_SERVER, |ctx| {
                    internet_server(ctx, InternetConfig::default())
                }),
            ),
            (
                "program",
                spawn(&domain, host, ServiceId::PROGRAM_MANAGER, |ctx| {
                    program_manager(ctx, ProgramConfig::default())
                }),
            ),
            (
                "time",
                spawn(&domain, host, ServiceId::TIME_SERVER, |ctx| {
                    time_server(ctx, TimeConfig::default())
                }),
            ),
            (
                "central name",
                spawn(&domain, host, ServiceId::CENTRAL_NAME_SERVER, |ctx| {
                    central_name_server(ctx)
                }),
            ),
            // The object store registers no service; nothing to wait for.
            ("object store", domain.spawn(host, "store", object_store)),
        ];
        let pipes = Domain::new();
        let pipe_host = pipes.add_host();
        let pipe = spawn(&pipes, pipe_host, ServiceId::PIPE_SERVER, |ctx| {
            pipe_server(ctx, PipeConfig::default())
        });
        World {
            domain,
            host,
            servers,
            pipes,
            pipe_host,
            pipe,
        }
    }

    fn check(&self, reqs: &[Request]) -> Result<(), String> {
        for &(server, pid) in &self.servers {
            answers_all(&self.domain, self.host, server, pid, reqs, |_| {})?;
        }
        let (pipe, named) = (self.pipe, named_pipes(reqs));
        let last_instance = reqs.len() as u16 + 1;
        answers_all(
            &self.pipes,
            self.pipe_host,
            "pipe",
            pipe,
            reqs,
            move |ctx| {
                for id in 1..=last_instance {
                    let mut release = Message::request(RequestCode::ReleaseInstance);
                    release.set_word(fields::W_IO_INSTANCE, id);
                    let _ = ctx.send(pipe, release, Bytes::new(), 0);
                }
                for (remove, payload) in named {
                    let _ = ctx.send(pipe, remove, payload, 0);
                }
            },
        )
    }
}

/// Each CSname request of the case, re-addressed as `RemoveObject` of the
/// name it carried: together they remove every pipe the case created.
fn named_pipes(reqs: &[Request]) -> Vec<(Message, Bytes)> {
    reqs.iter()
        .filter(|r| r.code & 0x8000 != 0)
        .map(|r| {
            let (mut msg, payload) = r.message();
            msg.set_word(0, RequestCode::RemoveObject.as_u16());
            (msg, payload)
        })
        .collect()
}

/// Sends `reqs` to `to` in order from one client process. A pipe read may
/// stay unanswered — it is sent from a process of its own — but once the
/// rest are sent and `cleanup` has run, it must be answered too.
fn answers_all(
    domain: &Domain,
    host: LogicalHost,
    server: &str,
    to: Pid,
    reqs: &[Request],
    cleanup: impl FnOnce(&dyn Ipc) + Send + 'static,
) -> Result<(), String> {
    let parks = server == "pipe";
    let (progress, sent) = mpsc::channel();
    let messages: Vec<_> = reqs.iter().map(Request::message).collect();
    let d = domain.clone();
    std::thread::spawn(move || {
        d.clone().client(host, move |ctx| {
            let mut parked = Vec::new();
            for (msg, payload) in messages {
                if parks && msg.request_code() == Some(RequestCode::ReadInstance) {
                    let (tx, answered) = mpsc::channel();
                    let d = d.clone();
                    std::thread::spawn(move || {
                        let _ =
                            tx.send(d.client(host, move |c| c.send(to, msg, payload, RECV_CAP)));
                    });
                    if answered.recv_timeout(SETTLE).is_err() {
                        parked.push(answered);
                    }
                } else {
                    let _ = ctx.send(to, msg, payload, RECV_CAP);
                }
                let _ = progress.send(true);
            }
            cleanup(ctx);
            let all = parked.iter().all(|p| p.recv_timeout(WATCHDOG).is_ok());
            let _ = progress.send(all);
        })
    });
    for req in reqs {
        if sent.recv_timeout(WATCHDOG).is_err() {
            return Err(format!("the {server} server never answered {req:?}"));
        }
    }
    match sent.recv_timeout(2 * WATCHDOG) {
        Ok(true) => Ok(()),
        _ => Err(format!("a parked {server} read outlived its pipe")),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn every_message_gets_an_answer(reqs in collection::vec(request(), 1..97)) {
        let world = World::boot();
        if let Err(e) = world.check(&reqs) {
            // A hung server cannot be joined: leak its domains.
            std::mem::forget(world);
            return Err(TestCaseError::fail(e));
        }
    }
}

/// A request whose forward budget is spent is answered `ForwardLoop`, and
/// the prefix server hears no verdict about the target it never contacted
/// — not even when that `ForwardLoop` reply is itself lost, which on the
/// virtual-time kernel reads `Timeout`: no suspicion is armed, the direct
/// entry stays live.
#[test]
fn a_spent_forward_budget_says_nothing_about_the_target() {
    let domain = SimDomain::new(Params1984::ethernet_3mbit());
    let (a, b) = (domain.add_host(), domain.add_host());
    let fs = domain.spawn(b, "fs", |ctx| file_server(ctx, FileServerConfig::default()));
    let pfx = domain.spawn(b, "prefix", move |ctx| {
        let config = PrefixConfig {
            preload_direct: vec![("fs".into(), ContextPair::new(fs, ContextId::DEFAULT))],
            degraded: Some(DegradedPrefixConfig::default()),
            ..PrefixConfig::default()
        };
        prefix_server(ctx, config)
    });
    let t0 = domain.run();
    // Replies from B to A are severed for a while, starting after the
    // first request has been answered.
    let cut = t0 + Duration::from_millis(50);
    domain.schedule_partition(Partition::one_way(
        b,
        a,
        cut,
        Some(cut + Duration::from_secs(5)),
    ));
    let outcome = domain.client(a, move |ctx| {
        // `QueryName [fs]` as if it had already been forwarded `hops` times.
        let query = |hops| {
            let name = CsName::from("[fs]");
            let (mut msg, payload) =
                build_csname_request(RequestCode::QueryName, ContextId::DEFAULT, &name, &[]);
            for _ in 0..hops {
                msg.bump_forward_count();
            }
            ctx.send(pfx, msg, payload, 0).map(|r| r.msg)
        };
        let answered = query(MAX_FORWARDS).map(|m| m.reply_code());
        ctx.sleep(Duration::from_millis(100));
        let lost = query(MAX_FORWARDS).map(|m| m.reply_code());
        ctx.sleep(Duration::from_secs(10));
        let status = sync_status(ctx, pfx);
        let resolved =
            query(0).map(|m| ContextPair::new(m.pid_at(fields::W_PID_LO), m.context_id()));
        (answered, lost, status, resolved)
    });
    let (answered, lost, status, resolved) = outcome.expect("the client finishes");
    assert_eq!(answered, Ok(ReplyCode::ForwardLoop));
    assert_eq!(lost, Err(vkernel::IpcError::Timeout), "the reply was lost");
    let status = status.expect("status");
    assert_eq!(
        status.suspects, 0,
        "no suspicion against an uncontacted host"
    );
    assert_eq!((status.live_entries, status.tombstones), (1, 0));
    assert_eq!(resolved, Ok(ContextPair::new(fs, ContextId::DEFAULT)));
}
