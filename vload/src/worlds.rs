//! The worlds the workloads run against: real servers on the thread
//! kernel, booted through the repository's public functions only.

use crate::load::{binding_of, churn_context, churn_preloaded, NameTable};
use bytes::Bytes;
use vkernel::{Domain, Ipc};
use vproto::{fields, ContextId, ContextPair, LogicalHost, Message, Pid, Scope, ServiceId};
use vservers::{file_server, prefix_server, FileServerConfig, PrefixConfig};

/// How big a run is. `--smoke` shrinks every table and ring so the whole
/// suite runs in seconds under a debug build; smoke numbers mean nothing
/// and are never reported.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Names preloaded into the prefix table.
    pub table: u32,
    /// Names in the churn set of `churn_mixed`.
    pub churn: u32,
    /// Operations pre-generated per ring.
    pub ring: usize,
    /// Operations a simulated world serves before it is rebooted.
    pub sim_world_ops: usize,
    /// Iterations per round of a layer micro-timer.
    pub layer_iters: usize,
}

impl Scale {
    pub const FULL: Scale = Scale {
        table: 1_000_000,
        churn: 4096,
        ring: 1 << 20,
        sim_world_ops: 2000,
        layer_iters: 2000,
    };
    pub const SMOKE: Scale = Scale {
        table: 10_000,
        churn: 64,
        ring: 1 << 12,
        sim_world_ops: 50,
        layer_iters: 20,
    };
}

/// Prefixes and files of the `open_forward` world (the paper's §6 set-up
/// at per-user scale: the whole prefix table fits in cache).
pub const OPEN_PREFIXES: u32 = 1000;
pub const OPEN_FILES: u32 = 64;

/// The pid every churn binding names; never sent to.
pub const CHURN_PID: Pid = Pid::from_raw(0x0001_00C5);

/// The binding churn name `i` carries before the stream first touches it.
pub fn churn_initial(i: u32) -> ContextPair {
    ContextPair::new(CHURN_PID, ContextId::new(churn_context(i, 0)))
}

/// The bindings a table world's prefix server boots with: every base name,
/// plus — when the world is `churn_mixed`'s — the churn names the first
/// deletes expect to find. One function, so the live server and the
/// benchmark-owned replay table hold identical contents.
pub fn table_entries(scale: Scale, churn_seed: Option<u64>) -> Vec<(String, ContextPair)> {
    let names = NameTable::new('n', scale.table);
    let mut entries: Vec<(String, ContextPair)> = (0..scale.table)
        .map(|i| (names.get(i).to_string(), binding_of(i)))
        .collect();
    if let Some(seed) = churn_seed {
        let churn = NameTable::new('c', scale.churn);
        entries.extend(
            churn_preloaded(seed, scale.churn)
                .into_iter()
                .map(|i| (churn.get(i).to_string(), churn_initial(i))),
        );
    }
    entries
}

fn wait_for_prefix_server(domain: &Domain, host: LogicalHost) {
    // The server registers only after its table is loaded, so a hit here
    // also means the preload is done.
    while domain
        .registry()
        .lookup(ServiceId::CONTEXT_PREFIX, Scope::Both, host)
        .is_none()
    {
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
}

/// A prefix server holding a large preloaded table, and nothing else.
pub struct TableWorld {
    pub domain: Domain,
    pub host: LogicalHost,
    pub prefix: Pid,
}

pub fn boot_table_world(entries: Vec<(String, ContextPair)>) -> TableWorld {
    let domain = Domain::new();
    let host = domain.add_host();
    let prefix = domain.spawn(host, "prefix", move |ctx| {
        prefix_server(
            ctx,
            PrefixConfig {
                preload_direct: entries,
                ..PrefixConfig::default()
            },
        )
    });
    wait_for_prefix_server(&domain, host);
    TableWorld {
        domain,
        host,
        prefix,
    }
}

/// The paper's §6 measurement set-up: a workstation with its prefix
/// server and a local file server, and a second file server on another
/// machine; prefixes bound alternately to the two.
pub struct OpenWorld {
    pub domain: Domain,
    pub host: LogicalHost,
    pub prefix: Pid,
    /// `servers[p % 2]` implements prefix `p`.
    pub servers: [Pid; 2],
}

/// Size of file `f` on server `s`: distinct for every (server, file), so
/// the size an open reports identifies which object was really opened.
pub fn open_file_size(s: u32, f: u32) -> u64 {
    u64::from(16 + f + OPEN_FILES * s)
}

pub fn open_file_path(f: u32) -> String {
    format!("d0/d1/f{f:02}.txt")
}

pub fn boot_open_world() -> OpenWorld {
    let domain = Domain::new();
    let host = domain.add_host();
    let machine_b = domain.add_host();
    let servers = [(host, "local-fs"), (machine_b, "remote-fs")];
    let servers: [Pid; 2] = std::array::from_fn(|s| {
        let (on, name) = servers[s];
        let preload = (0..OPEN_FILES)
            .map(|f| {
                (
                    open_file_path(f),
                    vec![b'v'; open_file_size(s as u32, f) as usize],
                )
            })
            .collect();
        domain.spawn(on, name, move |ctx| {
            file_server(
                ctx,
                FileServerConfig {
                    service_scope: None,
                    preload,
                    ..FileServerConfig::default()
                },
            )
        })
    });
    let preload_direct = (0..OPEN_PREFIXES)
        .map(|p| {
            (
                format!("p{p:04}"),
                ContextPair::new(servers[(p % 2) as usize], ContextId::DEFAULT),
            )
        })
        .collect();
    let prefix = domain.spawn(host, "prefix", move |ctx| {
        prefix_server(
            ctx,
            PrefixConfig {
                preload_direct,
                ..PrefixConfig::default()
            },
        )
    });
    wait_for_prefix_server(&domain, host);
    OpenWorld {
        domain,
        host,
        prefix,
        servers,
    }
}

/// Message word in which a client tells an [`echo_server`] how many bytes
/// of reply data it wants.
pub const W_ECHO_REPLY_LEN: usize = fields::W_SIZE_LO;

/// A benchmark-owned process that does only what the kernel makes every
/// server do: receive, read the sender's segment if there is one, reply
/// with as many bytes as asked for. What a transaction to it costs is the
/// kernel's share of a transaction of that shape to a real server.
pub fn echo_server(ctx: &dyn Ipc) {
    let data = [0u8; 4096];
    while let Ok(rx) = ctx.receive() {
        if rx.payload_len() > 0 && ctx.move_from(&rx).is_err() {
            continue;
        }
        let want = usize::from(rx.msg.word(W_ECHO_REPLY_LEN)).min(data.len());
        // Copied into a fresh buffer per reply, as every real server's is.
        let _ = ctx.reply(rx, Message::ok(), Bytes::copy_from_slice(&data[..want]));
    }
}

/// A process that forwards everything to `to` — the prefix server's
/// kernel-visible behaviour with the naming work taken out.
pub fn forward_server(ctx: &dyn Ipc, to: Pid) {
    while let Ok(rx) = ctx.receive() {
        let msg = rx.msg;
        let _ = ctx.forward(rx, to, msg);
    }
}
