//! A standard simulated V installation used by several experiments:
//! a diskless workstation (client + per-user prefix server + local file
//! server) and a remote server machine, on one simulated Ethernet.

use std::time::Duration;
use vkernel::{GroupId, Ipc, SimDomain};
use vnet::{FaultConfig, Params1984};
use vproto::{ContextId, ContextPair, LogicalHost, Pid, Scope};
use vruntime::NameClient;
use vservers::{file_server, prefix_server, DegradedPrefixConfig, FileServerConfig, PrefixConfig};

/// The simulated installation.
pub struct SimWorld {
    /// The virtual-time domain.
    pub domain: SimDomain,
    /// The user's workstation.
    pub workstation: LogicalHost,
    /// The remote server machine.
    pub server_machine: LogicalHost,
    /// The per-user context prefix server (on the workstation).
    pub prefix: Pid,
    /// A file server on the workstation ("adding a disk and local file
    /// server process to a workstation requires no changes" — paper §3).
    pub local_fs: Pid,
    /// The network file server.
    pub remote_fs: Pid,
    /// Every prefix replica ([`WorldConfig::replicas`]), the preloaded one
    /// first, all members of `replica_group`.
    pub replicas: Vec<Pid>,
    /// The multicast group the replicas answer on, for
    /// [`vruntime::NameClient::set_replica_group`].
    pub replica_group: Option<GroupId>,
}

/// Configuration for [`boot_world_cfg`]: the standard world plus the
/// robustness knobs EXP-12…14 turn (degraded-mode prefix resolution and
/// prefix replicas on the server machine). With `degraded: None` and
/// `replicas: 0` the boot is identical to [`boot_world_with`].
#[derive(Debug, Clone)]
pub struct WorldConfig {
    /// The calibrated network cost model.
    pub params: Params1984,
    /// Seeded fault plane; `None` keeps timings bit-identical to
    /// [`boot_world`].
    pub faults: Option<FaultConfig>,
    /// Degraded-mode settings for the workstation's (authoritative)
    /// prefix server.
    pub degraded: Option<DegradedPrefixConfig>,
    /// Non-authoritative prefix replicas to boot on the server machine,
    /// all joined to one fresh multicast group, with anti-entropy
    /// (`sync_peer`) pointed at the workstation's authoritative prefix
    /// server so a `SyncPull` runs a digest → delta → apply round against
    /// it. The first is preloaded with the standard bindings; the rest are
    /// *cold* — everything they know, they learned from a sync or gossip
    /// round.
    pub replicas: usize,
    /// Run every replica's anti-entropy over the legacy flat whole-table
    /// digest instead of the Merkle subtree walk — the test-only
    /// differential oracle ([`DegradedPrefixConfig::flat_sync`]). The
    /// workstation authority's own flag rides in [`WorldConfig::degraded`].
    pub flat_sync: bool,
}

impl WorldConfig {
    /// The plain world under `params`: no faults, no degraded mode.
    pub fn new(params: Params1984) -> Self {
        WorldConfig {
            params,
            faults: None,
            degraded: None,
            replicas: 0,
            flat_sync: false,
        }
    }
}

/// Boots the standard world and defines the standard prefixes:
/// `[local]` → local fs root, `[remote]` → remote fs root,
/// `[home]` → local fs home. Both file servers hold `paper.txt`.
pub fn boot_world(params: Params1984) -> SimWorld {
    boot_world_with(params, None)
}

/// Boots the standard world, optionally under a seeded fault plane
/// (message loss, duplication, jitter — see [`vnet::FaultConfig`]).
/// With `faults: None` the timings are bit-identical to [`boot_world`].
pub fn boot_world_with(params: Params1984, faults: Option<FaultConfig>) -> SimWorld {
    boot_world_cfg(WorldConfig {
        faults,
        ..WorldConfig::new(params)
    })
}

/// Boots the world described by `cfg` — see [`WorldConfig`].
pub fn boot_world_cfg(cfg: WorldConfig) -> SimWorld {
    let domain = match cfg.faults {
        Some(f) => SimDomain::with_faults(cfg.params, f),
        None => SimDomain::new(cfg.params),
    };
    let workstation = domain.add_host();
    let server_machine = domain.add_host();

    let fs_config = |preload: Vec<(String, Vec<u8>)>, scope| FileServerConfig {
        service_scope: Some(scope),
        preload,
        home: Some("ng/user".into()),
        bin: Some("bin".into()),
        simulate_disk: false,
    };
    let local_fs = domain.spawn(workstation, "local-fs", {
        let cfg = fs_config(
            vec![
                ("paper.txt".into(), b"V naming, local copy".to_vec()),
                ("ng/user/notes.txt".into(), b"local home".to_vec()),
            ],
            Scope::Local,
        );
        move |ctx| file_server(ctx, cfg)
    });
    let remote_fs = domain.spawn(server_machine, "remote-fs", {
        let cfg = fs_config(
            vec![
                ("paper.txt".into(), b"V naming, remote copy".to_vec()),
                ("ng/user/thesis.txt".into(), b"remote home".to_vec()),
            ],
            Scope::Both,
        );
        move |ctx| file_server(ctx, cfg)
    });
    let degraded = cfg.degraded;
    let prefix = domain.spawn(workstation, "prefix", move |ctx| {
        prefix_server(
            ctx,
            PrefixConfig {
                degraded,
                ..PrefixConfig::default()
            },
        )
    });

    // The replicas: non-authoritative prefix servers on the server
    // machine, the first preloaded with the same bindings the user's login
    // script defines below. They register Scope::Local there, so the
    // workstation's GetPid rebind never discovers them — the only road to
    // them is the explicit multicast group, which is the point: they are
    // last-resort answerers, not second authorities.
    let replica_group = (cfg.replicas > 0).then(|| {
        domain
            .client(workstation, |ctx| ctx.create_group())
            .expect("replica group created")
    });
    let flat_sync = cfg.flat_sync;
    let replicas: Vec<Pid> = (0..cfg.replicas)
        .map(|i| {
            let (name, preload_direct) = match i {
                0 => (
                    "prefix-replica".to_owned(),
                    login_bindings(local_fs, remote_fs),
                ),
                _ => (format!("prefix-replica-{}", i + 1), Vec::new()),
            };
            let config = PrefixConfig {
                preload_direct,
                degraded: Some(DegradedPrefixConfig {
                    authoritative: false,
                    replica_group,
                    sync_peer: Some(prefix),
                    flat_sync,
                    ..DegradedPrefixConfig::default()
                }),
                ..PrefixConfig::default()
            };
            domain.spawn(server_machine, &name, move |ctx| prefix_server(ctx, config))
        })
        .collect();
    domain.run();

    // Define the user's standard prefixes from a setup process.
    domain.client(workstation, move |ctx| {
        let client = NameClient::new(ctx, ContextPair::new(local_fs, ContextId::DEFAULT));
        for (name, pair) in login_bindings(local_fs, remote_fs) {
            client
                .add_prefix(&name, pair)
                .unwrap_or_else(|e| panic!("define [{name}]: {e:?}"));
        }
    });

    SimWorld {
        domain,
        workstation,
        server_machine,
        prefix,
        local_fs,
        remote_fs,
        replicas,
        replica_group,
    }
}

/// The user's login-script bindings, in definition order: `[local]` →
/// local fs root, `[remote]` → remote fs root, `[home]` → local fs home.
/// A prefix server preloaded with them comes back from a restart with its
/// soft-state table already rebuilt.
pub(crate) fn login_bindings(local_fs: Pid, remote_fs: Pid) -> Vec<(String, ContextPair)> {
    vec![
        (
            "local".into(),
            ContextPair::new(local_fs, ContextId::DEFAULT),
        ),
        (
            "remote".into(),
            ContextPair::new(remote_fs, ContextId::DEFAULT),
        ),
        ("home".into(), ContextPair::new(local_fs, ContextId::HOME)),
    ]
}

/// Sleeps `ctx` until virtual time `at`; returns at once if `at` has
/// passed.
pub fn sleep_until(ctx: &dyn Ipc, at: Duration) {
    let now = ctx.now();
    if at > now {
        ctx.sleep(at - now);
    }
}

impl SimWorld {
    /// Runs `f` as a client on the workstation, driving the simulation to
    /// quiescence, and returns its result.
    pub fn client<T, F>(&self, f: F) -> T
    where
        T: Send + 'static,
        F: FnOnce(&dyn Ipc) -> T + Send + 'static,
    {
        self.domain
            .client(self.workstation, f)
            .expect("sim client completed")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vproto::OpenMode;

    #[test]
    fn world_boots_and_serves_all_paths() {
        let w = boot_world(Params1984::ethernet_3mbit());
        let local_fs = w.local_fs;
        let (a, b, c) = w.client(move |ctx| {
            let client = NameClient::new(ctx, ContextPair::new(local_fs, ContextId::DEFAULT));
            let a = client.read_file("[local]paper.txt").unwrap();
            let b = client.read_file("[remote]paper.txt").unwrap();
            let c = client.read_file("[home]notes.txt").unwrap();
            (a, b, c)
        });
        assert_eq!(a, b"V naming, local copy");
        assert_eq!(b, b"V naming, remote copy");
        assert_eq!(c, b"local home");
    }

    #[test]
    fn open_reports_final_server() {
        let w = boot_world(Params1984::ethernet_3mbit());
        let (local_fs, remote_fs) = (w.local_fs, w.remote_fs);
        let (s1, s2) = w.client(move |ctx| {
            let client = NameClient::new(ctx, ContextPair::new(local_fs, ContextId::DEFAULT));
            let h1 = client.open("[local]paper.txt", OpenMode::Read).unwrap();
            let h2 = client.open("[remote]paper.txt", OpenMode::Read).unwrap();
            (h1.server(), h2.server())
        });
        assert_eq!(s1, local_fs);
        assert_eq!(s2, remote_fs);
    }
}
