//! EXP-4 — The `Open` cost table (paper §6): the paper's central
//! quantitative result for the naming system.
//!
//! Paper: "The time for an Open ... is 1.21 milliseconds in the current
//! context with the server local and 3.70 milliseconds in the current
//! context with the server remote. When a context prefix is specified ...
//! the time increases to 5.14 milliseconds with the server local, and 7.69
//! milliseconds with the server remote. The difference is identical within
//! the limits of experimental error in both cases (3.94 vs. 3.99
//! milliseconds), because it reflects the processing time in the context
//! prefix server, which is always local."

use crate::report::{ms, ExpReport, ExpRow};
use crate::world::{boot_world, SimWorld};
use std::time::Duration;
use vnet::Params1984;
use vproto::{ContextId, ContextPair, OpenMode, Pid};
use vruntime::NameClient;

/// The four `Open` configurations of the paper's table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpenCase {
    /// Current context, server on this workstation.
    CurrentLocal,
    /// Current context, server across the network.
    CurrentRemote,
    /// `[prefix]` name, target server local.
    PrefixLocal,
    /// `[prefix]` name, target server remote.
    PrefixRemote,
}

impl OpenCase {
    /// All four cases, in the paper's order.
    pub const ALL: [OpenCase; 4] = [
        OpenCase::CurrentLocal,
        OpenCase::CurrentRemote,
        OpenCase::PrefixLocal,
        OpenCase::PrefixRemote,
    ];

    /// The paper's measured value in ms.
    pub fn paper_ms(self) -> f64 {
        match self {
            OpenCase::CurrentLocal => 1.21,
            OpenCase::CurrentRemote => 3.70,
            OpenCase::PrefixLocal => 5.14,
            OpenCase::PrefixRemote => 7.69,
        }
    }

    fn label(self) -> &'static str {
        match self {
            OpenCase::CurrentLocal => "current context, server local",
            OpenCase::CurrentRemote => "current context, server remote",
            OpenCase::PrefixLocal => "context prefix, server local",
            OpenCase::PrefixRemote => "context prefix, server remote",
        }
    }
}

/// Measures one `Open` configuration in `world`, averaged over `iters`.
pub fn measure_open(world: &SimWorld, case: OpenCase, iters: u32) -> Duration {
    let (local_fs, remote_fs) = (world.local_fs, world.remote_fs);
    world.client(move |ctx| {
        let (server, name): (Pid, &str) = match case {
            OpenCase::CurrentLocal => (local_fs, "paper.txt"),
            OpenCase::CurrentRemote => (remote_fs, "paper.txt"),
            OpenCase::PrefixLocal => (local_fs, "[local]paper.txt"),
            OpenCase::PrefixRemote => (remote_fs, "[remote]paper.txt"),
        };
        let client = NameClient::new(ctx, ContextPair::new(server, ContextId::DEFAULT));
        let t0 = ctx.now();
        for _ in 0..iters {
            client.open(name, OpenMode::Read).unwrap();
        }
        (ctx.now() - t0) / iters
    })
}

/// Runs EXP-4.
pub fn run() -> ExpReport {
    let mut rep = ExpReport::new(
        "EXP-4",
        "Open latency: current context vs prefix, local vs remote (paper §6)",
    );
    let world = boot_world(Params1984::ethernet_3mbit());
    let mut measured = Vec::new();
    for case in OpenCase::ALL {
        let t = measure_open(&world, case, 20);
        measured.push(ms(t));
        rep.push(ExpRow::with_paper(
            case.label(),
            case.paper_ms(),
            ms(t),
            "ms",
        ));
    }
    // The prefix-server processing deltas the paper highlights.
    rep.push(ExpRow::with_paper(
        "prefix delta, local server",
        3.94,
        measured[2] - measured[0],
        "ms",
    ));
    rep.push(ExpRow::with_paper(
        "prefix delta, remote server",
        3.99,
        measured[3] - measured[1],
        "ms",
    ));
    rep.note(
        "the two deltas must match (the prefix server is always local, so its cost is \
         independent of the target server's placement) — the paper's own check",
    );
    rep
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_four_cases_within_5pct_of_paper() {
        let rep = run();
        for case in OpenCase::ALL {
            let row = rep
                .row(match case {
                    OpenCase::CurrentLocal => "current context, server local",
                    OpenCase::CurrentRemote => "current context, server remote",
                    OpenCase::PrefixLocal => "context prefix, server local",
                    OpenCase::PrefixRemote => "context prefix, server remote",
                })
                .unwrap();
            let dev = row.deviation_pct().unwrap();
            assert!(
                dev.abs() < 5.0,
                "{case:?}: measured {} paper {} ({dev:+.1}%)",
                row.measured,
                row.paper.unwrap()
            );
        }
    }

    #[test]
    fn prefix_deltas_are_equal_and_near_paper() {
        let rep = run();
        let d_local = rep.row("prefix delta, local server").unwrap().measured;
        let d_remote = rep.row("prefix delta, remote server").unwrap().measured;
        // The paper's check: identical within experimental error.
        assert!((d_local - d_remote).abs() < 0.15, "{d_local} vs {d_remote}");
        assert!((d_local - 3.965).abs() < 0.25, "{d_local}");
    }

    #[test]
    fn ordering_matches_paper() {
        let rep = run();
        let v: Vec<f64> = OpenCase::ALL
            .iter()
            .map(|c| {
                rep.rows
                    .iter()
                    .find(|r| r.paper == Some(c.paper_ms()))
                    .unwrap()
                    .measured
            })
            .collect();
        assert!(v[0] < v[1] && v[1] < v[2] && v[2] < v[3], "{v:?}");
    }
}
