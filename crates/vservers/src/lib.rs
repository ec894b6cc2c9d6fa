//! The V-System CSNH servers (paper §3, §5, §6).
//!
//! Every server here "implements the naming of the objects and operations
//! it provides" and conforms to the name-handling protocol, so the standard
//! run-time routines (and the single `list directory` command of paper §6)
//! work identically against all of them:
//!
//! * [`file_server`] — hierarchical directories as contexts, files, i-node
//!   style object ids, cross-server links (Figure 4's curved arrow),
//!   well-known contexts (home, standard programs), reverse name mapping.
//! * [`prefix_server`] — the per-user context prefix server of §5.8/§6:
//!   `[prefix]` names, add/delete context name operations, logical
//!   (service, well-known-context) entries re-resolved via `GetPid`.
//! * [`terminal_server`] — virtual terminals as temporary objects.
//! * [`printer_server`] — print queues and jobs.
//! * [`internet_server`] — simulated TCP connections as named objects.
//! * [`program_manager`] — programs in execution as a context.
//! * [`mail_server`] — `user@host` foreign-syntax names (§2.2's
//!   extensibility argument), with inter-server forwarding on the host
//!   part.
//! * [`time_server`] — the §4.2 "simple service" example (clients rebind
//!   per call).
//! * [`pipe_server`] — pipes (§3.2's I/O sources/sinks), the one server
//!   that defers replies to block empty readers.
//!
//! All servers are plain functions over `&dyn Ipc`, so they run unchanged on
//! the real-thread kernel and the virtual-time kernel. Each builds its state
//! and hands it to one loop, `common::serve`: the crate's only `receive`,
//! which fetches and parses a CSname request's name before the server sees
//! the operation, and makes every `reply` and `forward` (DESIGN.md §3.2).
//! The loop and the shared I/O arms are public in [`common`], because the
//! §2 baseline servers in `vcentral` run on them too.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// A server answers a bad request with a reply code; it does not die.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]
// One server loop: `vservers::common::serve` makes every receive, reply
// and forward (the calls `clippy.toml` lists in `disallowed-methods`).
#![deny(clippy::disallowed_methods)]

pub mod common;
mod file;
mod internet;
mod mail;
mod pipe;
mod prefix;
mod printer;
mod program;
pub mod shard;
mod suspect;
pub mod sync;
mod terminal;
mod time;

pub use file::{file_server, FileServerConfig};
pub use internet::{internet_server, InternetConfig};
pub use mail::{mail_server, MailConfig};
pub use pipe::{pipe_server, PipeConfig};
pub use prefix::{prefix_footprint_bytes, prefix_server, DegradedPrefixConfig, PrefixConfig};
pub use printer::{printer_server, PrinterConfig};
pub use program::{program_manager, ProgramConfig};
pub use shard::{ResolverHandle, ShardedTable, SnapEntry, Snapshot};
pub use sync::{
    flat_round, merkle_child, merkle_index, merkle_is_leaf, merkle_level, merkle_node_id,
    merkle_node_valid, merkle_round, shard_of_bucket, ApplyOutcome, MerkleWalk, RoundFate,
    RoundKind, RoundStats, SyncTable, TombstoneOutcome, VersionedEntry, MAX_EPOCH_SKEW_NS,
    MERKLE_FANOUT, MERKLE_LEAVES, MERKLE_LEVELS, MERKLE_ROOT, SHARD_COUNT,
};
pub use terminal::{terminal_server, TerminalConfig};
pub use time::{get_time, time_server, TimeConfig};
