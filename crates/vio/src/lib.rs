//! The V I/O protocol (paper §3.2): uniform connection of program input and
//! output to files, terminals, pipes, network connections, and memory
//! arrays.
//!
//! The I/O protocol is a *presentation* protocol (message format
//! conventions) and a *session* protocol (the legal open → read/write →
//! close sequence) layered on kernel IPC. Any server implementing file-like
//! objects speaks it; the paper credits it with "utmost importance in the
//! cohesiveness of V" and models the name-handling protocol on its success.
//!
//! * Server side: [`InstanceTable`] manages the 16-bit object instance
//!   identifiers of paper §4.3 (temporary names, reuse-delayed), and
//!   [`serve_read`] and [`serve_write`] implement the common read window
//!   and the capped write ([`MAX_FILE_BYTES`]).
//! * Client side: [`open_at`], [`read_at`], [`write_at`], [`release`],
//!   [`query_instance`] are the raw operations; [`FileHandle`] layers a
//!   sequential stream on top (the paper's §3.1 file-reading scenario).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// One server loop: `vservers::common::serve` makes every receive, reply
// and forward (the calls `clippy.toml` lists in `disallowed-methods`).
#![deny(clippy::disallowed_methods)]

mod client;
mod error;
mod instance;

pub use client::{
    open_at, query_instance, read_at, release, write_at, FileHandle, HandleReader, HandleWriter,
    OpenOutcome,
};
pub use error::IoError;
pub use instance::{serve_read, serve_write, Instance, InstanceTable, MAX_FILE_BYTES};
