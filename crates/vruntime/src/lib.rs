//! The standard V run-time routines (paper §6): the client-side library
//! that hides messages behind procedure calls.
//!
//! "When the program executes an `Open` call ... the `Open` routine checks
//! whether the name specified starts with the standard context prefix
//! character `[`. If so, it sends an `Open` request message to the
//! workstation context prefix server ... If not, `Open` specifies the
//! current context identifier in the message and sends the request directly
//! to the server implementing the current context. All other CSname-handling
//! routines operate similarly ... The code that checks for the `[` character
//! is localized in a single common routine."
//!
//! [`NameClient`] is that library: it tracks the current context, routes
//! bracketed names through the per-user prefix server, and wraps every
//! standard operation — open, remove, rename, query, modify, map, list
//! directory, change/print the current context, prefix management.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod client;

pub use client::{
    sync_status, BatchOutcome, Binding, CacheStats, DegradedStats, NameClient, RetryStats,
    Staleness, SyncPullSummary,
};
pub use vio::IoError;
pub use vnaming::BackoffPolicy;
