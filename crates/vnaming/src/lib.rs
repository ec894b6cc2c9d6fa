//! The V-System name-handling protocol (paper §5) — the primary
//! contribution of the reproduced paper.
//!
//! Name interpretation in V is *distributed*: each server implements the
//! naming of the objects it provides, and the collection of name spaces is
//! unified by two minimal mechanisms — the name-handling protocol (uniform
//! CSname request format + a standard mapping procedure with forwarding) and
//! the context management system (per-user context prefix servers). This
//! crate provides the protocol engine every CSNH server builds on:
//!
//! * [`CsRequest`] / [`build_csname_request`] — the standard CSname request
//!   skeleton (paper §5.3): context id, name index, name length, with the
//!   name bytes in the request payload.
//! * [`resolve`] and the [`ComponentSpace`] trait — the name-mapping
//!   procedure (paper §5.4): left-to-right component interpretation with
//!   `CurrentContext` updates, ending in a local object, a local context, a
//!   forward to another server, or a failure.
//! * [`ContextTable`] — server-side context-id management, including the
//!   well-known context ids of paper §5.2.
//! * [`DirectoryBuilder`] and [`match_pattern`] — context directories
//!   (paper §5.6) with the pattern-matching extension the paper proposes.
//!
//! # Examples
//!
//! Resolving a hierarchical name over a toy two-level space:
//!
//! ```
//! use vnaming::{resolve, ComponentSpace, Outcome, ResolvedTarget, Step};
//! use vproto::ContextId;
//!
//! struct Toy;
//! impl ComponentSpace for Toy {
//!     type Object = &'static str;
//!     fn step(&self, ctx: ContextId, comp: &[u8]) -> Step<&'static str> {
//!         match (ctx.raw(), comp) {
//!             (0, b"dir") => Step::Context(ContextId::new(1)),
//!             (1, b"file") => Step::Object("the file"),
//!             _ => Step::NotFound,
//!         }
//!     }
//!     fn valid_context(&self, ctx: ContextId) -> bool {
//!         ctx.raw() <= 1
//!     }
//! }
//!
//! let out = resolve(&Toy, b"dir/file", 0, ContextId::DEFAULT, b'/');
//! match out {
//!     Outcome::Done { target: ResolvedTarget::Object(o), .. } => assert_eq!(o, "the file"),
//!     other => panic!("unexpected {other:?}"),
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod context;
mod directory;
mod request;
mod resolve;

pub use context::ContextTable;
pub use directory::{match_pattern, DirectoryBuilder};
pub use request::{build_csname_request, check_forward_budget, CsRequest, MAX_FORWARDS};
pub use resolve::{resolve, ComponentSpace, FailReason, Outcome, ResolvedTarget, Step};
// The client's retry ladder is the kernel's ladder type, re-exported so
// client crates name it without depending on `vnet` directly.
pub use vnet::BackoffPolicy;
