//! Wire-level types for the V-System naming reproduction.
//!
//! This crate defines the vocabulary shared by every other crate in the
//! workspace, mirroring the message standards of the V-System as described in
//! Cheriton & Mann, *Uniform Access to Distributed Name Interpretation in the
//! V-System* (ICDCS 1984):
//!
//! * [`Pid`] — 32-bit process identifiers structured as a 16-bit logical host
//!   and a 16-bit local process identifier (paper §4.1, Figure 2).
//! * [`ServiceId`] and [`Scope`] — service naming used by `SetPid`/`GetPid`
//!   (paper §4.2).
//! * [`Message`] — the fixed 32-byte request/reply message, with the request
//!   code acting as a tag field in its first 16-bit word (paper §3.2).
//! * [`RequestCode`] / [`ReplyCode`] — standard operation and reply codes,
//!   including the name-handling protocol operations (paper §5.7).
//! * [`CsName`] — character string names: arbitrary byte strings, usually
//!   human-readable ASCII (paper §5.1).
//! * [`ObjectDescriptor`] — typed object description records returned by the
//!   query operation and context directories (paper §5.5, Figure 3).
//! * [`fnv`] — the one FNV-1a every cross-process hash in the workspace uses.
//!
//! # Examples
//!
//! Build a CSname request the way a client run-time stub would:
//!
//! ```
//! use vproto::{Message, RequestCode, CsName, ContextId};
//!
//! let name = CsName::from("[home]notes/todo.txt");
//! let mut msg = Message::request(RequestCode::CreateInstance);
//! msg.set_context_id(ContextId::DEFAULT);
//! msg.set_name_index(0);
//! // A server parses the name by this word: a name too long for it is
//! // refused (`IllegalName`), never truncated.
//! msg.set_name_length(vproto::name_word(name.len())?);
//! assert_eq!(msg.request_code(), Some(RequestCode::CreateInstance));
//! # Ok::<(), vproto::ReplyCode>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod batch;
mod codes;
mod csname;
mod descriptor;
pub mod fnv;
mod message;
mod pid;
mod service;
mod sync;
mod wire;

pub use batch::{
    ResolveAnswer, ResolveBatchMsg, ResolveBatchReply, RESOLVE_NOT_FOUND, RESOLVE_NO_SERVER,
    RESOLVE_OK,
};
pub use codes::{is_csname_request_raw, ReplyCode, RequestCode, CSNAME_BIT};
pub use csname::{CsName, PrefixParse, PREFIX_CLOSE, PREFIX_OPEN};
pub use descriptor::{
    ContextPair, DecodeError, DescriptorExt, DescriptorTag, InstanceId, ObjectDescriptor, ObjectId,
    Permissions,
};
pub use fnv::{fnv1a, Fnv1a};
pub use message::{fields, name_word, ContextId, Message, OpenMode, MSG_WORDS};
pub use pid::{LogicalHost, Pid};
pub use service::{Scope, ServiceId};
pub use sync::{
    SyncBinding, SyncDeltaMsg, SyncDigestEntry, SyncDigestMsg, SyncEntry, SyncLeafDigest,
    SyncNodeRec, SyncProbeMsg, SyncProbeReply, SyncStatusRec,
};
pub use wire::{WireReader, WireWriter};
