//! The fixed 32-byte V message and the CSname request skeleton
//! (paper §3.2, §5.3).
//!
//! Every request message carries its operation code in the first 16-bit word;
//! the code acts as a tag field (like a Pascal variant record tag) specifying
//! the layout of the remaining words. CSname requests additionally carry the
//! standard name-handling fields — context id, name index, name length — in
//! fixed positions, so any CSNH server can parse and forward a CSname request
//! without understanding its operation code.

use crate::codes::{is_csname_request_raw, ReplyCode, RequestCode};
use crate::pid::Pid;
use std::fmt;

/// Number of 16-bit words in a V message (32 bytes).
pub const MSG_WORDS: usize = 16;

/// A numeric context identifier (paper §5.2).
///
/// A context is specified by a *(server-pid, context-id)* pair; the context
/// id selects one of possibly many name spaces implemented by the server.
/// Ordinary context ids are server-assigned and valid only as long as the
/// server process exists. A few *well-known* ids with fixed values designate
/// generic name spaces.
///
/// # Examples
///
/// ```
/// use vproto::ContextId;
///
/// assert!(ContextId::HOME.is_well_known());
/// assert!(!ContextId::new(1234).is_well_known());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ContextId(u32);

impl ContextId {
    /// The standard default context, used when a server implements only one
    /// context (paper §5.2).
    pub const DEFAULT: ContextId = ContextId(0);
    /// Well-known id for the user's home directory.
    pub const HOME: ContextId = ContextId(1);
    /// Well-known id for the standard program directory.
    pub const STANDARD_PROGRAMS: ContextId = ContextId(2);
    /// Well-known id for the per-user temporary directory.
    pub const TEMPORARY: ContextId = ContextId(3);
    /// First ordinary (server-assigned) context id.
    pub const FIRST_ORDINARY: ContextId = ContextId(0x100);

    /// Creates a context id from its raw value.
    pub const fn new(raw: u32) -> Self {
        ContextId(raw)
    }

    /// Returns the raw numeric value.
    pub const fn raw(self) -> u32 {
        self.0
    }

    /// Returns `true` for the well-known fixed-value ids (paper §5.2).
    pub const fn is_well_known(self) -> bool {
        self.0 < Self::FIRST_ORDINARY.0
    }
}

impl fmt::Display for ContextId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            ContextId::DEFAULT => write!(f, "ctx:default"),
            ContextId::HOME => write!(f, "ctx:home"),
            ContextId::STANDARD_PROGRAMS => write!(f, "ctx:bin"),
            ContextId::TEMPORARY => write!(f, "ctx:tmp"),
            ContextId(raw) => write!(f, "ctx:{raw}"),
        }
    }
}

// Standard field positions (word indices).
const W_CODE: usize = 0;
const W_CONTEXT_LO: usize = 1; // context id spans words 1-2
const W_NAME_INDEX: usize = 3;
const W_NAME_LEN: usize = 4;

/// Word indices of per-operation fields, in the operation-specific part of
/// the message (words 5..15). Documented here so every server and stub uses
/// the same layout.
pub mod fields {
    /// `CreateInstance` request: open mode ([`crate::message::Message::set_mode`]).
    pub const W_MODE: usize = 5;
    /// Replies carrying an instance: instance id. (Word 11: open replies
    /// also carry the implementing server's pid in words 5-6 and the object
    /// size in words 7-8.)
    pub const W_INSTANCE: usize = 11;
    /// `ReadInstance`/`WriteInstance` request: instance id.
    pub const W_IO_INSTANCE: usize = 5;
    /// `ReadInstance`/`WriteInstance` request: byte offset (u32, words 6-7).
    pub const W_IO_OFFSET_LO: usize = 6;
    /// High word of the I/O byte offset.
    pub const W_IO_OFFSET_HI: usize = 7;
    /// `ReadInstance` request / `ReadInstance`+`WriteInstance` reply: byte count.
    pub const W_IO_COUNT: usize = 8;
    /// Replies carrying a context: server pid (u32, words 5-6) — the context
    /// id travels in the standard context-id field.
    pub const W_PID_LO: usize = 5;
    /// High word of a pid field.
    pub const W_PID_HI: usize = 6;
    /// `AddContextName` request: target server pid (u32, words 5-6), or the
    /// logical service id if [`W_LOGICAL`] is nonzero.
    pub const W_TARGET_PID_LO: usize = 5;
    /// High word of the target pid / service id.
    pub const W_TARGET_PID_HI: usize = 6;
    /// `AddContextName` request: target context id (u32, words 7-8).
    pub const W_TARGET_CTX_LO: usize = 7;
    /// High word of the target context id.
    pub const W_TARGET_CTX_HI: usize = 8;
    /// `AddContextName` request: nonzero if the target is a *logical*
    /// (service, well-known-context) pair re-resolved via GetPid on each use
    /// (paper §6).
    pub const W_LOGICAL: usize = 9;
    /// `RenameObject` request: index of the new name within the payload.
    pub const W_NAME2_INDEX: usize = 5;
    /// `RenameObject` request: length of the new name.
    pub const W_NAME2_LEN: usize = 6;
    /// `GetContextName`/`GetInstanceName` request: the id to invert
    /// (u32, words 5-6).
    pub const W_INVERT_ID_LO: usize = 5;
    /// High word of the id to invert.
    pub const W_INVERT_ID_HI: usize = 6;
    /// Replies reporting total object size (u32, words 7-8).
    pub const W_SIZE_LO: usize = 7;
    /// High word of the size field.
    pub const W_SIZE_HI: usize = 8;
    /// `GetTime` reply: seconds (u32, words 5-6).
    pub const W_TIME_LO: usize = 5;
    /// High word of the time field.
    pub const W_TIME_HI: usize = 6;
    /// Replies reporting a low-level object id (u32, words 9-10) alongside
    /// the pid (5-6), size (7-8), and instance (11) fields.
    pub const W_OBJECT_ID_LO: usize = 9;
    /// *Failure* replies to CSname requests: byte index within the name at
    /// which interpretation failed — this reproduction's answer to the
    /// paper's §7 complaint that failures deep in a forwarding chain are
    /// hard to report usefully.
    pub const W_FAIL_INDEX: usize = 5;
    /// Replies carrying a context binding: nonzero when the binding is
    /// *suspect* — served from a cache or a non-authoritative replica while
    /// the authoritative server is unreachable (degraded-mode resolution).
    /// Zero (the default) means the binding is fresh/authoritative.
    pub const W_STALENESS: usize = 14;
    /// Requests that carry a forward count to detect interpretation loops.
    pub const W_FORWARD_COUNT: usize = 15;
    /// `SyncPull` reply: bindings adopted from the authority this round.
    pub const W_SYNC_ADOPTED: usize = 5;
    /// `SyncPull` reply: live entries dropped (tombstoned) this round.
    pub const W_SYNC_DROPPED: usize = 6;
    /// `SyncPull` reply: entries promoted unverified → verified this round.
    pub const W_SYNC_PROMOTED: usize = 7;
    /// `SyncPull` reply: low 32 bits of the table epoch after the round
    /// (u32, words 8-9).
    pub const W_SYNC_EPOCH_LO: usize = 8;
    /// `SyncDigest` request and reply: number of encoded entries in the
    /// payload (digest entries in the request, delta entries in the reply).
    /// Advisory — saturates at `u16::MAX`; the 32-bit count inside the
    /// payload is authoritative.
    pub const W_SYNC_COUNT: usize = 5;
    /// `SyncProbe` request and reply: number of Merkle node records in the
    /// payload (interior ids + leaf digests in the request, expanded node
    /// records in the reply). Advisory — saturates at `u16::MAX`; the
    /// 32-bit counts inside the payload are authoritative. The reply
    /// reuses `W_SYNC_COUNT` for its delta-entry count.
    pub const W_SYNC_NODES: usize = 6;
    /// `SyncGossip` request: phase. 0 = trigger (unicast: run one gossip
    /// round now), 1 = probe (multicast: reply with your pid if willing to
    /// answer a gossip digest).
    pub const W_SYNC_PHASE: usize = 7;
    /// `SyncPull` reply: nonzero if the round was satisfied by gossiping
    /// with a peer replica because the authority was unreachable.
    pub const W_SYNC_GOSSIP: usize = 10;
}

/// Open modes for `CreateInstance` (V I/O protocol session conventions).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
#[repr(u16)]
pub enum OpenMode {
    /// Read-only access to an existing object.
    #[default]
    Read = 0,
    /// Read-write access to an existing object.
    Write = 1,
    /// Create the object if absent, then read-write.
    Create = 2,
    /// Append to an existing object.
    Append = 3,
    /// Open a context directory for reading descriptor records (paper §5.6).
    Directory = 4,
}

impl OpenMode {
    /// Decodes a raw mode word.
    pub const fn from_u16(raw: u16) -> Option<OpenMode> {
        match raw {
            0 => Some(OpenMode::Read),
            1 => Some(OpenMode::Write),
            2 => Some(OpenMode::Create),
            3 => Some(OpenMode::Append),
            4 => Some(OpenMode::Directory),
            _ => None,
        }
    }

    /// Returns `true` if the mode permits writing object data.
    pub const fn writes(self) -> bool {
        matches!(self, OpenMode::Write | OpenMode::Create | OpenMode::Append)
    }
}

/// The fixed-size V message: sixteen 16-bit words (paper §3.2).
///
/// Short and fixed-size by design — larger data travels via `MoveTo` /
/// `MoveFrom` (modeled as the request/reply payloads in
/// [`vkernel`](https://docs.rs/vkernel)).
///
/// # Examples
///
/// ```
/// use vproto::{Message, RequestCode, ReplyCode, ContextId};
///
/// let mut req = Message::request(RequestCode::QueryName);
/// req.set_context_id(ContextId::HOME);
/// req.set_name_length(9);
/// assert!(req.is_csname_request());
///
/// let rep = Message::reply(ReplyCode::NotFound);
/// assert_eq!(rep.reply_code(), ReplyCode::NotFound);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Message {
    words: [u16; MSG_WORDS],
}

impl Message {
    /// Creates a zeroed message.
    pub const fn new() -> Self {
        Message {
            words: [0; MSG_WORDS],
        }
    }

    /// Creates a request message with the given operation code.
    pub fn request(code: RequestCode) -> Self {
        let mut m = Message::new();
        m.words[W_CODE] = code.as_u16();
        m
    }

    /// Creates a request message from a raw operation code (for testing
    /// forwarding of unknown operations).
    pub fn request_raw(code: u16) -> Self {
        let mut m = Message::new();
        m.words[W_CODE] = code;
        m
    }

    /// Creates a reply message with the given reply code.
    pub fn reply(code: ReplyCode) -> Self {
        let mut m = Message::new();
        m.words[W_CODE] = code.as_u16();
        m
    }

    /// Creates a success reply.
    pub fn ok() -> Self {
        Message::reply(ReplyCode::Ok)
    }

    // ---- raw word access ----

    /// Reads the 16-bit word at `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= MSG_WORDS`.
    pub fn word(&self, index: usize) -> u16 {
        self.words[index]
    }

    /// Writes the 16-bit word at `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= MSG_WORDS`.
    pub fn set_word(&mut self, index: usize, value: u16) -> &mut Self {
        self.words[index] = value;
        self
    }

    /// Writes a length or count into the 16-bit word at `index`, saturating
    /// at `u16::MAX`. This is the one setter for *advisory* counts — the
    /// I/O byte count, the failure index, the sync counts — whose exact
    /// value travels elsewhere (the segment's own length, or a 32-bit count
    /// inside it), so a value that does not fit reads "at least 65 535"
    /// instead of wrapping to a small one. Words a server parses by never
    /// saturate: see [`name_word`].
    ///
    /// # Panics
    ///
    /// Panics if `index >= MSG_WORDS`.
    pub fn set_count(&mut self, index: usize, n: usize) -> &mut Self {
        self.set_word(index, u16::try_from(n).unwrap_or(u16::MAX))
    }

    /// Reads a 32-bit little-word-endian value at words `lo`, `lo + 1`.
    ///
    /// # Panics
    ///
    /// Panics if `lo + 1 >= MSG_WORDS`.
    pub fn word32(&self, lo: usize) -> u32 {
        (self.words[lo] as u32) | ((self.words[lo + 1] as u32) << 16)
    }

    /// Writes a 32-bit value across words `lo`, `lo + 1`.
    ///
    /// # Panics
    ///
    /// Panics if `lo + 1 >= MSG_WORDS`.
    pub fn set_word32(&mut self, lo: usize, value: u32) -> &mut Self {
        self.words[lo] = value as u16;
        self.words[lo + 1] = (value >> 16) as u16;
        self
    }

    /// Returns the message as 32 bytes in wire order (little-endian words).
    pub fn to_bytes(&self) -> [u8; MSG_WORDS * 2] {
        let mut out = [0u8; MSG_WORDS * 2];
        for (i, w) in self.words.iter().enumerate() {
            out[2 * i..2 * i + 2].copy_from_slice(&w.to_le_bytes());
        }
        out
    }

    /// Reconstructs a message from its 32-byte wire representation.
    pub fn from_bytes(bytes: &[u8; MSG_WORDS * 2]) -> Self {
        let mut words = [0u16; MSG_WORDS];
        for (i, w) in words.iter_mut().enumerate() {
            *w = u16::from_le_bytes([bytes[2 * i], bytes[2 * i + 1]]);
        }
        Message { words }
    }

    // ---- tag field ----

    /// Returns the raw operation/reply code (word 0).
    pub fn code_raw(&self) -> u16 {
        self.words[W_CODE]
    }

    /// Decodes word 0 as a request code; `None` if unknown to this crate.
    pub fn request_code(&self) -> Option<RequestCode> {
        RequestCode::from_u16(self.words[W_CODE])
    }

    /// Decodes word 0 as a reply code (unknown values map to
    /// [`ReplyCode::Unknown`]).
    pub fn reply_code(&self) -> ReplyCode {
        ReplyCode::from_u16(self.words[W_CODE])
    }

    /// Returns `true` if word 0 denotes a CSname request — even one whose
    /// specific operation this crate does not know (paper §5.3).
    pub fn is_csname_request(&self) -> bool {
        is_csname_request_raw(self.words[W_CODE])
    }

    // ---- standard CSname fields (paper §5.3) ----

    /// Returns the context id in which the name is to be interpreted.
    pub fn context_id(&self) -> ContextId {
        ContextId::new(self.word32(W_CONTEXT_LO))
    }

    /// Sets the context id field.
    pub fn set_context_id(&mut self, ctx: ContextId) -> &mut Self {
        self.set_word32(W_CONTEXT_LO, ctx.raw())
    }

    /// Returns the index into the name at which interpretation is to begin
    /// or continue — updated by each server before forwarding (paper §5.4).
    pub fn name_index(&self) -> u16 {
        self.words[W_NAME_INDEX]
    }

    /// Sets the name index field.
    pub fn set_name_index(&mut self, index: u16) -> &mut Self {
        self.words[W_NAME_INDEX] = index;
        self
    }

    /// Returns the total length of the name in the payload.
    pub fn name_length(&self) -> u16 {
        self.words[W_NAME_LEN]
    }

    /// Sets the name length field.
    pub fn set_name_length(&mut self, len: u16) -> &mut Self {
        self.words[W_NAME_LEN] = len;
        self
    }

    /// Returns the forwarding hop count (used to detect interpretation
    /// loops; see [`ReplyCode::ForwardLoop`]).
    pub fn forward_count(&self) -> u16 {
        self.words[fields::W_FORWARD_COUNT]
    }

    /// Increments the forwarding hop count, saturating.
    pub fn bump_forward_count(&mut self) -> &mut Self {
        self.words[fields::W_FORWARD_COUNT] = self.words[fields::W_FORWARD_COUNT].saturating_add(1);
        self
    }

    // ---- common typed helpers ----

    /// Reads a pid stored at words `lo`, `lo + 1`.
    pub fn pid_at(&self, lo: usize) -> Pid {
        Pid::from_raw(self.word32(lo))
    }

    /// Stores a pid at words `lo`, `lo + 1`.
    pub fn set_pid_at(&mut self, lo: usize, pid: Pid) -> &mut Self {
        self.set_word32(lo, pid.raw())
    }

    /// Returns the open mode of a `CreateInstance` request.
    pub fn mode(&self) -> Option<OpenMode> {
        OpenMode::from_u16(self.words[fields::W_MODE])
    }

    /// Sets the open mode of a `CreateInstance` request.
    pub fn set_mode(&mut self, mode: OpenMode) -> &mut Self {
        self.words[fields::W_MODE] = mode as u16;
        self
    }
}

/// A name length or name index as its 16-bit message word. A server parses
/// the name by these words, so a value that does not fit is refused with
/// [`ReplyCode::IllegalName`]; it never saturates the way an advisory count
/// does ([`Message::set_count`]), which would make the request name a
/// different, shorter name.
///
/// # Errors
///
/// [`ReplyCode::IllegalName`] when `n > u16::MAX`.
pub fn name_word(n: usize) -> Result<u16, ReplyCode> {
    u16::try_from(n).map_err(|_| ReplyCode::IllegalName)
}

impl fmt::Display for Message {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.request_code() {
            Some(code) => write!(f, "msg[{code}]"),
            None => write!(f, "msg[raw:{:#06x}]", self.code_raw()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_sets_tag_word() {
        let m = Message::request(RequestCode::QueryName);
        assert_eq!(m.code_raw(), RequestCode::QueryName.as_u16());
        assert_eq!(m.request_code(), Some(RequestCode::QueryName));
        assert!(m.is_csname_request());
    }

    #[test]
    fn unknown_csname_request_still_classified() {
        let m = Message::request_raw(0x8FFF);
        assert_eq!(m.request_code(), None);
        assert!(m.is_csname_request());
    }

    #[test]
    fn context_fields_roundtrip() {
        let mut m = Message::request(RequestCode::CreateInstance);
        m.set_context_id(ContextId::new(0xDEADBEEF))
            .set_name_index(7)
            .set_name_length(23);
        assert_eq!(m.context_id(), ContextId::new(0xDEADBEEF));
        assert_eq!(m.name_index(), 7);
        assert_eq!(m.name_length(), 23);
        // The tag word is untouched by field updates.
        assert_eq!(m.request_code(), Some(RequestCode::CreateInstance));
    }

    #[test]
    fn word32_is_little_word_endian() {
        let mut m = Message::new();
        m.set_word32(5, 0x1234_5678);
        assert_eq!(m.word(5), 0x5678);
        assert_eq!(m.word(6), 0x1234);
        assert_eq!(m.word32(5), 0x1234_5678);
    }

    #[test]
    fn bytes_roundtrip() {
        let mut m = Message::request(RequestCode::ReadInstance);
        m.set_word(fields::W_IO_INSTANCE, 3)
            .set_word32(fields::W_IO_OFFSET_LO, 0xABCD_1234)
            .set_word(fields::W_IO_COUNT, 512);
        let bytes = m.to_bytes();
        assert_eq!(bytes.len(), 32, "V messages are exactly 32 bytes");
        assert_eq!(Message::from_bytes(&bytes), m);
    }

    #[test]
    fn forward_count_saturates() {
        let mut m = Message::new();
        m.set_word(fields::W_FORWARD_COUNT, u16::MAX - 1);
        m.bump_forward_count();
        assert_eq!(m.forward_count(), u16::MAX);
        m.bump_forward_count();
        assert_eq!(m.forward_count(), u16::MAX);
    }

    #[test]
    fn pid_field_roundtrip() {
        use crate::pid::LogicalHost;
        let mut m = Message::new();
        let pid = Pid::new(LogicalHost::new(12), 34);
        m.set_pid_at(fields::W_PID_LO, pid);
        assert_eq!(m.pid_at(fields::W_PID_LO), pid);
    }

    #[test]
    fn open_mode_roundtrip() {
        for mode in [
            OpenMode::Read,
            OpenMode::Write,
            OpenMode::Create,
            OpenMode::Append,
            OpenMode::Directory,
        ] {
            let mut m = Message::request(RequestCode::CreateInstance);
            m.set_mode(mode);
            assert_eq!(m.mode(), Some(mode));
        }
        let mut m = Message::new();
        m.set_word(fields::W_MODE, 999);
        assert_eq!(m.mode(), None);
    }

    #[test]
    fn well_known_context_ids() {
        assert!(ContextId::DEFAULT.is_well_known());
        assert!(ContextId::HOME.is_well_known());
        assert!(ContextId::STANDARD_PROGRAMS.is_well_known());
        assert!(!ContextId::FIRST_ORDINARY.is_well_known());
    }

    #[test]
    fn only_writing_modes_write() {
        assert!(!OpenMode::Read.writes());
        assert!(!OpenMode::Directory.writes());
        assert!(OpenMode::Write.writes());
        assert!(OpenMode::Create.writes());
        assert!(OpenMode::Append.writes());
    }
}
