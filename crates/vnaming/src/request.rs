//! Building and parsing standard CSname requests (paper §5.3).
//!
//! Every CSname request carries the name, its length, the index at which
//! interpretation is to begin or continue, and the context id — in fixed
//! message positions — with the name bytes travelling in the request
//! payload. The fields are a fixed skeleton; everything else is the variant
//! part selected by the operation code, which is why a CSNH server can
//! process (and forward) requests whose operation it does not understand.

use bytes::Bytes;
use vproto::{name_word, ContextId, CsName, Message, ReplyCode, RequestCode};

/// Forwarding budget per request: a name that crosses more servers than
/// this is assumed to be looping (paper §7 discusses how hard failures deep
/// in a forwarding chain are to report; a budget makes them finite).
pub const MAX_FORWARDS: u16 = 8;

/// Builds a CSname request: the message with standard fields filled in and
/// the payload whose first `name.len()` bytes are the name.
///
/// `extra` is appended to the payload after the name (descriptor templates,
/// second names, write data, ...).
///
/// Precondition: `name` is at most `u16::MAX` bytes, since its length
/// travels in one 16-bit word. Client entry points check it with
/// [`vproto::name_word`] and refuse a longer name with `IllegalName` before
/// building a request. A longer name that gets here anyway builds a request
/// every server refuses with `BadArgs` (its name index lies past its name),
/// never one that names a shorter name.
///
/// # Examples
///
/// ```
/// use vnaming::build_csname_request;
/// use vproto::{ContextId, CsName, RequestCode};
///
/// let (msg, payload) = build_csname_request(
///     RequestCode::QueryObject,
///     ContextId::HOME,
///     &CsName::from("notes/todo.txt"),
///     &[],
/// );
/// assert_eq!(msg.name_length() as usize, payload.len());
/// assert!(msg.is_csname_request());
/// ```
pub fn build_csname_request(
    op: RequestCode,
    ctx: ContextId,
    name: &CsName,
    extra: &[u8],
) -> (Message, Bytes) {
    let mut msg = Message::request(op);
    msg.set_context_id(ctx);
    match name_word(name.len()) {
        Ok(len) => msg.set_name_index(0).set_name_length(len),
        Err(_) => msg.set_name_index(1).set_name_length(0),
    };
    let mut payload = Vec::with_capacity(name.len() + extra.len());
    payload.extend_from_slice(name.as_bytes());
    payload.extend_from_slice(extra);
    (msg, Bytes::from(payload))
}

/// A parsed CSname request, as seen by a server (paper §5.3).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CsRequest {
    /// The context in which to interpret the name.
    pub context: ContextId,
    /// Where interpretation begins or continues.
    pub index: usize,
    /// The full name bytes (payload prefix of length `name_length`).
    pub name: Vec<u8>,
    /// Payload bytes after the name (operation-specific data).
    pub extra: Vec<u8>,
}

impl CsRequest {
    /// Parses the standard CSname fields out of a request message and its
    /// payload.
    ///
    /// # Errors
    ///
    /// * [`ReplyCode::BadArgs`] — the message is not a CSname request, the
    ///   payload is shorter than the claimed name length, or the name index
    ///   lies beyond the name.
    pub fn parse(msg: &Message, payload: &[u8]) -> Result<CsRequest, ReplyCode> {
        if !msg.is_csname_request() {
            return Err(ReplyCode::BadArgs);
        }
        let name_len = msg.name_length() as usize;
        if payload.len() < name_len {
            return Err(ReplyCode::BadArgs);
        }
        let index = msg.name_index() as usize;
        if index > name_len {
            return Err(ReplyCode::BadArgs);
        }
        Ok(CsRequest {
            context: msg.context_id(),
            index,
            name: payload[..name_len].to_vec(),
            extra: payload[name_len..].to_vec(),
        })
    }

    /// The portion of the name not yet interpreted.
    pub fn remaining(&self) -> &[u8] {
        &self.name[self.index..]
    }

    /// The name as a [`CsName`] (for diagnostics and reverse mapping).
    pub fn csname(&self) -> CsName {
        CsName::from(self.name.clone())
    }
}

/// Checks and consumes one unit of forwarding budget on a request message.
///
/// Servers call this before forwarding; a request that has already crossed
/// [`MAX_FORWARDS`] servers fails with [`ReplyCode::ForwardLoop`] instead of
/// circulating forever.
///
/// # Errors
///
/// Returns [`ReplyCode::ForwardLoop`] when the budget is exhausted.
pub fn check_forward_budget(msg: &mut Message) -> Result<(), ReplyCode> {
    if msg.forward_count() >= MAX_FORWARDS {
        return Err(ReplyCode::ForwardLoop);
    }
    msg.bump_forward_count();
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_then_parse_roundtrip() {
        let name = CsName::from("a/b/c");
        let (msg, payload) = build_csname_request(
            RequestCode::CreateInstance,
            ContextId::new(7),
            &name,
            b"XYZ",
        );
        let req = CsRequest::parse(&msg, &payload).unwrap();
        assert_eq!(req.context, ContextId::new(7));
        assert_eq!(req.index, 0);
        assert_eq!(req.name, b"a/b/c");
        assert_eq!(req.extra, b"XYZ");
        assert_eq!(req.remaining(), b"a/b/c");
    }

    #[test]
    fn remaining_respects_index() {
        let name = CsName::from("pre/post");
        let (mut msg, payload) =
            build_csname_request(RequestCode::QueryName, ContextId::DEFAULT, &name, &[]);
        msg.set_name_index(4);
        let req = CsRequest::parse(&msg, &payload).unwrap();
        assert_eq!(req.remaining(), b"post");
    }

    #[test]
    fn non_csname_request_rejected() {
        let msg = Message::request(RequestCode::ReadInstance);
        assert_eq!(CsRequest::parse(&msg, &[]), Err(ReplyCode::BadArgs));
    }

    #[test]
    fn short_payload_rejected() {
        let name = CsName::from("longname");
        let (msg, payload) =
            build_csname_request(RequestCode::QueryName, ContextId::DEFAULT, &name, &[]);
        assert_eq!(
            CsRequest::parse(&msg, &payload[..3]),
            Err(ReplyCode::BadArgs)
        );
    }

    #[test]
    fn index_beyond_name_rejected() {
        let name = CsName::from("abc");
        let (mut msg, payload) =
            build_csname_request(RequestCode::QueryName, ContextId::DEFAULT, &name, &[]);
        msg.set_name_index(4);
        assert_eq!(CsRequest::parse(&msg, &payload), Err(ReplyCode::BadArgs));
    }

    #[test]
    fn index_at_exact_end_is_legal() {
        // A fully interpreted name (denoting the context itself).
        let name = CsName::from("abc");
        let (mut msg, payload) =
            build_csname_request(RequestCode::QueryName, ContextId::DEFAULT, &name, &[]);
        msg.set_name_index(3);
        let req = CsRequest::parse(&msg, &payload).unwrap();
        assert_eq!(req.remaining(), b"");
    }

    #[test]
    fn unknown_op_codes_still_parse() {
        // Paper §5.3: servers process CSname requests they don't understand.
        let name = CsName::from("x");
        let (template, payload) =
            build_csname_request(RequestCode::QueryName, ContextId::DEFAULT, &name, &[]);
        let mut msg = Message::request_raw(0x8EEE);
        for i in 1..vproto::MSG_WORDS {
            msg.set_word(i, template.word(i));
        }
        let req = CsRequest::parse(&msg, &payload).unwrap();
        assert_eq!(req.name, b"x");
    }

    #[test]
    fn forward_budget_exhausts() {
        let mut msg = Message::request(RequestCode::QueryName);
        for _ in 0..MAX_FORWARDS {
            assert!(check_forward_budget(&mut msg).is_ok());
        }
        assert_eq!(check_forward_budget(&mut msg), Err(ReplyCode::ForwardLoop));
    }

    #[test]
    fn an_overlong_name_builds_a_request_every_server_refuses() {
        let name = CsName::from(vec![b'a'; usize::from(u16::MAX) + 1]);
        let (msg, payload) =
            build_csname_request(RequestCode::QueryName, ContextId::DEFAULT, &name, &[]);
        assert_eq!(CsRequest::parse(&msg, &payload), Err(ReplyCode::BadArgs));
    }

    #[test]
    fn parse_empty_name() {
        let (msg, payload) = build_csname_request(
            RequestCode::QueryName,
            ContextId::DEFAULT,
            &CsName::new(),
            &[],
        );
        let req = CsRequest::parse(&msg, &payload).unwrap();
        assert!(req.name.is_empty());
        assert!(req.remaining().is_empty());
    }
}
