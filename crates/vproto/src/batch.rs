//! Wire structures for [`crate::RequestCode::ResolveBatch`].
//!
//! A resolution burst costs one IPC transaction per name under the
//! standard `QueryName` protocol. `ResolveBatch` amortizes that: the
//! request payload carries many bare prefixes, the reply carries one
//! answer per name, and the server promises every answer comes from a
//! single published snapshot of its table — the batch observes one
//! consistent state, never a half-applied sync round.
//!
//! Counts are 32-bit on the wire, like the anti-entropy payloads: the
//! 16-bit message-word count is advisory and saturating, the payload
//! count is authoritative.

use crate::descriptor::DecodeError;
use crate::wire::{wire_len, WireReader, WireWriter};

/// Per-name outcome: the prefix resolved to a binding.
pub const RESOLVE_OK: u16 = 0;
/// Per-name outcome: the server's table holds no live binding.
pub const RESOLVE_NOT_FOUND: u16 = 1;
/// Per-name outcome: a logical binding whose service has no registered
/// provider right now.
pub const RESOLVE_NO_SERVER: u16 = 2;

/// The `ResolveBatch` request payload: the prefixes to resolve, bare
/// (no surrounding brackets).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ResolveBatchMsg {
    /// The prefix names, answered in order.
    pub names: Vec<Vec<u8>>,
}

/// One answer in a `ResolveBatch` reply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResolveAnswer {
    /// [`RESOLVE_OK`], [`RESOLVE_NOT_FOUND`] or [`RESOLVE_NO_SERVER`].
    pub status: u16,
    /// Raw pid of the server behind the prefix (0 unless `status` is OK).
    pub pid: u32,
    /// Raw context id within that server (0 unless `status` is OK).
    pub context: u32,
    /// 0 for a fresh answer, nonzero if the binding is suspect (armed
    /// suspicion, or an unverified replica entry).
    pub staleness: u16,
}

/// The `ResolveBatch` reply payload.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ResolveBatchReply {
    /// One answer per requested name, in request order.
    pub answers: Vec<ResolveAnswer>,
}

impl ResolveBatchMsg {
    /// Encodes the request payload.
    pub fn encode(&self) -> Vec<u8> {
        Self::encode_names(self.names.iter().map(Vec::as_slice))
    }

    /// Encodes a request payload straight from borrowed names, with the
    /// exact length reserved once: the bytes [`ResolveBatchMsg::encode`]
    /// gives for the same names.
    ///
    /// # Panics
    ///
    /// Panics if there are more than `u32::MAX` names, or one name is over
    /// 4 GiB (see [`WireWriter::bytes`]).
    pub fn encode_names<'a>(names: impl ExactSizeIterator<Item = &'a [u8]> + Clone) -> Vec<u8> {
        let count = u32::try_from(names.len()).expect("batch exceeds u32::MAX names");
        let len = 4 + names.clone().map(wire_len).sum::<usize>();
        let mut w = WireWriter::with_capacity(len);
        w.u32(count);
        for name in names {
            w.bytes(name);
        }
        debug_assert_eq!(w.len(), len);
        w.into_vec()
    }

    /// Decodes a request payload.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError`] on truncation or trailing bytes.
    pub fn decode(buf: &[u8]) -> Result<ResolveBatchMsg, DecodeError> {
        let names = Self::decode_names(buf)?;
        Ok(ResolveBatchMsg {
            names: names.into_iter().map(<[u8]>::to_vec).collect(),
        })
    }

    /// Decodes a request payload into names borrowed from `buf`: what
    /// [`ResolveBatchMsg::decode`] answers, without a copy per name.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError`] on truncation or trailing bytes.
    pub fn decode_names(buf: &[u8]) -> Result<Vec<&[u8]>, DecodeError> {
        let mut r = WireReader::new(buf);
        let count = r.u32()? as usize;
        let mut names = Vec::with_capacity(count.min(1024));
        for _ in 0..count {
            names.push(r.bytes()?);
        }
        if !r.is_exhausted() {
            return Err(DecodeError::TrailingBytes {
                remaining: r.remaining(),
            });
        }
        Ok(names)
    }
}

impl ResolveBatchReply {
    /// Encodes the reply payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = WireWriter::new();
        w.u32(self.answers.len() as u32);
        for a in &self.answers {
            w.u16(a.status).u32(a.pid).u32(a.context).u16(a.staleness);
        }
        w.into_vec()
    }

    /// Decodes a reply payload.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError`] on truncation or trailing bytes.
    pub fn decode(buf: &[u8]) -> Result<ResolveBatchReply, DecodeError> {
        let mut r = WireReader::new(buf);
        let count = r.u32()? as usize;
        let mut answers = Vec::with_capacity(count.min(1024));
        for _ in 0..count {
            answers.push(ResolveAnswer {
                status: r.u16()?,
                pid: r.u32()?,
                context: r.u32()?,
                staleness: r.u16()?,
            });
        }
        if !r.is_exhausted() {
            return Err(DecodeError::TrailingBytes {
                remaining: r.remaining(),
            });
        }
        Ok(ResolveBatchReply { answers })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_roundtrip() {
        let msg = ResolveBatchMsg {
            names: vec![b"storage".to_vec(), b"".to_vec(), b"print-q".to_vec()],
        };
        assert_eq!(ResolveBatchMsg::decode(&msg.encode()).unwrap(), msg);
    }

    #[test]
    fn reply_roundtrip() {
        let reply = ResolveBatchReply {
            answers: vec![
                ResolveAnswer {
                    status: RESOLVE_OK,
                    pid: 0x0002_0009,
                    context: 7,
                    staleness: 0,
                },
                ResolveAnswer {
                    status: RESOLVE_NOT_FOUND,
                    pid: 0,
                    context: 0,
                    staleness: 0,
                },
                ResolveAnswer {
                    status: RESOLVE_NO_SERVER,
                    pid: 0,
                    context: 0,
                    staleness: 1,
                },
            ],
        };
        assert_eq!(ResolveBatchReply::decode(&reply.encode()).unwrap(), reply);
    }

    #[test]
    fn empty_batch_roundtrips() {
        let msg = ResolveBatchMsg::default();
        assert_eq!(ResolveBatchMsg::decode(&msg.encode()).unwrap(), msg);
        let reply = ResolveBatchReply::default();
        assert_eq!(ResolveBatchReply::decode(&reply.encode()).unwrap(), reply);
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut buf = ResolveBatchMsg::default().encode();
        buf.push(0);
        assert!(matches!(
            ResolveBatchMsg::decode(&buf),
            Err(DecodeError::TrailingBytes { remaining: 1 })
        ));
    }

    #[test]
    fn large_batch_roundtrips_past_u16() {
        // Counts are 32-bit: a batch past 65 535 names must survive.
        let msg = ResolveBatchMsg {
            names: (0..70_000u32).map(|i| i.to_le_bytes().to_vec()).collect(),
        };
        let back = ResolveBatchMsg::decode(&msg.encode()).unwrap();
        assert_eq!(back.names.len(), 70_000);
        assert_eq!(back, msg);
    }
}
