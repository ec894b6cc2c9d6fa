//! Minimal little-endian wire encoding helpers used by descriptor records
//! and context directories.
//!
//! V messages are fixed 32-byte structures, but descriptor records and
//! directory contents are variable-length byte streams transferred as
//! payloads. This module provides the (deliberately tiny) reader/writer both
//! ends share.

use crate::descriptor::DecodeError;

/// `u16` length-prefix value marking an escaped long byte string: the real
/// length follows as a `u32`. See [`WireWriter::bytes`].
pub const LONG_LEN_ESCAPE: u16 = 0xFFFF;

/// The number of bytes [`WireWriter::bytes`] appends for `b`: its length
/// header, short or escaped, and `b` itself.
pub(crate) fn wire_len(b: &[u8]) -> usize {
    let header = match u16::try_from(b.len()) {
        Ok(short) if short != LONG_LEN_ESCAPE => 2,
        _ => 6,
    };
    header + b.len()
}

/// Append-only little-endian encoder.
///
/// # Examples
///
/// ```
/// use vproto::{WireWriter, WireReader};
///
/// let mut w = WireWriter::new();
/// w.u16(7).u32(42).bytes(b"hi");
/// let buf = w.into_vec();
/// let mut r = WireReader::new(&buf);
/// assert_eq!(r.u16().unwrap(), 7);
/// assert_eq!(r.u32().unwrap(), 42);
/// assert_eq!(r.bytes().unwrap(), b"hi");
/// ```
#[derive(Debug, Clone, Default)]
pub struct WireWriter {
    buf: Vec<u8>,
}

impl WireWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        WireWriter::default()
    }

    /// Creates an empty writer with room for `len` bytes.
    pub fn with_capacity(len: usize) -> Self {
        WireWriter {
            buf: Vec::with_capacity(len),
        }
    }

    /// Appends a `u16`.
    pub fn u16(&mut self, v: u16) -> &mut Self {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Appends a `u32`.
    pub fn u32(&mut self, v: u32) -> &mut Self {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Appends a `u64`.
    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Appends a length-prefixed byte string.
    ///
    /// Strings shorter than [`LONG_LEN_ESCAPE`] carry a plain `u16` length,
    /// unchanged from the original encoding. Longer strings (and the length
    /// value `0xFFFF` itself, which now serves as the marker) are prefixed
    /// by the escape marker followed by the real length as a `u32`, so a
    /// directory transfer past 64 KiB round-trips instead of truncating or
    /// aborting the server.
    ///
    /// # Panics
    ///
    /// Panics if `b.len() > u32::MAX as usize` (a single wire string of
    /// over 4 GiB).
    pub fn bytes(&mut self, b: &[u8]) -> &mut Self {
        match u16::try_from(b.len()) {
            Ok(short) if short != LONG_LEN_ESCAPE => self.u16(short),
            _ => {
                let long = u32::try_from(b.len()).expect("wire byte string exceeds u32::MAX");
                self.u16(LONG_LEN_ESCAPE).u32(long)
            }
        };
        self.buf.extend_from_slice(b);
        self
    }

    /// Appends raw bytes with no length prefix.
    pub fn raw(&mut self, b: &[u8]) -> &mut Self {
        self.buf.extend_from_slice(b);
        self
    }

    /// Returns the number of bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Returns `true` if nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Consumes the writer, returning the encoded bytes.
    pub fn into_vec(self) -> Vec<u8> {
        self.buf
    }
}

/// Sequential little-endian decoder over a byte slice.
#[derive(Debug, Clone)]
pub struct WireReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> WireReader<'a> {
    /// Creates a reader over `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        WireReader { buf, pos: 0 }
    }

    /// Returns the current read offset.
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Returns the number of unread bytes.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Returns `true` if all bytes have been consumed.
    pub fn is_exhausted(&self) -> bool {
        self.remaining() == 0
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        if self.remaining() < n {
            return Err(DecodeError::Truncated {
                needed: n,
                available: self.remaining(),
            });
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Reads a `u16`.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError::Truncated`] if fewer than 2 bytes remain.
    pub fn u16(&mut self) -> Result<u16, DecodeError> {
        let b = self.take(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    /// Reads a `u32`.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError::Truncated`] if fewer than 4 bytes remain.
    pub fn u32(&mut self) -> Result<u32, DecodeError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a `u64`.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError::Truncated`] if fewer than 8 bytes remain.
    pub fn u64(&mut self) -> Result<u64, DecodeError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes(b.try_into().expect("len 8")))
    }

    /// Reads a length-prefixed byte string, honouring the
    /// [`LONG_LEN_ESCAPE`] long-string encoding of [`WireWriter::bytes`].
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError::Truncated`] if the buffer ends early.
    pub fn bytes(&mut self) -> Result<&'a [u8], DecodeError> {
        let len = match self.u16()? {
            LONG_LEN_ESCAPE => self.u32()? as usize,
            short => short as usize,
        };
        self.take(len)
    }

    /// Reads exactly `n` raw bytes.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError::Truncated`] if fewer than `n` bytes remain.
    pub fn raw(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        self.take(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_roundtrip() {
        let mut w = WireWriter::new();
        w.u16(0xA1B2).u32(0xDEADBEEF).u64(0x0123_4567_89AB_CDEF);
        let v = w.into_vec();
        let mut r = WireReader::new(&v);
        assert_eq!(r.u16().unwrap(), 0xA1B2);
        assert_eq!(r.u32().unwrap(), 0xDEADBEEF);
        assert_eq!(r.u64().unwrap(), 0x0123_4567_89AB_CDEF);
        assert!(r.is_exhausted());
    }

    #[test]
    fn byte_string_roundtrip() {
        let mut w = WireWriter::new();
        w.bytes(b"").bytes(b"name.txt");
        let v = w.into_vec();
        let mut r = WireReader::new(&v);
        assert_eq!(r.bytes().unwrap(), b"");
        assert_eq!(r.bytes().unwrap(), b"name.txt");
    }

    #[test]
    fn long_byte_string_roundtrip() {
        // 0xFFFF exactly, and one past it, both take the escaped encoding;
        // one short of it stays on the plain u16 prefix.
        for len in [0xFFFE_usize, 0xFFFF, 0x1_0000, 0x2_0001] {
            let payload = vec![0xAB_u8; len];
            let mut w = WireWriter::new();
            w.bytes(&payload).u16(0x1234);
            let v = w.into_vec();
            let mut r = WireReader::new(&v);
            assert_eq!(r.bytes().unwrap(), &payload[..], "len {len:#x}");
            assert_eq!(
                r.u16().unwrap(),
                0x1234,
                "stream stays aligned after len {len:#x}"
            );
            assert!(r.is_exhausted());
        }
    }

    #[test]
    fn short_byte_string_prefix_is_wire_compatible() {
        // The escape must not change the encoding of ordinary strings.
        let mut w = WireWriter::new();
        w.bytes(b"hi");
        assert_eq!(w.into_vec(), vec![2, 0, b'h', b'i']);
    }

    #[test]
    fn truncation_reports_needed_bytes() {
        let mut r = WireReader::new(&[0x01]);
        match r.u32() {
            Err(DecodeError::Truncated { needed, available }) => {
                assert_eq!(needed, 4);
                assert_eq!(available, 1);
            }
            other => panic!("expected truncation, got {other:?}"),
        }
    }

    #[test]
    fn truncated_byte_string() {
        // Length prefix claims 10 bytes, only 2 present.
        let mut w = WireWriter::new();
        w.u16(10).raw(b"ab");
        let v = w.into_vec();
        let mut r = WireReader::new(&v);
        assert!(r.bytes().is_err());
    }

    #[test]
    fn position_tracking() {
        let mut w = WireWriter::new();
        w.u16(1).u16(2);
        let v = w.into_vec();
        let mut r = WireReader::new(&v);
        assert_eq!(r.position(), 0);
        r.u16().unwrap();
        assert_eq!(r.position(), 2);
        assert_eq!(r.remaining(), 2);
    }
}
