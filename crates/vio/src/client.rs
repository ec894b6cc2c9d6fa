//! Client-side I/O operations and the sequential [`FileHandle`] stream.

// A client that panics on a fault turns the fault plane's recoverable
// errors into crashes: it returns them instead.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]

use crate::error::{check, IoError};
use bytes::Bytes;
use vkernel::Ipc;
use vnaming::build_csname_request;
use vproto::{
    fields, name_word, ContextId, CsName, InstanceId, Message, ObjectDescriptor, OpenMode, Pid,
    ReplyCode, RequestCode,
};

/// Default read window used by [`FileHandle`] streaming (one 512-byte disk
/// page — the paper's §3.1 sequential-read scenario).
pub const DEFAULT_BLOCK: usize = 512;

/// Result of a successful open: where the instance lives and what the
/// server reported about the object.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpenOutcome {
    /// The server that ended up implementing the object — not necessarily
    /// the one the request was first sent to, thanks to forwarding.
    pub server: Pid,
    /// The instance id for subsequent I/O.
    pub instance: InstanceId,
    /// Object size in bytes at open time.
    pub size: u64,
}

/// Opens `name` in context `ctx` at `server` (paper's `Open`, minus the
/// context-prefix routing that lives in `vruntime`).
///
/// # Errors
///
/// Transport failures surface as [`IoError::Ipc`]; server refusals
/// (unknown name, bad mode, ...) as [`IoError::Server`]. A name longer
/// than a name-length word can say is refused with
/// [`ReplyCode::IllegalName`] before anything is sent.
pub fn open_at(
    ipc: &dyn Ipc,
    server: Pid,
    ctx: ContextId,
    name: &CsName,
    mode: OpenMode,
) -> Result<OpenOutcome, IoError> {
    name_word(name.len())?;
    let (mut msg, payload) = build_csname_request(RequestCode::CreateInstance, ctx, name, &[]);
    msg.set_mode(mode);
    let reply = ipc.send(server, msg, payload, 0)?;
    check(reply.msg.reply_code())?;
    Ok(OpenOutcome {
        server: reply.msg.pid_at(fields::W_PID_LO),
        instance: InstanceId(reply.msg.word(fields::W_INSTANCE)),
        size: reply.msg.word32(fields::W_SIZE_LO) as u64,
    })
}

/// Reads up to `count` bytes at byte `offset` from an open instance. One
/// reply carries at most 65 535 bytes, the most a count word can ask for.
///
/// # Errors
///
/// [`ReplyCode::EndOfFile`] (as [`IoError::Server`]) when `offset` is at or
/// past the end of the object.
pub fn read_at(
    ipc: &dyn Ipc,
    server: Pid,
    instance: InstanceId,
    offset: u64,
    count: usize,
) -> Result<Bytes, IoError> {
    let mut msg = Message::request(RequestCode::ReadInstance);
    msg.set_word(fields::W_IO_INSTANCE, instance.0)
        .set_word32(fields::W_IO_OFFSET_LO, offset as u32)
        .set_count(fields::W_IO_COUNT, count);
    let reply = ipc.send(server, msg, Bytes::new(), count)?;
    check(reply.msg.reply_code())?;
    Ok(reply.data)
}

/// Writes `data` at byte `offset` of an open instance; returns bytes
/// written, which is all of `data`: every server accepts a write whole or
/// refuses it. (The reply's count word is advisory and saturates at
/// 65 535.)
///
/// # Errors
///
/// [`ReplyCode::BadMode`] if the instance was not opened for writing.
pub fn write_at(
    ipc: &dyn Ipc,
    server: Pid,
    instance: InstanceId,
    offset: u64,
    data: &[u8],
) -> Result<usize, IoError> {
    let mut msg = Message::request(RequestCode::WriteInstance);
    msg.set_word(fields::W_IO_INSTANCE, instance.0)
        .set_word32(fields::W_IO_OFFSET_LO, offset as u32)
        .set_count(fields::W_IO_COUNT, data.len());
    let reply = ipc.send(server, msg, Bytes::copy_from_slice(data), 0)?;
    check(reply.msg.reply_code())?;
    Ok(data.len())
}

/// Releases (closes) an open instance.
///
/// # Errors
///
/// [`ReplyCode::InvalidInstance`] if the id is stale.
pub fn release(ipc: &dyn Ipc, server: Pid, instance: InstanceId) -> Result<(), IoError> {
    let mut msg = Message::request(RequestCode::ReleaseInstance);
    msg.set_word(fields::W_IO_INSTANCE, instance.0);
    let reply = ipc.send(server, msg, Bytes::new(), 0)?;
    check(reply.msg.reply_code())
}

/// Queries the descriptor of an open instance (paper §5.5 applied to
/// temporary names).
///
/// # Errors
///
/// [`ReplyCode::InvalidInstance`] if the id is stale; decode failures
/// surface as [`ReplyCode::BadArgs`].
pub fn query_instance(
    ipc: &dyn Ipc,
    server: Pid,
    instance: InstanceId,
) -> Result<ObjectDescriptor, IoError> {
    let mut msg = Message::request(RequestCode::QueryInstance);
    msg.set_word(fields::W_IO_INSTANCE, instance.0);
    let reply = ipc.send(server, msg, Bytes::new(), 4096)?;
    check(reply.msg.reply_code())?;
    ObjectDescriptor::decode_one(&reply.data).map_err(|_| IoError::Server(ReplyCode::BadArgs))
}

/// A sequential stream over an open instance: the client-side position
/// tracking the V I/O protocol leaves out of the (stateless) server.
#[derive(Debug)]
pub struct FileHandle {
    server: Pid,
    instance: InstanceId,
    pos: u64,
    size: u64,
    block: usize,
    released: bool,
}

impl FileHandle {
    /// Wraps an [`OpenOutcome`] in a stream positioned at byte 0.
    pub fn new(outcome: OpenOutcome) -> Self {
        FileHandle {
            server: outcome.server,
            instance: outcome.instance,
            pos: 0,
            size: outcome.size,
            block: DEFAULT_BLOCK,
            released: false,
        }
    }

    /// Sets the read window used by [`FileHandle::read_next`].
    pub fn with_block(mut self, block: usize) -> Self {
        self.block = block.max(1);
        self
    }

    /// The server implementing this instance.
    pub fn server(&self) -> Pid {
        self.server
    }

    /// The instance id.
    pub fn instance(&self) -> InstanceId {
        self.instance
    }

    /// Current stream position.
    pub fn position(&self) -> u64 {
        self.pos
    }

    /// Object size reported at open.
    pub fn size(&self) -> u64 {
        self.size
    }

    /// Reads the next block; `Ok(None)` at end of file.
    ///
    /// # Errors
    ///
    /// Propagates transport and server failures other than end-of-file.
    pub fn read_next(&mut self, ipc: &dyn Ipc) -> Result<Option<Bytes>, IoError> {
        match read_at(ipc, self.server, self.instance, self.pos, self.block) {
            Ok(data) => {
                self.pos += data.len() as u64;
                if data.is_empty() {
                    Ok(None)
                } else {
                    Ok(Some(data))
                }
            }
            Err(e) if e.is_eof() => Ok(None),
            Err(e) => Err(e),
        }
    }

    /// Reads the whole remaining stream into one buffer.
    ///
    /// # Errors
    ///
    /// Propagates transport and server failures.
    pub fn read_to_end(&mut self, ipc: &dyn Ipc) -> Result<Vec<u8>, IoError> {
        let mut out = Vec::new();
        while let Some(chunk) = self.read_next(ipc)? {
            out.extend_from_slice(&chunk);
        }
        Ok(out)
    }

    /// Appends `data` at the current position, advancing it.
    ///
    /// # Errors
    ///
    /// Propagates transport and server failures.
    pub fn write_next(&mut self, ipc: &dyn Ipc, data: &[u8]) -> Result<(), IoError> {
        let written = write_at(ipc, self.server, self.instance, self.pos, data)?;
        self.pos += written as u64;
        self.size = self.size.max(self.pos);
        Ok(())
    }

    /// Repositions the stream.
    pub fn seek(&mut self, pos: u64) {
        self.pos = pos;
    }

    /// Closes the instance. Safe to call once; `Drop` does *not* close (a
    /// blocking operation) — per Rust destructor guidance, closing is
    /// explicit.
    ///
    /// # Errors
    ///
    /// Propagates transport and server failures.
    pub fn close(mut self, ipc: &dyn Ipc) -> Result<(), IoError> {
        self.released = true;
        release(ipc, self.server, self.instance)
    }

    /// Borrows the handle as a [`std::io::Read`], so V files compose with
    /// the standard library's reader ecosystem.
    pub fn reader<'h>(&'h mut self, ipc: &'h dyn Ipc) -> HandleReader<'h> {
        HandleReader { handle: self, ipc }
    }

    /// Borrows the handle as a [`std::io::Write`].
    pub fn writer<'h>(&'h mut self, ipc: &'h dyn Ipc) -> HandleWriter<'h> {
        HandleWriter { handle: self, ipc }
    }
}

fn to_std_io(e: IoError) -> std::io::Error {
    std::io::Error::other(e)
}

/// [`std::io::Read`] adapter over a [`FileHandle`] (see
/// [`FileHandle::reader`]).
pub struct HandleReader<'h> {
    handle: &'h mut FileHandle,
    ipc: &'h dyn Ipc,
}

impl std::fmt::Debug for HandleReader<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HandleReader")
            .field("handle", &self.handle)
            .finish()
    }
}

impl std::io::Read for HandleReader<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        if buf.is_empty() {
            return Ok(0);
        }
        match read_at(
            self.ipc,
            self.handle.server,
            self.handle.instance,
            self.handle.pos,
            buf.len(),
        ) {
            Ok(data) => {
                buf[..data.len()].copy_from_slice(&data);
                self.handle.pos += data.len() as u64;
                Ok(data.len())
            }
            Err(e) if e.is_eof() => Ok(0),
            Err(e) => Err(to_std_io(e)),
        }
    }
}

impl std::fmt::Debug for HandleWriter<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HandleWriter")
            .field("handle", &self.handle)
            .finish()
    }
}

/// [`std::io::Write`] adapter over a [`FileHandle`] (see
/// [`FileHandle::writer`]).
pub struct HandleWriter<'h> {
    handle: &'h mut FileHandle,
    ipc: &'h dyn Ipc,
}

impl std::io::Write for HandleWriter<'_> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.handle.write_next(self.ipc, buf).map_err(to_std_io)?;
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        // Writes are synchronous transactions; nothing is buffered.
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vkernel::Domain;
    use vproto::LogicalHost;
    use vservers::{file_server, FileServerConfig};

    /// The 70 000 bytes of the preloaded object "big".
    fn big() -> Vec<u8> {
        (0..70_000u32).map(|i| i as u8).collect()
    }

    /// A file server holding "data" (0..=255 twice) and "big".
    pub(super) fn spawn_file_server(domain: &Domain, host: LogicalHost) -> Pid {
        domain.spawn(host, "fileserver", |ctx| {
            let data = (0..=255).chain(0..=255).collect();
            file_server(
                ctx,
                FileServerConfig {
                    preload: vec![("data".into(), data), ("big".into(), big())],
                    ..FileServerConfig::default()
                },
            )
        })
    }

    fn open(ctx: &dyn Ipc, server: Pid, name: &str, mode: OpenMode) -> FileHandle {
        let name = CsName::from(name);
        FileHandle::new(open_at(ctx, server, ContextId::DEFAULT, &name, mode).unwrap())
    }

    #[test]
    fn a_block_of_65_536_reads_the_whole_object() {
        // A count word cannot say 65 536; it once wrapped to 0, which the
        // stream read as end of file.
        let domain = Domain::new();
        let host = domain.add_host();
        let server = spawn_file_server(&domain, host);
        let back = domain.client(host, move |ctx| {
            let mut handle = open(ctx, server, "big", OpenMode::Read).with_block(65_536);
            handle.read_to_end(ctx).unwrap()
        });
        assert!(back == big(), "read {} of 70 000 bytes", back.len());
    }

    #[test]
    fn writes_past_65_535_bytes_advance_the_stream_by_their_length() {
        let domain = Domain::new();
        let host = domain.add_host();
        let server = spawn_file_server(&domain, host);
        domain.client(host, move |ctx| {
            let mut handle = open(ctx, server, "new", OpenMode::Create);
            handle.write_next(ctx, &[1; 70_000]).unwrap();
            handle.write_next(ctx, &[2; 70_000]).unwrap();
            assert_eq!(handle.position(), 140_000);
            let size = query_instance(ctx, server, handle.instance()).unwrap().size;
            assert_eq!(size, 140_000);
        });
    }

    #[test]
    fn an_overlong_name_is_refused_before_it_is_sent() {
        let domain = Domain::new();
        let host = domain.add_host();
        let server = spawn_file_server(&domain, host);
        domain.client(host, move |ctx| {
            let name = CsName::from(vec![b'a'; usize::from(u16::MAX) + 1]);
            let err = open_at(ctx, server, ContextId::DEFAULT, &name, OpenMode::Read).unwrap_err();
            assert_eq!(err.reply_code(), Some(ReplyCode::IllegalName));
        });
    }

    #[test]
    fn open_read_close_session() {
        let domain = Domain::new();
        let host = domain.add_host();
        let server = spawn_file_server(&domain, host);
        domain.client(host, move |ctx| {
            let out = open_at(
                ctx,
                server,
                ContextId::DEFAULT,
                &CsName::from("data"),
                OpenMode::Read,
            )
            .unwrap();
            assert_eq!(out.size, 512);
            assert_eq!(out.server, server);
            let first = read_at(ctx, server, out.instance, 0, 16).unwrap();
            assert_eq!(&first[..4], &[0, 1, 2, 3]);
            release(ctx, server, out.instance).unwrap();
            // Stale instance now rejected.
            let err = read_at(ctx, server, out.instance, 0, 16).unwrap_err();
            assert_eq!(err.reply_code(), Some(ReplyCode::InvalidInstance));
        });
    }

    #[test]
    fn open_unknown_name_fails() {
        let domain = Domain::new();
        let host = domain.add_host();
        let server = spawn_file_server(&domain, host);
        domain.client(host, move |ctx| {
            let err = open_at(
                ctx,
                server,
                ContextId::DEFAULT,
                &CsName::from("nonesuch"),
                OpenMode::Read,
            )
            .unwrap_err();
            assert_eq!(err.reply_code(), Some(ReplyCode::NotFound));
        });
    }

    #[test]
    fn stream_reads_whole_object_in_blocks() {
        let domain = Domain::new();
        let host = domain.add_host();
        let server = spawn_file_server(&domain, host);
        domain.client(host, move |ctx| {
            let out = open_at(
                ctx,
                server,
                ContextId::DEFAULT,
                &CsName::from("data"),
                OpenMode::Read,
            )
            .unwrap();
            let mut handle = FileHandle::new(out).with_block(100);
            let all = handle.read_to_end(ctx).unwrap();
            assert_eq!(all.len(), 512);
            assert_eq!(all[511], 255);
            handle.close(ctx).unwrap();
        });
    }

    #[test]
    fn write_then_read_back() {
        let domain = Domain::new();
        let host = domain.add_host();
        let server = spawn_file_server(&domain, host);
        domain.client(host, move |ctx| {
            let out = open_at(
                ctx,
                server,
                ContextId::DEFAULT,
                &CsName::from("data"),
                OpenMode::Write,
            )
            .unwrap();
            write_at(ctx, server, out.instance, 4, b"PATCH").unwrap();
            let back = read_at(ctx, server, out.instance, 4, 5).unwrap();
            assert_eq!(&back[..], b"PATCH");
        });
    }

    #[test]
    fn read_only_instance_rejects_write() {
        let domain = Domain::new();
        let host = domain.add_host();
        let server = spawn_file_server(&domain, host);
        domain.client(host, move |ctx| {
            let out = open_at(
                ctx,
                server,
                ContextId::DEFAULT,
                &CsName::from("data"),
                OpenMode::Read,
            )
            .unwrap();
            let err = write_at(ctx, server, out.instance, 0, b"x").unwrap_err();
            assert_eq!(err.reply_code(), Some(ReplyCode::BadMode));
        });
    }

    #[test]
    fn seek_and_partial_reads() {
        let domain = Domain::new();
        let host = domain.add_host();
        let server = spawn_file_server(&domain, host);
        domain.client(host, move |ctx| {
            let out = open_at(
                ctx,
                server,
                ContextId::DEFAULT,
                &CsName::from("data"),
                OpenMode::Read,
            )
            .unwrap();
            let mut handle = FileHandle::new(out).with_block(64);
            handle.seek(500);
            let tail = handle.read_to_end(ctx).unwrap();
            assert_eq!(tail.len(), 12);
            assert_eq!(handle.position(), 512);
        });
    }
}

#[cfg(test)]
mod io_adapter_tests {
    use super::*;
    use vkernel::Domain;

    #[test]
    fn std_io_copy_between_v_files() {
        let domain = Domain::new();
        let host = domain.add_host();
        let server = super::tests::spawn_file_server(&domain, host);
        domain.client(host, move |ctx| {
            let src = open_at(
                ctx,
                server,
                vproto::ContextId::DEFAULT,
                &vproto::CsName::from("data"),
                OpenMode::Read,
            )
            .unwrap();
            let mut src = FileHandle::new(src).with_block(64);
            let mut sink: Vec<u8> = Vec::new();
            std::io::copy(&mut src.reader(ctx), &mut sink).unwrap();
            assert_eq!(sink.len(), 512);
            assert_eq!(sink[0], 0);
            assert_eq!(sink[511], 255);
        });
    }

    #[test]
    fn std_io_write_appends() {
        use std::io::Write;
        let domain = Domain::new();
        let host = domain.add_host();
        let server = super::tests::spawn_file_server(&domain, host);
        domain.client(host, move |ctx| {
            let h = open_at(
                ctx,
                server,
                vproto::ContextId::DEFAULT,
                &vproto::CsName::from("data"),
                OpenMode::Write,
            )
            .unwrap();
            let mut h = FileHandle::new(h);
            write!(h.writer(ctx), "written via std::io::Write").unwrap();
            let back = read_at(ctx, server, h.instance(), 0, 26).unwrap();
            assert_eq!(&back[..], b"written via std::io::Write");
        });
    }
}
