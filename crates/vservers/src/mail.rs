//! The computer-mail naming server — the paper's extensibility argument
//! (§2.2) made concrete.
//!
//! Mailbox names like `cheriton@su-score.ARPA` follow a syntax "imposed by
//! standards established outside of the system". In the distributed model
//! they fit naturally: the mail server interprets its own syntax (splitting
//! at `@`), owns the mailboxes it names, and — when the host part names a
//! *different* mail server — forwards the request there under the ordinary
//! name-handling protocol, with the peer re-interpreting the full name.
//! No client, run-time routine, or other server knows anything about `@`.

use crate::common::{count_word, forward_csname, reply_code, reply_data, reply_descriptor};
use std::collections::BTreeMap;
use vio::{serve_read, InstanceTable};
use vkernel::Ipc;
use vnaming::{CsRequest, DirectoryBuilder};
use vproto::{
    fields, ContextId, CsName, DescriptorExt, DescriptorTag, InstanceId, Message, ObjectDescriptor,
    ObjectId, OpenMode, Pid, ReplyCode, RequestCode, Scope, ServiceId,
};

/// Configuration for a [`mail_server`] process.
#[derive(Debug, Clone)]
pub struct MailConfig {
    /// This server's host name (the part after `@` it claims).
    pub host: String,
    /// Peer mail servers by host name; names with these host parts are
    /// forwarded (index unchanged — the peer re-interprets the full name).
    pub peers: Vec<(String, Pid)>,
    /// Registration scope.
    pub scope: Scope,
}

impl MailConfig {
    /// Creates a config for a server claiming `host`, with no peers.
    pub fn new(host: impl Into<String>) -> Self {
        MailConfig {
            host: host.into(),
            peers: Vec::new(),
            scope: Scope::Both,
        }
    }

    /// Adds a peer mail server for `host`.
    pub fn with_peer(mut self, host: impl Into<String>, pid: Pid) -> Self {
        self.peers.push((host.into(), pid));
        self
    }
}

struct Mailbox {
    id: ObjectId,
    messages: Vec<u8>,
    unread: u32,
    modified: u64,
}

/// Splits `user@host`; names without `@` are local users.
fn split_mail_name(name: &[u8]) -> (&[u8], Option<&[u8]>) {
    match name.iter().position(|&b| b == b'@') {
        Some(i) => (&name[..i], Some(&name[i + 1..])),
        None => (name, None),
    }
}

/// Runs a mail naming server until the domain shuts down.
pub fn mail_server(ctx: &dyn Ipc, config: MailConfig) {
    let mut boxes: BTreeMap<Vec<u8>, Mailbox> = BTreeMap::new();
    let mut instances: InstanceTable<Vec<u8>> = InstanceTable::new();
    let mut dir_instances: InstanceTable<Vec<u8>> = InstanceTable::new();
    let mut next_obj = 0u32;
    let mut clock = 0u64;
    ctx.set_pid(ServiceId::MAIL_SERVER, config.scope);

    while let Ok(rx) = ctx.receive() {
        let msg = rx.msg;
        if msg.is_csname_request() {
            let payload = match ctx.move_from(&rx) {
                Ok(p) => p,
                Err(_) => continue,
            };
            let req = match CsRequest::parse(&msg, &payload) {
                Ok(r) => r,
                Err(code) => {
                    reply_code(ctx, rx, code);
                    continue;
                }
            };
            let full = req.remaining().to_vec();
            let (user, host) = split_mail_name(&full);

            // Foreign host? Forward to the peer; it re-interprets the whole
            // name (index unchanged), so the protocol needs no knowledge of
            // the `@` syntax.
            if let Some(h) = host {
                if h != config.host.as_bytes() {
                    match config.peers.iter().find(|(peer, _)| peer.as_bytes() == h) {
                        Some((_, pid)) => {
                            let _ = forward_csname(ctx, rx, *pid, ContextId::DEFAULT, req.index);
                        }
                        None => reply_code(ctx, rx, ReplyCode::NotFound),
                    }
                    continue;
                }
            }
            let user = user.to_vec();
            match msg.request_code() {
                Some(RequestCode::CreateInstance) => {
                    if user.is_empty() {
                        // Directory of local mailboxes.
                        let mut b = DirectoryBuilder::new();
                        for (n, mb) in &boxes {
                            b.push(&mailbox_descriptor(n, mb, &config));
                        }
                        let snapshot = b.finish();
                        let size = snapshot.len() as u64;
                        let inst = dir_instances.open(rx.from, OpenMode::Directory, snapshot);
                        let mut m = Message::ok();
                        m.set_word(fields::W_INSTANCE, inst.0)
                            .set_word32(fields::W_SIZE_LO, size as u32)
                            .set_pid_at(fields::W_PID_LO, ctx.my_pid());
                        reply_data(ctx, rx, m, Vec::new());
                        continue;
                    }
                    let mode = msg.mode().unwrap_or(OpenMode::Read);
                    if !boxes.contains_key(&user) {
                        if mode == OpenMode::Create || mode == OpenMode::Append {
                            clock += 1;
                            next_obj += 1;
                            boxes.insert(
                                user.clone(),
                                Mailbox {
                                    id: ObjectId(next_obj),
                                    messages: Vec::new(),
                                    unread: 0,
                                    modified: clock,
                                },
                            );
                        } else {
                            reply_code(ctx, rx, ReplyCode::NotFound);
                            continue;
                        }
                    }
                    if mode == OpenMode::Read {
                        // Reading the mailbox marks it read.
                        if let Some(mb) = boxes.get_mut(&user) {
                            mb.unread = 0;
                        }
                    }
                    let size = boxes[&user].messages.len() as u64;
                    let inst = instances.open(rx.from, mode, user);
                    let mut m = Message::ok();
                    m.set_word(fields::W_INSTANCE, inst.0)
                        .set_word32(fields::W_SIZE_LO, size as u32)
                        .set_pid_at(fields::W_PID_LO, ctx.my_pid());
                    reply_data(ctx, rx, m, Vec::new());
                }
                Some(RequestCode::QueryObject) => match boxes.get(&user) {
                    Some(mb) => reply_descriptor(ctx, rx, &mailbox_descriptor(&user, mb, &config)),
                    None => reply_code(ctx, rx, ReplyCode::NotFound),
                },
                Some(RequestCode::RemoveObject) => {
                    let code = if boxes.remove(&user).is_some() {
                        ReplyCode::Ok
                    } else {
                        ReplyCode::NotFound
                    };
                    reply_code(ctx, rx, code);
                }
                _ => reply_code(ctx, rx, ReplyCode::UnknownRequest),
            }
            continue;
        }
        match msg.request_code() {
            Some(RequestCode::WriteInstance) => {
                // Delivery: append one message.
                let id = InstanceId(msg.word(fields::W_IO_INSTANCE));
                let data = match ctx.move_from(&rx) {
                    Ok(d) => d,
                    Err(_) => continue,
                };
                let code = match instances.check(id, true) {
                    Ok(inst) => match boxes.get_mut(&inst.state) {
                        Some(mb) => {
                            clock += 1;
                            mb.messages.extend_from_slice(&data);
                            mb.messages.push(b'\n');
                            mb.unread += 1;
                            mb.modified = clock;
                            ReplyCode::Ok
                        }
                        None => ReplyCode::InvalidInstance,
                    },
                    Err(c) => c,
                };
                let mut m = Message::reply(code);
                m.set_word(fields::W_IO_COUNT, count_word(data.len()));
                reply_data(ctx, rx, m, Vec::new());
            }
            Some(RequestCode::ReadInstance) => {
                let id = InstanceId(msg.word(fields::W_IO_INSTANCE));
                let offset = msg.word32(fields::W_IO_OFFSET_LO) as u64;
                let count = msg.word(fields::W_IO_COUNT) as usize;
                let window: Result<Vec<u8>, ReplyCode> =
                    if let Ok(inst) = instances.check(id, false) {
                        match boxes.get(&inst.state) {
                            Some(mb) => serve_read(&mb.messages, offset, count).map(|w| w.to_vec()),
                            None => Err(ReplyCode::InvalidInstance),
                        }
                    } else if let Ok(inst) = dir_instances.check(id, false) {
                        serve_read(&inst.state, offset, count).map(|w| w.to_vec())
                    } else {
                        Err(ReplyCode::InvalidInstance)
                    };
                match window {
                    Ok(w) => {
                        let mut m = Message::ok();
                        m.set_word(fields::W_IO_COUNT, count_word(w.len()));
                        reply_data(ctx, rx, m, w);
                    }
                    Err(code) => reply_code(ctx, rx, code),
                }
            }
            Some(RequestCode::ReleaseInstance) => {
                let id = InstanceId(msg.word(fields::W_IO_INSTANCE));
                let code = if instances.release(id).is_some() || dir_instances.release(id).is_some()
                {
                    ReplyCode::Ok
                } else {
                    ReplyCode::InvalidInstance
                };
                reply_code(ctx, rx, code);
            }
            _ => reply_code(ctx, rx, ReplyCode::UnknownRequest),
        }
    }
}

fn mailbox_descriptor(user: &[u8], mb: &Mailbox, config: &MailConfig) -> ObjectDescriptor {
    let mut full = user.to_vec();
    full.push(b'@');
    full.extend_from_slice(config.host.as_bytes());
    ObjectDescriptor::new(DescriptorTag::Mailbox, CsName::from(full))
        .with_object_id(mb.id)
        .with_size(mb.messages.len() as u64)
        .with_modified(mb.modified)
        .with_ext(DescriptorExt::Mailbox { unread: mb.unread })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mail_name_splitting() {
        assert_eq!(
            split_mail_name(b"cheriton@su-score.ARPA"),
            (&b"cheriton"[..], Some(&b"su-score.ARPA"[..]))
        );
        assert_eq!(split_mail_name(b"localuser"), (&b"localuser"[..], None));
        assert_eq!(split_mail_name(b"@host"), (&b""[..], Some(&b"host"[..])));
        assert_eq!(split_mail_name(b"a@"), (&b"a"[..], Some(&b""[..])));
    }
}
