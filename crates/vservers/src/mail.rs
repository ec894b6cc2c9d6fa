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

use crate::common::{
    open_directory, open_reply, reply, reply_descriptor, serve_flat, Answer, Call, FlatObjects,
    Handle, Handled,
};
use std::collections::BTreeMap;
use vio::InstanceTable;
use vkernel::Ipc;
use vnaming::{CsRequest, DirectoryBuilder};
use vproto::{
    ContextId, ContextPair, CsName, DescriptorExt, DescriptorTag, ObjectDescriptor, ObjectId,
    OpenMode, Pid, ReplyCode, RequestCode, Scope, ServiceId,
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

struct Mailboxes {
    boxes: BTreeMap<Vec<u8>, Mailbox>,
    next_obj: u32,
    clock: u64,
    config: MailConfig,
}

/// Runs a mail naming server until the domain shuts down.
pub fn mail_server(ctx: &dyn Ipc, config: MailConfig) {
    ctx.set_pid(ServiceId::MAIL_SERVER, config.scope);
    serve_flat(
        ctx,
        Mailboxes {
            boxes: BTreeMap::new(),
            next_obj: 0,
            clock: 0,
            config,
        },
    );
}

impl FlatObjects for Mailboxes {
    fn name_op(
        &mut self,
        call: &mut Call,
        req: CsRequest,
        instances: &mut InstanceTable<Handle<Vec<u8>>>,
    ) -> Handled {
        let (user, host) = split_mail_name(req.remaining());

        // Foreign host? Forward to the peer; it re-interprets the whole
        // name (index unchanged), so the protocol needs no knowledge of
        // the `@` syntax.
        if let Some(h) = host.filter(|h| *h != self.config.host.as_bytes()) {
            return match self
                .config
                .peers
                .iter()
                .find(|(peer, _)| peer.as_bytes() == h)
            {
                Some((_, pid)) => Ok(Answer::Forward {
                    to: ContextPair::new(*pid, ContextId::DEFAULT),
                    index: req.index,
                }),
                None => Err(ReplyCode::NotFound),
            };
        }
        match call.msg.request_code() {
            Some(RequestCode::CreateInstance) if user.is_empty() => {
                // Directory of local mailboxes.
                let mut b = DirectoryBuilder::new();
                for (n, mb) in &self.boxes {
                    b.push(&mailbox_descriptor(n, mb, &self.config));
                }
                open_directory(call, instances, b.finish(), ContextId::DEFAULT)
            }
            Some(RequestCode::CreateInstance) => {
                let mode = call.msg.mode().unwrap_or(OpenMode::Read);
                if !self.boxes.contains_key(user) {
                    if mode != OpenMode::Create && mode != OpenMode::Append {
                        return Err(ReplyCode::NotFound);
                    }
                    self.clock += 1;
                    self.next_obj += 1;
                    let mailbox = Mailbox {
                        id: ObjectId(self.next_obj),
                        messages: Vec::new(),
                        unread: 0,
                        modified: self.clock,
                    };
                    self.boxes.insert(user.to_vec(), mailbox);
                }
                let Some(mb) = self.boxes.get_mut(user) else {
                    return Err(ReplyCode::NotFound);
                };
                if mode == OpenMode::Read {
                    // Reading the mailbox marks it read.
                    mb.unread = 0;
                }
                let size = mb.messages.len() as u64;
                let inst = instances.open(call.from, mode, Handle::Object(user.to_vec()));
                open_reply(call, inst, size)
            }
            Some(RequestCode::QueryObject) => match self.boxes.get(user) {
                Some(mb) => reply_descriptor(&mailbox_descriptor(user, mb, &self.config)),
                None => Err(ReplyCode::NotFound),
            },
            Some(RequestCode::RemoveObject) => match self.boxes.remove(user) {
                Some(_) => reply(ReplyCode::Ok),
                None => Err(ReplyCode::NotFound),
            },
            _ => Err(ReplyCode::UnknownRequest),
        }
    }

    fn object(&self, name: &[u8]) -> Option<&[u8]> {
        self.boxes.get(name).map(|mb| &mb.messages[..])
    }

    /// Delivery: one write is one message.
    fn append(&mut self, name: &[u8], data: &[u8]) -> Result<(), ReplyCode> {
        let mb = self.boxes.get_mut(name).ok_or(ReplyCode::InvalidInstance)?;
        self.clock += 1;
        mb.messages.extend_from_slice(data);
        mb.messages.push(b'\n');
        mb.unread += 1;
        mb.modified = self.clock;
        Ok(())
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
