//! Plumbing shared by every CSNH server.

use bytes::Bytes;
use vkernel::{Ipc, Received};
use vnaming::check_forward_budget;
use vproto::{ContextId, Message, ObjectDescriptor, ReplyCode};

/// A length or count as a 16-bit message word: saturates at `u16::MAX`
/// instead of silently truncating. Every such word is advisory — the
/// payload's own length (or the 32-bit count inside it) is authoritative.
pub(crate) fn count_word(n: usize) -> u16 {
    u16::try_from(n).unwrap_or(u16::MAX)
}

/// Replies with a bare failure (or success) code.
pub(crate) fn reply_code(ctx: &dyn Ipc, rx: Received, code: ReplyCode) {
    let _ = ctx.reply(rx, Message::reply(code), Bytes::new());
}

/// Replies with a name-interpretation failure, carrying the byte index at
/// which interpretation stopped (paper §7's error-reporting problem).
pub(crate) fn reply_fail(ctx: &dyn Ipc, rx: Received, fail: vnaming::FailReason) {
    let mut m = Message::reply(fail.code);
    m.set_word(vproto::fields::W_FAIL_INDEX, count_word(fail.index));
    let _ = ctx.reply(rx, m, Bytes::new());
}

/// Replies `Ok` with a data payload.
pub(crate) fn reply_data(ctx: &dyn Ipc, rx: Received, msg: Message, data: Vec<u8>) {
    let _ = ctx.reply(rx, msg, Bytes::from(data));
}

/// Replies `Ok` with an encoded descriptor as the data.
pub(crate) fn reply_descriptor(ctx: &dyn Ipc, rx: Received, d: &ObjectDescriptor) {
    reply_data(ctx, rx, Message::ok(), d.encode());
}

/// Forwards a CSname request to the server implementing the next context,
/// per the mapping procedure of paper §5.4: context-id and name-index
/// fields updated, forward budget consumed.
///
/// The error distinguishes why a forward failed — `NoProcess` means the
/// target is permanently gone (the prefix server garbage-collects stale
/// direct entries on it), `Timeout` a transient fault-plane loss. In both
/// cases the blocked sender has already been failed by the kernel; the
/// result is advisory.
pub(crate) fn forward_csname(
    ctx: &dyn Ipc,
    rx: Received,
    target_server: vproto::Pid,
    target_ctx: ContextId,
    new_index: usize,
) -> Result<(), vkernel::IpcError> {
    let mut msg = rx.msg;
    if let Err(code) = check_forward_budget(&mut msg) {
        reply_code(ctx, rx, code);
        return Ok(());
    }
    msg.set_context_id(target_ctx);
    msg.set_name_index(new_index as u16);
    ctx.forward(rx, target_server, msg)
}

/// A simple logical clock for `modified` stamps: servers count operations.
/// (The simulated domain epoch; real time is irrelevant to the protocol.)
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct OpClock(u64);

impl OpClock {
    pub(crate) fn tick(&mut self) -> u64 {
        self.0 += 1;
        self.0
    }
}
