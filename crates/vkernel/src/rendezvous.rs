//! The thread kernel's rendezvous: a per-process [`Mailbox`] and one
//! reusable [`ReplyCell`] per process, built for what a V transaction is
//! (paper §3.1, Figure 1) — many senders but **one** receiver per mailbox,
//! and **one** blocked sender per reply.
//!
//! Both halves block with `std::thread::park` and are woken with
//! `Thread::unpark`, and both follow one rule: **never wake with the lock
//! held**. A wake-up issued inside the critical section lets the woken
//! thread preempt the waker, bounce off the still-held lock and sleep
//! again — two extra context switches per hand-off on a busy core. Every
//! method below therefore computes "should I wake?" under the lock and
//! calls `unpark` only after the guard is gone.
//!
//! Park tokens are shared by everything a thread waits on (a server that
//! also sends parks on its mailbox and on its cell), so every wait re-checks
//! its own condition under its own lock before parking again; a stray token
//! costs one loop iteration, never a lost or phantom wake-up.

use crate::api::Reply;
use crate::error::IpcError;
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::sync::{Arc, OnceLock};
use std::thread::Thread;

struct MailState<T> {
    queue: VecDeque<T>,
    closed: bool,
}

/// A process's message queue: any thread pushes, only the owning process
/// thread pops.
pub(crate) struct Mailbox<T> {
    state: Mutex<MailState<T>>,
    /// Set by the owner before its first pop. A pusher that finds it unset
    /// has nobody to wake: the owner has not parked yet and will look at
    /// the queue, under the lock, before it ever does.
    owner: OnceLock<Thread>,
}

impl<T> Mailbox<T> {
    pub(crate) fn new() -> Self {
        Mailbox {
            state: Mutex::new(MailState {
                queue: VecDeque::new(),
                closed: false,
            }),
            owner: OnceLock::new(),
        }
    }

    /// Names the calling thread as the one [`Mailbox::pop`] will park.
    pub(crate) fn bind_owner(&self) {
        let _ = self.owner.set(std::thread::current());
    }

    fn wake_owner(&self) {
        if let Some(owner) = self.owner.get() {
            owner.unpark();
        }
    }

    /// Enqueues `item` and wakes the owner. A closed mailbox hands the item
    /// back.
    pub(crate) fn push(&self, item: T) -> Result<(), T> {
        {
            let mut st = self.state.lock();
            if st.closed {
                return Err(item);
            }
            st.queue.push_back(item);
        }
        self.wake_owner();
        Ok(())
    }

    /// Blocks until an item is queued; `None` once the mailbox is closed
    /// and drained. Owner thread only.
    pub(crate) fn pop(&self) -> Option<T> {
        loop {
            match self.try_pop() {
                Ok(Some(item)) => return Some(item),
                Ok(None) => std::thread::park(),
                Err(Closed) => return None,
            }
        }
    }

    /// Non-blocking [`Mailbox::pop`]: `Ok(None)` when empty but open.
    pub(crate) fn try_pop(&self) -> Result<Option<T>, Closed> {
        let mut st = self.state.lock();
        match st.queue.pop_front() {
            Some(item) => Ok(Some(item)),
            None if st.closed => Err(Closed),
            None => Ok(None),
        }
    }

    /// Refuses further pushes and wakes the owner. What is already queued
    /// is still delivered, in order, before the owner observes the close
    /// (a killed process finishes the requests it had already been sent).
    pub(crate) fn close(&self) {
        self.state.lock().closed = true;
        self.wake_owner();
    }
}

/// [`Mailbox::try_pop`] on a closed, drained mailbox.
#[derive(Debug, PartialEq, Eq)]
pub(crate) struct Closed;

struct CellState {
    /// The transaction the sender is blocked on; 0 while idle. Handles of
    /// any other transaction are stale and touch nothing.
    txn: u64,
    /// Live [`ReplyHandle`]s of `txn`.
    outstanding: usize,
    /// What the sender learns if every handle is dropped unanswered.
    abandoned: IpcError,
    result: Option<Result<Reply, IpcError>>,
}

/// Where a process blocks for the answer to its `Send`. A process has at
/// most one transaction in flight, so one cell per process is armed again
/// for each.
pub(crate) struct ReplyCell {
    state: Mutex<CellState>,
    sender: Thread,
}

impl ReplyCell {
    /// A cell whose [`ReplyCell::wait`] parks the calling thread.
    pub(crate) fn for_current_thread() -> Arc<Self> {
        Arc::new(ReplyCell {
            state: Mutex::new(CellState {
                txn: 0,
                outstanding: 0,
                abandoned: IpcError::ProcessDied,
                result: None,
            }),
            sender: std::thread::current(),
        })
    }

    /// Opens transaction `txn` (non-zero, unique per cell) and returns its
    /// first handle. If every handle is dropped without
    /// [`ReplyHandle::complete`], the sender resumes with `abandoned`.
    pub(crate) fn arm(self: &Arc<Self>, txn: u64, abandoned: IpcError) -> ReplyHandle {
        *self.state.lock() = CellState {
            txn,
            outstanding: 1,
            abandoned,
            result: None,
        };
        ReplyHandle {
            cell: Some(Arc::clone(self)),
            txn,
        }
    }

    /// Blocks until the armed transaction has a result, takes it and
    /// leaves the cell idle, so replies still on their way to a
    /// first-reply-wins group transaction find nothing to complete.
    /// Sender thread only.
    pub(crate) fn wait(&self) -> Result<Reply, IpcError> {
        loop {
            {
                let mut st = self.state.lock();
                if let Some(result) = st.result.take() {
                    st.txn = 0;
                    return result;
                }
            }
            std::thread::park();
        }
    }
}

/// The right to answer one transaction: held by the `Envelope` while it is
/// queued and by the `Received` token once delivered; `Forward` moves it.
/// It ends in exactly one of [`ReplyHandle::complete`] or drop.
pub(crate) struct ReplyHandle {
    /// `None` once resolved.
    cell: Option<Arc<ReplyCell>>,
    txn: u64,
}

impl ReplyHandle {
    pub(crate) fn txn(&self) -> u64 {
        self.txn
    }

    /// One more handle on the same transaction (group send: one per
    /// member, first answer wins).
    pub(crate) fn fan_out(&self) -> ReplyHandle {
        if let Some(cell) = &self.cell {
            let mut st = cell.state.lock();
            if st.txn == self.txn {
                st.outstanding += 1;
            }
        }
        ReplyHandle {
            cell: self.cell.clone(),
            txn: self.txn,
        }
    }

    /// Hands `result` to the blocked sender, unless the transaction was
    /// already answered — a group member that lost the race is discarded,
    /// as in the real kernel.
    pub(crate) fn complete(mut self, result: Result<Reply, IpcError>) {
        self.resolve(Some(result));
    }

    fn resolve(&mut self, answer: Option<Result<Reply, IpcError>>) {
        let Some(cell) = self.cell.take() else {
            return;
        };
        let wake = {
            let mut st = cell.state.lock();
            if st.txn != self.txn {
                return;
            }
            st.outstanding -= 1;
            let answer = answer.or((st.outstanding == 0).then_some(Err(st.abandoned)));
            let wake = answer.is_some() && st.result.is_none();
            if wake {
                st.result = answer;
            }
            wake
        };
        if wake {
            cell.sender.unpark();
        }
    }
}

impl Drop for ReplyHandle {
    fn drop(&mut self) {
        self.resolve(None);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use vproto::Message;

    fn ok_reply(word: u16) -> Result<Reply, IpcError> {
        let mut msg = Message::ok();
        msg.set_word(5, word);
        Ok(Reply {
            msg,
            data: Bytes::new(),
        })
    }

    #[test]
    fn mailbox_is_fifo_and_refuses_pushes_once_closed() {
        let mb = Mailbox::new();
        mb.bind_owner();
        mb.push(1).expect("open");
        mb.push(2).expect("open");
        mb.close();
        assert_eq!(mb.push(3), Err(3));
        assert_eq!(mb.pop(), Some(1));
        assert_eq!(mb.try_pop(), Ok(Some(2)));
        assert_eq!(mb.try_pop(), Err(Closed));
        assert_eq!(mb.pop(), None);
    }

    #[test]
    fn push_wakes_a_parked_owner() {
        let mb = Arc::new(Mailbox::new());
        let owner = {
            let mb = Arc::clone(&mb);
            std::thread::spawn(move || {
                mb.bind_owner();
                (mb.pop(), mb.pop())
            })
        };
        mb.push(7u32).expect("open");
        mb.close();
        assert_eq!(owner.join().expect("owner joins"), (Some(7), None));
    }

    #[test]
    fn dropping_a_queued_handle_resolves_its_sender() {
        let cell = ReplyCell::for_current_thread();
        let mb = Mailbox::new();
        assert!(mb.push(cell.arm(1, IpcError::ProcessDied)).is_ok());
        drop(mb);
        assert_eq!(cell.wait().unwrap_err(), IpcError::ProcessDied);
    }

    #[test]
    fn dropped_handle_reports_the_armed_error() {
        let cell = ReplyCell::for_current_thread();
        drop(cell.arm(1, IpcError::ProcessDied));
        assert_eq!(cell.wait().unwrap_err(), IpcError::ProcessDied);
        drop(cell.arm(2, IpcError::NoReply));
        assert_eq!(cell.wait().unwrap_err(), IpcError::NoReply);
    }

    #[test]
    fn first_answer_wins_and_abandonment_needs_every_handle_gone() {
        let cell = ReplyCell::for_current_thread();
        let first = cell.arm(1, IpcError::NoReply);
        let (a, b) = (first.fan_out(), first.fan_out());
        drop(first);
        drop(a);
        assert!(cell.state.lock().result.is_none(), "b is still out");
        let c = b.fan_out();
        b.complete(ok_reply(11));
        c.complete(ok_reply(22));
        assert_eq!(cell.wait().expect("answered").msg.word(5), 11);
    }

    #[test]
    fn stale_handles_never_touch_the_next_transaction() {
        let cell = ReplyCell::for_current_thread();
        let first = cell.arm(1, IpcError::NoReply);
        let late = first.fan_out();
        first.complete(ok_reply(1));
        assert_eq!(cell.wait().expect("answered").msg.word(5), 1);

        let next = cell.arm(2, IpcError::ProcessDied);
        let late_too = late.fan_out();
        late.complete(ok_reply(99));
        drop(late_too);
        {
            let st = cell.state.lock();
            assert!(st.result.is_none(), "txn 1's reply leaked into txn 2");
            assert_eq!(st.outstanding, 1);
        }
        next.complete(ok_reply(2));
        assert_eq!(cell.wait().expect("answered").msg.word(5), 2);
    }

    #[test]
    fn complete_from_another_thread_unparks_the_sender() {
        let cell = ReplyCell::for_current_thread();
        for txn in 1..=1000u16 {
            let handle = cell.arm(u64::from(txn), IpcError::ProcessDied);
            let replier = std::thread::spawn(move || handle.complete(ok_reply(txn)));
            assert_eq!(cell.wait().expect("answered").msg.word(5), txn);
            replier.join().expect("replier joins");
        }
    }
}
