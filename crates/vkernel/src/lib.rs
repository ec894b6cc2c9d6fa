//! The distributed V kernel substrate (paper §3, §4).
//!
//! The V kernel provides uniform local and network interprocess
//! communication by messages: a synchronous `Send`-`Receive`-`Reply`
//! rendezvous (Figure 1), `Forward`, bulk `MoveTo`/`MoveFrom`, service
//! naming via `SetPid`/`GetPid` (§4.2), and process groups for multicast
//! send (§2.3, §7). Software above the kernel is written identically whether
//! its peers are local or remote — the property the whole naming design
//! rides on.
//!
//! Two interchangeable kernels implement the same [`Ipc`] interface:
//!
//! * [`Domain`] — real OS threads and channels; wall-clock time; used for
//!   stress tests and Criterion benchmarks.
//! * [`SimDomain`] — a deterministic virtual-time kernel charging the
//!   calibrated 1984 hardware costs from [`vnet`]; used to regenerate the
//!   paper's measurements.
//!
//! Servers and client stubs (see the `vservers` and `vruntime` crates) are
//! written once against `&dyn Ipc` and run unchanged on either kernel.
//!
//! # Examples
//!
//! A time server and client on the thread kernel:
//!
//! ```
//! use vkernel::{Domain, Ipc};
//! use vproto::{fields, Message, RequestCode, ReplyCode, Scope, ServiceId};
//! use bytes::Bytes;
//!
//! let domain = Domain::new();
//! let host = domain.add_host();
//! domain.spawn(host, "time", |ctx| {
//!     ctx.set_pid(ServiceId::TIME_SERVER, Scope::Both);
//!     while let Ok(rx) = ctx.receive() {
//!         let mut reply = Message::ok();
//!         reply.set_word32(fields::W_TIME_LO, 42);
//!         ctx.reply(rx, reply, Bytes::new()).ok();
//!     }
//! });
//! // Processes start asynchronously: wait for the registration to land.
//! while domain
//!     .registry()
//!     .lookup(ServiceId::TIME_SERVER, Scope::Both, host)
//!     .is_none()
//! {
//!     std::thread::yield_now();
//! }
//! let seconds = domain.client(host, |ctx| {
//!     let server = ctx.get_pid(ServiceId::TIME_SERVER, Scope::Both)?;
//!     let reply = ctx
//!         .send(server, Message::request(RequestCode::GetTime), Bytes::new(), 0)
//!         .ok()?;
//!     Some(reply.msg.word32(fields::W_TIME_LO))
//! });
//! assert_eq!(seconds, Some(42));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod api;
mod error;
mod group;
pub mod invariants;
mod registry;
mod rendezvous;
mod sim;
mod thread;

pub use api::{GroupId, Ipc, Received, Reply};
pub use error::IpcError;
pub use invariants::InvariantLedger;
pub use registry::{LookupPath, Registry};
pub use sim::SimDomain;
pub use thread::Domain;
