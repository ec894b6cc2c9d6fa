//! Network and 1984-hardware cost models for the V-System reproduction.
//!
//! The paper's measurements were taken on 10 MHz SUN workstations connected
//! by 3 Mbit (and 10 Mbit) Ethernet, with VAX/UNIX file servers and disks
//! delivering a 512-byte page every 15 ms. None of that hardware is
//! available, so — per the reproduction's substitution rule — this crate
//! prices the *structure* of each protocol action (packets on the wire,
//! per-packet kernel processing, memory copies, disk latency) with constants
//! calibrated against the paper's own primitive measurements:
//!
//! * 32-byte local `Send-Receive-Reply`: **0.77 ms** (the kernel measurement
//!   cited from the SOSP'83 V kernel paper),
//! * 32-byte remote transaction on 3 Mbit Ethernet: **2.56 ms** (paper §3.1),
//! * 64 KB `MoveTo` program load: **338 ms** (paper §3.1),
//! * disk page: 512 bytes / **15 ms** (paper §3.1),
//! * `Open` table and prefix-server processing time (paper §6).
//!
//! The virtual-time kernel in `vkernel::sim` charges these costs; the
//! experiment harness in `vsim` then regenerates the paper's numbers.
//!
//! # Examples
//!
//! ```
//! use vnet::{NetModel, Params1984};
//!
//! let net = NetModel::new(Params1984::ethernet_3mbit());
//! let local = net.hop_cost(true, 0);
//! let remote = net.hop_cost(false, 0);
//! assert!(remote > local);
//! // A full remote transaction is two remote hops: the paper's 2.56 ms.
//! assert_eq!((remote * 2).as_micros(), 2560);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod fault;
mod model;
mod params;
mod retry;
mod rtt;
mod time;

pub use fault::{Exhausted, FaultConfig, FaultPlane, FaultStats, Partition, Transmit, RETRANSMIT};
pub use model::NetModel;
pub use params::Params1984;
pub use retry::BackoffPolicy;
pub use rtt::RttEstimator;
pub use time::SimTime;
