//! Experiment harness regenerating every quantitative claim of Cheriton &
//! Mann, *Uniform Access to Distributed Name Interpretation in the
//! V-System* (ICDCS 1984).
//!
//! Each experiment is a pure function returning an [`report::ExpReport`]
//! (paper value vs measured value per row), listed once in [`EXPERIMENTS`]
//! and shared by:
//!
//! * the `vsim` binary (`cargo run -p vsim -- EXP-4`, or `-- all
//!   --markdown` for the tables of EXPERIMENTS.md),
//! * the reproduction tests (`cargo test -p vsim`), which assert shape
//!   fidelity against the paper and pin EXPERIMENTS.md to these reports,
//!   and
//! * `vcheck`'s determinism gate, which runs every entry twice.
//!
//! All timing experiments run on the deterministic virtual-time kernel
//! ([`vkernel::SimDomain`]) with the calibrated 1984 cost model
//! ([`vnet::Params1984`]); see DESIGN.md §4 for the substitution argument.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod exp1;
pub mod exp10;
pub mod exp11;
pub mod exp12;
pub mod exp13;
pub mod exp14;
pub mod exp2;
pub mod exp3;
pub mod exp4;
pub mod exp5;
pub mod exp6;
pub mod exp7;
pub mod exp8;
pub mod exp9;
pub mod report;
pub mod world;

pub use report::{ExpReport, ExpRow};
pub use world::SimWorld;

/// An experiment: its report id and the function that runs it.
pub type Experiment = (&'static str, fn() -> ExpReport);

/// Every experiment, in order, keyed by its report id.
pub const EXPERIMENTS: &[Experiment] = &[
    ("EXP-1", exp1::run),
    ("EXP-2", exp2::run),
    ("EXP-3", exp3::run),
    ("EXP-4", exp4::run),
    ("EXP-5", exp5::run),
    ("EXP-6", exp6::run),
    ("EXP-7", exp7::run),
    ("EXP-8", exp8::run),
    ("EXP-9", exp9::run),
    ("EXP-10", exp10::run),
    ("EXP-11", exp11::run),
    ("EXP-12", exp12::run),
    ("EXP-13", exp13::run),
    ("EXP-14", exp14::run),
];
