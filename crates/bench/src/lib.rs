//! Experiment harness shared by the reproduction binaries and benches.
//!
//! Each function regenerates one table or figure of the paper's
//! evaluation (see DESIGN.md's per-experiment index), collecting through
//! `sweep::run_batch`: [`accuracy_experiment`] and [`isp_experiment`]
//! run under an [`ExpArgs`], either [`ExpArgs::sequential`] (one job,
//! cache off) or the command line parsed by [`batch_args`]. The binaries
//! in `src/bin/` print them; `repro_all` runs everything and emits the
//! paper-vs-measured summary used in EXPERIMENTS.md, whose seed-2010
//! output `tests/repro_all_golden.rs` pins.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod paper;
pub mod scaling;

pub use experiments::*;
pub use scaling::{scaling_experiment, scaling_json, ScalePoint};
