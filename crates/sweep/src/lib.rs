//! Parallel batch collection for tracenet.
//!
//! One tracenet session maps the path to one target. Mapping a whole
//! address block means many sessions from the same vantage, and those
//! sessions share most of their path — so this crate adds the two
//! pieces that make batch collection cheap and safe:
//!
//! - a [`SubnetCache`] that remembers per-hop exploration outcomes
//!   **across sessions**, extending the within-session
//!   `reuse_known_subnets` skip to the whole batch (and, via the
//!   [`tracenet::SubnetStore`] seam, to anything longer-lived); and
//! - a worker-pool scheduler ([`run_batch`]) that fans targets across
//!   threads over one shared network, with results merged in target
//!   order and probe idents drawn from disjoint namespaces
//!   ([`probe::IdentSpace`]) as a pure function of the target index.
//!
//! The engine is *proven observation-equivalent, not assumed*: the
//! conformance suite (`tests/conformance.rs`) pins that batch runs at
//! any thread count, cache on or off, collect exactly the same subnets
//! as a plain sequential loop — only probe counts may drop.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod engine;

pub use cache::{CacheStats, SubnetCache};
pub use engine::{run_batch, traceroute_idents, BatchConfig, BatchResult};
