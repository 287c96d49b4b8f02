//! `tnet-obs`: the observability layer for the tracenet workspace.
//!
//! The paper's whole evaluation (§4, Figures 7–9, Tables 2–3) is an
//! accounting exercise over probe traffic: how many probes each phase
//! spends and which heuristic triggered them. This crate makes that
//! accounting a first-class, always-available artifact instead of
//! something each experiment recomputes:
//!
//! - [`event::ProbeEvent`] — one record per packet put on the wire, with
//!   the originating phase, heuristic, and session (target index)
//!   attached.
//! - [`decision::DecisionEvent`] — one record per algorithmic verdict of
//!   the collection pipeline: which heuristic fired, on which address,
//!   with what evidence. The stream `tnet explain` renders, and the
//!   one the CLI's `-v`/`-vv` print as it happens.
//! - [`exchange`] — the flight-recorder capture format: a versioned
//!   JSONL log interleaving probes, decisions, and per-session reports,
//!   parseable back into an [`exchange::ExchangeLog`] for deterministic
//!   replay and run diffing.
//! - [`sink::EventSink`] — pluggable event consumers: [`sink::VecSink`]
//!   (tests), [`exchange::ExchangeSink`] (the flight recorder). Every
//!   human or machine view of a run — `--trace-log`, `-v`/`-vv`, the
//!   exchange log, the wire counters of `--metrics` — is a sink over
//!   the one stream.
//! - [`metrics::Metrics`] — counters and fixed-bucket histograms keyed
//!   by phase and heuristic, folded from the probe stream, the hop
//!   records (probe cost and per-phase wall ticks) and the subnet
//!   cache's ledger, with human-table and JSON renderings.
//! - [`ctx`] — thread-local phase/cause attribution that the collection
//!   algorithms set and the probers read, so attribution needs no
//!   signature changes through the `Prober` seam.
//! - [`Recorder`] — the handle probers carry: one sink and a session
//!   tag, free when disabled.
//!
//! Everything here is dependency-light by design (inet, wire, and the
//! vendored serde_json shim) so any crate in the workspace can afford
//! to depend on it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ctx;
pub mod decision;
pub mod event;
pub mod exchange;
pub mod metrics;
pub mod recorder;
pub mod sink;

pub use ctx::{cause_scope, phase_scope};
pub use decision::{DecisionEvent, DecisionVerdict};
pub use event::{Cause, Outcome, Phase, ProbeEvent, TimeoutCause, UnreachReason};
pub use exchange::{ExchangeHeader, ExchangeLog, ExchangeSink, ExchangeWriter, FORMAT_VERSION};
pub use metrics::Metrics;
pub use recorder::Recorder;
pub use sink::{EventSink, SinkHandle, VecSink};
