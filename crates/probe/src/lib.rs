//! The probing layer: how tracenet, traceroute and ping talk to a
//! network.
//!
//! Everything above this crate is written against the [`Prober`] trait, so
//! the same algorithm code runs over:
//!
//! * [`SimProber`] — encodes genuine wire packets (via the `wire` crate),
//!   injects them into a shared `netsim::Network` and *validates* the
//!   replies (echo identifiers, quoted datagrams) exactly as a raw-socket
//!   prober must. The engine probes through `&Network`, so several
//!   vantage points and batch worker threads each hold their own
//!   `SimProber` over one simulated Internet, without a global lock;
//!   [`SharedNetwork`] adds collision-free default idents for them;
//! * [`ScriptedProber`] — a hand-authored table of (destination, TTL) →
//!   outcome, used to unit-test algorithm logic in isolation;
//! * [`ReplayProber`] — re-answers a session from a recorded exchange
//!   log, so a replayed session reproduces its report byte for byte.
//!
//! The paper's probe merging (§3.5) and the per-hop fault budget are not
//! probers here: the tracenet session keeps them, per hop, over whichever
//! prober it was given.
//!
//! The probe vocabulary (§3.1 of the paper) is captured by
//! [`ProbeOutcome`]: a **direct reply** (echo reply / port unreachable /
//! TCP RST — the paper's `ECHO_RPLY`), a **TTL exceeded** (`TTL_EXCD`), an
//! **unreachable** of some other flavor (an [`obs::UnreachReason`]), or a
//! **timeout**. The paper's §3.8 re-probe-on-silence rule lives in the
//! probers' retry budget; a simulated timeout's cause is an
//! [`obs::TimeoutCause`], the same vocabulary the simulator drops with.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ident;
mod outcome;
mod prober;
mod replay;
mod retry;
mod scripted;
mod shared;
mod sim;

pub use ident::{IdentAllocator, IdentBlock, IdentSpace};
pub use outcome::ProbeOutcome;
pub use prober::{FlowMode, ProbeStats, Prober};
pub use replay::ReplayProber;
pub use retry::{RetryPolicy, DEFAULT_RETRIES};
pub use scripted::ScriptedProber;
pub use shared::SharedNetwork;
pub use sim::SimProber;

pub use wire::Protocol;
