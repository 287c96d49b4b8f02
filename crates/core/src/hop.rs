//! [`HopProber`]: the session's per-hop view of its prober.
//!
//! It does two jobs, both scoped to one hop of the trace:
//!
//! * **Probe merging.** §3.5: "our tracenet implementation is optimized
//!   to collect the subnets with the least number of probes and some of
//!   the rules are merged together." Heuristics H3 and H6 both need the
//!   result of `⟨l, jʰ−1⟩`, and subnet positioning re-asks questions
//!   that trace collection already answered. Memoizing on
//!   `(dst, ttl, flow)` makes the merged-probe behavior fall out
//!   naturally while leaving the heuristics written exactly as the paper
//!   states them. Timeouts are memoized too: the inner prober already
//!   retried (§3.8), and tracenet does not re-ask a silent address
//!   within one exploration.
//! * **Fault budget.** When transient loss or a rate-limit storm makes a
//!   hop unresponsive, the heuristics would keep burning probes into the
//!   void. Once the hop has drawn `hop_fault_budget` fault-attributed
//!   timeouts ([`ProbeStats::fault_timeouts`]), every further probe of
//!   the hop short-circuits to [`ProbeOutcome::Timeout`] without
//!   touching the wire; the session sees [`HopProber::tripped`] and
//!   marks the hop abandoned. Short-circuited probes are invisible in
//!   [`ProbeStats`], so probe accounting keeps describing real wire
//!   traffic.
//!
//! The memo is consulted before the budget, so a tripped hop still
//! serves the answers it already has, and a short-circuited `Timeout` is
//! memoized like any other answer.

use std::collections::HashMap;

use inet::Addr;
use probe::{ProbeOutcome, ProbeStats, Prober, Protocol};

/// The inner prober plus the current hop's memo and fault budget.
pub(crate) struct HopProber<P> {
    inner: P,
    memo: HashMap<(Addr, u8, u16), ProbeOutcome>,
    /// Probes answered from the memo, across the whole session.
    hits: u64,
    /// Fault-attributed timeouts tolerated per hop; `None` is unbounded.
    budget: Option<u16>,
    /// The inner prober's fault-timeout count when the hop started.
    hop_base: u64,
}

impl<P: Prober> HopProber<P> {
    /// Wraps `inner` with a per-hop `budget` of fault-attributed timeouts.
    pub(crate) fn new(inner: P, budget: Option<u16>) -> HopProber<P> {
        let hop_base = inner.stats().fault_timeouts();
        HopProber { inner, memo: HashMap::new(), hits: 0, budget, hop_base }
    }

    /// Starts a new hop: forgets the memo, since path dynamics may have
    /// changed the answers, and resets the fault budget.
    pub(crate) fn start_hop(&mut self) {
        self.memo.clear();
        self.hop_base = self.inner.stats().fault_timeouts();
    }

    /// Whether the current hop has exhausted its fault budget.
    pub(crate) fn tripped(&self) -> bool {
        self.budget.is_some_and(|b| self.inner.stats().fault_timeouts() - self.hop_base >= b as u64)
    }

    /// Number of probes answered from the memo so far in the session.
    pub(crate) fn hits(&self) -> u64 {
        self.hits
    }
}

impl<P: Prober> Prober for HopProber<P> {
    fn src(&self) -> Addr {
        self.inner.src()
    }

    fn protocol(&self) -> Protocol {
        self.inner.protocol()
    }

    fn probe_with_flow(&mut self, dst: Addr, ttl: u8, flow: u16) -> ProbeOutcome {
        if let Some(&hit) = self.memo.get(&(dst, ttl, flow)) {
            self.hits += 1;
            return hit;
        }
        let outcome = if self.tripped() {
            ProbeOutcome::Timeout
        } else {
            self.inner.probe_with_flow(dst, ttl, flow)
        };
        self.memo.insert((dst, ttl, flow), outcome);
        outcome
    }

    fn stats(&self) -> ProbeStats {
        self.inner.stats()
    }

    fn clock(&self) -> u64 {
        self.inner.clock()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use probe::ScriptedProber;

    fn a(s: &str) -> Addr {
        s.parse().unwrap()
    }

    fn target() -> Addr {
        a("10.0.0.9")
    }

    /// A scripted prober whose probes to `lost` time out as injected
    /// loss (a `ScriptedProber` alone never attributes a timeout).
    struct Lossy {
        scripted: ScriptedProber,
        lost: Addr,
        loss: u64,
    }

    impl Lossy {
        fn new(scripted: ScriptedProber, lost: Addr) -> Lossy {
            Lossy { scripted, lost, loss: 0 }
        }

        /// Every probe is a fault-attributed timeout.
        fn always() -> Lossy {
            Lossy::new(ScriptedProber::new(a("10.0.0.1")), target())
        }
    }

    impl Prober for Lossy {
        fn src(&self) -> Addr {
            self.scripted.src()
        }

        fn protocol(&self) -> Protocol {
            self.scripted.protocol()
        }

        fn probe_with_flow(&mut self, dst: Addr, ttl: u8, flow: u16) -> ProbeOutcome {
            let outcome = self.scripted.probe_with_flow(dst, ttl, flow);
            if dst == self.lost {
                self.loss += 1;
            }
            outcome
        }

        fn stats(&self) -> ProbeStats {
            ProbeStats { timeouts_loss: self.loss, ..self.scripted.stats() }
        }
    }

    #[test]
    fn second_identical_probe_is_free() {
        let mut inner = ScriptedProber::new(a("10.0.0.1"));
        inner.script(target(), 3, ProbeOutcome::DirectReply { from: target() });
        let mut p = HopProber::new(inner, None);
        let first = p.probe(target(), 3);
        let second = p.probe(target(), 3);
        assert_eq!(first, second);
        assert_eq!(p.hits(), 1);
        assert_eq!(p.stats().sent, 1, "only one wire probe");
    }

    #[test]
    fn different_ttl_or_flow_is_not_a_hit() {
        let mut inner = ScriptedProber::new(a("10.0.0.1"));
        inner.script(target(), 3, ProbeOutcome::DirectReply { from: target() });
        let mut p = HopProber::new(inner, None);
        let _ = p.probe(target(), 3);
        let _ = p.probe(target(), 2);
        let _ = p.probe_with_flow(target(), 3, 7);
        assert_eq!(p.hits(), 0);
        assert_eq!(p.stats().sent, 3);
    }

    #[test]
    fn timeouts_are_memoized_and_start_hop_forgets() {
        let mut p = HopProber::new(ScriptedProber::new(a("10.0.0.1")), None);
        assert_eq!(p.probe(target(), 3), ProbeOutcome::Timeout);
        assert_eq!(p.probe(target(), 3), ProbeOutcome::Timeout);
        assert_eq!(p.hits(), 1);
        p.start_hop();
        let _ = p.probe(target(), 3);
        assert_eq!(p.hits(), 1, "a new hop must not hit the old memo");
        assert_eq!(p.stats().sent, 2);
    }

    #[test]
    fn no_budget_is_a_pass_through() {
        let mut p = HopProber::new(Lossy::always(), None);
        for ttl in 1..=10 {
            assert_eq!(p.probe(target(), ttl), ProbeOutcome::Timeout);
        }
        assert!(!p.tripped());
        assert_eq!(p.stats().requests, 10);
    }

    #[test]
    fn budget_trips_and_stops_wire_traffic() {
        let mut p = HopProber::new(Lossy::always(), Some(3));
        for ttl in 1..=10 {
            assert_eq!(p.probe(target(), ttl), ProbeOutcome::Timeout);
        }
        assert!(p.tripped());
        // Only the three budgeted probes hit the wire; the rest were
        // short-circuited without touching the stats.
        assert_eq!(p.stats().sent, 3);
        assert_eq!(p.stats().timeouts, 3);
    }

    #[test]
    fn start_hop_resets_the_budget() {
        let mut p = HopProber::new(Lossy::always(), Some(2));
        let _ = p.probe(target(), 1);
        let _ = p.probe(target(), 2);
        assert!(p.tripped());
        p.start_hop();
        assert!(!p.tripped());
        let _ = p.probe(target(), 1);
        assert_eq!(p.stats().sent, 3);
    }

    #[test]
    fn memo_is_checked_before_the_budget() {
        let (near, far, lost) = (a("10.0.0.5"), target(), a("10.0.0.66"));
        let mut scripted = ScriptedProber::new(a("10.0.0.1"));
        scripted.script(near, 2, ProbeOutcome::DirectReply { from: near });
        scripted.script(far, 3, ProbeOutcome::DirectReply { from: far });
        let mut p = HopProber::new(Lossy::new(scripted, lost), Some(1));

        assert_eq!(p.probe(near, 2), ProbeOutcome::DirectReply { from: near });
        assert_eq!(p.probe(lost, 2), ProbeOutcome::Timeout);
        assert!(p.tripped());

        // A memoized reply is still served after the trip.
        assert_eq!(p.probe(near, 2), ProbeOutcome::DirectReply { from: near });
        assert_eq!(p.hits(), 1);
        // A short-circuited probe reads as silence and is memoized ...
        assert_eq!(p.probe(far, 3), ProbeOutcome::Timeout);
        assert_eq!(p.hits(), 1);
        // ... so repeating it is a hit, and none of it reached the wire.
        assert_eq!(p.probe(far, 3), ProbeOutcome::Timeout);
        assert_eq!(p.hits(), 2);
        assert_eq!(p.stats().sent, 2);
    }
}
