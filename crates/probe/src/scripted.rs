//! [`ScriptedProber`]: a hand-authored outcome table for unit-testing
//! algorithm logic without building a topology.

use std::collections::HashMap;

use inet::Addr;
use wire::Protocol;

use crate::outcome::ProbeOutcome;
use crate::prober::{ProbeStats, Prober};

/// A prober that answers from a scripted `(dst, ttl) → outcome` table.
///
/// Unscripted probes return [`ProbeOutcome::Timeout`]; the set of
/// unscripted destinations that were actually asked is recorded so tests
/// can assert an algorithm's probe footprint.
///
/// ```
/// use probe::{Prober, ProbeOutcome, ScriptedProber};
/// use inet::Addr;
///
/// let v: Addr = "10.0.0.1".parse().unwrap();
/// let t: Addr = "10.0.0.9".parse().unwrap();
/// let mut p = ScriptedProber::new(v);
/// p.script(t, 3, ProbeOutcome::DirectReply { from: t });
/// assert_eq!(p.probe(t, 3), ProbeOutcome::DirectReply { from: t });
/// assert_eq!(p.probe(t, 2), ProbeOutcome::Timeout);
/// ```
pub struct ScriptedProber {
    src: Addr,
    protocol: Protocol,
    table: HashMap<(Addr, u8), ProbeOutcome>,
    misses: Vec<(Addr, u8)>,
    stats: ProbeStats,
}

impl ScriptedProber {
    /// Creates an empty scripted prober with vantage address `src`.
    pub fn new(src: Addr) -> ScriptedProber {
        ScriptedProber {
            src,
            protocol: Protocol::Icmp,
            table: HashMap::new(),
            misses: Vec::new(),
            stats: ProbeStats::default(),
        }
    }

    /// Scripts one `(dst, ttl)` entry; later entries overwrite earlier
    /// ones.
    pub fn script(&mut self, dst: Addr, ttl: u8, outcome: ProbeOutcome) -> &mut Self {
        self.table.insert((dst, ttl), outcome);
        self
    }

    /// Scripts `DirectReply{from: dst}` for every TTL ≥ `dist` and
    /// `TtlExceeded{from: hop(ttl)}` below, mimicking a cooperative path —
    /// a convenience for building consistent scenarios.
    pub fn script_path(&mut self, dst: Addr, dist: u8, hops: &[Addr]) -> &mut Self {
        assert!(hops.len() as u8 >= dist.saturating_sub(1), "need a hop per TTL below dist");
        for ttl in 1..dist {
            let from = hops[(ttl - 1) as usize];
            self.script(dst, ttl, ProbeOutcome::TtlExceeded { from });
        }
        for ttl in dist..=64 {
            self.script(dst, ttl, ProbeOutcome::DirectReply { from: dst });
        }
        self
    }

    /// Probes that found no scripted entry, in order.
    pub fn misses(&self) -> &[(Addr, u8)] {
        &self.misses
    }
}

impl Prober for ScriptedProber {
    fn src(&self) -> Addr {
        self.src
    }

    fn protocol(&self) -> Protocol {
        self.protocol
    }

    fn probe_with_flow(&mut self, dst: Addr, ttl: u8, _flow: u16) -> ProbeOutcome {
        self.stats.requests += 1;
        self.stats.sent += 1;
        let outcome = match self.table.get(&(dst, ttl)) {
            Some(o) => *o,
            None => {
                self.misses.push((dst, ttl));
                ProbeOutcome::Timeout
            }
        };
        self.stats.record(&outcome, None);
        outcome
    }

    fn stats(&self) -> ProbeStats {
        self.stats
    }

    fn clock(&self) -> u64 {
        self.stats.sent
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn a(s: &str) -> Addr {
        s.parse().unwrap()
    }

    #[test]
    fn scripted_entries_and_misses() {
        let mut p = ScriptedProber::new(a("10.0.0.1"));
        p.script(a("10.0.0.9"), 2, ProbeOutcome::TtlExceeded { from: a("10.0.0.5") });
        assert_eq!(p.probe(a("10.0.0.9"), 2), ProbeOutcome::TtlExceeded { from: a("10.0.0.5") });
        assert_eq!(p.probe(a("10.0.0.9"), 7), ProbeOutcome::Timeout);
        assert_eq!(p.misses(), &[(a("10.0.0.9"), 7)]);
        assert_eq!(p.stats().requests, 2);
    }

    #[test]
    fn script_path_builds_a_consistent_hop_ladder() {
        let mut p = ScriptedProber::new(a("10.0.0.1"));
        let dst = a("10.0.0.40");
        let hops = [a("10.0.0.10"), a("10.0.0.20")];
        p.script_path(dst, 3, &hops);
        assert_eq!(p.probe(dst, 1), ProbeOutcome::TtlExceeded { from: hops[0] });
        assert_eq!(p.probe(dst, 2), ProbeOutcome::TtlExceeded { from: hops[1] });
        assert_eq!(p.probe(dst, 3), ProbeOutcome::DirectReply { from: dst });
        assert_eq!(p.probe(dst, 30), ProbeOutcome::DirectReply { from: dst });
    }
}
