//! Probe accounting: monotonic counters and fixed-bucket histograms
//! keyed by phase and cause.
//!
//! [`Metrics`] is a plain fold over what a run already produces: each
//! wire [`ProbeEvent`] of the recorder stream ([`Metrics::record`]),
//! each collected hop's probe cost and per-phase wall ticks
//! ([`Metrics::fold_hop`]), and the subnet cache's own hit/skip/miss
//! ledger ([`Metrics::set_cache`]). It renders as a human table (the
//! shape of the paper's Table 2) or as JSON.

use serde_json::{json, Value};

use crate::event::{Cause, Outcome, Phase, ProbeEvent, TimeoutCause};

/// Number of phase slots: the three pipeline phases plus one for
/// probes sent outside any phase scope.
const PHASES: usize = Phase::ALL.len() + 1;
const UNATTRIBUTED: usize = Phase::ALL.len();
const CAUSES: usize = Cause::ALL.len();
const OUTCOMES: usize = Outcome::ALL.len();
const TIMEOUT_CAUSES: usize = TimeoutCause::ALL.len();

/// TTL histogram buckets: `[1, 2), [2, 4), [4, 8), [8, 16), [16, 32),
/// [32, 64), [64, 256]`. Upper bounds, inclusive-exclusive except the
/// last.
pub const TTL_BUCKETS: [u8; 7] = [2, 4, 8, 16, 32, 64, 255];

fn ttl_bucket(ttl: u8) -> usize {
    TTL_BUCKETS.iter().position(|&hi| ttl < hi).unwrap_or(TTL_BUCKETS.len() - 1)
}

/// Hop-cost histogram buckets (probes spent per collected hop):
/// `[0, 2), [2, 4), [4, 8), [8, 16), [16, 32), [32, ∞)`.
pub const HOP_COST_BUCKETS: [u64; 5] = [2, 4, 8, 16, 32];

fn hop_cost_bucket(cost: u64) -> usize {
    HOP_COST_BUCKETS.iter().position(|&hi| cost < hi).unwrap_or(HOP_COST_BUCKETS.len())
}

/// Phase-latency histogram buckets (wall ticks spent in one phase of one
/// hop): `[0, 4), [4, 16), [16, 64), [64, 256), [256, 1024),
/// [1024, 4096), [4096, ∞)`.
pub const PHASE_TICK_BUCKETS: [u64; 6] = [4, 16, 64, 256, 1024, 4096];

fn phase_tick_bucket(ticks: u64) -> usize {
    PHASE_TICK_BUCKETS.iter().position(|&hi| ticks < hi).unwrap_or(PHASE_TICK_BUCKETS.len())
}

/// Labels of the subnet-cache slots, in slot order.
const CACHE_LABELS: [&str; 3] = ["hit", "skip", "miss"];

fn slot_label(slot: usize) -> &'static str {
    Phase::ALL.get(slot).map(|p| p.label()).unwrap_or("unattributed")
}

/// The probe accounting of a run, built by folding its probe stream,
/// its hop records and its cache ledger.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Metrics {
    /// Wire sends per phase slot.
    sent: [u64; PHASES],
    /// Retries (attempt > 0) per phase slot.
    retries: [u64; PHASES],
    /// Outcome counts per phase slot.
    outcomes: [[u64; OUTCOMES]; PHASES],
    /// Wire sends per cause.
    by_cause: [u64; CAUSES],
    /// Probe TTL distribution.
    ttl_hist: [u64; TTL_BUCKETS.len()],
    /// Probes-per-hop distribution.
    hop_cost_hist: [u64; HOP_COST_BUCKETS.len() + 1],
    /// Cross-session subnet-cache lookups: hits, skips, misses.
    cache: [u64; CACHE_LABELS.len()],
    /// Timed-out attempts by attributed silence cause.
    timeout_causes: [u64; TIMEOUT_CAUSES],
    /// Per-phase wall-tick latency histogram (ticks spent in one phase
    /// of one hop).
    phase_ticks: [[u64; PHASE_TICK_BUCKETS.len() + 1]; Phase::ALL.len()],
    /// Per-phase measurement count backing `phase_ticks`.
    phase_tick_count: [u64; Phase::ALL.len()],
    /// Per-phase total ticks backing `phase_ticks`.
    phase_tick_total: [u64; Phase::ALL.len()],
}

impl Metrics {
    /// Folds one wire attempt of the probe stream.
    pub fn record(&mut self, event: &ProbeEvent) {
        let slot = event.phase.map_or(UNATTRIBUTED, Phase::index);
        self.sent[slot] += 1;
        if event.attempt > 0 {
            self.retries[slot] += 1;
        }
        self.outcomes[slot][event.outcome.index()] += 1;
        if let Some(cause) = event.cause {
            self.by_cause[cause.index()] += 1;
        }
        if let Some(cause) = event.timeout_cause {
            self.timeout_causes[cause.index()] += 1;
        }
        self.ttl_hist[ttl_bucket(event.ttl)] += 1;
    }

    /// Folds one collected hop: the probes it cost and the wall ticks of
    /// each phase it ran.
    pub fn fold_hop(&mut self, cost: u64, phase_ticks: impl IntoIterator<Item = (Phase, u64)>) {
        self.hop_cost_hist[hop_cost_bucket(cost)] += 1;
        for (phase, ticks) in phase_ticks {
            let slot = phase.index();
            self.phase_ticks[slot][phase_tick_bucket(ticks)] += 1;
            self.phase_tick_count[slot] += 1;
            self.phase_tick_total[slot] += ticks;
        }
    }

    /// Sets the cross-session subnet-cache lookup counts.
    pub fn set_cache(&mut self, hits: u64, skips: u64, misses: u64) {
        self.cache = [hits, skips, misses];
    }

    /// Total cross-session cache lookups.
    pub fn cache_lookups(&self) -> u64 {
        self.cache.iter().sum()
    }

    /// Wire sends attributed to `phase`.
    pub fn sent_in(&self, phase: Phase) -> u64 {
        self.sent[phase.index()]
    }

    /// Wire sends with no phase attribution.
    pub fn sent_unattributed(&self) -> u64 {
        self.sent[UNATTRIBUTED]
    }

    /// Wire sends attributed to `cause`.
    pub fn sent_for(&self, cause: Cause) -> u64 {
        self.by_cause[cause.index()]
    }

    /// Timed-out attempts attributed to `cause`.
    pub fn timeouts_for(&self, cause: TimeoutCause) -> u64 {
        self.timeout_causes[cause.index()]
    }

    /// Total wire sends across every phase slot.
    pub fn sent_total(&self) -> u64 {
        self.sent.iter().sum()
    }

    /// Retries attributed to `phase`.
    pub fn retries_in(&self, phase: Phase) -> u64 {
        self.retries[phase.index()]
    }

    /// Outcome count for `phase`.
    pub fn outcome_in(&self, phase: Phase, outcome: Outcome) -> u64 {
        self.outcomes[phase.index()][outcome.index()]
    }

    /// Phase-latency measurements for `phase`.
    pub fn phase_tick_count(&self, phase: Phase) -> u64 {
        self.phase_tick_count[phase.index()]
    }

    /// Total wall ticks measured in `phase`.
    pub fn phase_tick_total(&self, phase: Phase) -> u64 {
        self.phase_tick_total[phase.index()]
    }

    /// Renders the accounting as an aligned human-readable table.
    pub fn render_table(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<14} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8}",
            "phase", "sent", "retries", "direct", "ttl_exc", "unreach", "timeout"
        );
        for slot in 0..PHASES {
            if slot == UNATTRIBUTED && self.sent[slot] == 0 {
                continue;
            }
            let o = &self.outcomes[slot];
            let _ = writeln!(
                out,
                "{:<14} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8}",
                slot_label(slot),
                self.sent[slot],
                self.retries[slot],
                o[0],
                o[1],
                o[2],
                o[3]
            );
        }
        let _ = writeln!(out, "{:<14} {:>8}", "total", self.sent_total());
        let attributed: Vec<(Cause, u64)> = Cause::ALL
            .into_iter()
            .map(|c| (c, self.by_cause[c.index()]))
            .filter(|&(_, n)| n > 0)
            .collect();
        if !attributed.is_empty() {
            let _ = writeln!(out, "\n{:<18} {:>8}", "cause", "probes");
            for (cause, n) in attributed {
                let _ = writeln!(out, "{:<18} {:>8}", cause.label(), n);
            }
        }
        let attributed_timeouts: Vec<(TimeoutCause, u64)> = TimeoutCause::ALL
            .into_iter()
            .map(|c| (c, self.timeout_causes[c.index()]))
            .filter(|&(_, n)| n > 0)
            .collect();
        if !attributed_timeouts.is_empty() {
            let _ = writeln!(out, "\n{:<22} {:>8}", "timeout cause", "count");
            for (cause, n) in attributed_timeouts {
                let _ = writeln!(out, "{:<22} {:>8}", cause.label(), n);
            }
        }
        if self.cache_lookups() > 0 {
            let [hits, skips, misses] = self.cache;
            let _ = writeln!(
                out,
                "\nsubnet cache: {hits} hits, {skips} skips, {misses} misses ({} lookups)",
                self.cache_lookups(),
            );
        }
        if Phase::ALL.iter().any(|&p| self.phase_tick_count(p) > 0) {
            let _ = writeln!(
                out,
                "\n{:<14} {:>8} {:>10} {:>10}",
                "phase latency", "hops", "ticks", "avg"
            );
            for phase in Phase::ALL {
                let count = self.phase_tick_count(phase);
                if count == 0 {
                    continue;
                }
                let total = self.phase_tick_total(phase);
                let _ = writeln!(
                    out,
                    "{:<14} {:>8} {:>10} {:>10.1}",
                    phase.label(),
                    count,
                    total,
                    total as f64 / count as f64,
                );
            }
        }
        out
    }

    /// Serializes the accounting as a JSON object.
    ///
    /// Shape: `phases` maps phase label (plus `"unattributed"`) to
    /// `{sent, retries, outcomes: {...}}`; `causes` maps cause labels
    /// to send counts (zero counts omitted); `total_sent` is the grand
    /// total; `ttl_histogram` and `hop_cost_histogram` list
    /// `{le, count}` buckets.
    pub fn to_json(&self) -> Value {
        let mut phases = Vec::new();
        for slot in 0..PHASES {
            let o = &self.outcomes[slot];
            let outcomes = Value::Object(
                Outcome::ALL
                    .into_iter()
                    .map(|k| (k.label().to_string(), json!(o[k.index()])))
                    .collect(),
            );
            phases.push((
                slot_label(slot).to_string(),
                json!({
                    "sent": self.sent[slot],
                    "retries": self.retries[slot],
                    "outcomes": outcomes,
                }),
            ));
        }
        let causes = Value::Object(
            Cause::ALL
                .into_iter()
                .filter(|c| self.by_cause[c.index()] > 0)
                .map(|c| (c.label().to_string(), json!(self.by_cause[c.index()])))
                .collect(),
        );
        let ttl_hist = Value::Array(
            TTL_BUCKETS
                .iter()
                .zip(self.ttl_hist.iter())
                .map(|(&le, &count)| json!({ "le": le, "count": count }))
                .collect(),
        );
        let hop_hist = Value::Array(
            HOP_COST_BUCKETS
                .iter()
                .map(|&b| b.to_string())
                .chain(std::iter::once("inf".to_string()))
                .zip(self.hop_cost_hist.iter())
                .map(|(le, &count)| json!({ "le": le, "count": count }))
                .collect(),
        );
        let cache = Value::Object(
            CACHE_LABELS.iter().zip(self.cache).map(|(l, n)| (l.to_string(), json!(n))).collect(),
        );
        let timeout_causes = Value::Object(
            TimeoutCause::ALL
                .into_iter()
                .filter(|c| self.timeout_causes[c.index()] > 0)
                .map(|c| (c.label().to_string(), json!(self.timeout_causes[c.index()])))
                .collect(),
        );
        let phase_latency = Value::Object(
            Phase::ALL
                .into_iter()
                .map(|p| {
                    let slot = p.index();
                    let buckets = Value::Array(
                        PHASE_TICK_BUCKETS
                            .iter()
                            .map(|b| b.to_string())
                            .chain(std::iter::once("inf".to_string()))
                            .zip(self.phase_ticks[slot].iter())
                            .map(|(le, &count)| json!({ "le": le, "count": count }))
                            .collect(),
                    );
                    (
                        p.label().to_string(),
                        json!({
                            "count": self.phase_tick_count[slot],
                            "total_ticks": self.phase_tick_total[slot],
                            "buckets": buckets,
                        }),
                    )
                })
                .collect(),
        );
        json!({
            "total_sent": self.sent_total(),
            "phases": Value::Object(phases),
            "causes": causes,
            "ttl_histogram": ttl_hist,
            "hop_cost_histogram": hop_hist,
            "cache": cache,
            "timeout_causes": timeout_causes,
            "phase_latency": phase_latency,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wire::Protocol;

    fn ev(phase: Option<Phase>, cause: Option<Cause>, ttl: u8, attempt: u8) -> ProbeEvent {
        ProbeEvent {
            tick: 0,
            session: None,
            vantage: "10.0.0.1".parse().unwrap(),
            dst: "10.0.9.6".parse().unwrap(),
            ttl,
            protocol: Protocol::Icmp,
            flow: 0,
            attempt,
            outcome: if attempt > 0 { Outcome::Timeout } else { Outcome::DirectReply },
            from: None,
            phase,
            cause,
            timeout_cause: if attempt > 0 { Some(TimeoutCause::PolicySilence) } else { None },
            unreach: None,
        }
    }

    #[test]
    fn counters_accumulate_by_phase_and_cause() {
        let mut m = Metrics::default();
        m.record(&ev(Some(Phase::Trace), Some(Cause::TraceCollection), 3, 0));
        m.record(&ev(Some(Phase::Trace), Some(Cause::TraceCollection), 3, 1));
        m.record(&ev(Some(Phase::Explore), Some(Cause::H2), 5, 0));
        m.record(&ev(None, None, 9, 0));

        assert_eq!(m.sent_in(Phase::Trace), 2);
        assert_eq!(m.sent_in(Phase::Explore), 1);
        assert_eq!(m.sent_unattributed(), 1);
        assert_eq!(m.sent_total(), 4);
        assert_eq!(m.sent_for(Cause::H2), 1);
        assert_eq!(m.retries_in(Phase::Trace), 1);
        assert_eq!(m.outcome_in(Phase::Trace, Outcome::Timeout), 1);
        assert_eq!(m.outcome_in(Phase::Trace, Outcome::DirectReply), 1);
    }

    #[test]
    fn timeout_causes_accumulate_and_render() {
        let mut m = Metrics::default();
        m.record(&ev(Some(Phase::Trace), None, 3, 1));
        let mut lost = ev(Some(Phase::Explore), None, 5, 0);
        lost.outcome = Outcome::Timeout;
        lost.timeout_cause = Some(TimeoutCause::ForwardLoss);
        m.record(&lost);
        assert_eq!(m.timeouts_for(TimeoutCause::PolicySilence), 1);
        assert_eq!(m.timeouts_for(TimeoutCause::ForwardLoss), 1);
        let table = m.render_table();
        assert!(table.contains("timeout cause"), "{table}");
        assert!(table.contains("forward_loss"), "{table}");
        let v = m.to_json();
        assert_eq!(v["timeout_causes"]["forward_loss"], 1u64);
        assert!(v["timeout_causes"]["link_down"].is_null(), "zero causes omitted");
    }

    #[test]
    fn ttl_buckets_cover_the_full_range() {
        for ttl in 0..=255u8 {
            let b = ttl_bucket(ttl);
            assert!(b < TTL_BUCKETS.len(), "ttl {ttl} got bucket {b}");
        }
        assert_eq!(ttl_bucket(1), 0);
        assert_eq!(ttl_bucket(2), 1);
        assert_eq!(ttl_bucket(63), 5);
        assert_eq!(ttl_bucket(64), 6);
        assert_eq!(ttl_bucket(255), 6);
    }

    #[test]
    fn snapshot_json_has_expected_shape() {
        let mut m = Metrics::default();
        m.record(&ev(Some(Phase::Position), Some(Cause::DistanceSearch), 4, 0));
        m.fold_hop(3, []);
        let v = m.to_json();
        assert_eq!(v["total_sent"], 1u64);
        assert_eq!(v["phases"]["position"]["sent"], 1u64);
        assert_eq!(v["phases"]["position"]["outcomes"]["direct_reply"], 1u64);
        assert_eq!(v["causes"]["distance_search"], 1u64);
        assert!(v["causes"]["h2"].is_null(), "zero causes omitted");
        assert_eq!(v["hop_cost_histogram"][1]["count"], 1u64);
    }

    #[test]
    fn cache_counters_accumulate_and_render() {
        let mut m = Metrics::default();
        m.set_cache(2, 1, 1);
        assert_eq!(m.cache_lookups(), 4);
        let table = m.render_table();
        assert!(table.contains("subnet cache: 2 hits, 1 skips, 1 misses (4 lookups)"), "{table}");
        let v = m.to_json();
        assert_eq!(v["cache"]["hit"], 2u64);
        assert_eq!(v["cache"]["skip"], 1u64);
        assert_eq!(v["cache"]["miss"], 1u64);
    }

    #[test]
    fn cache_line_hidden_when_no_lookups() {
        let mut m = Metrics::default();
        m.record(&ev(Some(Phase::Trace), None, 3, 0));
        let table = m.render_table();
        assert!(!table.contains("subnet cache"), "{table}");
        assert_eq!(m.to_json()["cache"]["miss"], 0u64, "the JSON always lists the cache");
    }

    #[test]
    fn phase_tick_histogram_accumulates_and_renders() {
        let mut m = Metrics::default();
        m.fold_hop(1, [(Phase::Trace, 3), (Phase::Explore, 100)]);
        m.fold_hop(9, [(Phase::Explore, 5000)]);
        assert_eq!(m.phase_tick_count(Phase::Explore), 2);
        assert_eq!(m.phase_tick_total(Phase::Explore), 5100);
        assert_eq!(m.phase_tick_count(Phase::Trace), 1);
        assert_eq!(m.phase_tick_total(Phase::Trace), 3);
        assert_eq!(m.phase_tick_count(Phase::Position), 0, "a skipped phase is not measured");

        let v = m.to_json();
        assert_eq!(v["phase_latency"]["explore"]["count"], 2u64);
        assert_eq!(v["phase_latency"]["explore"]["total_ticks"], 5100u64);
        // 100 lands in [64, 256); 5000 overflows into the "inf" bucket.
        assert_eq!(v["phase_latency"]["explore"]["buckets"][3]["count"], 1u64);
        assert_eq!(v["phase_latency"]["explore"]["buckets"][6]["le"], "inf");
        assert_eq!(v["phase_latency"]["explore"]["buckets"][6]["count"], 1u64);

        let table = m.render_table();
        assert!(table.contains("phase latency"), "{table}");
        assert!(table.contains("2550.0"), "explore average rendered: {table}");
    }

    #[test]
    fn phase_latency_section_hidden_without_measurements() {
        let mut m = Metrics::default();
        m.record(&ev(Some(Phase::Trace), None, 3, 0));
        let table = m.render_table();
        assert!(!table.contains("phase latency"), "{table}");
    }

    #[test]
    fn render_table_lists_phases_and_causes() {
        let mut m = Metrics::default();
        m.record(&ev(Some(Phase::Explore), Some(Cause::H5), 6, 0));
        let table = m.render_table();
        assert!(table.contains("explore"), "{table}");
        assert!(table.contains("h5"), "{table}");
        assert!(table.contains("total"), "{table}");
        assert!(!table.contains("unattributed"), "empty slot hidden: {table}");
    }
}
