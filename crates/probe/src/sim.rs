//! [`SimProber`]: the raw-socket prober's simulated twin.
//!
//! Every probe is encoded to real wire bytes and injected into the
//! simulator, and the reply is *validated* the way a live prober must:
//! an echo reply only counts if it carries this session's identifier,
//! and an ICMP error only counts if the quoted datagram matches the
//! probe that was sent. Stray or forged replies are treated as silence.
//! The engine is shared (`&Network`), so any number of probers — one
//! per vantage or per batch worker — probe one network at once.

use std::time::Duration;

use inet::Addr;
use netsim::{Network, Verdict};
use obs::{ProbeEvent, Recorder, TimeoutCause, UnreachReason};
use wire::{builder, IcmpMessage, Packet, Payload, Protocol, UnreachableCode};

use crate::outcome::ProbeOutcome;
use crate::prober::{FlowMode, ProbeStats, Prober};
use crate::retry::{RetryPolicy, RetryState};

/// A prober over a shared `netsim::Network`.
pub struct SimProber<'n> {
    net: &'n Network,
    src: Addr,
    protocol: Protocol,
    flow_mode: FlowMode,
    pub(crate) ident: u16,
    seq: u16,
    rtt: Duration,
    retry: RetryState,
    stats: ProbeStats,
    recorder: Recorder,
}

impl<'n> SimProber<'n> {
    /// Creates an ICMP prober sourced at `src` (must be a host interface
    /// of the network).
    pub fn new(net: &'n Network, src: Addr) -> SimProber<'n> {
        SimProber::with_protocol(net, src, Protocol::Icmp)
    }

    /// Creates a prober with an explicit probe protocol.
    pub fn with_protocol(net: &'n Network, src: Addr, protocol: Protocol) -> SimProber<'n> {
        assert!(
            net.topology().owner_of(src).is_some(),
            "prober source {src} is not an interface of the network"
        );
        SimProber {
            net,
            src,
            protocol,
            flow_mode: FlowMode::Paris,
            ident: DEFAULT_IDENT,
            seq: 0,
            rtt: Duration::ZERO,
            retry: RetryState::new(RetryPolicy::default()),
            stats: ProbeStats::default(),
            recorder: Recorder::disabled(),
        }
    }

    /// Sets the flow mode (Paris vs classic port behavior).
    pub fn flow_mode(mut self, mode: FlowMode) -> Self {
        self.flow_mode = mode;
        self
    }

    /// Sets a fixed retry budget after silence (shorthand for
    /// [`SimProber::retry_policy`] with [`RetryPolicy::Fixed`]).
    pub fn retries(mut self, retries: u8) -> Self {
        self.retry = RetryState::new(RetryPolicy::Fixed { retries });
        self
    }

    /// Sets the retry policy governing re-probes after silence.
    pub fn retry_policy(mut self, policy: RetryPolicy) -> Self {
        self.retry = RetryState::new(policy);
        self
    }

    /// Sets the session identifier (echo ident / base port discriminator).
    pub fn ident(mut self, ident: u16) -> Self {
        self.ident = ident;
        self
    }

    /// Models a per-probe round-trip time: every wire send blocks this
    /// thread for `rtt` while the (simulated-instantaneous) reply is "in
    /// flight". `Duration::ZERO` (the default) skips the sleep entirely;
    /// a nonzero RTT makes batch probing latency-bound, which is what
    /// `--jobs` parallelism overlaps — exactly as real probes overlap
    /// network waits.
    pub fn rtt(mut self, rtt: Duration) -> Self {
        self.rtt = rtt;
        self
    }

    /// Attaches a recorder that observes every wire attempt.
    pub fn recorder(mut self, recorder: Recorder) -> Self {
        self.recorder = recorder;
        self
    }

    fn build_probe(&mut self, dst: Addr, ttl: u8, flow: u16) -> Packet {
        self.seq = self.seq.wrapping_add(1);
        let seq = self.seq;
        match self.protocol {
            Protocol::Icmp => {
                // The echo ident pins the flow; Paris keeps it fixed,
                // classic folds `flow` in.
                let ident = match self.flow_mode {
                    FlowMode::Paris => self.ident,
                    FlowMode::Classic => self.ident ^ flow,
                };
                builder::icmp_probe(self.src, dst, ttl, ident, seq)
            }
            Protocol::Udp => {
                let (sport, dport) = match self.flow_mode {
                    FlowMode::Paris => (0x8000 | self.ident, builder::UDP_PROBE_BASE_PORT),
                    FlowMode::Classic => (0x8000 | self.ident, builder::UDP_PROBE_BASE_PORT + flow),
                };
                builder::udp_probe(self.src, dst, ttl, sport, dport)
            }
            Protocol::Tcp => {
                let sport = match self.flow_mode {
                    FlowMode::Paris => 0x9000 | self.ident,
                    FlowMode::Classic => (0x9000 | self.ident) ^ flow,
                };
                builder::tcp_probe(self.src, dst, ttl, sport, 80)
            }
        }
    }
}

/// Validates a reply against the probe that drew it and classifies it.
///
/// A live raw-socket prober must do exactly this: an echo reply counts
/// only when it carries the session's identifier; an ICMP error counts
/// only when the quoted datagram matches the outstanding probe; a port
/// unreachable is a success for UDP probing and noise otherwise.
fn classify_reply(
    protocol: Protocol,
    prober_src: Addr,
    probe: &Packet,
    reply: &Packet,
) -> ProbeOutcome {
    if reply.header.dst != prober_src {
        return ProbeOutcome::Timeout;
    }
    match &reply.payload {
        Payload::Icmp(IcmpMessage::EchoReply { ident, .. }) => {
            if protocol != Protocol::Icmp {
                return ProbeOutcome::Timeout;
            }
            let expect = match &probe.payload {
                Payload::Icmp(IcmpMessage::EchoRequest { ident, .. }) => *ident,
                _ => return ProbeOutcome::Timeout,
            };
            if *ident != expect {
                return ProbeOutcome::Timeout;
            }
            ProbeOutcome::DirectReply { from: reply.header.src }
        }
        Payload::Icmp(IcmpMessage::TtlExceeded { quoted }) => {
            if quoted.header.dst != probe.header.dst {
                return ProbeOutcome::Timeout;
            }
            ProbeOutcome::TtlExceeded { from: reply.header.src }
        }
        Payload::Icmp(IcmpMessage::Unreachable { code, quoted }) => {
            if quoted.header.dst != probe.header.dst {
                return ProbeOutcome::Timeout;
            }
            match code {
                UnreachableCode::Port => {
                    // Port unreachable is UDP's success signal.
                    if protocol == Protocol::Udp {
                        ProbeOutcome::DirectReply { from: reply.header.src }
                    } else {
                        ProbeOutcome::Timeout
                    }
                }
                UnreachableCode::Host => {
                    ProbeOutcome::Unreachable { from: reply.header.src, kind: UnreachReason::Host }
                }
                UnreachableCode::Net => {
                    ProbeOutcome::Unreachable { from: reply.header.src, kind: UnreachReason::Net }
                }
                UnreachableCode::AdminProhibited => ProbeOutcome::Unreachable {
                    from: reply.header.src,
                    kind: UnreachReason::AdminProhibited,
                },
            }
        }
        Payload::Tcp(seg) if seg.flags.rst() && protocol == Protocol::Tcp => {
            ProbeOutcome::DirectReply { from: reply.header.src }
        }
        _ => ProbeOutcome::Timeout,
    }
}

/// Initial echo identifier; an arbitrary fixed value so sessions are
/// reproducible (callers override with [`SimProber::ident`]).
const DEFAULT_IDENT: u16 = 0x7ace;

impl Prober for SimProber<'_> {
    fn src(&self) -> Addr {
        self.src
    }

    fn protocol(&self) -> Protocol {
        self.protocol
    }

    fn probe_with_flow(&mut self, dst: Addr, ttl: u8, flow: u16) -> ProbeOutcome {
        self.stats.requests += 1;
        let mut outcome = ProbeOutcome::Timeout;
        let mut cause: Option<TimeoutCause> = None;
        for attempt in 0..=self.retry.budget() {
            if attempt > 0 {
                self.stats.retries += 1;
                let delay = self.retry.delay(attempt);
                if delay > 0 {
                    self.net.advance(delay);
                }
            }
            let probe = self.build_probe(dst, ttl, flow);
            self.stats.sent += 1;
            // The injection's own tick, not `tick()` afterwards: other
            // probers may have injected in between.
            let (verdict, tick) = self.net.inject_bytes_ticked(&probe.encode());
            if self.rtt > Duration::ZERO {
                std::thread::sleep(self.rtt);
            }
            (outcome, cause) = match verdict {
                Verdict::Reply(reply) => {
                    let o = classify_reply(self.protocol, self.src, &probe, &reply);
                    let c = (o == ProbeOutcome::Timeout).then_some(TimeoutCause::StrayReply);
                    (o, c)
                }
                // A live prober cannot see why the wire stayed silent and
                // leaves the cause unset; the simulated one may know,
                // because the cause only feeds metrics and degradation
                // accounting, never the algorithms.
                Verdict::Silent(cause) => (ProbeOutcome::Timeout, Some(cause)),
            };
            self.recorder.record(|| {
                let (kind, from) = outcome.observed();
                ProbeEvent {
                    tick,
                    session: None,
                    vantage: self.src,
                    dst,
                    ttl,
                    protocol: self.protocol,
                    flow,
                    attempt,
                    outcome: kind,
                    from,
                    phase: None,
                    cause: None,
                    timeout_cause: cause,
                    unreach: outcome.unreach_reason(),
                }
            });
            if outcome != ProbeOutcome::Timeout {
                cause = None;
                break;
            }
        }
        self.retry.note(outcome == ProbeOutcome::Timeout);
        self.stats.record(&outcome, cause);
        outcome
    }

    fn stats(&self) -> ProbeStats {
        self.stats
    }

    fn clock(&self) -> u64 {
        self.net.tick()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::samples;

    #[test]
    fn icmp_probe_outcomes() {
        let (topo, names) = samples::chain(2);
        let net = Network::new(topo);
        let v = names.addr("vantage");
        let d = names.addr("dest");
        let mut p = SimProber::new(&net, v);
        assert_eq!(p.probe(d, 64), ProbeOutcome::DirectReply { from: d });
        match p.probe(d, 1) {
            ProbeOutcome::TtlExceeded { from } => {
                assert_ne!(from, d);
            }
            other => panic!("unexpected outcome {other:?}"),
        }
        let s = p.stats();
        assert_eq!(s.requests, 2);
        assert_eq!(s.direct_replies, 1);
        assert_eq!(s.ttl_exceeded, 1);
    }

    #[test]
    fn udp_port_unreachable_counts_as_direct_reply() {
        let (topo, names) = samples::chain(1);
        let net = Network::new(topo);
        let v = names.addr("vantage");
        let d = names.addr("dest");
        let mut p = SimProber::with_protocol(&net, v, Protocol::Udp);
        assert_eq!(p.probe(d, 64), ProbeOutcome::DirectReply { from: d });
    }

    #[test]
    fn tcp_rst_counts_as_direct_reply() {
        let (topo, names) = samples::chain(1);
        let net = Network::new(topo);
        let v = names.addr("vantage");
        let d = names.addr("dest");
        let mut p = SimProber::with_protocol(&net, v, Protocol::Tcp);
        assert_eq!(p.probe(d, 64), ProbeOutcome::DirectReply { from: d });
    }

    #[test]
    fn silence_is_retried_then_timeout() {
        let (topo, names) = samples::chain(1);
        let net = Network::new(topo);
        let v = names.addr("vantage");
        let mut p = SimProber::new(&net, v).retries(2);
        // 99.0.0.1 is not routed: timeout after 3 attempts.
        assert_eq!(p.probe("99.0.0.1".parse().unwrap(), 64), ProbeOutcome::Timeout);
        let s = p.stats();
        assert_eq!(s.sent, 3);
        assert_eq!(s.retries, 2);
        assert_eq!(s.timeouts, 1);
    }

    /// The ProbeStats bookkeeping contract every prober must keep.
    fn assert_stats_invariants(s: &ProbeStats) {
        assert_eq!(s.sent, s.requests + s.retries, "every send is a request or a retry");
        assert_eq!(
            s.requests,
            s.direct_replies + s.ttl_exceeded + s.unreachable + s.timeouts,
            "every request resolves to exactly one outcome"
        );
    }

    #[test]
    fn stats_invariants_hold_across_mixed_outcomes() {
        let (topo, names) = samples::chain(3);
        let net = Network::new(topo);
        let v = names.addr("vantage");
        let d = names.addr("dest");
        let mut p = SimProber::new(&net, v).retries(2);
        let _ = p.probe(d, 64); // direct reply
        let _ = p.probe(d, 1); // ttl exceeded
        let _ = p.probe(d, 2); // ttl exceeded
        let _ = p.probe("99.0.0.1".parse().unwrap(), 64); // timeout ×3 attempts
        let s = p.stats();
        assert_eq!(s.requests, 4);
        assert_eq!(s.retries, 2);
        assert_stats_invariants(&s);
    }

    #[test]
    fn backoff_policy_idles_the_clock_between_retries() {
        let (topo, names) = samples::chain(1);
        let net = Network::new(topo);
        let v = names.addr("vantage");
        let mut p =
            SimProber::new(&net, v).retry_policy(RetryPolicy::Backoff { retries: 2, base: 10 });
        let _ = p.probe("99.0.0.1".parse().unwrap(), 64);
        // 3 injections plus 10 + 20 idle ticks of backoff.
        assert_eq!(net.tick(), 3 + 10 + 20);
        assert_eq!(p.stats().sent, 3);
    }

    #[test]
    fn adaptive_policy_widens_budget_under_timeouts() {
        let (topo, names) = samples::chain(1);
        let net = Network::new(topo);
        let v = names.addr("vantage");
        let dead: Addr = "99.0.0.1".parse().unwrap();
        let mut p = SimProber::new(&net, v).retry_policy(RetryPolicy::Adaptive { min: 1, max: 4 });
        // First probe: empty window, budget = min = 1 → 2 sends.
        let _ = p.probe(dead, 64);
        assert_eq!(p.stats().sent, 2);
        // After a run of timeouts the budget grows toward max.
        for _ in 0..16 {
            let _ = p.probe(dead, 64);
        }
        let before = p.stats().sent;
        let _ = p.probe(dead, 64);
        assert_eq!(p.stats().sent - before, 5, "dirty window widens to max = 4 retries");
        // Clean replies shrink it back down.
        let d = names.addr("dest");
        for _ in 0..16 {
            let _ = p.probe(d, 64);
        }
        let before = p.stats().sent;
        let _ = p.probe(dead, 64);
        assert_eq!(p.stats().sent - before, 2, "clean window shrinks to min = 1 retry");
    }

    #[test]
    fn timeout_causes_reach_events_and_stats() {
        use obs::{SinkHandle, VecSink};

        let (topo, names) = samples::chain(1);
        let mut net = Network::new(topo);
        let mut plan = netsim::FaultPlan::new(7);
        plan.reply_loss = 1.0;
        net.set_fault_plan(Some(plan));
        let v = names.addr("vantage");
        let d = names.addr("dest");
        let sink = VecSink::new();
        let reader = sink.clone();
        let recorder = Recorder::new().with_sink(SinkHandle::new(sink));
        let mut p = SimProber::new(&net, v).retries(1).recorder(recorder);
        assert_eq!(p.probe(d, 64), ProbeOutcome::Timeout);
        let events = reader.events();
        assert_eq!(events.len(), 2);
        assert!(
            events.iter().all(|e| e.timeout_cause == Some(obs::TimeoutCause::ReplyLoss)),
            "{events:?}"
        );
        let s = p.stats();
        assert_eq!(s.timeouts, 1);
        assert_eq!(s.timeouts_loss, 1, "final fault timeout is attributed");
        assert_eq!(s.fault_timeouts(), 1);
    }

    #[test]
    fn recovered_retry_is_not_a_fault_timeout() {
        // Reply loss on exactly the first injection tick: retry recovers,
        // so the logical probe is clean and nothing is attributed.
        let (topo, names) = samples::chain(1);
        let mut net = Network::new(topo);
        let v = names.addr("vantage");
        let d = names.addr("dest");
        // Find a seed whose plan drops tick 1 but not tick 2.
        let seed = (0..u64::MAX)
            .find(|&s| {
                let mut plan = netsim::FaultPlan::new(s);
                plan.reply_loss = 0.5;
                plan.drops_reply(1) && !plan.drops_reply(2)
            })
            .unwrap();
        let mut plan = netsim::FaultPlan::new(seed);
        plan.reply_loss = 0.5;
        net.set_fault_plan(Some(plan));
        let mut p = SimProber::new(&net, v).retries(1);
        assert_eq!(p.probe(d, 64), ProbeOutcome::DirectReply { from: d });
        let s = p.stats();
        assert_eq!(s.retries, 1, "first attempt was lost");
        assert_eq!(s.timeouts, 0);
        assert_eq!(s.fault_timeouts(), 0, "a recovered probe is clean");
    }

    #[test]
    fn recorder_sees_every_wire_attempt() {
        use obs::{SinkHandle, VecSink};

        let (topo, names) = samples::chain(2);
        let net = Network::new(topo);
        let v = names.addr("vantage");
        let d = names.addr("dest");
        let sink = VecSink::new();
        let reader = sink.clone();
        let recorder = Recorder::new().with_sink(SinkHandle::new(sink));
        let mut p = SimProber::new(&net, v).retries(1).recorder(recorder);

        let _ = p.probe(d, 64);
        let _ = p.probe("99.0.0.1".parse().unwrap(), 64); // 2 attempts, both silent

        let events = reader.events();
        assert_eq!(events.len() as u64, p.stats().sent, "one event per wire send");
        assert_eq!(events[0].outcome, obs::Outcome::DirectReply);
        assert_eq!(events[0].from, Some(d));
        assert_eq!(events[1].attempt, 0);
        assert_eq!(events[2].attempt, 1, "retry attempts are numbered");
    }

    #[test]
    fn rtt_sleep_does_not_change_outcomes() {
        let (topo, names) = samples::chain(1);
        let net = Network::new(topo);
        let mut p = SimProber::new(&net, names.addr("vantage")).rtt(Duration::from_micros(50));
        let d = names.addr("dest");
        assert_eq!(p.probe(d, 64), ProbeOutcome::DirectReply { from: d });
        assert_eq!(net.tick(), 1);
    }

    #[test]
    #[should_panic(expected = "not an interface")]
    fn bogus_source_panics_early() {
        let (topo, _) = samples::chain(1);
        let net = Network::new(topo);
        let _ = SimProber::new(&net, "203.0.113.99".parse().unwrap());
    }
}
