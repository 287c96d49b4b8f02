//! The recorder: what a prober carries to report its wire attempts.

use crate::ctx;
use crate::decision::DecisionEvent;
use crate::event::ProbeEvent;
use crate::sink::SinkHandle;

/// One event sink and a session tag, behind one cheap enabled check.
///
/// Probers hold a `Recorder` and call [`Recorder::record`] once per
/// wire attempt, passing a closure that builds the event. When the
/// recorder is disabled (the default) the closure never runs, so the
/// instrumented hot path costs a single branch.
///
/// The recorder fills in the current [`ctx`] phase/cause attribution
/// itself — event-building closures leave `phase` and `cause` as
/// `None`.
#[derive(Clone, Debug, Default)]
pub struct Recorder {
    sink: SinkHandle,
    session: Option<u64>,
}

impl Recorder {
    /// A recorder that observes nothing; recording is a no-op.
    pub fn disabled() -> Recorder {
        Recorder::default()
    }

    /// Starts from a disabled recorder; chain [`Recorder::with_sink`].
    pub fn new() -> Recorder {
        Recorder::default()
    }

    /// Attaches an event sink.
    pub fn with_sink(mut self, sink: SinkHandle) -> Recorder {
        self.sink = sink;
        self
    }

    /// Tags every event this recorder emits with a session (target
    /// index) id. Batch drivers clone the run's recorder once per
    /// target, so interleaved worker streams stay separable in the log.
    pub fn with_session(mut self, session: u64) -> Recorder {
        self.session = Some(session);
        self
    }

    /// The session tag events are stamped with, if any.
    pub fn session(&self) -> Option<u64> {
        self.session
    }

    /// Whether a sink is attached.
    pub fn is_enabled(&self) -> bool {
        self.sink.is_enabled()
    }

    /// Records one wire attempt. `build` runs only when a sink is
    /// attached; the recorder stamps the event with the thread's
    /// current phase/cause attribution before dispatching it.
    #[inline]
    pub fn record(&self, build: impl FnOnce() -> ProbeEvent) {
        if !self.is_enabled() {
            return;
        }
        let mut event = build();
        let (phase, cause) = ctx::current();
        event.phase = phase;
        event.cause = cause;
        event.session = self.session;
        self.sink.emit(&event);
    }

    /// Records one pipeline decision. `build` runs only when a sink that
    /// wants decisions is attached; the recorder stamps the session tag
    /// and the thread's current phase/cause attribution (when the
    /// builder left them unset) before dispatching.
    pub fn record_decision(&self, build: impl FnOnce() -> DecisionEvent) {
        if !self.sink.wants_decisions() {
            return;
        }
        let mut decision = build();
        let (phase, cause) = ctx::current();
        decision.phase = decision.phase.or(phase);
        decision.cause = decision.cause.or(cause);
        decision.session = self.session;
        self.sink.emit_decision(&decision);
    }

    /// Flushes the sink, if any.
    pub fn flush(&self) -> std::io::Result<()> {
        self.sink.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{Cause, Outcome, Phase};
    use crate::sink::VecSink;
    use wire::Protocol;

    fn ev() -> ProbeEvent {
        ProbeEvent {
            tick: 1,
            session: None,
            vantage: "10.0.0.1".parse().unwrap(),
            dst: "10.0.9.6".parse().unwrap(),
            ttl: 5,
            protocol: Protocol::Udp,
            flow: 0,
            attempt: 0,
            outcome: Outcome::DirectReply,
            from: None,
            phase: None,
            cause: None,
            timeout_cause: None,
            unreach: None,
        }
    }

    #[test]
    fn disabled_recorder_never_builds_the_event() {
        let recorder = Recorder::disabled();
        assert!(!recorder.is_enabled());
        recorder.record(|| unreachable!("closure must not run when disabled"));
    }

    #[test]
    fn sink_without_decisions_never_builds_one() {
        struct ProbesOnly;
        impl crate::sink::EventSink for ProbesOnly {
            fn emit(&mut self, _event: &ProbeEvent) {}
            fn wants_decisions(&self) -> bool {
                false
            }
        }
        let recorder = Recorder::new().with_sink(SinkHandle::new(ProbesOnly));
        assert!(recorder.is_enabled());
        recorder.record_decision(|| unreachable!("closure must not run without a taker"));
    }

    #[test]
    fn record_stamps_attribution() {
        let sink = VecSink::new();
        let reader = sink.clone();
        let recorder = Recorder::new().with_sink(SinkHandle::new(sink));
        assert!(recorder.is_enabled());

        {
            let _p = crate::phase_scope(Phase::Explore);
            let _c = crate::cause_scope(Cause::H3);
            recorder.record(ev);
        }
        recorder.record(ev);

        let events = reader.events();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].phase, Some(Phase::Explore));
        assert_eq!(events[0].cause, Some(Cause::H3));
        assert_eq!(events[1].phase, None);
        assert_eq!(events[1].cause, None);
    }

    #[test]
    fn session_tag_stamps_probes_and_decisions() {
        use crate::decision::{DecisionEvent, DecisionVerdict};

        let sink = VecSink::new();
        let reader = sink.clone();
        let recorder = Recorder::new().with_sink(SinkHandle::new(sink)).with_session(5);
        assert_eq!(recorder.session(), Some(5));

        recorder.record(ev);
        {
            let _p = crate::phase_scope(Phase::Position);
            recorder.record_decision(|| DecisionEvent {
                session: None,
                hop: 2,
                phase: None,
                cause: Some(Cause::OnPathCheck),
                subject: None,
                verdict: DecisionVerdict::OnPath,
                evidence: String::new(),
            });
        }

        assert_eq!(reader.events()[0].session, Some(5));
        let decisions = reader.decisions();
        assert_eq!(decisions[0].session, Some(5));
        assert_eq!(decisions[0].phase, Some(Phase::Position), "ctx phase stamped");
        assert_eq!(decisions[0].cause, Some(Cause::OnPathCheck), "explicit cause kept");
    }
}
