//! Event sinks: where probe and decision events go.
//!
//! A [`Recorder`](crate::Recorder) feeds one stream to one sink; every
//! view of a run is a sink over that stream. The exchange log
//! ([`crate::ExchangeSink`]) keeps all of it, and the CLI's
//! `--trace-log` and `-v`/`-vv` print the parts they show.

use std::io;
use std::sync::{Arc, Mutex};

use crate::decision::DecisionEvent;
use crate::event::ProbeEvent;

/// A consumer of probe events.
///
/// Sinks receive every wire attempt a recorder-carrying prober makes.
/// Implementations should be cheap per call; expensive work belongs
/// behind buffering.
pub trait EventSink: Send {
    /// Consumes one event.
    fn emit(&mut self, event: &ProbeEvent);

    /// Consumes one decision event. Defaults to a no-op, for sinks that
    /// only care about wire traffic. The exchange log overrides this to
    /// interleave decisions with probes.
    fn emit_decision(&mut self, _decision: &DecisionEvent) {}

    /// Whether this sink consumes decisions at all. A [`SinkHandle`]
    /// reads it once, when the sink is installed, and a recorder never
    /// builds a decision for a sink that answers false, so the answer
    /// must hold for the sink's whole lifetime. Defaults to true.
    fn wants_decisions(&self) -> bool {
        true
    }

    /// Flushes any buffered output; called at session boundaries.
    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// Collects events in memory behind a shared handle — the test sink.
///
/// Cloning shares the underlying buffer, so a test can keep one clone
/// and hand the other to a [`SinkHandle`]:
///
/// ```
/// use obs::{ProbeEvent, VecSink, EventSink};
/// let sink = VecSink::new();
/// let reader = sink.clone();
/// // ... install `sink`, run a session ...
/// assert_eq!(reader.events().len(), 0);
/// ```
#[derive(Clone, Debug, Default)]
pub struct VecSink {
    events: Arc<Mutex<Vec<ProbeEvent>>>,
    decisions: Arc<Mutex<Vec<DecisionEvent>>>,
}

impl VecSink {
    /// An empty sink.
    pub fn new() -> VecSink {
        VecSink::default()
    }

    /// Snapshot of everything collected so far.
    pub fn events(&self) -> Vec<ProbeEvent> {
        self.events.lock().expect("VecSink lock").clone()
    }

    /// Snapshot of the decisions collected so far.
    pub fn decisions(&self) -> Vec<DecisionEvent> {
        self.decisions.lock().expect("VecSink lock").clone()
    }

    /// Number of events collected so far.
    pub fn len(&self) -> usize {
        self.events.lock().expect("VecSink lock").len()
    }

    /// Whether nothing has been collected.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl EventSink for VecSink {
    fn emit(&mut self, event: &ProbeEvent) {
        self.events.lock().expect("VecSink lock").push(event.clone());
    }

    fn emit_decision(&mut self, decision: &DecisionEvent) {
        self.decisions.lock().expect("VecSink lock").push(decision.clone());
    }
}

/// A cloneable, shareable handle to an installed sink, or disabled.
///
/// This is the form probers carry: checking for the disabled state is
/// one `Option` test, and the event is only constructed when a sink is
/// actually present.
#[derive(Clone, Default)]
pub struct SinkHandle {
    inner: Option<Arc<Mutex<dyn EventSink>>>,
    /// The sink's [`EventSink::wants_decisions`], read at install time.
    decisions: bool,
}

impl SinkHandle {
    /// A handle that records nothing and costs nothing.
    pub fn disabled() -> SinkHandle {
        SinkHandle::default()
    }

    /// Wraps a sink for sharing.
    pub fn new(sink: impl EventSink + 'static) -> SinkHandle {
        SinkHandle::shared(Arc::new(Mutex::new(sink)))
    }

    /// Installs a sink the caller keeps a typed handle to, so it can
    /// read the sink's state back after the run.
    pub fn shared<S: EventSink + 'static>(sink: Arc<Mutex<S>>) -> SinkHandle {
        let decisions = sink.lock().expect("sink lock").wants_decisions();
        SinkHandle { inner: Some(sink), decisions }
    }

    /// Whether a sink is installed.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Sends one event to the sink, if any.
    pub fn emit(&self, event: &ProbeEvent) {
        if let Some(sink) = &self.inner {
            sink.lock().expect("sink lock").emit(event);
        }
    }

    /// Whether a sink is installed and wants decisions.
    pub(crate) fn wants_decisions(&self) -> bool {
        self.decisions
    }

    /// Sends one decision to the sink, if any and it wants decisions.
    pub fn emit_decision(&self, decision: &DecisionEvent) {
        if let Some(sink) = self.inner.as_ref().filter(|_| self.decisions) {
            sink.lock().expect("sink lock").emit_decision(decision);
        }
    }

    /// Flushes the sink, if any.
    pub fn flush(&self) -> io::Result<()> {
        match &self.inner {
            Some(sink) => sink.lock().expect("sink lock").flush(),
            None => Ok(()),
        }
    }
}

impl std::fmt::Debug for SinkHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SinkHandle").field("enabled", &self.is_enabled()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{Outcome, Phase, ProbeEvent};
    use wire::Protocol;

    fn ev(ttl: u8) -> ProbeEvent {
        ProbeEvent {
            tick: ttl as u64,
            session: None,
            vantage: "10.0.0.1".parse().unwrap(),
            dst: "10.0.9.6".parse().unwrap(),
            ttl,
            protocol: Protocol::Icmp,
            flow: 0,
            attempt: 0,
            outcome: Outcome::DirectReply,
            from: None,
            phase: Some(Phase::Trace),
            cause: None,
            timeout_cause: None,
            unreach: None,
        }
    }

    fn decision() -> DecisionEvent {
        DecisionEvent {
            session: None,
            hop: 1,
            phase: Some(Phase::Explore),
            cause: None,
            subject: None,
            verdict: crate::decision::DecisionVerdict::Collected,
            evidence: "done".into(),
        }
    }

    #[test]
    fn vec_sink_shares_its_buffer() {
        let sink = VecSink::new();
        let reader = sink.clone();
        let handle = SinkHandle::new(sink);
        assert!(handle.is_enabled());
        handle.emit(&ev(1));
        handle.emit(&ev(2));
        assert_eq!(reader.len(), 2);
        assert_eq!(reader.events()[1].ttl, 2);
    }

    #[test]
    fn disabled_handle_is_inert() {
        let handle = SinkHandle::disabled();
        assert!(!handle.is_enabled());
        handle.emit(&ev(1));
        handle.flush().unwrap();
    }

    #[test]
    fn vec_sink_stores_decisions_separately() {
        let sink = VecSink::new();
        let reader = sink.clone();
        let handle = SinkHandle::new(sink);
        handle.emit(&ev(1));
        handle.emit_decision(&decision());
        assert_eq!(reader.len(), 1, "decisions do not count as probe events");
        assert_eq!(reader.decisions().len(), 1);
    }
}
