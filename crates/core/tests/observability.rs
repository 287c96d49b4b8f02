//! End-to-end observability: run full sessions over simulated topologies
//! with a recorder installed and check that the metrics folded from the
//! event stream agree exactly with the session's own probe accounting.

use netsim::{samples, Network};
use obs::{Metrics, Phase, Recorder, SinkHandle, VecSink};
use probe::SimProber;
use tracenet::{Session, TracenetOptions};

fn recorded_session(
    sample: (netsim::Topology, samples::Names),
    vantage: &str,
    dest: &str,
) -> (tracenet::TraceReport, Vec<obs::ProbeEvent>, Metrics) {
    let (topo, names) = sample;
    let net = Network::new(topo);
    let sink = VecSink::new();
    let reader = sink.clone();
    let recorder = Recorder::new().with_sink(SinkHandle::new(sink));
    let mut prober = SimProber::new(&net, names.addr(vantage)).recorder(recorder.clone());
    let report = Session::new(&mut prober, TracenetOptions::default())
        .with_recorder(recorder)
        .run(names.addr(dest));
    let events = reader.events();
    let mut metrics = Metrics::default();
    events.iter().for_each(|e| metrics.record(e));
    (report, events, metrics)
}

#[test]
fn every_figure2_probe_carries_phase_and_cause() {
    let (report, events, _) = recorded_session(samples::figure2(), "A", "D");
    assert!(report.destination_reached);
    assert!(!events.is_empty());
    for ev in &events {
        assert!(ev.phase.is_some(), "unattributed phase on probe to {} ttl {}", ev.dst, ev.ttl);
        assert!(ev.cause.is_some(), "unattributed cause on probe to {} ttl {}", ev.dst, ev.ttl);
    }
    assert_eq!(events.len() as u64, report.total_probes, "one event per wire probe");
}

#[test]
fn metrics_phase_totals_match_the_reports_phase_costs_exactly() {
    let (report, _, snap) = recorded_session(samples::figure3(), "vantage", "dest");
    assert!(report.destination_reached);
    let totals = report.phase_totals();
    assert_eq!(snap.sent_in(Phase::Trace), totals.trace);
    assert_eq!(snap.sent_in(Phase::Position), totals.position);
    assert_eq!(snap.sent_in(Phase::Explore), totals.explore);
    assert_eq!(snap.sent_unattributed(), 0);
    assert_eq!(snap.sent_total(), report.total_probes);
}

#[test]
fn heuristic_causes_show_up_in_a_multiaccess_exploration() {
    // figure3's /29 exercises the growth heuristics; at least the
    // aliveness gate (H2) and the merged below-probe (H3) must appear.
    let (_, events, snap) = recorded_session(samples::figure3(), "vantage", "dest");
    assert!(snap.sent_for(obs::Cause::TraceCollection) > 0);
    assert!(snap.sent_for(obs::Cause::DistanceSearch) > 0);
    assert!(snap.sent_for(obs::Cause::H2) > 0, "{}", snap.render_table());
    assert!(snap.sent_for(obs::Cause::H3) > 0, "{}", snap.render_table());
    // Events in the explore phase are exactly the heuristic-caused ones.
    let explore_events = events.iter().filter(|e| e.phase == Some(Phase::Explore)).count() as u64;
    assert_eq!(explore_events, snap.sent_in(Phase::Explore));
}

#[test]
fn folded_hop_ticks_match_the_wire_sends_on_one_worker() {
    // Every wire probe advances the network clock one tick, so on an
    // uncontended clock each phase's ticks are its sends, and every hop
    // measures its trace phase once.
    let (report, _, mut snap) = recorded_session(samples::figure3(), "vantage", "dest");
    report.fold_into(&mut snap);
    for phase in Phase::ALL {
        assert_eq!(snap.phase_tick_total(phase), snap.sent_in(phase), "{}", snap.render_table());
    }
    assert_eq!(snap.phase_tick_count(Phase::Trace), report.hops.len() as u64);
    let explored = report.hops.iter().filter(|h| h.subnet.is_some()).count() as u64;
    assert_eq!(snap.phase_tick_count(Phase::Explore), explored);
    let hops: u64 = snap.to_json()["hop_cost_histogram"]
        .as_array()
        .unwrap()
        .iter()
        .map(|b| b["count"].as_u64().unwrap())
        .sum();
    assert_eq!(hops, report.hops.len() as u64, "one hop-cost sample per hop");
}

#[test]
fn jsonl_roundtrip_of_a_whole_session_log() {
    let (_, events, _) = recorded_session(samples::chain(3), "vantage", "dest");
    for ev in &events {
        let line = ev.to_json().to_string();
        let parsed = obs::ProbeEvent::from_json(&serde_json::from_str(&line).unwrap())
            .expect("every logged event parses back");
        assert_eq!(&parsed, ev);
    }
}
