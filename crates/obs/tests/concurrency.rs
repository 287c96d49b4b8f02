//! The exchange log under concurrent writers, as `record --jobs N`
//! drives it: interleaved sessions must produce a torn-free line stream
//! whose probe count agrees exactly with what the writers sent, and
//! whose per-session content is reproducible from the fixed seed that
//! generated it.

use std::sync::{Arc, Mutex};

use inet::Addr;
use obs::{
    ExchangeHeader, ExchangeLog, ExchangeSink, ExchangeWriter, Outcome, Phase, ProbeEvent,
    Recorder, SinkHandle, FORMAT_VERSION,
};
use wire::Protocol;

const SEED: u64 = 424242;
const WRITERS: u64 = 8;
const EVENTS_PER_WRITER: u64 = 200;

/// A deterministic event for `(session, n)` under a fixed seed: the
/// same inputs always produce the same line, so the log contents can
/// be re-derived and checked after the concurrent write.
fn event(session: u64, n: u64) -> ProbeEvent {
    let mix = SEED
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(session * 10_007 + n * 31)
        .rotate_left(17);
    ProbeEvent {
        tick: n,
        session: None, // the recorder stamps it
        vantage: Addr::from_u32(0x0a00_0001),
        dst: Addr::from_u32(0x0a00_0100 + (mix % 64) as u32),
        ttl: (mix % 30) as u8 + 1,
        protocol: Protocol::Icmp,
        flow: (mix % 7) as u16,
        attempt: (n % 2) as u8,
        outcome: Outcome::TtlExceeded,
        from: Some(Addr::from_u32(0x0a0a_0a0a)),
        phase: None, // attribution comes from the ambient phase scope
        cause: None,
        timeout_cause: None,
        unreach: None,
    }
}

#[test]
fn concurrent_writers_tear_no_lines_and_count_every_probe() {
    let path =
        std::env::temp_dir().join(format!("tracenet-obs-concurrency-{}.jsonl", std::process::id()));
    let header = ExchangeHeader {
        version: FORMAT_VERSION,
        vantage: Addr::from_u32(0x0a00_0001),
        protocol: Protocol::Icmp,
        targets: (0..WRITERS).map(|k| Addr::from_u32(0x0a00_0100 + k as u32)).collect(),
        jobs: WRITERS,
        options: serde_json::Value::Null,
    };
    let writer = Arc::new(Mutex::new(ExchangeWriter::create(&path, &header).expect("create log")));
    let recorder =
        Recorder::new().with_sink(SinkHandle::new(ExchangeSink::new(Arc::clone(&writer))));

    std::thread::scope(|scope| {
        for session in 0..WRITERS {
            let recorder = recorder.clone().with_session(session);
            scope.spawn(move || {
                let _phase = obs::phase_scope(Phase::Trace);
                for n in 0..EVENTS_PER_WRITER {
                    recorder.record(|| event(session, n));
                }
            });
        }
    });
    recorder.flush().expect("flush");

    // Every line parses back whole — no torn or interleaved partial
    // writes — and every event carries its session tag.
    let log = ExchangeLog::load(&path).expect("every line is a whole exchange-log line");
    assert_eq!(log.header, header);
    for ev in &log.events {
        let session = ev.session.expect("every event carries its session tag");
        assert!(session < WRITERS, "unknown session {session}");
    }

    // The line count equals what the writers sent, and the folded
    // accounting sees every line in the writers' phase.
    let total = log.events.len() as u64;
    assert_eq!(total, WRITERS * EVENTS_PER_WRITER);
    let mut metrics = obs::Metrics::default();
    log.events.iter().for_each(|e| metrics.record(e));
    assert_eq!(metrics.sent_in(Phase::Trace), total);

    // Within a session, emission order is preserved and every event is
    // exactly the one the fixed seed generates — the stream replays.
    for session in 0..WRITERS {
        let events: Vec<&ProbeEvent> = log.events_for(session).collect();
        assert_eq!(events.len() as u64, EVENTS_PER_WRITER, "session {session}");
        for (n, ev) in events.into_iter().enumerate() {
            let mut expected = event(session, n as u64);
            expected.session = Some(session);
            expected.phase = Some(Phase::Trace);
            assert_eq!(*ev, expected, "session {session} event {n}");
        }
    }

    std::fs::remove_file(path).ok();
}
