//! Stress tests for the engine under concurrency: N threads hammering
//! one `Network` must preserve the determinism and accounting contracts
//! a single-threaded caller observes.

use std::collections::BTreeMap;

use inet::Addr;
use netsim::{samples, Network, RateLimit, RouterConfig, TopologyBuilder, Verdict};
use obs::TimeoutCause;
use wire::builder::icmp_probe;

const THREADS: usize = 8;
const PROBES_PER_THREAD: usize = 64;

fn a(s: &str) -> Addr {
    s.parse().unwrap()
}

/// Per-flow ECMP decisions are pure hashes, so the branch a flow takes
/// through the diamond cannot depend on thread interleaving: every
/// thread probing the same flow must see the same TTL-2 router, and it
/// must be the router a single-threaded run picks.
#[test]
fn per_flow_routing_is_deterministic_under_contention() {
    let (topo, names) = samples::diamond();
    let v = names.addr("vantage");
    let d = names.addr("dest");

    // Single-threaded baseline: which address answers TTL=2 for each flow.
    let (topo_seq, _) = samples::diamond();
    let seq = Network::new(topo_seq);
    let baseline: BTreeMap<u16, Addr> = (0..16u16)
        .map(|ident| {
            let reply = seq.inject(&icmp_probe(v, d, 2, ident, 0)).reply().unwrap();
            (ident, reply.header.src)
        })
        .collect();

    let net = Network::new(topo);
    std::thread::scope(|scope| {
        for _ in 0..THREADS {
            let net = &net;
            let baseline = &baseline;
            scope.spawn(move || {
                for k in 0..PROBES_PER_THREAD {
                    let ident = (k % 16) as u16;
                    let reply = net.inject(&icmp_probe(v, d, 2, ident, k as u16)).reply().unwrap();
                    assert_eq!(
                        reply.header.src, baseline[&ident],
                        "flow {ident} took a different branch under contention"
                    );
                }
            });
        }
    });
    assert_eq!(net.tick(), (THREADS * PROBES_PER_THREAD) as u64);
}

/// The atomic clock hands every injection (even malformed bytes) exactly
/// one tick: after N threads × M injections the clock reads N×M.
#[test]
fn every_injection_claims_exactly_one_tick() {
    let (topo, names) = samples::chain(2);
    let v = names.addr("vantage");
    let d = names.addr("dest");
    let net = Network::new(topo);
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let net = &net;
            scope.spawn(move || {
                for k in 0..PROBES_PER_THREAD {
                    if (t + k) % 5 == 0 {
                        let (verdict, _) = net.inject_bytes_ticked(&[0xff; 9]);
                        assert_eq!(verdict.silence(), Some(TimeoutCause::Malformed));
                    } else {
                        let _ = net.inject(&icmp_probe(v, d, 64, t as u16, k as u16));
                    }
                }
            });
        }
    });
    assert_eq!(net.tick(), (THREADS * PROBES_PER_THREAD) as u64);
}

/// A rate-limited router with a refill period longer than the probe
/// burst must hand out exactly `capacity` replies no matter how many
/// threads compete — the same total a single-threaded run produces.
#[test]
fn token_accounting_totals_match_the_sequential_engine() {
    const CAPACITY: u32 = 24;

    fn limited_topo() -> netsim::Topology {
        let mut b = TopologyBuilder::new();
        let v = b.host("vantage");
        let mut cfg = RouterConfig::cooperative();
        // refill_every far beyond the burst size: no tokens come back
        // mid-test, so replies == capacity exactly.
        cfg.rate_limit = Some(RateLimit { capacity: CAPACITY, refill_every: 1_000_000 });
        let r1 = b.router("r1", cfg);
        let l1 = b.subnet("10.0.0.0/31".parse().unwrap());
        b.attach(v, l1, a("10.0.0.0")).unwrap();
        b.attach(r1, l1, a("10.0.0.1")).unwrap();
        b.build().unwrap()
    }

    // Single-threaded total.
    let seq = Network::new(limited_topo());
    let mut seq_replies = 0u32;
    for k in 0..(THREADS * PROBES_PER_THREAD) as u16 {
        if seq.inject(&icmp_probe(a("10.0.0.0"), a("10.0.0.1"), 64, 1, k)).reply().is_some() {
            seq_replies += 1;
        }
    }
    assert_eq!(seq_replies, CAPACITY);

    // Concurrent total.
    let net = Network::new(limited_topo());
    let replies = std::sync::atomic::AtomicU32::new(0);
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let net = &net;
            let replies = &replies;
            scope.spawn(move || {
                for k in 0..PROBES_PER_THREAD {
                    let probe = icmp_probe(a("10.0.0.0"), a("10.0.0.1"), 64, t as u16, k as u16);
                    match net.inject(&probe) {
                        Verdict::Reply(_) => {
                            replies.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        }
                        Verdict::Silent(r) => assert_eq!(r, TimeoutCause::RateLimited),
                    }
                }
            });
        }
    });
    assert_eq!(
        replies.load(std::sync::atomic::Ordering::Relaxed),
        seq_replies,
        "concurrent token accounting leaked or double-spent tokens"
    );
}

/// Per-injection trace buffers are caller-owned, so concurrent traced
/// injections never interleave each other's events: every thread's
/// buffer describes a complete, coherent walk of its own probe.
#[test]
fn traced_injections_stay_coherent_per_thread() {
    let (topo, names) = samples::chain(3);
    let v = names.addr("vantage");
    let d = names.addr("dest");
    let net = Network::new(topo);
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let net = &net;
            scope.spawn(move || {
                let mut buf = Vec::new();
                for k in 0..PROBES_PER_THREAD {
                    let ttl = 1 + ((t + k) % 3) as u8;
                    let _ = net.inject_traced(&icmp_probe(v, d, ttl, t as u16, k as u16), &mut buf);
                    // A TTL-k probe arrives at exactly k routers past the
                    // host, then expires: k+1 Arrived events, 1 expiry.
                    let arrived =
                        buf.iter().filter(|e| matches!(e, netsim::Event::Arrived { .. })).count();
                    assert_eq!(arrived, ttl as usize + 1, "foreign events leaked into the trace");
                    assert_eq!(
                        buf.iter()
                            .filter(|e| matches!(e, netsim::Event::TtlExpired { .. }))
                            .count(),
                        1
                    );
                }
            });
        }
    });
}
