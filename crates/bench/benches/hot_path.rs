//! Criterion microbenches for the probe hot path: the ECMP `next_hops`
//! sets the walk derives per hop from the router adjacency and the
//! destination's distance row, and `inject` through the shared engine.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use netsim::{Network, RouterId, RoutingTable, Topology};
use topogen::{internet2, isp_internet};
use wire::builder::icmp_probe;

/// Sums the ECMP set sizes over every (from, to) pair.
fn all_pairs_next_hops(routing: &RoutingTable, topo: &Topology) -> usize {
    let n = topo.router_count() as u32;
    let mut total = 0usize;
    for from in 0..n {
        for to in 0..n {
            total += routing.next_hops(RouterId(from), RouterId(to)).count();
        }
    }
    total
}

fn bench_hot_path(c: &mut Criterion) {
    let mut g = c.benchmark_group("hot_path");
    g.sample_size(20);

    let scenario = internet2(7);
    let topo = scenario.topology.clone();
    let routing = RoutingTable::compute(&topo);

    // The per-hop routing lookup, swept over every (from, to) pair.
    g.bench_function("next_hops_all_pairs", |b| {
        b.iter(|| black_box(all_pairs_next_hops(&routing, &topo)))
    });
    // The ISP internet's multi-access /20-/22 LANs give routers dozens
    // of neighbors, each of which a derived next-hop set scans.
    let isp = isp_internet(2010).topology;
    let isp_routing = RoutingTable::compute(&isp);
    g.bench_function("next_hops_all_pairs_isp", |b| {
        b.iter(|| black_box(all_pairs_next_hops(&isp_routing, &isp)))
    });

    // Full injections through the shared engine (walk + reply build),
    // no trace buffer, no lock contention (single thread).
    let net = Network::new(scenario.topology.clone());
    let vantage = scenario.vantage("utdallas");
    let target = *scenario.targets.last().expect("targets");
    g.bench_function("inject_direct_concurrent", |b| {
        b.iter(|| {
            for seq in 0..64u16 {
                black_box(net.inject(&icmp_probe(vantage, target, 64, 1, seq)));
            }
        })
    });
    g.bench_function("inject_ttl_scoped_concurrent", |b| {
        b.iter(|| {
            for seq in 0..64u16 {
                black_box(net.inject(&icmp_probe(vantage, target, 3, 1, seq)));
            }
        })
    });
    g.finish();
}

criterion_group!(benches, bench_hot_path);
criterion_main!(benches);
