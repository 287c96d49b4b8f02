//! Property tests for the simulator: TTL semantics, routing sanity and
//! policy invariants on randomized topologies.

use inet::{Addr, Prefix};
use netsim::{
    samples, FaultPlan, Network, RouterConfig, RouterId, RoutingTable, SubnetId, TopologyBuilder,
    Verdict, UNREACHABLE,
};
use proptest::prelude::*;
use wire::builder::{icmp_probe, tcp_probe, udp_probe, UDP_PROBE_BASE_PORT};
use wire::{IcmpMessage, Packet, Payload, UnreachableCode};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// On a chain of any length, TTL k draws a TTL-exceeded from exactly
    /// the k-th router, and a large TTL reaches the destination.
    #[test]
    fn chain_ttl_scoping(n in 1u32..8) {
        let (topo, names) = samples::chain(n);
        let net = Network::new(topo);
        let v = names.addr("vantage");
        let d = names.addr("dest");
        for k in 1..=n as u8 {
            let reply = net.inject(&icmp_probe(v, d, k, 1, k as u16)).reply().unwrap();
            let owner = net.topology().owner_of(reply.header.src).unwrap();
            prop_assert_eq!(&net.topology().router(owner).name, &format!("r{k}"));
            let is_ttl_excd = matches!(reply.payload, Payload::Icmp(IcmpMessage::TtlExceeded { .. }));
            prop_assert!(is_ttl_excd);
        }
        let reply = net.inject(&icmp_probe(v, d, n as u8 + 1, 1, 0)).reply().unwrap();
        prop_assert_eq!(reply.header.src, d);
        let is_echo = matches!(reply.payload, Payload::Icmp(IcmpMessage::EchoReply { .. }));
        prop_assert!(is_echo);
    }

    /// Every assigned, responsive address in a random mesh answers a
    /// direct probe with itself as the source (cooperative = probed
    /// interface policy), and the minimum TTL that elicits a direct reply
    /// equals the true hop distance.
    #[test]
    fn direct_probe_distance_agrees_with_routing(seed in 0u64..500) {
        let (topo, vantage) = random_mesh(seed);
        let routing = RoutingTable::compute(&topo);
        let v_owner = topo.owner_of(vantage).unwrap();
        let addrs: Vec<Addr> = topo.ifaces().iter().map(|i| i.addr).collect();
        let net = Network::new(topo);
        for addr in addrs {
            let owner = net.topology().owner_of(addr).unwrap();
            if !routing.reachable(v_owner, owner) {
                continue;
            }
            let d = routing.dist(v_owner, owner);
            // Large TTL: direct reply from the probed address.
            let reply = net.inject(&icmp_probe(vantage, addr, 64, 9, 9)).reply();
            let reply = reply.expect("cooperative iface must answer");
            prop_assert_eq!(reply.header.src, addr);
            if d > 0 {
                // TTL = d delivers; TTL = d-1 does not deliver directly.
                let at_d = net.inject(&icmp_probe(vantage, addr, d as u8, 9, 9)).reply().unwrap();
                prop_assert_eq!(at_d.header.src, addr);
                if d > 1 {
                    let at_dm1 =
                        net.inject(&icmp_probe(vantage, addr, d as u8 - 1, 9, 9)).reply().unwrap();
                    let is_ttl_excd =
                        matches!(at_dm1.payload, Payload::Icmp(IcmpMessage::TtlExceeded { .. }));
                    prop_assert!(is_ttl_excd);
                    prop_assert_ne!(at_dm1.header.src, addr);
                }
            }
        }
    }

    /// Interfaces on one subnet differ by at most one hop from the vantage
    /// — the paper's *Unit Subnet Diameter* observation (§3.2(iii)) must
    /// be a theorem of the simulator.
    #[test]
    fn unit_subnet_diameter_holds(seed in 0u64..500) {
        let (topo, vantage) = random_mesh(seed);
        let routing = RoutingTable::compute(&topo);
        let v_owner = topo.owner_of(vantage).unwrap();
        for (sid, _) in topo.subnets().iter().enumerate() {
            let reachable: Vec<u16> = topo.subnets()[sid]
                .ifaces
                .iter()
                .map(|&i| routing.dist(v_owner, topo.iface(i).router))
                .filter(|&d| d != u16::MAX)
                .collect();
            if let (Some(&min), Some(&max)) =
                (reachable.iter().min(), reachable.iter().max())
            {
                prop_assert!(max - min <= 1, "subnet spans hops {min}..{max}");
            }
        }
    }
    /// On routers with several interfaces on shared multi-access LANs
    /// (the pattern of the ISP generator's /20 blocks), plus parallel
    /// point-to-point links: distances equal a Floyd–Warshall closure of
    /// subnet membership and are symmetric, and every ECMP set equals the
    /// interface-pair construction over subnet membership and `dist`.
    #[test]
    fn routing_matches_subnet_membership_reference(seed in 0u64..500) {
        let topo = random_lan_mesh(seed);
        let rt = RoutingTable::compute(&topo);
        let n = topo.router_count();
        let ids: Vec<RouterId> = (0..n as u32).map(RouterId).collect();

        // Subnet membership: the hosting router of every interface.
        let members: Vec<Vec<RouterId>> = topo
            .subnets()
            .iter()
            .map(|sn| sn.ifaces.iter().map(|&i| topo.iface(i).router).collect())
            .collect();
        let mut closure = vec![vec![u32::MAX; n]; n];
        for (r, row) in closure.iter_mut().enumerate() {
            row[r] = 0;
        }
        for m in &members {
            for &x in m {
                for &y in m {
                    if x != y {
                        closure[x.0 as usize][y.0 as usize] = 1;
                    }
                }
            }
        }
        for k in 0..n {
            for i in 0..n {
                for j in 0..n {
                    let via = closure[i][k].saturating_add(closure[k][j]);
                    if via < closure[i][j] {
                        closure[i][j] = via;
                    }
                }
            }
        }

        for &from in &ids {
            for &to in &ids {
                let d = rt.dist(from, to);
                prop_assert_eq!(d, rt.dist(to, from), "asymmetric {:?} {:?}", from, to);
                let want_d = closure[from.0 as usize][to.0 as usize];
                prop_assert_eq!(u32::from(d), want_d.min(u32::from(UNREACHABLE)));

                let mut want: Vec<(RouterId, SubnetId)> = Vec::new();
                if from != to && d != UNREACHABLE {
                    for (sid, m) in members.iter().enumerate() {
                        if m.contains(&from) {
                            want.extend(
                                m.iter()
                                    .filter(|&&nb| nb != from && rt.dist(nb, to) == d - 1)
                                    .map(|&nb| (nb, SubnetId(sid as u32))),
                            );
                        }
                    }
                }
                want.sort_unstable();
                want.dedup();
                let got: Vec<(RouterId, SubnetId)> = rt.next_hops(from, to).collect();
                prop_assert_eq!(got, want, "seed {} {:?} -> {:?}", seed, from, to);
            }
        }
    }

    /// Every reply the engine emits survives the wire codec unchanged:
    /// probers classify the engine's reply packet directly, which is only
    /// what a raw socket would see if encoding and decoding it is the
    /// identity. ICMP, UDP and TCP probes at every TTL, to every address,
    /// with and without a fault plan.
    #[test]
    fn every_reply_round_trips_through_the_codec(seed in 0u64..500, faulty in any::<bool>()) {
        let (topo, vantage) = random_mesh(seed);
        let addrs: Vec<Addr> = topo.ifaces().iter().map(|i| i.addr).collect();
        let mut net = Network::new(topo);
        if faulty {
            let plan = FaultPlan { forward_loss: 0.1, reply_loss: 0.2, ..FaultPlan::new(seed) };
            net.set_fault_plan(Some(plan));
        }
        // Reply kinds seen: echo reply, TTL exceeded, port unreachable, RST.
        let mut seen = [false; 4];
        for (k, &dst) in addrs.iter().enumerate() {
            let id = k as u16;
            for ttl in 1..=6u8 {
                let probes = [
                    icmp_probe(vantage, dst, ttl, id, ttl as u16),
                    udp_probe(vantage, dst, ttl, 0x8000 | id, UDP_PROBE_BASE_PORT + ttl as u16),
                    tcp_probe(vantage, dst, ttl, 0x9000 | id, 80),
                ];
                for probe in &probes {
                    let Verdict::Reply(r) = net.inject(probe) else { continue };
                    prop_assert_eq!(Packet::decode(&r.encode()), Ok(r.clone()), "seed {}", seed);
                    let kind = match &r.payload {
                        Payload::Icmp(IcmpMessage::EchoReply { .. }) => 0,
                        Payload::Icmp(IcmpMessage::TtlExceeded { .. }) => 1,
                        Payload::Icmp(IcmpMessage::Unreachable {
                            code: UnreachableCode::Port, ..
                        }) => 2,
                        Payload::Tcp(_) => 3,
                        _ => continue,
                    };
                    seen[kind] = true;
                }
            }
        }
        if !faulty {
            prop_assert_eq!(seen, [true; 4], "seed {}: every reply kind is exercised", seed);
        }
    }
}

/// Builds a small random mesh: a vantage host, a row of core routers in a
/// ring, and random /29–/31 stub subnets hanging off them. Returns the
/// topology and the vantage address.
fn random_mesh(seed: u64) -> (netsim::Topology, Addr) {
    // Tiny deterministic RNG (xorshift) to avoid pulling rand into the
    // library's test surface for structure generation.
    let mut state = seed.wrapping_mul(2685821657736338717).wrapping_add(1);
    let mut next = move |bound: u64| {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state % bound
    };

    let mut b = TopologyBuilder::new();
    let v = b.host("vantage");
    let n_core = 3 + next(4) as usize; // 3..6 core routers
    let core: Vec<_> =
        (0..n_core).map(|i| b.router(format!("c{i}"), RouterConfig::cooperative())).collect();

    // Vantage attaches to core[0].
    let s = b.subnet("10.9.0.0/31".parse::<Prefix>().unwrap());
    let vantage = Addr::new(10, 9, 0, 0);
    b.attach(v, s, vantage).unwrap();
    b.attach(core[0], s, Addr::new(10, 9, 0, 1)).unwrap();

    // Ring links between consecutive core routers.
    for i in 0..n_core {
        let j = (i + 1) % n_core;
        if n_core == 2 && i == 1 {
            break;
        }
        let base = Addr::new(10, 10, i as u8, 0);
        let s = b.subnet(Prefix::containing(base, 31));
        b.attach(core[i], s, base).unwrap();
        b.attach(core[j], s, base.mate31()).unwrap();
    }

    // Random stubs.
    let n_stub = next(5) as usize;
    for k in 0..n_stub {
        let owner = core[next(n_core as u64) as usize];
        let len = 29 + next(3) as u8; // 29..=31
        let base = Addr::new(10, 20, k as u8, 0);
        let prefix = Prefix::containing(base, len);
        let s = b.subnet(prefix);
        let want = 1 + next(3) as usize;
        for (added, addr) in prefix.probe_addrs().take(want).enumerate() {
            // One interface per stub router to keep it simple: first iface
            // belongs to the core owner, further ones to fresh routers.
            if added == 0 {
                b.attach(owner, s, addr).unwrap();
            } else {
                let r = b.router(format!("stub{k}_{added}"), RouterConfig::cooperative());
                b.attach(r, s, addr).unwrap();
            }
        }
    }
    (b.build().expect("random mesh builds"), vantage)
}

/// Routers with one to three interfaces each on shared /24 LANs, plus
/// point-to-point /31 links that may parallel a LAN adjacency or leave
/// some routers disconnected.
fn random_lan_mesh(seed: u64) -> netsim::Topology {
    let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
    let mut next = move |bound: u64| {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state % bound
    };

    let mut b = TopologyBuilder::new();
    let n = 3 + next(8) as usize; // 3..=10 routers
    let routers: Vec<RouterId> =
        (0..n).map(|i| b.router(format!("r{i}"), RouterConfig::cooperative())).collect();
    for lan in 0..1 + next(4) as u8 {
        let prefix = Prefix::containing(Addr::new(10, 30, lan, 0), 24);
        let s = b.subnet(prefix);
        let mut host = 1u8;
        for &r in &routers {
            if next(2) == 0 {
                continue;
            }
            for _ in 0..1 + next(3) {
                b.attach(r, s, Addr::new(10, 30, lan, host)).unwrap();
                host += 1;
            }
        }
    }
    for k in 0..next(5) as u8 {
        let x = routers[next(n as u64) as usize];
        let y = routers[next(n as u64) as usize];
        if x == y {
            continue;
        }
        let base = Addr::new(10, 31, k, 0);
        let s = b.subnet(Prefix::containing(base, 31));
        b.attach(x, s, base).unwrap();
        b.attach(y, s, base.mate31()).unwrap();
    }
    b.build().expect("random LAN mesh builds")
}
