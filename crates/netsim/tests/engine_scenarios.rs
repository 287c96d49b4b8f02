//! Engine scenario tests: behaviors that only surface on less-common
//! topology shapes — multi-interface LAN routers, filtered transit,
//! protocol-selective TTL generation.

use inet::{Addr, Prefix};
use netsim::{Network, ProtoSet, RouterConfig, TopologyBuilder};
use obs::TimeoutCause;
use wire::builder::{icmp_probe, udp_probe};
use wire::{IcmpMessage, Payload};

fn a(s: &str) -> Addr {
    s.parse().unwrap()
}

fn p(s: &str) -> Prefix {
    s.parse().unwrap()
}

/// One router hosting many interfaces on the same LAN (how topogen
/// models the paper's /20–/22 NTT subnets): every address answers, all
/// at the same hop distance.
#[test]
fn multi_interface_router_answers_on_every_address() {
    let mut b = TopologyBuilder::new();
    let v = b.host("vantage");
    let gw = b.router("gw", RouterConfig::cooperative());
    let big = b.router("big", RouterConfig::cooperative());
    let l0 = b.subnet(p("10.0.0.0/31"));
    b.attach(v, l0, a("10.0.0.0")).unwrap();
    b.attach(gw, l0, a("10.0.0.1")).unwrap();
    let lan = b.subnet(p("10.0.8.0/28"));
    b.attach(gw, lan, a("10.0.8.1")).unwrap();
    for k in 2..=9u8 {
        b.attach(big, lan, Addr::new(10, 0, 8, k)).unwrap();
    }
    let net = Network::new(b.build().unwrap());
    for k in 2..=9u8 {
        let dst = Addr::new(10, 0, 8, k);
        let reply = net.inject(&icmp_probe(a("10.0.0.0"), dst, 64, 1, k as u16)).reply();
        let reply = reply.expect("every interface answers");
        assert_eq!(reply.header.src, dst, "probed-interface policy per address");
        // All big-router addresses are exactly 2 hops out.
        assert_eq!(net.true_hop_distance(a("10.0.0.0"), dst), Some(2));
    }
}

/// TTL expiry honors per-protocol indirect sets: a router that
/// suppresses UDP TTL-exceeded still answers ICMP ones.
#[test]
fn indirect_protocol_selectivity() {
    let mut b = TopologyBuilder::new();
    let v = b.host("vantage");
    let mut cfg = RouterConfig::cooperative();
    cfg.indirect_protos = ProtoSet { icmp: true, udp: false, tcp: true };
    let r1 = b.router("r1", cfg);
    let d = b.host("dest");
    let l0 = b.subnet(p("10.0.0.0/31"));
    b.attach(v, l0, a("10.0.0.0")).unwrap();
    b.attach(r1, l0, a("10.0.0.1")).unwrap();
    let l1 = b.subnet(p("10.0.1.0/31"));
    b.attach(r1, l1, a("10.0.1.0")).unwrap();
    b.attach(d, l1, a("10.0.1.1")).unwrap();
    let net = Network::new(b.build().unwrap());

    let icmp = net.inject(&icmp_probe(a("10.0.0.0"), a("10.0.1.1"), 1, 1, 1));
    assert!(icmp.reply().is_some(), "ICMP TTL-exceeded generated");
    let udp = net.inject(&udp_probe(a("10.0.0.0"), a("10.0.1.1"), 1, 50000, 33434));
    assert_eq!(udp.silence(), Some(TimeoutCause::TtlExpiredSilently));
}

/// A filtered subnet in the *middle* of a path swallows probes destined
/// into it but forwards transit traffic untouched.
#[test]
fn filtered_transit_subnet_still_forwards() {
    let mut b = TopologyBuilder::new();
    let v = b.host("vantage");
    let r1 = b.router("r1", RouterConfig::cooperative());
    let r2 = b.router("r2", RouterConfig::cooperative());
    let d = b.host("dest");
    let l0 = b.subnet(p("10.0.0.0/31"));
    b.attach(v, l0, a("10.0.0.0")).unwrap();
    b.attach(r1, l0, a("10.0.0.1")).unwrap();
    // The middle link is firewalled.
    let l1 = b.filtered_subnet(p("10.0.1.0/31"));
    b.attach(r1, l1, a("10.0.1.0")).unwrap();
    b.attach(r2, l1, a("10.0.1.1")).unwrap();
    let l2 = b.subnet(p("10.0.2.0/31"));
    b.attach(r2, l2, a("10.0.2.0")).unwrap();
    b.attach(d, l2, a("10.0.2.1")).unwrap();
    let net = Network::new(b.build().unwrap());
    let src = a("10.0.0.0");

    // Destination beyond the filtered link: reachable.
    assert!(net.inject(&icmp_probe(src, a("10.0.2.1"), 64, 1, 1)).reply().is_some());
    // Addresses *on* the filtered link: silent.
    assert_eq!(
        net.inject(&icmp_probe(src, a("10.0.1.0"), 64, 1, 2)).silence(),
        Some(TimeoutCause::Filtered)
    );
    assert_eq!(
        net.inject(&icmp_probe(src, a("10.0.1.1"), 64, 1, 3)).silence(),
        Some(TimeoutCause::Filtered)
    );
    // But the TTL-exceeded of a transit packet may still *name* a
    // filtered-link address (the reply is generated by the router, not
    // delivered into the subnet).
    let hop2 = net.inject(&icmp_probe(src, a("10.0.2.1"), 2, 1, 4)).reply().unwrap();
    assert_eq!(hop2.header.src, a("10.0.1.1"), "r2 reports its incoming iface");
}

/// Scoped ACLs: same probe, different vantage, different fate.
#[test]
fn scoped_acl_discriminates_by_source() {
    let mut b = TopologyBuilder::new();
    let v1 = b.host("v1");
    let v2 = b.host("v2");
    let r = b.router("r", RouterConfig::cooperative());
    let l0 = b.subnet(p("10.0.0.0/31"));
    b.attach(v1, l0, a("10.0.0.0")).unwrap();
    b.attach(r, l0, a("10.0.0.1")).unwrap();
    let l1 = b.subnet(p("10.0.1.0/31"));
    b.attach(v2, l1, a("10.0.1.0")).unwrap();
    b.attach(r, l1, a("10.0.1.1")).unwrap();
    let lan = b.subnet(p("10.0.2.0/30"));
    let lan_if = b.attach(r, lan, a("10.0.2.1")).unwrap();
    b.set_filtered_sources(lan, vec![a("10.0.0.0")]); // block v1 only
    let net = Network::new(b.build().unwrap());
    let _ = lan_if;

    assert_eq!(
        net.inject(&icmp_probe(a("10.0.0.0"), a("10.0.2.1"), 64, 1, 1)).silence(),
        Some(TimeoutCause::Filtered),
        "v1 is blocked"
    );
    let reply = net.inject(&icmp_probe(a("10.0.1.0"), a("10.0.2.1"), 64, 2, 1)).reply();
    assert!(reply.is_some(), "v2 gets through");
}

/// Replies quote enough of the probe for the prober to match them: walk
/// a TTL-exceeded end to end through wire bytes.
#[test]
fn reply_quotes_survive_the_wire() {
    let (topo, names) = netsim::samples::chain(3);
    let net = Network::new(topo);
    let probe = icmp_probe(names.addr("vantage"), names.addr("dest"), 2, 0xbeef, 77);
    let verdict = net.inject_bytes(&probe.encode());
    let reply = verdict.reply().expect("hop 2 answers");
    let bytes = reply.encode();
    let parsed = wire::Packet::decode(&bytes).unwrap();
    match parsed.payload {
        Payload::Icmp(IcmpMessage::TtlExceeded { quoted }) => {
            assert_eq!(quoted.header.dst, names.addr("dest"));
            assert_eq!(quoted.header.ttl, 2, "original TTL is quoted, not the decremented one");
        }
        other => panic!("unexpected payload {other:?}"),
    }
}
