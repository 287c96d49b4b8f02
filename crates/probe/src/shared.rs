//! Sharing one simulated network between several vantage points.
//!
//! The paper's cross-validation experiment (§4.2, Figure 6) runs the same
//! target list from three PlanetLab sites against the *same* Internet.
//! The engine itself is shareable — every `netsim::Network` probing
//! method takes `&self` — so [`SharedNetwork`] only adds what several
//! independent probers need on top: collision-free default idents.

use std::ops::Deref;

use inet::Addr;
use netsim::Network;
use wire::Protocol;

use crate::ident::{IdentAllocator, IdentSpace};
use crate::sim::SimProber;

/// A network plus an [`IdentAllocator`], so probers created without an
/// explicit [`SimProber::ident`] draw collision-free defaults from the
/// `Aux` namespace instead of all sharing one magic constant. Derefs to
/// the [`Network`], so it goes wherever a `&Network` is expected.
pub struct SharedNetwork {
    net: Network,
    idents: IdentAllocator,
}

impl SharedNetwork {
    /// Adopts a configured network.
    pub fn new(net: Network) -> SharedNetwork {
        SharedNetwork { net, idents: IdentAllocator::new() }
    }

    /// Creates a prober for the given vantage address and protocol. The
    /// session ident defaults to a fresh slot in the `Aux` namespace;
    /// override with [`SimProber::ident`] for a pinned flow.
    pub fn prober(&self, src: Addr, protocol: Protocol) -> SimProber<'_> {
        SimProber::with_protocol(&self.net, src, protocol).ident(self.idents.ident(IdentSpace::Aux))
    }
}

impl Deref for SharedNetwork {
    type Target = Network;

    fn deref(&self) -> &Network {
        &self.net
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ProbeOutcome, Prober};
    use netsim::samples;

    #[test]
    fn two_vantages_share_one_network() {
        let (topo, names) = samples::figure2();
        let shared = SharedNetwork::new(Network::new(topo));
        let a_addr = names.addr("A");
        let b_addr = names.addr("B");
        let c_addr = names.addr("C");
        let d_addr = names.addr("D");

        let mut pa = shared.prober(a_addr, Protocol::Icmp).ident(1);
        let mut pb = shared.prober(b_addr, Protocol::Icmp).ident(2);

        assert_eq!(pa.probe(d_addr, 64), ProbeOutcome::DirectReply { from: d_addr });
        assert_eq!(pb.probe(c_addr, 64), ProbeOutcome::DirectReply { from: c_addr });
        // Engine clock advanced for both (shared state).
        assert!(shared.tick() >= 2);
    }

    #[test]
    fn default_idents_are_distinct_per_prober() {
        let (topo, names) = samples::figure2();
        let shared = SharedNetwork::new(Network::new(topo));
        let a = shared.prober(names.addr("A"), Protocol::Icmp);
        let b = shared.prober(names.addr("B"), Protocol::Icmp);
        assert_ne!(a.ident, b.ident, "two default probers must not share a flow ident");
        for p in [&a, &b] {
            let base = IdentSpace::Aux.base();
            assert!(p.ident >= base, "default idents come from the Aux namespace");
        }
    }
}
