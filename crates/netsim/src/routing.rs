//! Shortest-path routing with equal-cost multipath sets.
//!
//! The paper reasons in unweighted hop distances (its Figure 2 shows
//! "unweighed links"), so routing is breadth-first shortest path over the
//! router graph, where two routers are adjacent iff they share a subnet.
//! All shortest next hops are retained; the engine's load balancer picks
//! among them per flow or per packet (§3.7).
//!
//! [`RoutingTable::compute`] builds the router graph from subnet
//! membership — one distinct attached-router run per subnet, so a LAN
//! of `k` routers costs `k²` however many interfaces each router has on
//! it — stores it as one compressed-sparse-row adjacency, and runs one
//! BFS per router into a `u16` distance matrix. Next hops are derived
//! from the two on demand: [`RoutingTable::next_hops`] filters the
//! sorted adjacency of `from` by the destination's distance row, which
//! allocates nothing and yields each ECMP set in a fixed order.

use std::collections::VecDeque;

use crate::topology::{RouterId, SubnetId, Topology};

/// Unreachable marker in the distance matrix.
pub const UNREACHABLE: u16 = u16::MAX;

/// All-pairs hop distances over the router graph, plus its adjacency.
pub struct RoutingTable {
    n: usize,
    /// dist[src * n + dst] = hop count between routers (0 on diagonal).
    /// The graph is undirected, so the matrix is symmetric.
    dist: Vec<u16>,
    /// CSR offsets into `adj`, one run per router.
    adj_off: Vec<u32>,
    /// Every router's (neighbor, via-subnet) pairs, each run sorted and
    /// deduped.
    adj: Vec<(RouterId, SubnetId)>,
    /// CSR offsets into `attached`, one run per subnet.
    attached_off: Vec<u32>,
    /// Routers directly attached to each subnet, sorted and deduped —
    /// the delivery points for unassigned addresses.
    attached: Vec<RouterId>,
}

impl RoutingTable {
    /// Computes the table: the per-subnet attachment lists, the router
    /// adjacency derived from them, then one BFS per router for the
    /// distance matrix.
    pub fn compute(topo: &Topology) -> RoutingTable {
        let n = topo.router_count();

        let mut membership: Vec<(SubnetId, RouterId)> =
            topo.ifaces().iter().map(|i| (i.subnet, i.router)).collect();
        membership.sort_unstable();
        membership.dedup();
        let attached_off = run_offsets(&membership, topo.subnets().len(), |&(s, _)| s.0);
        let attached: Vec<RouterId> = membership.into_iter().map(|(_, r)| r).collect();

        // Every other router attached to a subnet is a neighbor via that
        // subnet. Sorting the (router, neighbor, subnet) triples lays out
        // each router's run in (neighbor, subnet) order; a pair arises
        // once per shared subnet, so the runs are already deduped.
        let mut triples = Vec::new();
        for (s, w) in attached_off.windows(2).enumerate() {
            let members = &attached[w[0] as usize..w[1] as usize];
            for &r in members {
                for &nb in members.iter().filter(|&&nb| nb != r) {
                    triples.push((r, nb, SubnetId(s as u32)));
                }
            }
        }
        triples.sort_unstable();
        let adj_off = run_offsets(&triples, n, |&(r, _, _)| r.0);
        let adj: Vec<(RouterId, SubnetId)> =
            triples.into_iter().map(|(_, nb, via)| (nb, via)).collect();

        let mut dist = vec![UNREACHABLE; n * n];
        let mut queue = VecDeque::new();
        for src in 0..n {
            let row = &mut dist[src * n..(src + 1) * n];
            row[src] = 0;
            queue.clear();
            queue.push_back(src);
            while let Some(cur) = queue.pop_front() {
                let d = row[cur];
                for &(nb, _) in &adj[adj_off[cur] as usize..adj_off[cur + 1] as usize] {
                    let nb = nb.0 as usize;
                    if row[nb] == UNREACHABLE {
                        row[nb] = d + 1;
                        queue.push_back(nb);
                    }
                }
            }
        }

        RoutingTable { n, dist, adj_off, adj, attached_off, attached }
    }

    /// Hop distance between two routers ([`UNREACHABLE`] if disconnected).
    #[inline]
    pub fn dist(&self, from: RouterId, to: RouterId) -> u16 {
        self.dist[from.0 as usize * self.n + to.0 as usize]
    }

    /// Whether `to` is reachable from `from`.
    #[inline]
    pub fn reachable(&self, from: RouterId, to: RouterId) -> bool {
        self.dist(from, to) != UNREACHABLE
    }

    /// `router`'s (neighbor, via-subnet) pairs, sorted and deduped.
    #[inline]
    fn adjacency(&self, router: RouterId) -> &[(RouterId, SubnetId)] {
        let r = router.0 as usize;
        &self.adj[self.adj_off[r] as usize..self.adj_off[r + 1] as usize]
    }

    /// The ECMP next-hop set from `from` toward `to`: every
    /// (neighbor, via-subnet) pair lying on some shortest path, in
    /// (neighbor, subnet) order. Derived from the adjacency and the
    /// destination's distance row as it is iterated — no allocation.
    ///
    /// Empty when `from == to` or `to` is unreachable.
    #[inline]
    pub fn next_hops(
        &self,
        from: RouterId,
        to: RouterId,
    ) -> impl Iterator<Item = (RouterId, SubnetId)> + Clone + '_ {
        // Distances are symmetric, so `to`'s row holds both d(from, to)
        // and every neighbor's distance to `to`.
        let row = &self.dist[to.0 as usize * self.n..(to.0 as usize + 1) * self.n];
        let d = row[from.0 as usize];
        let adj = self.adjacency(from);
        let candidates = match d {
            0 | UNREACHABLE => &[][..],
            // Only `to` itself is at distance 0, and the sorted run holds
            // its entries together: find them without scanning a whole
            // LAN's worth of neighbors.
            1 => {
                &adj[adj.partition_point(|&(nb, _)| nb < to)
                    ..adj.partition_point(|&(nb, _)| nb <= to)]
            }
            _ => adj,
        };
        candidates.iter().copied().filter(move |&(nb, _)| row[nb.0 as usize] == d - 1)
    }

    /// The routers directly attached to `subnet`, sorted and deduped.
    #[inline]
    pub fn attached_routers(&self, subnet: SubnetId) -> &[RouterId] {
        let s = subnet.0 as usize;
        &self.attached[self.attached_off[s] as usize..self.attached_off[s + 1] as usize]
    }

    /// The ingress router of `subnet` as seen from `from`: the attached
    /// router at minimum hop distance, ties broken by router id —
    /// exactly [`RoutingTable::nearest`] over
    /// [`RoutingTable::attached_routers`], without building the
    /// candidate list per packet.
    #[inline]
    pub fn ingress(&self, from: RouterId, subnet: SubnetId) -> Option<RouterId> {
        self.nearest(from, self.attached_routers(subnet).iter().copied()).map(|(r, _)| r)
    }

    /// The nearest router(s) of `candidates` to `from`; used to route
    /// toward a subnet (its ingress router is the closest attached
    /// router).
    pub fn nearest(
        &self,
        from: RouterId,
        candidates: impl IntoIterator<Item = RouterId>,
    ) -> Option<(RouterId, u16)> {
        candidates
            .into_iter()
            .map(|c| (c, self.dist(from, c)))
            .filter(|&(_, d)| d != UNREACHABLE)
            .min_by_key(|&(c, d)| (d, c))
    }
}

/// CSR offsets for `sorted`, grouped into `runs` runs by `key`: run `k`
/// is `sorted[off[k]..off[k + 1]]`.
fn run_offsets<T>(sorted: &[T], runs: usize, key: impl Fn(&T) -> u32) -> Vec<u32> {
    let runs = u32::try_from(runs).expect("ids are u32");
    (0..=runs)
        .map(|k| sorted.partition_point(|t| key(t) < k))
        .map(|off| u32::try_from(off).expect("CSR offsets fit in u32"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::RouterConfig;
    use crate::topology::TopologyBuilder;
    use inet::{Addr, Prefix};

    fn p(s: &str) -> Prefix {
        s.parse().unwrap()
    }

    fn a(s: &str) -> Addr {
        s.parse().unwrap()
    }

    /// Builds a chain r0 - r1 - r2 - r3 over /31 links.
    fn chain(n: u32) -> (Topology, Vec<RouterId>) {
        let mut b = TopologyBuilder::new();
        let routers: Vec<RouterId> =
            (0..n).map(|i| b.router(format!("r{i}"), RouterConfig::cooperative())).collect();
        for i in 0..n - 1 {
            let s = b.subnet(Prefix::containing(Addr::new(10, 0, i as u8, 0), 31));
            b.attach(routers[i as usize], s, Addr::new(10, 0, i as u8, 0)).unwrap();
            b.attach(routers[(i + 1) as usize], s, Addr::new(10, 0, i as u8, 1)).unwrap();
        }
        (b.build().unwrap(), routers)
    }

    #[test]
    fn chain_distances() {
        let (t, r) = chain(4);
        let rt = RoutingTable::compute(&t);
        assert_eq!(rt.dist(r[0], r[0]), 0);
        assert_eq!(rt.dist(r[0], r[3]), 3);
        assert_eq!(rt.dist(r[3], r[0]), 3);
        assert_eq!(rt.dist(r[1], r[2]), 1);
    }

    #[test]
    fn chain_next_hops_are_unique() {
        let (t, r) = chain(4);
        let rt = RoutingTable::compute(&t);
        let hops: Vec<_> = rt.next_hops(r[0], r[3]).collect();
        assert_eq!(hops.len(), 1);
        assert_eq!(hops[0].0, r[1]);
        assert!(rt.next_hops(r[0], r[0]).next().is_none());
    }

    #[test]
    fn disconnected_routers_unreachable() {
        let mut b = TopologyBuilder::new();
        let r1 = b.router("r1", RouterConfig::cooperative());
        let r2 = b.router("r2", RouterConfig::cooperative());
        let s1 = b.subnet(p("10.0.0.0/31"));
        b.attach(r1, s1, a("10.0.0.0")).unwrap();
        let s2 = b.subnet(p("10.0.1.0/31"));
        b.attach(r2, s2, a("10.0.1.0")).unwrap();
        let t = b.build().unwrap();
        let rt = RoutingTable::compute(&t);
        assert!(!rt.reachable(r1, r2));
        assert!(rt.next_hops(r1, r2).next().is_none());
        assert!(rt.nearest(r1, [r2]).is_none());
    }

    /// Diamond: r0 connects to r3 via r1 and r2 at equal cost.
    fn diamond() -> (Topology, Vec<RouterId>) {
        let mut b = TopologyBuilder::new();
        let r: Vec<RouterId> =
            (0..4).map(|i| b.router(format!("r{i}"), RouterConfig::cooperative())).collect();
        let links = [(0, 1, 0u8), (0, 2, 1), (1, 3, 2), (2, 3, 3)];
        for &(x, y, k) in &links {
            let s = b.subnet(Prefix::containing(Addr::new(10, 1, k, 0), 31));
            b.attach(r[x], s, Addr::new(10, 1, k, 0)).unwrap();
            b.attach(r[y], s, Addr::new(10, 1, k, 1)).unwrap();
        }
        (b.build().unwrap(), r)
    }

    #[test]
    fn diamond_has_two_equal_cost_paths() {
        let (t, r) = diamond();
        let rt = RoutingTable::compute(&t);
        assert_eq!(rt.dist(r[0], r[3]), 2);
        let nbs: Vec<RouterId> = rt.next_hops(r[0], r[3]).map(|(n, _)| n).collect();
        assert_eq!(nbs.len(), 2);
        assert!(nbs.contains(&r[1]) && nbs.contains(&r[2]));
    }

    /// The ECMP set built the way routing first did: pair every
    /// interface of `from` with every interface on its subnets, keep the
    /// neighbors one hop closer to `to`, then sort and dedup.
    fn interface_pair_next_hops(
        t: &Topology,
        rt: &RoutingTable,
        from: RouterId,
        to: RouterId,
    ) -> Vec<(RouterId, SubnetId)> {
        if from == to || !rt.reachable(from, to) {
            return Vec::new();
        }
        let want = rt.dist(from, to) - 1;
        let mut v: Vec<(RouterId, SubnetId)> = t
            .router(from)
            .ifaces
            .iter()
            .flat_map(|&i| {
                let sn = t.iface(i).subnet;
                t.subnet(sn).ifaces.iter().map(move |&j| (t.iface(j).router, sn))
            })
            .filter(|&(nb, _)| nb != from && rt.dist(nb, to) == want)
            .collect();
        v.sort_unstable();
        v.dedup();
        v
    }

    #[test]
    fn derived_next_hops_match_interface_pair_construction() {
        let (t, r) = diamond();
        let rt = RoutingTable::compute(&t);
        for &from in &r {
            for &to in &r {
                let got: Vec<_> = rt.next_hops(from, to).collect();
                assert_eq!(got, interface_pair_next_hops(&t, &rt, from, to), "{from:?} -> {to:?}");
            }
        }
    }

    #[test]
    fn adjacency_via_shared_subnets() {
        let (t, r) = chain(3);
        let rt = RoutingTable::compute(&t);
        assert_eq!(rt.adjacency(r[0]), &[(r[1], SubnetId(0))]);
        assert_eq!(rt.adjacency(r[1]), &[(r[0], SubnetId(0)), (r[2], SubnetId(1))]);
    }

    #[test]
    fn lan_with_many_interfaces_per_router_is_one_adjacency_per_pair() {
        // k routers with m interfaces each on one /24 LAN; r0 also
        // reaches an edge router over a /31.
        let (k, m) = (4u8, 3u8);
        let mut b = TopologyBuilder::new();
        let r: Vec<RouterId> =
            (0..k).map(|i| b.router(format!("r{i}"), RouterConfig::cooperative())).collect();
        let lan = b.subnet(p("10.9.0.0/24"));
        for (i, &router) in r.iter().enumerate() {
            for j in 0..m {
                b.attach(router, lan, Addr::new(10, 9, 0, 1 + i as u8 * m + j)).unwrap();
            }
        }
        let edge = b.router("edge", RouterConfig::cooperative());
        let link = b.subnet(p("10.9.1.0/31"));
        b.attach(r[0], link, a("10.9.1.0")).unwrap();
        b.attach(edge, link, a("10.9.1.1")).unwrap();
        let t = b.build().unwrap();
        let rt = RoutingTable::compute(&t);

        assert_eq!(rt.adjacency(r[0]).len(), k as usize);
        for &x in &r[1..] {
            let want: Vec<_> = r.iter().filter(|&&y| y != x).map(|&y| (y, lan)).collect();
            assert_eq!(rt.adjacency(x), want.as_slice());
            assert_eq!(rt.dist(x, edge), 2);
            assert_eq!(rt.dist(edge, x), 2);
            assert_eq!(rt.next_hops(x, edge).collect::<Vec<_>>(), [(r[0], lan)]);
            assert_eq!(rt.next_hops(edge, x).collect::<Vec<_>>(), [(r[0], link)]);
            for &y in &r {
                if x != y {
                    assert_eq!(rt.next_hops(x, y).collect::<Vec<_>>(), [(y, lan)]);
                }
            }
        }
        let all: Vec<RouterId> = r.iter().copied().chain([edge]).collect();
        for &from in &all {
            for &to in &all {
                let got: Vec<_> = rt.next_hops(from, to).collect();
                assert_eq!(got, interface_pair_next_hops(&t, &rt, from, to), "{from:?} -> {to:?}");
            }
        }
    }

    #[test]
    fn parallel_subnets_to_a_neighbor_are_all_next_hops() {
        // r1 shares a LAN and two /31s with r0, and sits between r0 and
        // r2 on the LAN's sorted neighbor run.
        let mut b = TopologyBuilder::new();
        let r: Vec<RouterId> =
            (0..3).map(|i| b.router(format!("r{i}"), RouterConfig::cooperative())).collect();
        let lan = b.subnet(p("10.8.0.0/29"));
        for (i, &router) in r.iter().enumerate() {
            b.attach(router, lan, Addr::new(10, 8, 0, 1 + i as u8)).unwrap();
        }
        let mut links = Vec::new();
        for k in 1..3u8 {
            let link = b.subnet(Prefix::containing(Addr::new(10, 8, k, 0), 31));
            b.attach(r[0], link, Addr::new(10, 8, k, 0)).unwrap();
            b.attach(r[1], link, Addr::new(10, 8, k, 1)).unwrap();
            links.push(link);
        }
        let t = b.build().unwrap();
        let rt = RoutingTable::compute(&t);
        let hops: Vec<_> = rt.next_hops(r[0], r[1]).collect();
        assert_eq!(hops, [(r[1], lan), (r[1], links[0]), (r[1], links[1])]);
        assert_eq!(rt.next_hops(r[0], r[2]).collect::<Vec<_>>(), [(r[2], lan)]);
        assert_eq!(hops, interface_pair_next_hops(&t, &rt, r[0], r[1]));
    }

    #[test]
    fn nearest_picks_minimum_then_lowest_id() {
        let (t, r) = chain(4);
        let rt = RoutingTable::compute(&t);
        assert_eq!(rt.nearest(r[0], [r[2], r[3]]), Some((r[2], 2)));
        // Ties broken by router id.
        assert_eq!(rt.nearest(r[1], [r[0], r[2]]), Some((r[0], 1)));
        let _ = t;
    }

    #[test]
    fn ingress_agrees_with_nearest_over_attached_routers() {
        let (t, r) = chain(4);
        let rt = RoutingTable::compute(&t);
        for sn in 0..t.subnets().len() {
            let sn = SubnetId(sn as u32);
            let members: Vec<RouterId> =
                t.subnet(sn).ifaces.iter().map(|&i| t.iface(i).router).collect();
            assert_eq!(rt.attached_routers(sn), {
                let mut m = members.clone();
                m.sort_unstable();
                m.dedup();
                m
            });
            for &from in &r {
                assert_eq!(
                    rt.ingress(from, sn),
                    rt.nearest(from, members.iter().copied()).map(|(c, _)| c),
                    "{from:?} -> {sn:?}"
                );
            }
        }
    }

    #[test]
    fn multi_access_lan_is_full_mesh_adjacency() {
        let mut b = TopologyBuilder::new();
        let r: Vec<RouterId> =
            (0..3).map(|i| b.router(format!("r{i}"), RouterConfig::cooperative())).collect();
        let s = b.subnet(p("192.168.0.0/29"));
        for (i, &router) in r.iter().enumerate() {
            b.attach(router, s, Addr::new(192, 168, 0, i as u8 + 1)).unwrap();
        }
        let t = b.build().unwrap();
        let rt = RoutingTable::compute(&t);
        for &x in &r {
            for &y in &r {
                if x != y {
                    assert_eq!(rt.dist(x, y), 1);
                }
            }
        }
    }
}
