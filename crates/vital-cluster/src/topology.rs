//! The cluster interconnect: the paper's bidirectional ring (§5.2), or pods
//! of rings joined by switches (the §7 scale-out).
//!
//! A [`Topology`] is its shape plus the endpoints of its cables. Every
//! fault-free query is answered by arithmetic on the shape; one
//! breadth-first search over the cables still in service runs only while a
//! link is down. The cable order is the link numbering that
//! [`FaultPlan`](crate::FaultPlan) link indices name: see
//! [`Topology::ring`] and [`Topology::pods`].

use std::ops::Range;

use vital_fabric::FpgaId;

/// The cluster interconnect: the paper's single bidirectional ring, or
/// pods of rings joined by switches.
///
/// FPGAs are nodes `0..fpgas()`; a pod topology adds one switch node per pod
/// after them, but every public query speaks FPGA indices only. The *pod*
/// layer ([`Topology::pod_count`] / [`Topology::pod_of`] /
/// [`Topology::pod_members`]) is what sharded schedulers batch allocation
/// rounds by; the bare ring is one pod.
///
/// ```
/// use vital_cluster::Topology;
/// use vital_fabric::FpgaId;
///
/// let ring = Topology::ring(4);
/// assert_eq!(ring.hops(FpgaId::new(0), FpgaId::new(3)), 1);
/// assert_eq!(ring.pod_count(), 1);
///
/// // 4 pods x 16 FPGAs: ring cables at 100 Gb/s, pod uplinks at 40 Gb/s.
/// let pods = Topology::pods(4, 16, 100.0, 40.0);
/// assert_eq!(pods.fpgas(), 64);
/// assert_eq!(pods.pod_of(17), 1);
/// // Cross-pod traffic goes FPGA -> pod switch -> pod switch -> FPGA.
/// assert_eq!(pods.hops(FpgaId::new(0), FpgaId::new(63)), 3);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Topology {
    fpgas: usize,
    /// FPGAs per pod; the bare ring is one pod of all of them.
    pod_size: usize,
    /// `(ring_gbps, uplink_gbps)` of a pod topology; `None` for the bare
    /// ring, which has no switches.
    gbps: Option<(f64, f64)>,
    /// The endpoints of link `i`. FPGAs are nodes `0..fpgas`; the switch of
    /// pod `p` is node `fpgas + p`.
    links: Vec<(usize, usize)>,
}

impl Topology {
    /// The paper's single bidirectional ring of `fpgas` nodes.
    ///
    /// Link `i` joins FPGA `i` and FPGA `(i + 1) % fpgas`. A two-FPGA ring
    /// keeps both cables (links 0 and 1); a single FPGA has none.
    ///
    /// # Panics
    ///
    /// Panics if `fpgas` is zero.
    pub fn ring(fpgas: usize) -> Self {
        assert!(fpgas > 0, "a ring needs at least one FPGA");
        let cables = if fpgas < 2 { 0 } else { fpgas };
        Topology {
            fpgas,
            pod_size: fpgas,
            gbps: None,
            links: (0..cables).map(|i| (i, (i + 1) % fpgas)).collect(),
        }
    }

    /// A pod-of-rings datacenter topology: `pods` pods of `pod_size`
    /// FPGAs each. Within a pod the FPGAs form a ring of `ring_gbps`
    /// cables; each pod adds one switch node uplinked to every member at
    /// `uplink_gbps`, and the pod switches are fully meshed at
    /// `uplink_gbps`. Cross-pod traffic therefore costs 3 hops (FPGA →
    /// switch → switch → FPGA) and is bottlenecked by the uplink
    /// bandwidth; intra-pod traffic takes the ring (or the 2-hop switch
    /// shortcut on large pods).
    ///
    /// FPGA numbering is contiguous per pod: pod `p` owns FPGAs
    /// `p * pod_size .. (p + 1) * pod_size`. Links are numbered pod by pod
    /// — first the pod's ring cables (cable `i` joins its members `i` and
    /// `(i + 1) % pod_size`; a 2-FPGA pod has one cable, a 1-FPGA pod
    /// none), then one uplink per member in member order — and after the
    /// last pod the switch mesh, pair `(p, q)` with `p < q` in
    /// lexicographic order.
    ///
    /// # Panics
    ///
    /// Panics if `pods` or `pod_size` is zero, or a bandwidth is not
    /// finite and positive.
    pub fn pods(pods: usize, pod_size: usize, ring_gbps: f64, uplink_gbps: f64) -> Self {
        assert!(pods > 0, "a cluster needs at least one pod");
        assert!(pod_size > 0, "a pod needs at least one FPGA");
        assert!(
            [ring_gbps, uplink_gbps]
                .iter()
                .all(|g| g.is_finite() && *g > 0.0),
            "link bandwidths must be finite and positive"
        );
        let fpgas = pods * pod_size;
        let cables = match pod_size {
            1 => 0,
            2 => 1,
            n => n,
        };
        let mut links = Vec::new();
        for p in 0..pods {
            let base = p * pod_size;
            links.extend((0..cables).map(|i| (base + i, base + (i + 1) % pod_size)));
            links.extend((base..base + pod_size).map(|f| (f, fpgas + p)));
        }
        for p in 0..pods {
            links.extend((p + 1..pods).map(|q| (fpgas + p, fpgas + q)));
        }
        Topology {
            fpgas,
            pod_size,
            gbps: Some((ring_gbps, uplink_gbps)),
            links,
        }
    }

    /// Number of FPGAs (switch nodes are not counted).
    pub fn fpgas(&self) -> usize {
        self.fpgas
    }

    /// Number of point-to-point links, uplinks and switch mesh included:
    /// the valid [`FaultPlan`](crate::FaultPlan) link indices are
    /// `0..link_count()`.
    pub fn link_count(&self) -> usize {
        self.links.len()
    }

    /// An FPGA's node index; ids past the end wrap around. Schedulers ask
    /// for hops in their inner loops, so in-range ids skip the division.
    fn index(&self, id: FpgaId) -> usize {
        let i = id.index() as usize;
        if i < self.fpgas {
            i
        } else {
            i % self.fpgas
        }
    }

    /// The ring distance between two FPGAs of one pod (the bare ring is
    /// one pod), or `None` across pods.
    fn ring_distance(&self, a: usize, b: usize) -> Option<usize> {
        let n = self.pod_size;
        (a / n == b / n).then(|| {
            let d = (a % n).abs_diff(b % n);
            d.min(n - d)
        })
    }

    /// Shortest hop count between two FPGAs (0 for the same device).
    pub fn hops(&self, a: FpgaId, b: FpgaId) -> usize {
        match self.ring_distance(self.index(a), self.index(b)) {
            Some(r) if self.gbps.is_none() => r,
            // The pod switch is a 2-hop shortcut across the pod.
            Some(r) => r.min(2),
            None => 3,
        }
    }

    /// The worst hop distance from `primary` to any FPGA in `used` when the
    /// links in `down` are out of service; `None` as soon as one of them
    /// is unreachable. With no link down this is arithmetic; otherwise one
    /// breadth-first search from `primary`.
    pub fn max_hops_from_avoiding(
        &self,
        primary: FpgaId,
        used: impl IntoIterator<Item = FpgaId>,
        down: &[usize],
    ) -> Option<usize> {
        if down.is_empty() {
            return Some(
                used.into_iter()
                    .map(|f| self.hops(primary, f))
                    .max()
                    .unwrap_or(0),
            );
        }
        let dist = self.bfs(self.index(primary), down);
        used.into_iter()
            .try_fold(0, |worst, f| Some(worst.max(dist[self.index(f)]?)))
    }

    /// Hop distances from FPGA `src` to every node over the links not in
    /// `down` (`None` where unreachable), one level per sweep of the link
    /// list.
    fn bfs(&self, src: usize, down: &[usize]) -> Vec<Option<usize>> {
        // FPGAs, then one switch node per pod of a pod topology.
        let switches = self.gbps.map_or(0, |_| self.pod_count());
        let mut dist = vec![None; self.fpgas + switches];
        dist[src] = Some(0);
        for level in 0.. {
            let mut grew = false;
            for (i, &(a, b)) in self.links.iter().enumerate() {
                if down.contains(&i) {
                    continue;
                }
                for (u, v) in [(a, b), (b, a)] {
                    if dist[u] == Some(level) && dist[v].is_none() {
                        dist[v] = Some(level + 1);
                        grew = true;
                    }
                }
            }
            if !grew {
                break;
            }
        }
        dist
    }

    /// The bandwidth slowdown factor communication from `primary` to the
    /// FPGAs in `used` pays relative to a `reference_gbps` ring cable:
    /// the worst `reference_gbps / bottleneck` over the spanned pairs,
    /// floored at 1.0. A single ring always reports 1.0 (every cable *is*
    /// the reference), so the pre-topology service model is unchanged;
    /// pod topologies report > 1.0 when a span crosses slower uplinks.
    pub fn bandwidth_slowdown(
        &self,
        primary: FpgaId,
        used: impl IntoIterator<Item = FpgaId>,
        reference_gbps: f64,
    ) -> f64 {
        let Some((ring_gbps, uplink_gbps)) = self.gbps else {
            return 1.0;
        };
        if !(reference_gbps.is_finite() && reference_gbps > 0.0) {
            return 1.0;
        }
        let p = self.index(primary);
        used.into_iter()
            .map(|f| self.index(f))
            .filter(|&f| f != p)
            .map(|f| {
                // At ring distance 2 the ring and the switch tie at two
                // hops; ties go to the ring.
                let gbps = match self.ring_distance(p, f) {
                    Some(r) if r <= 2 => ring_gbps,
                    _ => uplink_gbps,
                };
                reference_gbps / gbps
            })
            .fold(1.0, f64::max)
    }

    /// Number of pods; the bare ring is one.
    pub fn pod_count(&self) -> usize {
        self.fpgas / self.pod_size
    }

    /// Pod index of an FPGA.
    pub fn pod_of(&self, fpga: usize) -> usize {
        fpga / self.pod_size
    }

    /// FPGA members of one pod, in index order (empty for an out-of-range
    /// pod).
    pub fn pod_members(&self, pod: usize) -> Range<usize> {
        let start = pod.saturating_mul(self.pod_size).min(self.fpgas);
        start..(start + self.pod_size).min(self.fpgas)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn f(i: u32) -> FpgaId {
        FpgaId::new(i)
    }

    /// On ring links the search agrees with the closed-form distance for
    /// every pair.
    #[test]
    fn graph_ring_matches_ring_network_queries() {
        for n in 1..=8 {
            let t = Topology::ring(n);
            for a in 0..n {
                for (b, &d) in t.bfs(a, &[]).iter().enumerate() {
                    assert_eq!(d, Some(t.hops(f(a as u32), f(b as u32))), "n={n}");
                }
            }
        }
    }

    /// The bare-ring shape answers every query like the ring's two-path
    /// model, one down link at a time.
    #[test]
    fn ring_kind_delegates_to_ring_network() {
        let t = Topology::ring(4);
        for a in 0..4 {
            for b in 0..4 {
                let ring = |down: &[usize]| crate::ring::two_path_hops(4, a, b, down);
                let (fa, fb) = (f(a as u32), f(b as u32));
                assert_eq!(Some(t.hops(fa, fb)), ring(&[]));
                for link in 0..4 {
                    assert_eq!(t.max_hops_from_avoiding(fa, [fb], &[link]), ring(&[link]));
                }
            }
        }
        assert_eq!(t.link_count(), 4);
        assert_eq!(crate::ring::diameter(&t), 2);
        assert_eq!(t.pod_count(), 1);
        assert_eq!(t.pod_members(0), 0..4);
        assert_eq!(t.bandwidth_slowdown(f(0), [f(2)], 100.0), 1.0);
    }

    #[test]
    fn two_node_graph_ring_keeps_both_cables() {
        // A 2-node ring has two parallel cables, so losing one cable
        // reroutes over the other.
        let t = Topology::ring(2);
        assert_eq!(t.link_count(), 2);
        assert_eq!(t.max_hops_from_avoiding(f(0), [f(1)], &[0]), Some(1));
        assert_eq!(t.max_hops_from_avoiding(f(0), [f(1)], &[0, 1]), None);
    }

    #[test]
    fn pod_topology_shape() {
        let t = Topology::pods(4, 16, 100.0, 40.0);
        assert_eq!(t.fpgas(), 64);
        assert_eq!(t.pod_count(), 4);
        assert_eq!(t.pod_of(0), 0);
        assert_eq!(t.pod_of(63), 3);
        assert_eq!(t.pod_members(1), 16..32);
        assert!(t.pod_members(4).is_empty());
        // Intra-pod: ring distance, or the 2-hop switch shortcut.
        assert_eq!(t.hops(f(0), f(1)), 1);
        assert_eq!(t.hops(f(0), f(8)), 2); // via the pod switch
                                           // Cross-pod: FPGA -> switch -> switch -> FPGA.
        assert_eq!(t.hops(f(0), f(16)), 3);
        // Cross-pod spans are bottlenecked by the 40 Gb/s uplinks.
        assert!((t.bandwidth_slowdown(f(0), [f(1)], 100.0) - 1.0).abs() < 1e-12);
        assert!((t.bandwidth_slowdown(f(0), [f(16)], 100.0) - 2.5).abs() < 1e-12);
    }

    #[test]
    fn pod_link_faults_reroute_or_partition() {
        // 2 pods x 2 FPGAs. Links (insertion order): pod0 cable (0),
        // pod0 uplinks (1, 2), pod1 cable (3), pod1 uplinks (4, 5),
        // switch mesh (6).
        let t = Topology::pods(2, 2, 100.0, 40.0);
        assert_eq!(t.link_count(), 7);
        assert_eq!(t.hops(f(0), f(1)), 1);
        // With the pod-0 cable down, traffic reroutes over the switch.
        assert_eq!(t.max_hops_from_avoiding(f(0), [f(1)], &[0]), Some(2));
        // Cutting the switch mesh partitions the pods.
        assert_eq!(t.max_hops_from_avoiding(f(0), [f(2)], &[6]), None);
        assert_eq!(t.max_hops_from_avoiding(f(0), [f(1), f(2)], &[6]), None);
        // FPGA 3 is still reached through its own pod's cable.
        assert_eq!(t.max_hops_from_avoiding(f(0), [f(3)], &[5]), Some(4));
    }

    #[test]
    fn single_fpga_topologies() {
        for t in [Topology::ring(1), Topology::pods(1, 1, 100.0, 25.0)] {
            assert_eq!(t.hops(f(0), f(0)), 0);
            assert_eq!(t.pod_count(), 1);
            assert_eq!(t.max_hops_from_avoiding(f(0), [f(0)], &[0]), Some(0));
        }
        assert_eq!(Topology::ring(1).link_count(), 0);
        // One uplink to the lone pod switch.
        assert_eq!(Topology::pods(1, 1, 100.0, 25.0).link_count(), 1);
    }
}
