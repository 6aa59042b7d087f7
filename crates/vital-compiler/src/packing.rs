//! Greedy packing of logic primitives into coarse clusters
//! (paper §4.1, Algorithm 1).
//!
//! Packing shrinks the netlist before global placement: a randomly selected
//! unpacked primitive seeds a cluster, which then greedily absorbs the
//! unpacked primitive with the highest *attraction score*
//! `|S₂| / |S₁|`, where `S₁` is the candidate's full neighbour set and `S₂`
//! its neighbours already inside the cluster. Small clusters are merged at
//! the end to reduce the cluster count.

use std::collections::HashMap;
use std::fmt;

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use vital_fabric::Resources;
use vital_netlist::{DataflowGraph, Netlist, PrimitiveId};

/// Index of a packed cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ClusterId(pub(crate) u32);

impl ClusterId {
    /// The raw index.
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for ClusterId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "c{}", self.0)
    }
}

/// One packed cluster of primitives.
#[derive(Debug, Clone)]
pub struct Cluster {
    id: ClusterId,
    members: Vec<PrimitiveId>,
    resources: Resources,
    is_io: bool,
}

impl Cluster {
    /// The cluster id.
    pub fn id(&self) -> ClusterId {
        self.id
    }

    /// Primitives packed into this cluster.
    pub fn members(&self) -> &[PrimitiveId] {
        &self.members
    }

    /// Combined resources of the members.
    pub fn resources(&self) -> Resources {
        self.resources
    }

    /// `true` if this cluster is a singleton top-level I/O port; I/O
    /// clusters act as fixed pads during quadratic placement.
    pub fn is_io(&self) -> bool {
        self.is_io
    }
}

/// Configuration of the packing pass. Outside this crate its only value is
/// the default, `PLACER.packing`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PackingConfig {
    /// RNG seed for the random seed-primitive selection; packing is fully
    /// deterministic for a fixed seed.
    pub(crate) seed: u64,
    /// Capacity of one cluster in primitives.
    pub(crate) max_primitives: usize,
    /// Clusters smaller than this are merged into a connected neighbour.
    pub(crate) merge_below: usize,
}

impl Default for PackingConfig {
    fn default() -> Self {
        crate::placement::PLACER.packing
    }
}

/// The result of packing: clusters plus the primitive-to-cluster map.
#[derive(Debug, Clone)]
pub struct Packing {
    clusters: Vec<Cluster>,
    cluster_of: Vec<ClusterId>,
}

impl Packing {
    /// The packed clusters.
    pub fn clusters(&self) -> &[Cluster] {
        &self.clusters
    }

    /// Number of clusters.
    pub(crate) fn cluster_count(&self) -> usize {
        self.clusters.len()
    }

    /// The cluster containing primitive `p`.
    pub fn cluster_of(&self, p: PrimitiveId) -> ClusterId {
        self.cluster_of[p.index()]
    }
}

/// Packs the netlist into clusters per Algorithm 1.
///
/// Top-level I/O ports are kept as singleton clusters (they serve as fixed
/// pads in the quadratic placement); all other primitives are packed
/// greedily by attraction score.
pub fn pack(netlist: &Netlist, dfg: &DataflowGraph, cfg: &PackingConfig) -> Packing {
    let n = netlist.primitive_count();
    let mut cluster_of: Vec<Option<ClusterId>> = vec![None; n];
    let mut clusters: Vec<Cluster> = Vec::new();

    // I/O ports become singleton pad clusters.
    for p in netlist.primitives() {
        if p.kind().is_io() {
            let id = ClusterId(clusters.len() as u32);
            cluster_of[p.id().index()] = Some(id);
            clusters.push(Cluster {
                id,
                members: vec![p.id()],
                resources: Resources::ZERO,
                is_io: true,
            });
        }
    }

    // Deterministic random visitation order for seed selection.
    let mut order: Vec<u32> = (0..n as u32)
        .filter(|&i| cluster_of[i as usize].is_none())
        .collect();
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    order.shuffle(&mut rng);

    // Precompute |S1| (distinct-neighbour degree) per primitive.
    let degree: Vec<usize> = (0..n)
        .map(|i| dfg.neighbors(PrimitiveId::new(i as u32)).len())
        .collect();

    for &seed in &order {
        if cluster_of[seed as usize].is_some() {
            continue;
        }
        let id = ClusterId(clusters.len() as u32);
        let mut members = vec![PrimitiveId::new(seed)];
        cluster_of[seed as usize] = Some(id);
        // links_in[v] = |S2| for candidate v.
        let mut links_in: HashMap<u32, usize> = HashMap::new();
        let absorb_frontier = |p: PrimitiveId,
                               cluster_of: &[Option<ClusterId>],
                               links_in: &mut HashMap<u32, usize>| {
            for e in dfg.neighbors(p) {
                if cluster_of[e.other.index()].is_none() {
                    *links_in.entry(e.other.raw()).or_insert(0) += 1;
                }
            }
        };
        absorb_frontier(PrimitiveId::new(seed), &cluster_of, &mut links_in);

        while members.len() < cfg.max_primitives {
            // Highest attraction score |S2|/|S1|; ties broken by more links,
            // then by lower id for determinism.
            let best = links_in
                .iter()
                .map(|(&v, &s2)| {
                    let s1 = degree[v as usize].max(1);
                    (s2 as f64 / s1 as f64, s2, std::cmp::Reverse(v), v)
                })
                .max_by(|a, b| {
                    a.0.partial_cmp(&b.0)
                        .unwrap_or(std::cmp::Ordering::Equal)
                        .then(a.1.cmp(&b.1))
                        .then(a.2.cmp(&b.2))
                })
                .map(|(_, _, _, v)| v);
            let Some(v) = best else { break };
            links_in.remove(&v);
            cluster_of[v as usize] = Some(id);
            members.push(PrimitiveId::new(v));
            absorb_frontier(PrimitiveId::new(v), &cluster_of, &mut links_in);
            // Drop candidates that were packed by this very loop.
            links_in.retain(|&k, _| cluster_of[k as usize].is_none());
        }

        let resources = members
            .iter()
            .map(|&m| {
                netlist
                    .primitive(m)
                    .expect("member ids originate from this netlist")
                    .resources()
            })
            .sum();
        clusters.push(Cluster {
            id,
            members,
            resources,
            is_io: false,
        });
    }

    let mut packing = Packing {
        clusters,
        cluster_of: cluster_of
            .into_iter()
            .map(|c| c.expect("every primitive was packed"))
            .collect(),
    };
    merge_small_clusters(netlist, dfg, &mut packing, cfg);
    packing
}

/// Merges clusters below `cfg.merge_below` primitives into their most
/// connected non-I/O neighbour cluster that still has capacity.
fn merge_small_clusters(
    netlist: &Netlist,
    dfg: &DataflowGraph,
    packing: &mut Packing,
    cfg: &PackingConfig,
) {
    let small: Vec<ClusterId> = packing
        .clusters
        .iter()
        .filter(|c| !c.is_io && c.members.len() < cfg.merge_below)
        .map(|c| c.id)
        .collect();

    for cid in small {
        // Recheck: an earlier merge may have grown or emptied this cluster.
        let members = packing.clusters[cid.index()].members.clone();
        if members.is_empty() || members.len() >= cfg.merge_below {
            continue;
        }
        // Find the most connected target cluster with room.
        let mut link_bits: HashMap<u32, u64> = HashMap::new();
        for &m in &members {
            for e in dfg.neighbors(m) {
                let other = packing.cluster_of[e.other.index()];
                if other != cid && !packing.clusters[other.index()].is_io {
                    *link_bits.entry(other.0).or_insert(0) += e.bits;
                }
            }
        }
        let target = link_bits
            .into_iter()
            .filter(|&(t, _)| {
                packing.clusters[t as usize].members.len() + members.len() <= cfg.max_primitives * 2
            })
            .max_by_key(|&(t, bits)| (bits, std::cmp::Reverse(t)))
            .map(|(t, _)| ClusterId(t));
        let Some(target) = target else { continue };

        let moved = std::mem::take(&mut packing.clusters[cid.index()].members);
        let moved_res = packing.clusters[cid.index()].resources;
        packing.clusters[cid.index()].resources = Resources::ZERO;
        for &m in &moved {
            packing.cluster_of[m.index()] = target;
        }
        packing.clusters[target.index()].members.extend(moved);
        packing.clusters[target.index()].resources += moved_res;
    }

    // Compact away emptied clusters and renumber.
    let mut remap: Vec<Option<ClusterId>> = vec![None; packing.clusters.len()];
    let mut compacted: Vec<Cluster> = Vec::with_capacity(packing.clusters.len());
    for c in packing.clusters.drain(..) {
        if c.members.is_empty() {
            continue;
        }
        let new_id = ClusterId(compacted.len() as u32);
        remap[c.id.index()] = Some(new_id);
        compacted.push(Cluster { id: new_id, ..c });
    }
    packing.clusters = compacted;
    for c in packing.cluster_of.iter_mut() {
        *c = remap[c.index()].expect("non-empty clusters survive compaction");
    }
    let _ = netlist; // kept for symmetry with pack(); resources already merged
}

#[cfg(test)]
impl Packing {
    /// The full primitive-to-cluster map, indexed by primitive id.
    pub(crate) fn assignment(&self) -> &[ClusterId] {
        &self.cluster_of
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vital_netlist::hls::{synthesize, AppSpec, Operator};
    use vital_netlist::PrimitiveKind;

    fn mac_netlist(pes: u32) -> Netlist {
        let mut spec = AppSpec::new("t");
        let m = spec.add_operator("m", Operator::MacArray { pes });
        spec.add_input("i", m, 32).unwrap();
        spec.add_output("o", m, 32).unwrap();
        synthesize(&spec).unwrap()
    }

    #[test]
    fn packs_everything_exactly_once() {
        let n = mac_netlist(20);
        let dfg = DataflowGraph::from_netlist(&n);
        let p = pack(&n, &dfg, &PackingConfig::default());
        let total: usize = p.clusters().iter().map(|c| c.members().len()).sum();
        assert_eq!(total, n.primitive_count());
        // Every primitive's recorded cluster actually contains it.
        for prim in n.primitives() {
            let c = p.cluster_of(prim.id());
            assert!(p.clusters()[c.index()].members().contains(&prim.id()));
        }
    }

    #[test]
    fn respects_capacity_up_to_merge_slack() {
        let cfg = PackingConfig {
            max_primitives: 16,
            ..PackingConfig::default()
        };
        let n = mac_netlist(40);
        let dfg = DataflowGraph::from_netlist(&n);
        let p = pack(&n, &dfg, &cfg);
        for c in p.clusters().iter().filter(|c| !c.is_io()) {
            assert!(c.members().len() <= cfg.max_primitives * 2);
        }
    }

    #[test]
    fn io_ports_are_singleton_pad_clusters() {
        let n = mac_netlist(5);
        let dfg = DataflowGraph::from_netlist(&n);
        let p = pack(&n, &dfg, &PackingConfig::default());
        let io_clusters: Vec<_> = p.clusters().iter().filter(|c| c.is_io()).collect();
        assert_eq!(io_clusters.len(), 2);
        for c in io_clusters {
            assert_eq!(c.members().len(), 1);
            assert!(c.resources().is_zero());
        }
    }

    #[test]
    fn resources_are_conserved() {
        let n = mac_netlist(12);
        let dfg = DataflowGraph::from_netlist(&n);
        let p = pack(&n, &dfg, &PackingConfig::default());
        let packed: Resources = p.clusters().iter().map(|c| c.resources()).sum();
        assert_eq!(packed, n.resource_usage());
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let n = mac_netlist(15);
        let dfg = DataflowGraph::from_netlist(&n);
        let cfg = PackingConfig::default();
        let a = pack(&n, &dfg, &cfg);
        let b = pack(&n, &dfg, &cfg);
        assert_eq!(a.assignment(), b.assignment());
    }

    #[test]
    fn different_seeds_may_differ_but_stay_complete() {
        let n = mac_netlist(15);
        let dfg = DataflowGraph::from_netlist(&n);
        let p = pack(
            &n,
            &dfg,
            &PackingConfig {
                seed: 99,
                ..PackingConfig::default()
            },
        );
        let total: usize = p.clusters().iter().map(|c| c.members().len()).sum();
        assert_eq!(total, n.primitive_count());
    }

    #[test]
    fn attraction_prefers_connected_primitives() {
        // Two disjoint chains: packing must never mix them into one cluster
        // while unconnected candidates remain scoreless.
        let mut n = Netlist::new("two-chains");
        let chain = |n: &mut Netlist| {
            let mut prev = None;
            let mut ids = Vec::new();
            for _ in 0..6 {
                let id = n.add_primitive(PrimitiveKind::lut(6));
                if let Some(p) = prev {
                    n.connect(p, [id], 1).unwrap();
                }
                prev = Some(id);
                ids.push(id);
            }
            ids
        };
        let a = chain(&mut n);
        let b = chain(&mut n);
        let dfg = DataflowGraph::from_netlist(&n);
        let cfg = PackingConfig {
            max_primitives: 6,
            merge_below: 1,
            ..PackingConfig::default()
        };
        let p = pack(&n, &dfg, &cfg);
        let ca = p.cluster_of(a[0]);
        assert!(a.iter().all(|&x| p.cluster_of(x) == ca));
        let cb = p.cluster_of(b[0]);
        assert!(b.iter().all(|&x| p.cluster_of(x) == cb));
        assert_ne!(ca, cb);
    }

    #[test]
    fn merge_reduces_cluster_count() {
        let n = mac_netlist(30);
        let dfg = DataflowGraph::from_netlist(&n);
        let merged = pack(
            &n,
            &dfg,
            &PackingConfig {
                merge_below: 16,
                max_primitives: 16,
                ..PackingConfig::default()
            },
        );
        let unmerged = pack(
            &n,
            &dfg,
            &PackingConfig {
                merge_below: 0,
                max_primitives: 16,
                ..PackingConfig::default()
            },
        );
        assert!(merged.cluster_count() <= unmerged.cluster_count());
    }

    /// A chain of `ops` operators, each a pipeline of `slices` slices or a
    /// MAC array as bit `i` of `seed` says.
    fn chain_spec(ops: usize, slices: u32, seed: u64) -> AppSpec {
        let mut spec = AppSpec::new("prop");
        let mut prev = None;
        for i in 0..ops {
            let op = if (seed >> (i % 60)) & 1 == 0 {
                Operator::Pipeline { slices }
            } else {
                Operator::MacArray {
                    pes: slices / 4 + 1,
                }
            };
            let id = spec.add_operator(format!("o{i}"), op);
            if let Some(p) = prev {
                spec.add_edge(p, id, 32).unwrap();
            }
            prev = Some(id);
        }
        spec
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(24))]

        /// Packing is a partition: complete, consistent, resource-conserving,
        /// for any seed and capacity.
        #[test]
        fn packing_is_a_partition(
            ops in 2usize..7,
            slices in 10u32..60,
            seed in proptest::prelude::any::<u64>(),
            cap in 4usize..64,
        ) {
            let netlist = synthesize(&chain_spec(ops, slices, seed)).unwrap();
            let dfg = DataflowGraph::from_netlist(&netlist);
            let cfg = PackingConfig { seed, max_primitives: cap, merge_below: cap / 4 };
            let packing = pack(&netlist, &dfg, &cfg);
            let members: usize = packing.clusters().iter().map(|c| c.members().len()).sum();
            proptest::prop_assert_eq!(members, netlist.primitive_count());
            // Membership is consistent with the assignment map.
            proptest::prop_assert!(packing
                .clusters()
                .iter()
                .all(|c| c.members().iter().all(|&m| packing.cluster_of(m) == c.id())));
            let packed: Resources = packing.clusters().iter().map(|c| c.resources()).sum();
            proptest::prop_assert_eq!(packed, netlist.resource_usage());
        }
    }
}
