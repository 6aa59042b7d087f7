//! The interconnect model, proven rather than assumed.
//!
//! [`Topology`] answers fault-free queries in closed form and searches its
//! links only while some are down. Four contracts:
//!
//! 1. **Closed form == search.** On every ring of 1..=16 FPGAs and every
//!    pod shape {1..=5} × {1..=9} in three bandwidth regimes, `hops` and
//!    `bandwidth_slowdown` agree bit for bit with a breadth-first search
//!    over the documented link list — the engine that used to precompute
//!    all-pairs tables, rebuilt here as the reference.
//! 2. **Faults.** Under any set of down links, the topology's search agrees
//!    with the ring's two-path formula on rings, with the reference search
//!    on pods, and with hand-computed cases. Since a link index names a
//!    different cable under a different numbering, this also pins the
//!    numbering [`FaultPlan`] link indices rely on.
//! 3. **Bit-identity.** A seeded single-ring run under link and FPGA faults
//!    serializes to the digest recorded when two hop engines still existed
//!    and agreed on it.
//! 4. **Determinism at scale:** the 64-FPGA pod configuration of the
//!    `fig_scale` sweep yields identical reports across same-seed runs.

use std::collections::VecDeque;

use proptest::prelude::*;
use vital::cluster::{ClusterConfig, ClusterSim, FaultPlan, SimReport, Topology};
use vital::fabric::FpgaId;
use vital::prelude::*;
use vital::runtime::PodScheduler;
use vital::workloads::{generate_workload_set, SizingModel, WorkloadComposition, WorkloadParams};

/// The reference bandwidth `bandwidth_slowdown` is asked about: the
/// simulator passes its 100 Gb/s ring cable.
const REFERENCE_GBPS: f64 = 100.0;

/// A topology's cables as its documentation numbers them, `(a, b, gbps)`,
/// plus its node count. FPGAs are nodes `0..fpgas`, pod `p`'s switch is
/// node `fpgas + p`.
struct Links {
    nodes: usize,
    links: Vec<(usize, usize, f64)>,
}

/// Link `i` joins FPGA `i` and `(i + 1) % n`; two FPGAs keep both cables.
fn ring_links(n: usize) -> Links {
    let cables = if n < 2 { 0 } else { n };
    Links {
        nodes: n,
        links: (0..cables).map(|i| (i, (i + 1) % n, 100.0)).collect(),
    }
}

/// Pod by pod, its ring cables then one uplink per member; then the switch
/// mesh in `(p, q)` order.
fn pod_links(pods: usize, size: usize, ring_gbps: f64, uplink_gbps: f64) -> Links {
    let fpgas = pods * size;
    let mut links = Vec::new();
    for p in 0..pods {
        let base = p * size;
        let cables = match size {
            1 => 0,
            2 => 1,
            n => n,
        };
        for i in 0..cables {
            links.push((base + i, base + (i + 1) % size, ring_gbps));
        }
        for i in 0..size {
            links.push((base + i, fpgas + p, uplink_gbps));
        }
    }
    for p in 0..pods {
        for q in p + 1..pods {
            links.push((fpgas + p, fpgas + q, uplink_gbps));
        }
    }
    Links {
        nodes: fpgas + pods,
        links,
    }
}

impl Links {
    /// Breadth-first search from `src` over the links not in `down`,
    /// neighbours in link order: the hop distance to every node (`None`
    /// where unreachable) and the bottleneck bandwidth of the first
    /// shortest path found.
    fn bfs(&self, src: usize, down: &[usize]) -> (Vec<Option<usize>>, Vec<f64>) {
        let mut adj = vec![Vec::new(); self.nodes];
        for (i, &(a, b, gbps)) in self.links.iter().enumerate() {
            if !down.contains(&i) {
                adj[a].push((b, gbps));
                adj[b].push((a, gbps));
            }
        }
        let mut dist = vec![None; self.nodes];
        let mut gbps = vec![0.0_f64; self.nodes];
        dist[src] = Some(0);
        gbps[src] = f64::INFINITY;
        let mut queue = VecDeque::from([src]);
        while let Some(u) = queue.pop_front() {
            for &(v, link_gbps) in &adj[u] {
                if dist[v].is_none() {
                    dist[v] = dist[u].map(|d| d + 1);
                    gbps[v] = gbps[u].min(link_gbps);
                    queue.push_back(v);
                }
            }
        }
        (dist, gbps)
    }
}

/// Every fault-free answer of `topology` equals the search over `links`.
fn assert_closed_form_matches_bfs(topology: &Topology, links: &Links, what: &str) {
    assert_eq!(topology.link_count(), links.links.len(), "{what}");
    let n = topology.fpgas();
    for a in 0..n {
        let (dist, gbps) = links.bfs(a, &[]);
        let fa = FpgaId::new(a as u32);
        for b in 0..n {
            let fb = FpgaId::new(b as u32);
            assert_eq!(Some(topology.hops(fa, fb)), dist[b], "{what}: {a}->{b}");
            // Same-FPGA pairs have no bottleneck; the floor is 1.0.
            let want = if a == b {
                1.0
            } else {
                1.0_f64.max(REFERENCE_GBPS / gbps[b])
            };
            assert_eq!(
                topology
                    .bandwidth_slowdown(fa, [fb], REFERENCE_GBPS)
                    .to_bits(),
                want.to_bits(),
                "{what}: slowdown {a}->{b}"
            );
        }
    }
}

/// The ring's two candidate paths from `a` to `b`: clockwise over links
/// `a, a+1, .., b-1` and counter-clockwise over `b, .., a-1` (mod `n`).
/// Traffic takes the shorter of those that avoid every down link.
fn ring_two_path(n: usize, a: usize, b: usize, down: &[usize]) -> Option<usize> {
    if a == b {
        return Some(0);
    }
    let clear = |from: usize, len: usize| (0..len).all(|i| !down.contains(&((from + i) % n)));
    let cw = (b + n - a) % n;
    [(a, cw), (b, n - cw)]
        .into_iter()
        .filter(|&(from, len)| clear(from, len))
        .map(|(_, len)| len)
        .min()
}

fn hops_avoiding(topology: &Topology, a: usize, b: usize, down: &[usize]) -> Option<usize> {
    topology.max_hops_from_avoiding(FpgaId::new(a as u32), [FpgaId::new(b as u32)], down)
}

#[test]
fn graph_ring_answers_every_query_like_ring_network() {
    for n in 1..=16usize {
        let topology = Topology::ring(n);
        let links = ring_links(n);
        assert_closed_form_matches_bfs(&topology, &links, &format!("ring {n}"));
        assert_eq!(topology.pod_count(), 1);
        assert_eq!(topology.pod_members(0), 0..n);
        for a in 0..n {
            for b in 0..n {
                for down in 0..topology.link_count() {
                    assert_eq!(
                        hops_avoiding(&topology, a, b, &[down]),
                        ring_two_path(n, a, b, &[down]),
                        "n = {n} {a}->{b} avoiding link {down}"
                    );
                }
            }
        }
    }
}

#[test]
fn pod_closed_form_matches_bfs_on_every_pair() {
    for (ring_gbps, uplink_gbps) in [(100.0, 25.0), (10.0, 40.0), (100.0, 100.0)] {
        for pods in 1..=5 {
            for size in 1..=9 {
                let topology = Topology::pods(pods, size, ring_gbps, uplink_gbps);
                let links = pod_links(pods, size, ring_gbps, uplink_gbps);
                let what = format!("{pods} x {size} at ({ring_gbps}, {uplink_gbps})");
                assert_closed_form_matches_bfs(&topology, &links, &what);
                assert_eq!(topology.pod_count(), pods, "{what}");
                for p in 0..pods {
                    assert_eq!(topology.pod_members(p), p * size..(p + 1) * size);
                    assert!((p * size..(p + 1) * size).all(|f| topology.pod_of(f) == p));
                }
            }
        }
    }
}

/// `(ring size, from, to, down links, hops)`.
type Case = (usize, usize, usize, &'static [usize], Option<usize>);

/// Hop counts computed by hand, against both the formula and the
/// topology. The ring's other hand-computed queries (diameter, link count,
/// multi-FPGA spans) are `vital-cluster`'s `ring::tests`.
#[test]
fn ring_formula_matches_hand_computed_cases() {
    let cases: [Case; 13] = [
        (4, 0, 0, &[], Some(0)),
        (4, 0, 1, &[], Some(1)),
        (4, 0, 2, &[], Some(2)),
        (4, 0, 3, &[], Some(1)), // wraps
        (4, 3, 0, &[], Some(1)), // symmetric
        (5, 0, 3, &[], Some(2)),
        (1, 0, 0, &[], Some(0)),
        // Link 0 joins FPGAs 0 and 1: traffic must go 0-3-2-1.
        (4, 0, 1, &[0], Some(3)),
        (4, 1, 0, &[0], Some(3)),
        // An unrelated pair keeps its shortest path.
        (4, 2, 3, &[0], Some(1)),
        // Two cuts partition the ring.
        (4, 0, 1, &[0, 2], None),
        (4, 0, 3, &[0, 2], Some(1)),
        // The same node is always reachable.
        (4, 2, 2, &[0, 1, 2, 3], Some(0)),
    ];
    for (n, a, b, down, want) in cases {
        assert_eq!(
            ring_two_path(n, a, b, down),
            want,
            "formula n={n} {a}->{b} {down:?}"
        );
        assert_eq!(
            hops_avoiding(&Topology::ring(n), a, b, down),
            want,
            "n={n} {a}->{b} {down:?}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    /// Random pairs and random *sets* of downed links on random ring
    /// sizes: the topology's search and the ring's two-path formula always
    /// agree.
    #[test]
    fn graph_ring_matches_ring_under_multi_link_faults(
        n in 2usize..=16,
        a in 0usize..16,
        b in 0usize..16,
        downs in proptest::collection::vec(0usize..32, 0..4),
    ) {
        let ring = Topology::ring(n);
        let (a, b) = (a % n, b % n);
        let downs: Vec<usize> = downs.into_iter().map(|d| d % ring.link_count()).collect();
        prop_assert_eq!(
            hops_avoiding(&ring, a, b, &downs),
            ring_two_path(n, a, b, &downs),
            "n = {} {}->{} avoiding {:?}", n, a, b, downs
        );
    }

    /// The same on pods, against the reference search over the documented
    /// link list: a cut switch mesh, uplink or pod cable reroutes or
    /// partitions exactly as the numbering says.
    #[test]
    fn pod_faults_match_bfs_over_the_documented_links(
        pods in 1usize..=5,
        size in 1usize..=9,
        a in 0usize..45,
        b in 0usize..45,
        downs in proptest::collection::vec(0usize..200, 1..4),
    ) {
        let topology = Topology::pods(pods, size, 100.0, 25.0);
        let links = pod_links(pods, size, 100.0, 25.0);
        let (a, b) = (a % (pods * size), b % (pods * size));
        let downs: Vec<usize> = downs.into_iter().map(|d| d % links.links.len()).collect();
        prop_assert_eq!(
            hops_avoiding(&topology, a, b, &downs),
            links.bfs(a, &downs).0[b],
            "{} x {} {}->{} avoiding {:?}", pods, size, a, b, downs
        );
    }
}

/// One seeded single-ring run with a link fault and an FPGA crash.
fn ring_sim_report() -> SimReport {
    let params = WorkloadParams {
        requests: 60,
        mean_interarrival_s: 0.25,
        mean_service_s: 1.5,
        seed: 11,
    };
    let requests = generate_workload_set(
        &WorkloadComposition::table3()[6],
        &params,
        &SizingModel::default(),
    );
    let plan = FaultPlan::new()
        .ring_link_down(1, 2.0)
        .ring_link_up(1, 8.0)
        .fpga_crash(2, 4.0)
        .fpga_recover(2, 7.0);
    ClusterSim::new(ClusterConfig::paper_cluster()).run_with_plan(
        &mut VitalScheduler::new(),
        requests,
        &plan,
    )
}

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The serialized report of [`ring_sim_report`] when the ring still had
/// two engines — the closed-form `RingNetwork` and a search over the
/// ring's links — which produced these bytes alike: same placements, same
/// reroutes under faults.
const RING_REPORT_FNV1A: u64 = 0xbe86_e4ef_aa32_5e9a;

/// The one engine reproduces the report both former engines agreed on.
#[test]
fn single_ring_reports_are_bit_identical_across_engines() {
    let json = serde_json::to_string(&ring_sim_report()).expect("report serializes");
    assert_eq!(
        fnv1a(json.as_bytes()),
        RING_REPORT_FNV1A,
        "the faulted ring run moved"
    );
}

/// One 64-FPGA pod-topology run shaped like the `fig_scale` sweep point.
fn pod64_report() -> SimReport {
    let params = WorkloadParams {
        requests: 400,
        mean_interarrival_s: 0.02,
        mean_service_s: 2.0,
        seed: 0x5ca1e + 64,
    };
    let requests = generate_workload_set(
        &WorkloadComposition::table3()[6],
        &params,
        &SizingModel::default(),
    );
    let mut config = ClusterConfig::paper_cluster();
    config.fpgas = 64;
    ClusterSim::new(config)
        .with_topology(Topology::pods(4, 16, 100.0, 25.0))
        .expect("4 x 16 pods cover 64 FPGAs")
        .run(&mut PodScheduler::new(), requests)
}

/// The scale sweep's 64-FPGA configuration is deterministic — two
/// same-seed runs produce identical reports.
#[test]
fn pod_scale_point_is_deterministic() {
    let a = pod64_report();
    let b = pod64_report();
    assert_eq!(a.completed(), 400, "the pod point completes its workload");
    assert!(a.spanning_fraction() > 0.0, "large requests span in-pod");
    let ja = serde_json::to_string(&a).expect("report serializes");
    let jb = serde_json::to_string(&b).expect("report serializes");
    assert_eq!(ja, jb, "same seed must give a byte-identical report");
    assert_eq!(a, b);
}
