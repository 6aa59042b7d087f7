//! The communication-aware multi-round allocation policy (paper §3.4).
//!
//! Round 1 searches for a *single* FPGA with enough free blocks; each
//! following round admits one more FPGA. Within a round the policy is
//! best-fit (fewest leftover blocks) to limit fragmentation.
//!
//! When spanning is unavoidable the policy is genuinely
//! *communication-aware*: the FPGAs of the cluster form a bidirectional
//! ring (§2.2), so for every candidate primary device the policy
//! enumerates partner sets and picks the set minimizing the **total
//! ring-hop distance to the primary**, tie-breaking on the primary's free
//! count (a larger primary keeps the majority of blocks local) and then on
//! the lowest device index for determinism. The chosen set's hop cost is
//! reported in [`AllocationOutcome::hop_cost`] so the runtime can export
//! it as a telemetry field.
//!
//! Earlier revisions ordered spanning candidates by free count alone,
//! which could place a two-FPGA tenant on opposite sides of the ring even
//! when an adjacent pair had enough blocks; the
//! `spanning_prefers_ring_adjacent_pair` regression test locks in the
//! fixed behaviour.

use vital_cluster::Topology;
use vital_fabric::{BlockAddr, FpgaId};

/// Hop distance between two free-list indices on the cluster topology.
fn hops(topology: &Topology, a: usize, b: usize) -> usize {
    topology.hops(FpgaId::new(a as u32), FpgaId::new(b as u32))
}

/// The result of an allocation attempt.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AllocationOutcome {
    /// The chosen blocks, grouped primary-FPGA-first.
    pub blocks: Vec<BlockAddr>,
    /// How many FPGAs the allocation spans (the round that succeeded).
    pub fpgas_used: usize,
    /// Index of the primary FPGA (holds the largest share of blocks).
    /// Meaningless when `fpgas_used == 0`.
    pub primary: usize,
    /// Total ring-hop distance from every secondary FPGA to the primary
    /// (0 for single-FPGA allocations).
    pub hop_cost: usize,
}

/// Allocates `needed` blocks from per-FPGA free lists using the multi-round
/// policy. Hop costs come from the topology's shortest paths, so the same
/// policy works on the paper's ring (`Topology::ring`) and on pod graphs.
/// `free_lists[f]` must contain the free blocks of FPGA `f` of the
/// topology.
///
/// Returns `None` when the cluster does not have `needed` free blocks in
/// total.
pub fn allocate_blocks_on(
    topology: &Topology,
    free_lists: &[Vec<BlockAddr>],
    needed: usize,
) -> Option<AllocationOutcome> {
    if needed == 0 {
        return Some(AllocationOutcome {
            blocks: Vec::new(),
            fpgas_used: 0,
            primary: 0,
            hop_cost: 0,
        });
    }
    let total_free: usize = free_lists.iter().map(Vec::len).sum();
    if total_free < needed {
        return None;
    }

    // Round 1: one FPGA, best fit (smallest sufficient free count).
    let single = free_lists
        .iter()
        .enumerate()
        .filter(|(_, free)| free.len() >= needed)
        .min_by_key(|(_, free)| free.len());
    if let Some((f, free)) = single {
        return Some(AllocationOutcome {
            blocks: free[..needed].to_vec(),
            fpgas_used: 1,
            primary: f,
            hop_cost: 0,
        });
    }

    // Rounds 2..=N: admit one more FPGA per round. For every candidate
    // primary, search partner sets of the round's size among FPGAs that
    // still have free blocks, minimizing total ring-hop distance to the
    // primary; ties go to the primary with the most free blocks, then the
    // lowest primary index.
    for round in 2..=free_lists.len() {
        let mut best: Option<Candidate> = None;
        for primary in 0..free_lists.len() {
            if free_lists[primary].is_empty() {
                continue;
            }
            let others: Vec<usize> = (0..free_lists.len())
                .filter(|&f| f != primary && !free_lists[f].is_empty())
                .collect();
            if others.len() < round - 1 {
                continue;
            }
            let Some((partners, hop_cost)) =
                best_partner_set(topology, free_lists, primary, &others, round - 1, needed)
            else {
                continue;
            };
            let candidate = Candidate {
                primary,
                partners,
                hop_cost,
            };
            let better = match &best {
                None => true,
                Some(b) => {
                    (
                        candidate.hop_cost,
                        std::cmp::Reverse(free_lists[primary].len()),
                        primary,
                    ) < (
                        b.hop_cost,
                        std::cmp::Reverse(free_lists[b.primary].len()),
                        b.primary,
                    )
                }
            };
            if better {
                best = Some(candidate);
            }
        }
        if let Some(chosen) = best {
            return Some(fill(free_lists, topology, &chosen, needed));
        }
    }
    None
}

struct Candidate {
    primary: usize,
    partners: Vec<usize>,
    hop_cost: usize,
}

/// Picks the feasible partner set of size `k` minimizing total hop
/// distance to `primary` (tie-break: more free blocks, then lower hop
/// pattern by index order). Exhaustive when few candidates; otherwise a
/// nearest-first greedy prefix, which is the common case anyway.
fn best_partner_set(
    topology: &Topology,
    free_lists: &[Vec<BlockAddr>],
    primary: usize,
    others: &[usize],
    k: usize,
    needed: usize,
) -> Option<(Vec<usize>, usize)> {
    let primary_free = free_lists[primary].len();
    let feasible = |set: &[usize]| {
        primary_free + set.iter().map(|&f| free_lists[f].len()).sum::<usize>() >= needed
    };
    let cost = |set: &[usize]| {
        set.iter()
            .map(|&f| hops(topology, primary, f))
            .sum::<usize>()
    };

    if others.len() <= 16 {
        // Exhaustive over all C(n, k) subsets via bitmask; n ≤ 16 keeps
        // this ≤ 65536 subsets, trivial at cluster scale (paper: 4 FPGAs).
        let mut best: Option<(Vec<usize>, usize, usize)> = None; // (set, cost, free)
        for mask in 0u32..(1 << others.len()) {
            if mask.count_ones() as usize != k {
                continue;
            }
            let set: Vec<usize> = others
                .iter()
                .enumerate()
                .filter(|(i, _)| mask & (1 << i) != 0)
                .map(|(_, &f)| f)
                .collect();
            if !feasible(&set) {
                continue;
            }
            let c = cost(&set);
            let free: usize = set.iter().map(|&f| free_lists[f].len()).sum();
            let better = match &best {
                None => true,
                Some((_, bc, bf)) => (c, std::cmp::Reverse(free)) < (*bc, std::cmp::Reverse(*bf)),
            };
            if better {
                best = Some((set, c, free));
            }
        }
        best.map(|(set, c, _)| (set, c))
    } else {
        // Large cluster fallback: nearest-first greedy (free count breaks
        // hop ties so the prefix carries the most capacity per hop).
        let mut sorted = others.to_vec();
        sorted.sort_by_key(|&f| {
            (
                hops(topology, primary, f),
                std::cmp::Reverse(free_lists[f].len()),
                f,
            )
        });
        let set = sorted[..k].to_vec();
        feasible(&set).then(|| {
            let c = cost(&set);
            (set, c)
        })
    }
}

/// Materializes a candidate: fill the primary first, then partners in
/// nearest-first order, so the majority of blocks stays local and traffic
/// crosses the fewest ring links.
fn fill(
    free_lists: &[Vec<BlockAddr>],
    topology: &Topology,
    chosen: &Candidate,
    needed: usize,
) -> AllocationOutcome {
    let mut order = vec![chosen.primary];
    let mut partners = chosen.partners.clone();
    partners.sort_by_key(|&f| (hops(topology, chosen.primary, f), f));
    order.extend(partners);

    let mut blocks = Vec::with_capacity(needed);
    for &f in &order {
        let take = free_lists[f].len().min(needed - blocks.len());
        blocks.extend_from_slice(&free_lists[f][..take]);
        if blocks.len() == needed {
            break;
        }
    }
    let mut fpgas: Vec<_> = blocks.iter().map(|b| b.fpga).collect();
    fpgas.sort_unstable();
    fpgas.dedup();
    AllocationOutcome {
        fpgas_used: fpgas.len(),
        blocks,
        primary: chosen.primary,
        hop_cost: chosen.hop_cost,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vital_fabric::{FpgaId, PhysicalBlockId};

    fn allocate(lists: &[Vec<BlockAddr>], needed: usize) -> Option<AllocationOutcome> {
        allocate_blocks_on(&Topology::ring(lists.len()), lists, needed)
    }

    fn free(f: u32, blocks: &[u32]) -> Vec<BlockAddr> {
        blocks
            .iter()
            .map(|&b| BlockAddr::new(FpgaId::new(f), PhysicalBlockId::new(b)))
            .collect()
    }

    #[test]
    fn round_one_prefers_single_fpga_best_fit() {
        let lists = vec![free(0, &[0, 1, 2, 3, 4]), free(1, &[0, 1, 2])];
        // Needs 3: FPGA 1 is the tighter fit.
        let out = allocate(&lists, 3).unwrap();
        assert_eq!(out.fpgas_used, 1);
        assert_eq!(out.primary, 1);
        assert_eq!(out.hop_cost, 0);
        assert!(out.blocks.iter().all(|b| b.fpga == FpgaId::new(1)));
    }

    #[test]
    fn spans_only_when_no_single_fpga_fits() {
        let lists = vec![free(0, &[0, 1, 2, 3]), free(1, &[0, 1, 2])];
        let out = allocate(&lists, 6).unwrap();
        assert_eq!(out.fpgas_used, 2);
        assert_eq!(out.primary, 0);
        assert_eq!(out.hop_cost, 1);
        // Majority on the larger (primary) FPGA.
        let on_zero = out
            .blocks
            .iter()
            .filter(|b| b.fpga == FpgaId::new(0))
            .count();
        assert_eq!(on_zero, 4);
    }

    #[test]
    fn uses_minimum_number_of_fpgas() {
        let lists = vec![
            free(0, &[0, 1]),
            free(1, &[0, 1, 2]),
            free(2, &[0]),
            free(3, &[0, 1]),
        ];
        // Needs 5: the largest FPGA plus one neighbour suffice -> 2 FPGAs.
        let out = allocate(&lists, 5).unwrap();
        assert_eq!(out.fpgas_used, 2);
        assert_eq!(out.hop_cost, 1);
    }

    #[test]
    fn fails_when_cluster_is_too_full() {
        let lists = vec![free(0, &[0]), free(1, &[])];
        assert!(allocate(&lists, 2).is_none());
    }

    #[test]
    fn zero_need_is_trivially_satisfied() {
        let out = allocate(&[free(0, &[])], 0).unwrap();
        assert!(out.blocks.is_empty());
        assert_eq!(out.fpgas_used, 0);
        assert_eq!(out.hop_cost, 0);
    }

    /// Regression for the free-count-only spanning bug: on a 4-FPGA ring
    /// with free counts [3, 2, 3, 0], free-count ordering pairs FPGAs 0
    /// and 2 — *opposite sides* of the ring (2 hops). The fixed policy
    /// must pick an adjacent pair (1 hop) that still fits the request.
    #[test]
    fn spanning_prefers_ring_adjacent_pair() {
        let lists = vec![
            free(0, &[0, 1, 2]),
            free(1, &[0, 1]),
            free(2, &[0, 1, 2]),
            free(3, &[]),
        ];
        let out = allocate(&lists, 5).unwrap();
        assert_eq!(out.fpgas_used, 2);
        assert_eq!(out.hop_cost, 1, "must span an adjacent pair, not {{0, 2}}");
        let mut fpgas: Vec<u32> = out.blocks.iter().map(|b| b.fpga.index()).collect();
        fpgas.sort_unstable();
        fpgas.dedup();
        let ring = vital_cluster::Topology::ring(4);
        assert_eq!(
            ring.hops(FpgaId::new(fpgas[0]), FpgaId::new(fpgas[1])),
            1,
            "chosen pair {fpgas:?} is not ring-adjacent"
        );
        // Primary keeps the majority.
        let on_primary = out
            .blocks
            .iter()
            .filter(|b| b.fpga.index() as usize == out.primary)
            .count();
        assert_eq!(on_primary, 3);
    }

    /// When the nearest neighbours cannot satisfy the request, the policy
    /// must still find the cheapest *feasible* set rather than giving up
    /// on the round (the greedy prefix would skip to a wider round).
    #[test]
    fn spanning_falls_back_to_farther_fpga_when_neighbours_are_small() {
        let lists = vec![
            free(0, &[0, 1, 2, 3]),
            free(1, &[0]),
            free(2, &[0, 1, 2, 3]),
            free(3, &[0]),
        ];
        // Needs 8: only {0, 2} (2 hops) has the capacity at round 2.
        let out = allocate(&lists, 8).unwrap();
        assert_eq!(out.fpgas_used, 2);
        assert_eq!(out.hop_cost, 2);
    }

    #[test]
    fn three_way_span_minimizes_total_hops() {
        let lists = vec![
            free(0, &[0, 1]),
            free(1, &[0, 1]),
            free(2, &[0, 1]),
            free(3, &[0, 1]),
        ];
        // Needs 6 -> three FPGAs. A contiguous arc (e.g. {3, 0, 1} around
        // primary 0) costs 2 hops; any set with an opposite-side member
        // costs 3.
        let out = allocate(&lists, 6).unwrap();
        assert_eq!(out.fpgas_used, 3);
        assert_eq!(out.hop_cost, 2);
    }
}
