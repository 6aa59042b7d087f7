//! Design-space exploration over candidate FPGA partitions (paper §5.3).
//!
//! The paper explores the (small, <10 candidates) space of ways to partition
//! the XCVU37P into regions, constrained by clock regions and die boundaries,
//! and picks the partition that maximizes user-exposed resources while
//! keeping the management granularity fine. This module reproduces that
//! search and is driven by the `fig7_partition_dse` report binary.

use serde::{Deserialize, Serialize};

use crate::{DeviceModel, FabricError, Floorplan};

/// Scoring weights for partition candidates.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PartitionObjective {
    /// Weight on the fraction of device resources exposed to users.
    pub(crate) user_fraction_weight: f64,
    /// Weight on management granularity (more, smaller blocks score higher).
    pub(crate) granularity_weight: f64,
    /// Blocks-per-device count at which the granularity term saturates.
    pub(crate) granularity_saturation: u32,
}

impl Default for PartitionObjective {
    fn default() -> Self {
        PartitionObjective {
            user_fraction_weight: 1.0,
            granularity_weight: 1.0,
            granularity_saturation: 16,
        }
    }
}

impl PartitionObjective {
    /// Scores a feasible floorplan; higher is better.
    pub fn score(&self, plan: &Floorplan) -> f64 {
        let user_fraction = 1.0 - plan.reserved_fraction();
        let blocks = plan.user_blocks().len() as f64;
        let granularity = (blocks / f64::from(self.granularity_saturation)).min(1.0);
        self.user_fraction_weight * user_fraction + self.granularity_weight * granularity
    }
}

/// One explored partition candidate.
#[derive(Debug, Clone)]
pub struct PartitionCandidate {
    /// Block height in rows that was attempted.
    pub block_rows: u64,
    /// Column splits per band that were attempted.
    pub column_splits: u32,
    /// Whether the candidate satisfied all constraints.
    pub feasible: bool,
    /// Why the candidate was rejected (when infeasible).
    pub rejection: Option<String>,
    /// The floorplan (when feasible).
    pub floorplan: Option<Floorplan>,
    /// Objective score (when feasible).
    pub score: Option<f64>,
}

/// The search configuration: which block heights and column splits to try.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub(crate) struct PartitionSearch {
    /// Candidate block heights in rows.
    pub(crate) block_row_candidates: Vec<u64>,
    /// Candidate column splits per band.
    pub(crate) column_split_candidates: Vec<u32>,
}

impl Default for PartitionSearch {
    fn default() -> Self {
        PartitionSearch {
            block_row_candidates: vec![15, 20, 30, 60, 100, 150, 300],
            column_split_candidates: vec![1, 2],
        }
    }
}

impl PartitionSearch {
    /// Number of candidates the search will evaluate.
    pub(crate) fn candidate_count(&self) -> usize {
        self.block_row_candidates.len() * self.column_split_candidates.len()
    }
}

/// Exhaustively evaluates the partition candidates for `device`, returning
/// them sorted best-first (feasible candidates by descending score, then the
/// infeasible ones).
///
/// # Errors
///
/// Returns [`FabricError::NoFeasiblePartition`] if no candidate satisfies
/// the constraints.
///
/// # Example
///
/// ```
/// use vital_fabric::{explore_partitions, DeviceModel, PartitionObjective};
///
/// let device = DeviceModel::xcvu37p();
/// let ranked = explore_partitions(&device, &PartitionObjective::default())?;
/// let best = ranked.iter().find(|c| c.feasible).unwrap();
/// assert_eq!(best.block_rows, 60); // one clock region per block
/// # Ok::<(), vital_fabric::FabricError>(())
/// ```
pub fn explore_partitions(
    device: &DeviceModel,
    objective: &PartitionObjective,
) -> Result<Vec<PartitionCandidate>, FabricError> {
    explore_partitions_with(device, objective, &PartitionSearch::default())
}

/// Like [`explore_partitions`] but with an explicit candidate set.
///
/// # Errors
///
/// Returns [`FabricError::NoFeasiblePartition`] if no candidate satisfies
/// the constraints.
pub(crate) fn explore_partitions_with(
    device: &DeviceModel,
    objective: &PartitionObjective,
    search: &PartitionSearch,
) -> Result<Vec<PartitionCandidate>, FabricError> {
    let mut out = Vec::with_capacity(search.candidate_count());
    for &rows in &search.block_row_candidates {
        for &splits in &search.column_split_candidates {
            let attempt = Floorplan::builder(device)
                .block_rows(rows)
                .column_splits(splits)
                .build();
            let candidate = match attempt {
                Ok(plan) => {
                    let score = objective.score(&plan);
                    PartitionCandidate {
                        block_rows: rows,
                        column_splits: splits,
                        feasible: true,
                        rejection: None,
                        floorplan: Some(plan),
                        score: Some(score),
                    }
                }
                Err(e) => PartitionCandidate {
                    block_rows: rows,
                    column_splits: splits,
                    feasible: false,
                    rejection: Some(e.to_string()),
                    floorplan: None,
                    score: None,
                },
            };
            out.push(candidate);
        }
    }
    if !out.iter().any(|c| c.feasible) {
        return Err(FabricError::NoFeasiblePartition);
    }
    out.sort_by(|a, b| {
        b.feasible
            .cmp(&a.feasible)
            .then_with(|| match (b.score, a.score) {
                (Some(x), Some(y)) => x.partial_cmp(&y).unwrap_or(std::cmp::Ordering::Equal),
                _ => std::cmp::Ordering::Equal,
            })
    });
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn search_space_is_small_like_the_paper() {
        // Paper: "our search space is relatively small (<10 possible
        // partitions)" after applying the commercial-silicon constraints.
        let device = DeviceModel::xcvu37p();
        let ranked = explore_partitions(&device, &PartitionObjective::default()).unwrap();
        let feasible = ranked.iter().filter(|c| c.feasible).count();
        assert!(feasible < 10, "feasible candidates: {feasible}");
        assert!(feasible >= 2);
    }

    #[test]
    fn optimal_is_one_clock_region_per_block() {
        let device = DeviceModel::xcvu37p();
        let ranked = explore_partitions(&device, &PartitionObjective::default()).unwrap();
        let best = ranked.iter().find(|c| c.feasible).unwrap();
        assert_eq!(best.block_rows, 60);
        assert_eq!(best.column_splits, 1);
    }

    #[test]
    fn periodic_device_admits_column_splits_and_dse_prefers_them() {
        // On the periodic variant the 60-row band divides into two
        // identical sub-blocks (the paper's regions 1a/1b), and the finer
        // granularity wins the objective.
        let device = DeviceModel::xcvu37p_periodic();
        let ranked = explore_partitions(&device, &PartitionObjective::default()).unwrap();
        let best = ranked.iter().find(|c| c.feasible).unwrap();
        assert_eq!(best.block_rows, 60);
        assert_eq!(best.column_splits, 2);
        let plan = best.floorplan.as_ref().unwrap();
        assert_eq!(plan.user_blocks().len(), 30);
        assert!(plan.blocks_identical());
    }

    #[test]
    fn infeasible_candidates_explain_themselves() {
        let device = DeviceModel::xcvu37p();
        let ranked = explore_partitions(&device, &PartitionObjective::default()).unwrap();
        for c in ranked.iter().filter(|c| !c.feasible) {
            assert!(c.rejection.as_deref().is_some_and(|r| !r.is_empty()));
        }
    }

    #[test]
    fn empty_search_errors() {
        let device = DeviceModel::xcvu37p();
        let search = PartitionSearch {
            block_row_candidates: vec![7], // divides nothing
            column_split_candidates: vec![1],
        };
        let err =
            explore_partitions_with(&device, &PartitionObjective::default(), &search).unwrap_err();
        assert_eq!(err, FabricError::NoFeasiblePartition);
    }

    #[test]
    fn objective_prefers_finer_granularity_at_equal_user_fraction() {
        let device = DeviceModel::xcvu37p();
        let coarse = Floorplan::builder(&device).block_rows(300).build().unwrap();
        let fine = Floorplan::builder(&device).block_rows(60).build().unwrap();
        let obj = PartitionObjective::default();
        assert!(obj.score(&fine) > obj.score(&coarse));
    }
}
