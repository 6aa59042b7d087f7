//! The two-level elastic scheduler and its discrete simulator.
//!
//! Level 1 (hardware): at every quantum boundary the tile allocator
//! recomputes each tenant's share from queued demand — proportional
//! shares with a one-tile floor per active tenant — and applies the
//! change through [`TilePool`], charging [`crate::isa::TILE_SWITCH_S`] per
//! moved tile. Level 2 (tenant): each tenant replays its jobs'
//! instruction blocks FIFO on whatever tiles it currently owns.

use std::collections::BTreeMap;
use std::time::Instant;

use serde::{Deserialize, Serialize};

use crate::isa::{IsaProgram, IsaTemplate, TilePool, UnknownIsaApp, TILE_SWITCH_S};

/// Why [`IsaSim::try_run`] refused a job set.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum IsaJobError {
    /// A job names an app that is not a DNN suite variant.
    UnknownApp(UnknownIsaApp),
    /// A job's work or arrival time is negative, infinite or NaN — the
    /// quantum loop would never drain it.
    InvalidJob {
        /// The offending job's id.
        id: u64,
        /// Which field, and the value it held.
        reason: String,
    },
}

impl std::fmt::Display for IsaJobError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IsaJobError::UnknownApp(e) => e.fmt(f),
            IsaJobError::InvalidJob { id, reason } => write!(f, "invalid ISA job {id}: {reason}"),
        }
    }
}

impl std::error::Error for IsaJobError {}

impl From<UnknownIsaApp> for IsaJobError {
    fn from(e: UnknownIsaApp) -> Self {
        IsaJobError::UnknownApp(e)
    }
}

/// Default scheduling quantum: 10 ms, three orders of magnitude finer
/// than ViTAL's 0.5 s time-slice because an ISA-level switch costs µs
/// instead of ms.
pub(crate) const DEFAULT_QUANTUM_S: f64 = 0.01;

/// One inference job submitted by a tenant.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct IsaJob {
    /// Caller-chosen job id (reported back in the outcome).
    pub id: u64,
    /// Owning tenant.
    pub tenant: u64,
    /// DNN suite variant name (`<bench>-<S|M|L>`).
    pub app: String,
    /// Total MAC operations of the job.
    pub work_ops: f64,
    /// Arrival time in seconds.
    pub arrival_s: f64,
}

impl IsaJob {
    /// Convenience constructor.
    pub fn new(id: u64, tenant: u64, app: &str, work_ops: f64, arrival_s: f64) -> Self {
        IsaJob {
            id,
            tenant,
            app: app.to_string(),
            work_ops,
            arrival_s,
        }
    }
}

/// Completion record of one job.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct IsaOutcome {
    /// Job id from the submitted [`IsaJob`].
    pub id: u64,
    /// Owning tenant.
    pub tenant: u64,
    /// Arrival time in seconds.
    pub arrival_s: f64,
    /// Completion time in seconds.
    pub completion_s: f64,
}

impl IsaOutcome {
    /// Response time (queueing + service) in seconds.
    pub fn response_s(&self) -> f64 {
        self.completion_s - self.arrival_s
    }
}

/// What one simulation run measured.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct IsaReport {
    /// Per-job completion records, in completion order.
    pub outcomes: Vec<IsaOutcome>,
    /// Time of the last completion.
    pub makespan_s: f64,
    /// Busy tile-seconds over pool-capacity tile-seconds.
    pub utilization: f64,
    /// Quantum boundaries at which at least one tile changed hands.
    pub reallocations: u64,
    /// Total tiles that changed hands across the run.
    pub tiles_moved: u64,
    /// Modeled time spent switching tiles (tiles_moved × TILE_SWITCH_S).
    pub realloc_s: f64,
    /// Measured wall-clock nanoseconds of level-1 allocator work.
    pub sched_wall_ns: u64,
    /// Fabric reconfigurations performed. Always zero — the template is
    /// static; the field exists so reports read symmetrically against
    /// the ViTAL backend's partial-reconfiguration counts.
    pub reconfigurations: u64,
}

impl IsaReport {
    /// Number of completed jobs.
    pub fn completed(&self) -> usize {
        self.outcomes.len()
    }

    /// Response times in seconds, one per completed job.
    pub fn response_times_s(&self) -> Vec<f64> {
        self.outcomes.iter().map(IsaOutcome::response_s).collect()
    }

    /// Mean response time in seconds (0 if nothing completed).
    pub fn mean_response_s(&self) -> f64 {
        if self.outcomes.is_empty() {
            return 0.0;
        }
        let sum: f64 = self.outcomes.iter().map(IsaOutcome::response_s).sum();
        sum / self.outcomes.len() as f64
    }
}

/// Per-tenant level-2 state: the instruction stream and its FIFO queue.
struct TenantQueue {
    program: IsaProgram,
    /// Jobs admitted but not finished: (job id, arrival, remaining ops).
    queue: Vec<(u64, f64, f64)>,
}

impl TenantQueue {
    fn demand_ops(&self) -> f64 {
        self.queue.iter().map(|(_, _, rem)| rem).sum()
    }
}

/// Discrete simulator of the two-level elastic scheduler over one
/// [`IsaTemplate`] tile pool.
pub struct IsaSim {
    template: IsaTemplate,
    quantum_s: f64,
}

impl IsaSim {
    /// A simulator with the default 10 ms quantum.
    pub fn new(template: IsaTemplate) -> Self {
        IsaSim {
            template,
            quantum_s: DEFAULT_QUANTUM_S,
        }
    }

    /// Run the scheduler over `jobs` until all complete.
    ///
    /// # Panics
    ///
    /// Panics if a job is refused (see [`IsaJobError`]) — submission is
    /// typed, not silently dropped. Use [`IsaSim::try_run`] to handle that
    /// as an error.
    pub fn run(&self, jobs: &[IsaJob]) -> IsaReport {
        self.try_run(jobs)
            .unwrap_or_else(|e| panic!("ISA job set refused: {e}"))
    }

    /// Like [`IsaSim::run`] but surfaces refused jobs as an error.
    ///
    /// # Errors
    ///
    /// Returns [`IsaJobError::InvalidJob`] for the first job whose work or
    /// arrival time is not finite and non-negative, else
    /// [`IsaJobError::UnknownApp`] for the first app name that does not
    /// resolve against the DNN suite. Both are checked before the first
    /// quantum.
    pub fn try_run(&self, jobs: &[IsaJob]) -> Result<IsaReport, IsaJobError> {
        for j in jobs {
            let fields = [("work_ops", j.work_ops), ("arrival_s", j.arrival_s)];
            if let Some((field, value)) = fields
                .into_iter()
                .find(|(_, v)| !(v.is_finite() && *v >= 0.0))
            {
                return Err(IsaJobError::InvalidJob {
                    id: j.id,
                    reason: format!("{field} is {value}"),
                });
            }
        }
        let mut arrivals: Vec<IsaJob> = jobs.to_vec();
        arrivals.sort_by(|a, b| a.arrival_s.total_cmp(&b.arrival_s).then(a.id.cmp(&b.id)));
        // Compile each tenant's instruction stream up front (level 2).
        let mut tenants: BTreeMap<u64, TenantQueue> = BTreeMap::new();
        for j in &arrivals {
            if let std::collections::btree_map::Entry::Vacant(e) = tenants.entry(j.tenant) {
                e.insert(TenantQueue {
                    program: IsaProgram::for_app(&j.app)?,
                    queue: Vec::new(),
                });
            }
        }

        let mut pool = TilePool::new(self.template.tiles());
        let mut report = IsaReport {
            outcomes: Vec::new(),
            makespan_s: 0.0,
            utilization: 0.0,
            reallocations: 0,
            tiles_moved: 0,
            realloc_s: 0.0,
            sched_wall_ns: 0,
            reconfigurations: 0,
        };
        let mut busy_tile_s = 0.0;
        let mut next_arrival = 0usize;
        let mut now = arrivals.first().map_or(0.0, |j| j.arrival_s);
        // Align the first boundary to the quantum grid.
        now = (now / self.quantum_s).floor() * self.quantum_s;

        while next_arrival < arrivals.len() || tenants.values().any(|t| !t.queue.is_empty()) {
            // Admit everything that has arrived by this boundary.
            while next_arrival < arrivals.len() && arrivals[next_arrival].arrival_s <= now {
                let j = &arrivals[next_arrival];
                let q = tenants.get_mut(&j.tenant).expect("tenant pre-registered");
                q.queue.push((j.id, j.arrival_s, j.work_ops));
                next_arrival += 1;
            }

            // Level 1: recompute shares from demand at this boundary.
            let t0 = Instant::now();
            let targets = proportional_shares(&tenants, pool.total());
            let mut moved_per_tenant: BTreeMap<u64, usize> = BTreeMap::new();
            let mut moved_total = 0usize;
            // Shrinks run first so their tiles are free by the time the
            // grows execute — targets conserve the pool only in aggregate.
            let mut ordered: Vec<(u64, usize)> = targets.iter().map(|(&t, &s)| (t, s)).collect();
            ordered
                .sort_by_key(|&(tenant, target)| (target > pool.assignment(tenant).len(), tenant));
            for (tenant, target) in ordered {
                let change = pool
                    .set_share(tenant, target)
                    .expect("conserving targets never exceed the pool");
                if change.moved() > 0 {
                    moved_per_tenant.insert(tenant, change.moved());
                    moved_total += change.moved();
                }
            }
            report.sched_wall_ns += t0.elapsed().as_nanos() as u64;
            debug_assert!(pool.is_conserving());
            if moved_total > 0 {
                report.reallocations += 1;
                report.tiles_moved += moved_total as u64;
                report.realloc_s += moved_total as f64 * TILE_SWITCH_S;
            }

            // Level 2: each tenant replays instruction blocks on its
            // current share for the rest of the quantum.
            for (&tenant, tq) in tenants.iter_mut() {
                let tiles = pool.assignment(tenant).len();
                if tiles == 0 || tq.queue.is_empty() {
                    continue;
                }
                // Tiles that just switched streams drain first.
                let switch_s =
                    moved_per_tenant.get(&tenant).copied().unwrap_or(0) as f64 * TILE_SWITCH_S;
                let mut budget_s = (self.quantum_s - switch_s).max(0.0);
                let rate = self.template.tenant_ops_per_s(tiles)
                    * efficiency(tiles, tq.program.natural_tiles());
                let mut done = 0usize;
                for (id, arrival_s, remaining) in tq.queue.iter_mut() {
                    if budget_s <= 0.0 {
                        break;
                    }
                    let need_s = *remaining / rate;
                    if need_s <= budget_s {
                        budget_s -= need_s;
                        busy_tile_s += need_s * tiles as f64;
                        let completion_s = now + self.quantum_s - budget_s;
                        report.outcomes.push(IsaOutcome {
                            id: *id,
                            tenant,
                            arrival_s: *arrival_s,
                            completion_s,
                        });
                        done += 1;
                    } else {
                        *remaining -= budget_s * rate;
                        busy_tile_s += budget_s * tiles as f64;
                        budget_s = 0.0;
                    }
                }
                tq.queue.drain(..done);
            }

            now += self.quantum_s;
            // If the cluster is idle, jump to the next arrival's boundary.
            if tenants.values().all(|t| t.queue.is_empty()) {
                if let Some(j) = arrivals.get(next_arrival) {
                    let next = (j.arrival_s / self.quantum_s).floor() * self.quantum_s;
                    if next > now {
                        now = next;
                    }
                }
            }
        }

        report.makespan_s = report
            .outcomes
            .iter()
            .map(|o| o.completion_s)
            .fold(0.0, f64::max);
        let capacity = pool.total() as f64 * report.makespan_s;
        report.utilization = if capacity > 0.0 {
            (busy_tile_s / capacity).min(1.0)
        } else {
            0.0
        };
        Ok(report)
    }
}

/// Tiling efficiency beyond a program's natural share: extra tiles help
/// (more data parallelism) but with diminishing returns past the layer
/// structure the stream was compiled for.
fn efficiency(tiles: usize, natural: usize) -> f64 {
    if tiles <= natural || natural == 0 {
        return 1.0;
    }
    let extra = (tiles - natural) as f64;
    (natural as f64 + 0.7 * extra) / tiles as f64
}

/// Demand-proportional integer shares with a one-tile floor per active
/// tenant, conserving the pool size. Inactive tenants get zero.
fn proportional_shares(tenants: &BTreeMap<u64, TenantQueue>, pool: usize) -> BTreeMap<u64, usize> {
    let mut out: BTreeMap<u64, usize> = BTreeMap::new();
    let active: Vec<(u64, f64)> = tenants
        .iter()
        .filter(|(_, t)| !t.queue.is_empty())
        .map(|(&id, t)| (id, t.demand_ops().max(1.0)))
        .collect();
    for (&id, _) in tenants.iter() {
        out.insert(id, 0);
    }
    if active.is_empty() || pool == 0 {
        return out;
    }
    let total_demand: f64 = active.iter().map(|(_, d)| d).sum();
    // Floor of one tile per active tenant (first `pool` tenants if the
    // pool is over-subscribed), then largest-remainder on the rest.
    let floors = active.len().min(pool);
    let spare = pool - floors;
    let mut shares: Vec<(u64, usize, f64)> = active
        .iter()
        .enumerate()
        .map(|(i, &(id, d))| {
            let floor = usize::from(i < floors);
            let ideal = spare as f64 * d / total_demand;
            (id, floor + ideal as usize, ideal - (ideal as usize) as f64)
        })
        .collect();
    let assigned: usize = shares.iter().map(|(_, s, _)| s).sum();
    let mut leftover = pool.saturating_sub(assigned);
    // Hand leftovers to the largest fractional remainders; ties break on
    // the lower tenant id so the allocation is deterministic.
    let mut order: Vec<usize> = (0..shares.len()).collect();
    order.sort_by(|&a, &b| {
        shares[b]
            .2
            .total_cmp(&shares[a].2)
            .then(shares[a].0.cmp(&shares[b].0))
    });
    for i in order {
        if leftover == 0 {
            break;
        }
        shares[i].1 += 1;
        leftover -= 1;
    }
    for (id, s, _) in shares {
        out.insert(id, s);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn jobs_two_tenants() -> Vec<IsaJob> {
        vec![
            IsaJob::new(0, 1, "lenet-M", 2.0e11, 0.0),
            IsaJob::new(1, 2, "cifar10-M", 2.0e11, 0.0),
            IsaJob::new(2, 1, "lenet-M", 2.0e11, 0.05),
        ]
    }

    #[test]
    fn all_jobs_complete_without_reconfiguration() {
        let report = IsaSim::new(IsaTemplate::paper_pool()).run(&jobs_two_tenants());
        assert_eq!(report.completed(), 3);
        assert_eq!(report.reconfigurations, 0);
        assert!(report.makespan_s > 0.0);
        assert!(report.utilization > 0.0 && report.utilization <= 1.0);
        for o in &report.outcomes {
            assert!(o.completion_s >= o.arrival_s);
        }
    }

    #[test]
    fn run_is_deterministic() {
        let sim = IsaSim::new(IsaTemplate::paper_pool());
        let a = sim.run(&jobs_two_tenants());
        let b = sim.run(&jobs_two_tenants());
        assert_eq!(a.outcomes, b.outcomes);
        assert_eq!(a.tiles_moved, b.tiles_moved);
        assert_eq!(a.reallocations, b.reallocations);
    }

    #[test]
    fn elastic_shares_track_demand() {
        // A burst from tenant 2 while tenant 1 is idle should move tiles:
        // at least two reallocation events (grant, then rebalance).
        let jobs = vec![
            IsaJob::new(0, 1, "vgg-L", 5.0e12, 0.0),
            IsaJob::new(1, 2, "alexnet-L", 5.0e12, 0.3),
        ];
        let report = IsaSim::new(IsaTemplate::paper_pool()).run(&jobs);
        assert_eq!(report.completed(), 2);
        assert!(report.reallocations >= 2, "got {}", report.reallocations);
        assert!(report.tiles_moved >= 60, "got {}", report.tiles_moved);
        // Modeled switch cost stays micro-scale per tile.
        let per_tile = report.realloc_s / report.tiles_moved as f64;
        assert!((per_tile - TILE_SWITCH_S).abs() < 1e-12);
    }

    #[test]
    fn unknown_app_is_a_typed_error() {
        let jobs = vec![IsaJob::new(0, 1, "resnet-S", 1.0e9, 0.0)];
        let err = IsaSim::new(IsaTemplate::paper_pool())
            .try_run(&jobs)
            .unwrap_err();
        assert!(matches!(&err, IsaJobError::UnknownApp(e) if e.app == "resnet-S"));
        assert!(err.to_string().contains("resnet-S"), "{err}");
    }

    #[test]
    fn malformed_jobs_are_rejected_before_the_first_quantum() {
        // Regression: a job with infinite work never drained, so the
        // quantum loop never returned. Run under a deadline so a relapse
        // fails the test instead of hanging it.
        let cases = [
            ("work_ops", IsaJob::new(9, 1, "lenet-S", f64::INFINITY, 0.0)),
            ("work_ops", IsaJob::new(9, 1, "lenet-S", f64::NAN, 0.0)),
            ("work_ops", IsaJob::new(9, 1, "lenet-S", -1.0, 0.0)),
            ("arrival_s", IsaJob::new(9, 1, "lenet-S", 1.0e9, f64::NAN)),
            (
                "arrival_s",
                IsaJob::new(9, 1, "lenet-S", 1.0e9, f64::INFINITY),
            ),
            ("arrival_s", IsaJob::new(9, 1, "lenet-S", 1.0e9, -0.5)),
        ];
        let (done, verdicts) = std::sync::mpsc::channel();
        let worker = std::thread::spawn(move || {
            let sim = IsaSim::new(IsaTemplate::paper_pool());
            for (field, bad) in cases {
                let jobs = [IsaJob::new(0, 1, "lenet-S", 1.0e9, 0.0), bad];
                done.send((field, sim.try_run(&jobs)))
                    .expect("receiver alive");
            }
        });
        for _ in 0..6 {
            let (field, result) = verdicts
                .recv_timeout(std::time::Duration::from_secs(20))
                .expect("try_run must return, not spin on the job");
            match result {
                Err(IsaJobError::InvalidJob { id, reason }) => {
                    assert_eq!(id, 9);
                    assert!(reason.starts_with(field), "{reason}");
                }
                other => panic!("bad {field} gave {other:?}"),
            }
        }
        worker.join().expect("worker finished");
    }

    #[test]
    fn proportional_shares_conserve_and_floor() {
        let mut tenants: BTreeMap<u64, TenantQueue> = BTreeMap::new();
        for (id, demand) in [(1u64, 9.0e12), (2, 3.0e12), (3, 1.0e12)] {
            tenants.insert(
                id,
                TenantQueue {
                    program: IsaProgram::for_app("lenet-M").unwrap(),
                    queue: vec![(0, 0.0, demand)],
                },
            );
        }
        let shares = proportional_shares(&tenants, 60);
        let sum: usize = shares.values().sum();
        assert_eq!(sum, 60);
        assert!(shares.values().all(|&s| s >= 1));
        assert!(shares[&1] > shares[&2] && shares[&2] > shares[&3]);
    }
}
