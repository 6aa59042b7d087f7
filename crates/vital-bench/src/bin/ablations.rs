//! Ablation studies for the design choices called out in DESIGN.md §6:
//!
//! 3. communication-aware multi-round allocation vs a first-fit *scatter*
//!    that ignores locality (spanning rate and response time),
//! 4. per-block partial reconfiguration vs full-device programming under
//!    the same allocation policy (deployment disturbance),
//!
//! plus the backfill-vs-FIFO queueing choice.
//!
//! (Ablations 1 and 2 — placement-based partition vs naive, and buffer
//! elimination — are reported by `fig8_compile_breakdown` and
//! `fig7_partition_dse` respectively.)

use vital::cluster::{
    ClusterConfig, ClusterSim, ClusterView, Deployment, PendingRequest, ReconfigKind, Scheduler,
    SimReport,
};

use vital::fabric::BlockAddr;
use vital::runtime::VitalScheduler;
use vital_bench::{fig9_workload, FIG9_SEEDS};

/// The anti-policy for ablation 3: allocates blocks round-robin across
/// FPGAs, deliberately ignoring communication locality. Same admission
/// logic as ViTAL's scheduler otherwise.
struct ScatterScheduler;

impl Scheduler for ScatterScheduler {
    fn name(&self) -> &str {
        "scatter"
    }

    fn schedule(&mut self, view: &ClusterView, pending: &[PendingRequest]) -> Vec<Deployment> {
        let mut free: Vec<Vec<BlockAddr>> = (0..view.fpga_count())
            .map(|f| view.free_blocks_of(f))
            .collect();
        let mut out = Vec::new();
        for p in pending {
            let need = p.blocks_needed as usize;
            let total: usize = free.iter().map(Vec::len).sum();
            if total < need {
                continue;
            }
            // Round-robin one block at a time across all FPGAs.
            let mut blocks = Vec::with_capacity(need);
            let fpgas = free.len();
            let mut f = 0usize;
            while blocks.len() < need {
                if let Some(b) = free[f % fpgas].pop() {
                    blocks.push(b);
                }
                f += 1;
            }
            out.push(Deployment {
                request: p.id,
                blocks,
                reconfig: ReconfigKind::PartialPerBlock,
            });
        }
        out
    }
}

fn averaged(
    mk: &mut dyn FnMut() -> Box<dyn Scheduler>,
    sets: &[usize],
    seeds: &[u64],
) -> (f64, f64) {
    let sim = ClusterSim::new(ClusterConfig::paper_cluster());
    let mut resp = 0.0;
    let mut span = 0.0;
    let mut n = 0;
    for &set in sets {
        for &seed in seeds {
            let report: SimReport = sim.run(mk().as_mut(), fig9_workload(set, seed));
            resp += report.avg_response_s();
            span += report.spanning_fraction();
            n += 1;
        }
    }
    (resp / n as f64, span / n as f64)
}

fn main() {
    let seeds = &FIG9_SEEDS;
    let sets = [3, 6, 7, 10];
    println!(
        "== Ablations (workload sets {sets:?}, {} seeds each) ==\n",
        seeds.len()
    );
    println!("{:<26} {:>10} {:>10}", "variant", "avg resp", "spanning");

    let rows: Vec<(&str, (f64, f64))> = vec![
        (
            "vital (comm-aware, PR)",
            averaged(&mut || Box::new(VitalScheduler::new()), &sets, seeds),
        ),
        (
            "ablation 3: scatter",
            averaged(&mut || Box::new(ScatterScheduler), &sets, seeds),
        ),
        (
            "ablation 4: full-device",
            averaged(
                &mut || Box::new(VitalScheduler::new().with_reconfig(ReconfigKind::FullDevice)),
                &sets,
                seeds,
            ),
        ),
        (
            "queueing: strict FIFO",
            averaged(&mut || Box::new(VitalScheduler::fifo()), &sets, seeds),
        ),
    ];
    let (base_resp, _) = rows[0].1;
    for (label, (resp, span)) in &rows {
        println!(
            "{:<26} {:>8.2}s {:>9.1}%   ({:+.0}% response vs vital)",
            label,
            resp,
            span * 100.0,
            (resp / base_resp - 1.0) * 100.0
        );
    }

    println!(
        "\nablation 3 shows why the policy is communication-aware: the scatter \
         variant spans on almost every deployment and pays the inter-FPGA \
         throughput penalty;"
    );
    println!(
        "ablation 4 shows why per-block partial reconfiguration matters: \
         whole-device programming pauses co-runners on every deployment."
    );

    // Arrival-pattern sensitivity: the same jobs, arriving in bursts.
    use vital::baselines::PerDeviceBaseline;
    use vital::workloads::{
        generate_bursty_workload_set, SizingModel, WorkloadComposition, WorkloadParams,
    };
    println!("\n== arrival-pattern sensitivity (set 7, bursts of 8) ==\n");
    let sim = ClusterSim::new(ClusterConfig::paper_cluster());
    let comp = WorkloadComposition::table3()[6];
    let mut vital_r = 0.0;
    let mut base_r = 0.0;
    for &seed in seeds {
        let params = WorkloadParams {
            requests: 60,
            mean_interarrival_s: 0.3,
            mean_service_s: 2.0,
            seed,
        };
        let reqs = generate_bursty_workload_set(&comp, &params, &SizingModel::default(), 8, 2.4);
        vital_r += sim
            .run(&mut VitalScheduler::new(), reqs.clone())
            .avg_response_s();
        base_r += sim
            .run(&mut PerDeviceBaseline::new(), reqs)
            .avg_response_s();
    }
    let n = seeds.len() as f64;
    println!(
        "bursty arrivals: vital {:.2}s vs baseline {:.2}s ({:.0}% reduction) — \
         fine-grained sharing absorbs bursts that serialize on whole devices",
        vital_r / n,
        base_r / n,
        (1.0 - (vital_r / base_r)) * 100.0
    );
}
