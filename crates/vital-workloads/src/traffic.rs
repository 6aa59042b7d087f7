//! Traffic generation: random sink patterns for the interface benchmark
//! (paper §5.1, first benchmark set) and seeded bursty multi-tenant
//! arrival processes shared by the cluster sweeps and the ISA-elasticity
//! benchmark.
//!
//! Two arrival-shaping tools live here:
//!
//! * [`burst_timeline`] — the burst re-timing used by
//!   [`generate_bursty_workload_set`](crate::generate_bursty_workload_set):
//!   back-to-back groups of simultaneous arrivals separated by
//!   exponential idle gaps;
//! * [`bursty_tenant_arrivals`] — a per-tenant on/off (interrupted
//!   Poisson) process: each tenant alternates between an *on* phase with
//!   Poisson arrivals and a silent *off* phase, so tenant demand ramps up
//!   and collapses over time. This is the traffic shape that stresses
//!   elastic tile reallocation: a tenant going quiet should surrender
//!   tiles to one entering a burst.

use rand::rngs::StdRng;
use rand::Rng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use vital_cluster::AppRequest;

use crate::sets::SizingModel;
use crate::{benchmarks, Size};

/// Generates `n` random sink stall patterns `(period, duty)` for the
/// latency-insensitive-interface benchmark: each pattern makes a consumer
/// refuse data for `duty` out of every `period` cycles, emulating the
/// random data traffic the paper uses to probe the interface's maximum
/// bandwidth (Table 4).
pub fn random_traffic_sinks(seed: u64, n: usize) -> Vec<(u32, u32)> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let period = rng.gen_range(2..=64);
            let duty = rng.gen_range(0..period);
            (period, duty)
        })
        .collect()
}

/// Arrival times for `n` jobs arriving in back-to-back bursts of `burst`
/// simultaneous jobs separated by exponential idle gaps (mean
/// `idle_gap_s`).
///
/// This is the re-timing rule behind
/// [`generate_bursty_workload_set`](crate::generate_bursty_workload_set);
/// it is exposed so other drivers (e.g. the ISA-elasticity benchmark) can
/// burst-shape their own job lists with the identical seeded process.
pub(crate) fn burst_timeline(seed: u64, n: usize, burst: usize, idle_gap_s: f64) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0x9e37_79b9));
    let mut t = 0.0f64;
    let mut out = Vec::with_capacity(n);
    for i in 0..n {
        if i > 0 && i % burst.max(1) == 0 {
            let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
            t += -idle_gap_s * u.ln();
        }
        out.push(t);
    }
    out
}

/// Parameters of the per-tenant on/off arrival process generated by
/// [`bursty_tenant_arrivals`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TenantTrafficConfig {
    /// Number of tenants. Tenant `t` runs the DNN benchmark
    /// `suite[t % 7]` at size `S/M/L` cycling every seven tenants, so a
    /// small tenant count still exercises distinct apps.
    pub tenants: usize,
    /// Length of the generated trace in seconds.
    pub horizon_s: f64,
    /// Mean duration of a tenant's *on* (bursting) phase, seconds.
    pub mean_on_s: f64,
    /// Mean duration of a tenant's *off* (silent) phase, seconds.
    pub mean_off_s: f64,
    /// Mean interarrival time *within* an on phase, seconds.
    pub mean_interarrival_s: f64,
    /// Mean job execution time in seconds (jobs draw uniformly from
    /// `0.5x..1.5x` this value, matching
    /// [`WorkloadParams`](crate::WorkloadParams)).
    pub mean_service_s: f64,
    /// RNG seed; each tenant derives an independent stream from it.
    pub seed: u64,
}

impl Default for TenantTrafficConfig {
    fn default() -> Self {
        TenantTrafficConfig {
            tenants: 6,
            horizon_s: 30.0,
            mean_on_s: 3.0,
            mean_off_s: 5.0,
            mean_interarrival_s: 0.25,
            mean_service_s: 2.0,
            seed: 42,
        }
    }
}

/// One arrival of the multi-tenant process: tenant `tenant` submits a job
/// for its DNN app at `arrival_s` with `work_ops` total operations.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TenantArrival {
    /// Tenant index (0-based).
    pub tenant: u64,
    /// Arrival time in seconds.
    pub arrival_s: f64,
    /// Application name, `"{benchmark}-{S|M|L}"`.
    pub app: String,
    /// Total operations of the job.
    pub work_ops: f64,
}

/// The DNN app assigned to tenant `t`: benchmarks cycle every tenant,
/// sizes every seven.
fn tenant_app(t: usize) -> (&'static str, Size) {
    const NAMES: [&str; 7] = ["lenet", "cifar10", "mlp", "alexnet", "svhn", "lstm", "vgg"];
    (NAMES[t % 7], Size::ALL[(t / 7) % Size::ALL.len()])
}

/// Generates a seeded bursty multi-tenant trace: every tenant runs an
/// independent on/off process (exponential phase lengths, Poisson
/// arrivals while on), and the merged trace is sorted by arrival time.
/// Identical configs yield identical traces.
pub fn bursty_tenant_arrivals(cfg: &TenantTrafficConfig) -> Vec<TenantArrival> {
    let suite = benchmarks();
    let mut out = Vec::new();
    for t in 0..cfg.tenants {
        let mut rng =
            StdRng::seed_from_u64(cfg.seed ^ (t as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15));
        let (name, size) = tenant_app(t);
        let bench = suite
            .iter()
            .find(|b| b.name() == name)
            .expect("tenant apps come from the fixed suite");
        let throughput = bench.throughput_ops(size);
        let app = format!("{}-{}", name, size.letter());
        let exp = |rng: &mut StdRng, mean: f64| -> f64 {
            let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
            -mean * u.ln()
        };
        // Stagger phase alignment: half the tenants start silent so the
        // trace opens with contention between a bursting subset.
        let mut t_now = if t % 2 == 1 {
            exp(&mut rng, cfg.mean_off_s)
        } else {
            0.0
        };
        while t_now < cfg.horizon_s {
            let on_end = t_now + exp(&mut rng, cfg.mean_on_s);
            loop {
                t_now += exp(&mut rng, cfg.mean_interarrival_s);
                if t_now >= on_end || t_now >= cfg.horizon_s {
                    break;
                }
                let service = cfg.mean_service_s * rng.gen_range(0.5..1.5);
                out.push(TenantArrival {
                    tenant: t as u64,
                    arrival_s: t_now,
                    app: app.clone(),
                    work_ops: throughput * service,
                });
            }
            t_now = on_end + exp(&mut rng, cfg.mean_off_s);
        }
    }
    out.sort_by(|a, b| {
        a.arrival_s
            .partial_cmp(&b.arrival_s)
            .expect("arrival times are finite")
            .then(a.tenant.cmp(&b.tenant))
    });
    out
}

/// Bridges a multi-tenant trace to the cluster simulator's
/// [`AppRequest`] form: request ids are the trace order, block demand
/// comes from the app's Table-2 resources under `sizing`, and the job's
/// standalone throughput is attached so time-sliced schedulers can model
/// progress.
pub fn tenant_arrivals_as_requests(
    arrivals: &[TenantArrival],
    sizing: &SizingModel,
) -> Vec<AppRequest> {
    let suite = benchmarks();
    arrivals
        .iter()
        .enumerate()
        .map(|(i, a)| {
            let (name, letter) = a
                .app
                .rsplit_once('-')
                .expect("trace app names are '{benchmark}-{size}'");
            let size = Size::ALL
                .iter()
                .copied()
                .find(|s| letter.len() == 1 && letter.starts_with(s.letter()))
                .expect("trace size letters are S/M/L");
            let bench = suite
                .iter()
                .find(|b| b.name() == name)
                .expect("trace apps come from the fixed suite");
            let blocks = bench
                .expected_resources(size)
                .blocks_needed(&sizing.block, sizing.margin) as u32;
            AppRequest::new(i as u64, a.app.clone(), blocks, a.work_ops)
                .with_throughput(bench.throughput_ops(size))
                .arriving_at(a.arrival_s)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn patterns_are_valid_and_deterministic() {
        let a = random_traffic_sinks(7, 100);
        let b = random_traffic_sinks(7, 100);
        assert_eq!(a, b);
        assert_eq!(a.len(), 100);
        for &(period, duty) in &a {
            assert!(period >= 2);
            assert!(duty < period, "sinks must make progress");
        }
    }

    #[test]
    fn different_seeds_differ() {
        assert_ne!(random_traffic_sinks(1, 50), random_traffic_sinks(2, 50));
    }

    #[test]
    fn burst_timeline_groups_and_advances() {
        let t = burst_timeline(42, 20, 5, 10.0);
        assert_eq!(t.len(), 20);
        for chunk in t.chunks(5) {
            assert!(chunk.windows(2).all(|w| w[0] == w[1]));
        }
        assert!(t[0] < t[5]);
        assert!(t[5] < t[10]);
        assert_eq!(t, burst_timeline(42, 20, 5, 10.0));
    }

    #[test]
    fn tenant_arrivals_are_deterministic_and_sorted() {
        let cfg = TenantTrafficConfig::default();
        let a = bursty_tenant_arrivals(&cfg);
        let b = bursty_tenant_arrivals(&cfg);
        assert_eq!(a, b);
        assert!(!a.is_empty(), "default config produces traffic");
        assert!(a.windows(2).all(|w| w[0].arrival_s <= w[1].arrival_s));
        assert!(a.iter().all(|r| r.arrival_s < cfg.horizon_s));
        assert!(a.iter().all(|r| r.work_ops > 0.0));
    }

    #[test]
    fn all_tenants_burst_and_apps_cycle() {
        let cfg = TenantTrafficConfig {
            tenants: 9,
            horizon_s: 60.0,
            ..TenantTrafficConfig::default()
        };
        let trace = bursty_tenant_arrivals(&cfg);
        for t in 0..cfg.tenants as u64 {
            assert!(
                trace.iter().any(|r| r.tenant == t),
                "tenant {t} never arrives over a long horizon"
            );
        }
        // Tenants 0 and 7 share a benchmark but differ in size.
        let app_of = |t: u64| {
            &trace
                .iter()
                .find(|r| r.tenant == t)
                .expect("tenant arrives")
                .app
        };
        assert_eq!(app_of(0).as_str(), "lenet-S");
        assert_eq!(app_of(7).as_str(), "lenet-M");
        assert_ne!(app_of(0), app_of(1));
    }

    #[test]
    fn off_phases_leave_gaps() {
        let cfg = TenantTrafficConfig {
            tenants: 1,
            horizon_s: 100.0,
            ..TenantTrafficConfig::default()
        };
        let trace = bursty_tenant_arrivals(&cfg);
        let max_gap = trace
            .windows(2)
            .map(|w| w[1].arrival_s - w[0].arrival_s)
            .fold(0.0f64, f64::max);
        // An off phase (mean 5 s) dwarfs the in-burst interarrival
        // (mean 0.25 s); over 100 s at least one silent gap shows up.
        assert!(
            max_gap > 10.0 * cfg.mean_interarrival_s,
            "expected an off-phase gap, max was {max_gap}"
        );
    }

    #[test]
    fn request_bridge_preserves_order_and_resolves_blocks() {
        let trace = bursty_tenant_arrivals(&TenantTrafficConfig::default());
        let reqs = tenant_arrivals_as_requests(&trace, &SizingModel::default());
        assert_eq!(reqs.len(), trace.len());
        for (i, (r, a)) in reqs.iter().zip(&trace).enumerate() {
            assert_eq!(r.id.0, i as u64);
            assert_eq!(r.name, a.app);
            assert_eq!(r.arrival_s, a.arrival_s);
            assert!(r.blocks_needed >= 1);
            assert!(r.standalone_ops_per_sec > 0.0);
        }
    }
}
