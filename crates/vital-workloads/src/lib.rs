//! Benchmark and workload generators (paper §5.1).
//!
//! The paper evaluates ViTAL with three benchmark sets:
//!
//! 1. a synthetic **random-traffic** benchmark for the latency-insensitive
//!    interface (Table 4) — see [`random_traffic_sinks`];
//! 2. **DNN accelerators** generated with DNNweaver, in small/medium/large
//!    variants whose resource usage is listed in Table 2 — reproduced by
//!    [`DnnBenchmark`] / [`benchmarks`], which synthesize accelerator
//!    netlists matched to the table's LUT/DSP/BRAM targets;
//! 3. **cloud workload sets** (Table 3): sequences of those DNN jobs with
//!    random interarrival times in ten S/M/L compositions — reproduced by
//!    [`WorkloadComposition`] / [`generate_workload_set`].
//!
//! # Example
//!
//! ```
//! use vital_workloads::{benchmarks, Size};
//!
//! let suite = benchmarks();
//! assert_eq!(suite.len(), 7);
//! let spec = suite[0].spec(Size::Small);
//! let netlist = vital_netlist::hls::synthesize(&spec)?;
//! // Within a few percent of the paper's Table 2 target.
//! let target = suite[0].expected_resources(Size::Small);
//! let got = netlist.resource_usage();
//! assert!((got.lut as f64) > 0.9 * target.lut as f64);
//! # Ok::<(), vital_netlist::NetlistError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, unreachable_pub)]

mod dnn;
mod sets;
mod trace;
mod traffic;

pub use dnn::{benchmarks, DnnBenchmark, Size};
pub use sets::{
    generate_bursty_workload_set, generate_workload_set, SizingModel, WorkloadComposition,
    WorkloadParams,
};
pub use traffic::{
    bursty_tenant_arrivals, random_traffic_sinks, tenant_arrivals_as_requests, TenantArrival,
    TenantTrafficConfig,
};
