//! # ViTAL — Virtualizing FPGAs in the Cloud
//!
//! A full-stack reproduction of *Virtualizing FPGAs in the Cloud*
//! (Zha & Li, ASPLOS 2020). ViTAL virtualizes an FPGA cluster behind a
//! homogeneous abstraction — an array of identical virtual blocks joined by
//! a latency-insensitive interface — which decouples the (slow, offline)
//! compilation from (fast, online) resource allocation:
//!
//! * applications are compiled **once** onto virtual blocks
//!   ([`compiler`], paper §3.3–§4),
//! * at runtime each virtual block can be **relocated** to any free
//!   physical block on any FPGA without recompilation
//!   ([`runtime`], paper §3.4),
//! * so the cluster is shared at block granularity, applications can span
//!   FPGAs transparently, and users program against the illusion of one
//!   infinitely large FPGA (paper §3.1).
//!
//! The workspace layers map one-to-one onto the paper's stack; this crate
//! re-exports them. Applications are compiled by a [`Compiler`] and run by
//! the [`SystemController`], whose one control surface is
//! [`SystemController::execute`]: every management operation is a
//! [`ControlRequest`], answered in process with the same
//! [`ControlResponse`] the `vitald` daemon sends on the wire.
//!
//! [`Compiler`]: compiler::Compiler
//! [`SystemController`]: runtime::SystemController
//! [`SystemController::execute`]: runtime::SystemController::execute
//! [`ControlRequest`]: runtime::ControlRequest
//! [`ControlResponse`]: runtime::ControlResponse
//!
//! | Module | Paper layer |
//! |---|---|
//! | [`fabric`] | device model + architecture layer geometry (§2.1, §3.2) |
//! | [`netlist`] | netlist IR + synthesis front-end model (§2.2) |
//! | [`placer`] | placement-based partition algorithm (§4) |
//! | [`interface`] | latency-insensitive interface (§3.2, §3.5) |
//! | [`compiler`] | six-step compilation flow (§3.3) |
//! | [`periph`] | peripheral virtualization (§3.2) |
//! | [`checkpoint`] | tenant context save/restore capsules (DESIGN.md §11) |
//! | [`runtime`] | system layer: controller, databases, policy (§3.4) |
//! | [`isa`] | instruction-level DNN virtualization: shared tile pool + two-level scheduler (DESIGN.md §16) |
//! | [`service`] | `vitald` control-plane daemon + wire protocol (DESIGN.md §12) |
//! | [`cluster`] | discrete-event cluster simulator (§5.2 platform) |
//! | [`baselines`] | per-device cloud + AmorphOS comparisons (§5.2, §6.2) |
//! | [`workloads`] | Table 2 benchmarks + Table 3 workload sets (§5.1) |
//! | [`telemetry`] | tracing spans, metrics, JSONL/Chrome-trace exporters |
//!
//! # Quickstart
//!
//! ```
//! use vital::prelude::*;
//!
//! // Describe an accelerator (the programming layer's view).
//! let mut spec = AppSpec::new("my-accelerator");
//! let mac = spec.add_operator("mac", Operator::MacArray { pes: 16 });
//! spec.add_input("in", mac, 128)?;
//! spec.add_output("out", mac, 128)?;
//!
//! // Compile once, deploy anywhere.
//! let compiler = Compiler::new(CompilerConfig::default());
//! let controller = SystemController::new(RuntimeConfig::paper_cluster());
//! controller.register(compiler.compile(&spec)?.into_bitstream())?;
//! let handle = controller.deploy("my-accelerator")?;
//! println!("deployed on {} FPGA(s)", handle.fpga_count());
//!
//! // Every other operation is one request through one entry point.
//! let done = controller.execute(ControlRequest::undeploy(handle.tenant()));
//! assert!(done.is_ok());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, unreachable_pub)]

pub use vital_cluster as cluster;
pub use vital_compiler as compiler;
pub use vital_compiler::placer;
pub use vital_fabric as fabric;
pub use vital_interface as interface;
pub use vital_netlist as netlist;
pub use vital_periph as periph;
pub use vital_runtime as runtime;
pub use vital_runtime::{checkpoint, isa};
pub use vital_service as service;
pub use vital_telemetry as telemetry;
pub use vital_workloads as workloads;

pub mod baselines;

/// The most commonly used items of the whole stack, for glob import.
pub mod prelude {
    pub use vital_cluster::{
        AppRequest, ClusterConfig, ClusterSim, FaultPlan, RetryPolicy, Scheduler,
    };
    pub use vital_compiler::{AppBitstream, CompiledApp, Compiler, CompilerConfig};
    pub use vital_fabric::{DeviceModel, Floorplan, Resources};
    pub use vital_netlist::hls::{AppSpec, Operator};
    pub use vital_periph::TenantId;
    pub use vital_runtime::checkpoint::{CheckpointDigest, TenantCheckpoint};
    pub use vital_runtime::isa::{IsaJob, IsaSim, IsaTemplate};
    pub use vital_runtime::{
        ControlRequest, ControlResponse, DeployHandle, DeployRequest, FpgaHealth, RuntimeConfig,
        SystemController, VitalScheduler,
    };
    pub use vital_service::{ServiceConfig, Vitald};
    pub use vital_workloads::{benchmarks, generate_workload_set, Size, WorkloadComposition};
}

#[cfg(test)]
mod tests;
