//! `vitald` — the multi-tenant control-plane service in front of the
//! [`SystemController`] (DESIGN.md §12).
//!
//! The paper's hypervisor layer needs a *service*, not a library: many
//! tenants submitting management operations concurrently, with admission
//! control between them and the controller. This crate provides that
//! daemon three ways at once:
//!
//! * **One request API** — every operation is a typed
//!   [`ControlRequest`](vital_runtime::ControlRequest) answered by a
//!   [`ControlResponse`](vital_runtime::ControlResponse) (defined in
//!   `vital-runtime`, executed by
//!   [`SystemController::execute`](vital_runtime::SystemController::execute)),
//!   so in-process and remote callers speak the same types end to end.
//! * **A sharded admission pipeline** — independent bounded,
//!   session-fair queue shards ([`ServiceConfig::shards`]), each drained
//!   by its own slice of the worker pool. Sessions land on the
//!   less-loaded of two randomly chosen shards (power-of-two-choices)
//!   and stay pinned there, so per-session ordering holds while load
//!   spreads. Overload is a typed, side-effect-free rejection
//!   ([`ServiceError::Overloaded`]) issued at push time; per-request
//!   deadlines expire stale jobs unexecuted.
//! * **A wire protocol** — length-prefixed frames over TCP
//!   ([`ServiceServer`] / [`RemoteClient`]) in a compact binary encoding
//!   ([`WireFormat::Binary`]) or as JSON text ([`WireFormat::Json`],
//!   used by `vitalctl --connect`), answered in kind. The server is a
//!   readiness-driven reactor: a few I/O threads
//!   ([`ServiceConfig::io_threads`]) each block in one `poll(2)` over
//!   thousands of non-blocking connections, pipelining requests per
//!   connection via [`PendingCall`].
//!
//! Shutdown is graceful: [`Vitald::shutdown`] drains the queue (new
//! submissions answered [`ServiceError::Draining`] with a retry hint)
//! and completes queued work before the workers exit.
//!
//! # Example
//!
//! ```
//! use std::sync::Arc;
//! use vital_runtime::{ControlRequest, ControlResponse, RuntimeConfig, SystemController};
//! use vital_service::{ServiceConfig, Vitald};
//!
//! let controller = Arc::new(SystemController::new(RuntimeConfig::paper_cluster()));
//! let vitald = Vitald::spawn(controller, ServiceConfig::default());
//! let client = vitald.client();
//! let resp = client.call(ControlRequest::Status);
//! assert!(matches!(resp, ControlResponse::Status(_)));
//! vitald.shutdown();
//! ```
//!
//! [`SystemController`]: vital_runtime::SystemController

// `deny`, not the workspace's usual `forbid`: the one module below that
// opts out holds the `poll(2)` declaration (DESIGN.md §13.2).
#![deny(unsafe_code)]
#![warn(missing_docs, unreachable_pub)]

mod client;
mod codec;
mod config;
mod error;
#[allow(unsafe_code)]
mod poll;
mod queue;
mod server;
mod service;
mod shard;
mod slot;
mod wire;

pub use client::RemoteClient;
pub use config::ServiceConfig;
pub use error::ServiceError;
pub use server::ServiceServer;
pub use service::{PendingCall, ServiceClient, Vitald};
pub use wire::{
    encode_frame, read_frame, Envelope, FrameDecoder, RequestEnvelope, ResponseEnvelope,
    WireFormat, MAX_FRAME_BYTES,
};

pub use vital_compiler::DeviceModel;

use vital_compiler::{Compiler, CompilerConfig};
use vital_runtime::{AppResolver, RuntimeError};
use vital_workloads::{benchmarks, Size};

/// An [`AppResolver`] over the paper's benchmark suite: resolves names of
/// the form `<benchmark>-<S|M|L>` (e.g. `"lenet-S"`) by synthesizing and
/// compiling the matching [`DnnBenchmark`](vital_workloads::DnnBenchmark)
/// variant. The `vitald` daemon installs this so remote clients can
/// `Prepare`/`Deploy` benchmarks by name without shipping netlists.
pub fn benchmark_resolver() -> AppResolver {
    benchmark_resolver_for(DeviceModel::xcvu37p())
}

/// [`benchmark_resolver`] targeting an explicit device model — the
/// resolver `vitald --geometry NAME` installs, so a portable checkpoint
/// restored onto a differently-laid-out fabric recompiles against that
/// fabric's column geometry (DESIGN.md §17). The netlist digest is
/// device-independent, so images compiled here still match capsules
/// exported from other geometries.
pub fn benchmark_resolver_for(device: DeviceModel) -> AppResolver {
    Box::new(move |name: &str| {
        let (bench, size) = name
            .rsplit_once('-')
            .ok_or_else(|| RuntimeError::UnknownApp(name.to_string()))?;
        let size = match size {
            "S" => Size::Small,
            "M" => Size::Medium,
            "L" => Size::Large,
            _ => return Err(RuntimeError::UnknownApp(name.to_string())),
        };
        let suite = benchmarks();
        let b = suite
            .iter()
            .find(|b| b.name() == bench)
            .ok_or_else(|| RuntimeError::UnknownApp(name.to_string()))?;
        let compiled = Compiler::for_device(&device, 60, CompilerConfig::default())
            .compile(&b.spec(size))
            .map_err(RuntimeError::Compile)?;
        Ok(compiled.into_bitstream())
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_resolver_rejects_unknown_names() {
        let resolve = benchmark_resolver();
        assert!(matches!(
            resolve("nonsense"),
            Err(RuntimeError::UnknownApp(_))
        ));
        assert!(matches!(
            resolve("lenet-X"),
            Err(RuntimeError::UnknownApp(_))
        ));
    }
}
