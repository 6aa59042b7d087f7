//! The ViTAL compilation layer: a six-step flow mapping applications onto
//! the homogeneous virtual-block abstraction (paper §3.3, Fig. 5).
//!
//! The steps, and where each is implemented:
//!
//! 1. **Synthesis** — reuses the front-end model of `vital-netlist::hls`
//!    (standing in for the commercial HLS/synthesis front-end).
//! 2. **Partition** — the placement-based algorithm of [`placer`]
//!    (ViTAL's custom tool, paper §4).
//! 3. **Latency-insensitive interface generation** — `vital-interface`
//!    plans the channels for every cut edge.
//! 4. **Local place-and-route** — [`pnr`] maps each virtual block's
//!    sub-netlist onto the sites of one physical block (standing in for the
//!    reused commercial P&R stage; it dominates compile time exactly as in
//!    the paper's Fig. 8).
//! 5. **Relocation** — compiled block images are *position independent*:
//!    [`AppBitstream`] images can be retargeted to any identical physical
//!    block in O(1), reproducing the RapidWright-based relocation.
//! 6. **Global place-and-route** — [`pnr`] stitches the
//!    per-block images and assigns the planned channels to boundary lanes.
//!
//! The compiler records wall-clock time per stage ([`StageTimings`]), which
//! the `fig8_compile_breakdown` report aggregates into the paper's Fig. 8.
//!
//! # Example
//!
//! ```
//! use vital_compiler::{Compiler, CompilerConfig};
//! use vital_netlist::hls::{AppSpec, Operator};
//!
//! let mut spec = AppSpec::new("quick");
//! let m = spec.add_operator("mac", Operator::MacArray { pes: 8 });
//! spec.add_input("in", m, 64)?;
//! spec.add_output("out", m, 64)?;
//!
//! let compiler = Compiler::new(CompilerConfig::default());
//! let compiled = compiler.compile(&spec)?;
//! assert!(compiled.bitstream().block_count() >= 1);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, unreachable_pub)]

mod config;
mod digest;
mod error;
mod image;
mod pipeline;
pub mod placer;
pub mod pnr;
pub(crate) mod route;
mod timing;

// The partition step's stages, re-exported through `placer`.
mod cluster_graph;
mod cut_refine;
mod legalize;
mod metrics;
mod packing;
mod placement;
mod quadratic;
mod solver;

pub use config::CompilerConfig;
pub use digest::NetlistDigest;
pub use error::CompileError;
pub use image::{
    AppBitstream, BlockImage, PlacedBitstream, RelocationTarget, ScanChain, ScanInterface,
    BLOCK_CONFIG_BITS,
};
pub use pipeline::{CompiledApp, Compiler};
pub use timing::{StageTimings, TimingBreakdown};
// Re-exported so callers picking a compile target (e.g. `vitald
// --geometry`) don't need a direct vital-fabric dependency.
pub use vital_fabric::DeviceModel;
