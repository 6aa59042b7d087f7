//! Placement-based partition engine — ViTAL's custom compilation tool
//! (paper §4).
//!
//! The paper partitions an application netlist into a group of virtual
//! blocks by *placing* it onto a pre-defined 2D space and cutting along the
//! placement. The pipeline implemented here follows §4 step by step:
//!
//! 1. **Packing** (§4.1, Algorithm 1) — a greedy pass that packs logic
//!    primitives into coarse clusters using the attraction score
//!    `|S₂|/|S₁|`, shrinking the problem the global placer must solve.
//! 2. **Quadratic global placement** (§4.2 step 1, Eq. 1–2) — minimizes the
//!    total interconnect length by solving a sparse linear system; the
//!    solver is a Jacobi-preconditioned conjugate-gradient built in-repo
//!    (the paper uses Eigen).
//! 3. **Legalization** (§4.2 step 2, Eq. 3) — simulated annealing that
//!    removes virtual-block over-utilization while minimizing total cluster
//!    movement, followed by a wirelength-recovery refinement pass.
//! 4. **Pseudo-cluster anchoring** (§4.2 steps 3–4, Eq. 4) — the legalized
//!    positions are fed back into the linear system as anchors with a
//!    slowly growing weight `β`, iterating until the wirelength gap between
//!    the solved and legalized placements is below 20 %.
//!
//! The output assigns every packed cluster to a virtual block, from which
//! the compiler builds the per-block sub-netlists and the
//! latency-insensitive interface.
//!
//! # Example
//!
//! ```
//! use vital_netlist::hls::{AppSpec, Operator};
//! use vital_compiler::placer::{Placer, PlacerConfig, VirtualGrid};
//! use vital_fabric::Resources;
//!
//! let mut spec = AppSpec::new("app");
//! let a = spec.add_operator("a", Operator::MacArray { pes: 16 });
//! let b = spec.add_operator("b", Operator::Pipeline { slices: 40 });
//! spec.add_edge(a, b, 64)?;
//! let netlist = vital_netlist::hls::synthesize(&spec)?;
//!
//! let grid = VirtualGrid::uniform(2, Resources::new(4_000, 8_000, 64, 1_000));
//! let placement = Placer::new(PlacerConfig::default()).run(&netlist, &grid)?;
//! assert!(placement.is_legal());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub use crate::cluster_graph::ClusterGraph;
pub use crate::error::PlacerError;
pub use crate::metrics::cut_bits;
pub use crate::packing::{pack, Cluster, ClusterId, Packing, PackingConfig};
pub use crate::placement::{random_assignment, Placement, Placer, PlacerConfig, VirtualGrid};
