//! The latency-insensitive inter-block communication interface
//! (paper §3.2, §3.5.1, §3.5.2).
//!
//! ViTAL's homogeneous abstraction requires that two virtual blocks
//! communicate identically whether they land on the same die, on different
//! dies of one package, or on different FPGAs. The latency-insensitive
//! interface provides that: FIFOs buffer data, control logic handles
//! back-pressure and generates a clock-enable that gates the user logic when
//! no input is available, and correctly initialized buffers guarantee
//! deadlock freedom (Brand & Zafiropulo's condition, the paper's ref. 4).
//!
//! This crate provides three things:
//!
//! * [`plan_channels`] / [`interface_resources`] — interface *generation*:
//!   given the cut edges of a partitioned netlist, plan the physical
//!   channels and cost their circuits, including the intra-FPGA
//!   buffer-elimination optimization of §3.5.2 (deterministic on-chip
//!   latency lets the control logic count cycles instead of buffering);
//! * [`NetworkSim`] — a cycle-level simulator of blocks connected by
//!   latency-insensitive channels, used to validate back-pressure handling
//!   and deadlock freedom and to measure the bare-metal bandwidth/latency of
//!   Table 4;
//! * [`measure_channel`] — the paper's first benchmark: random traffic over
//!   one channel, reporting achieved bandwidth and latency.
//!
//! It additionally hosts the control plane's shared error taxonomy
//! ([`ErrorCode`] / [`ApiError`]): the wire-stable failure vocabulary the
//! system controller, the cluster simulator and the `vitald` service all
//! report through (see DESIGN.md §12).
//!
//! # Example
//!
//! ```
//! use vital_interface::{ChannelSpec, LinkClass, measure_channel};
//!
//! // Measure an inter-die channel carrying 512-bit flits.
//! let spec = ChannelSpec::for_link(LinkClass::InterDie, 512);
//! let m = measure_channel(&spec, 10_000);
//! assert!(m.delivered > 0);
//! assert!(m.avg_latency_cycles >= spec.latency_cycles as f64);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, unreachable_pub)]

mod channel;
mod gen;
mod sim;
mod status;
mod version;

pub use channel::{Channel, ChannelSnapshot, ChannelSpec, LinkClass, QuiesceError, CLOCK_MHZ};
pub use gen::{
    interface_resources, plan_channels, BufferPolicy, ChannelPlan, CommRegionModel, CutEdge,
    InterfaceConfig, PlannedChannel,
};
pub use sim::{
    measure_channel, network_from_plan, ActorId, ActorKind, BlockModel, ChannelId,
    ChannelMeasurement, NetworkSim, SimStats,
};
pub use status::{ApiError, ErrorCode};
pub use version::FormatVersion;
