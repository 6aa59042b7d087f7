//! Synthesis front-end model: lowering operator-level application
//! specifications into primitive netlists.
//!
//! ViTAL's programming layer accepts applications in high-level languages and
//! reuses the commercial front-end (HLS + logic synthesis + technology
//! mapping) to produce a netlist of primitives (paper §3.1, §3.3 step 1).
//! This module is the reproduction's stand-in for that front-end: an
//! [`AppSpec`] describes an accelerator as a dataflow graph of coarse
//! operators (MAC arrays, buffers, pipelines), and [`synthesize`] expands it
//! into a [`Netlist`] whose local structure is dense (intra-operator) and
//! whose operator-to-operator links are the natural cut points — the same
//! structure real accelerators exhibit and the partition algorithm exploits.
//!
//! # Example
//!
//! ```
//! use vital_netlist::hls::{AppSpec, Operator};
//!
//! let mut spec = AppSpec::new("tiny-cnn");
//! let buf = spec.add_operator("weights", Operator::Buffer { kb: 72, banks: 2 });
//! let mac = spec.add_operator("mac", Operator::MacArray { pes: 4 });
//! let act = spec.add_operator("act", Operator::Pipeline { slices: 8 });
//! spec.add_edge(buf, mac, 128)?;
//! spec.add_edge(mac, act, 64)?;
//! spec.add_input("ifm", mac, 64)?;
//! spec.add_output("ofm", act, 64)?;
//! let netlist = vital_netlist::hls::synthesize(&spec)?;
//! assert!(netlist.resource_usage().dsp >= 4);
//! netlist.validate()?;
//! # Ok::<(), vital_netlist::NetlistError>(())
//! ```

use serde::{Deserialize, Serialize};
use vital_fabric::Resources;

use crate::{Netlist, NetlistError, PortDirection, PrimitiveId, PrimitiveKind};

/// A coarse hardware operator of an accelerator specification.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Operator {
    /// A systolic array of `pes` multiply-accumulate processing elements.
    /// Each PE costs 4 slices and one DSP; PEs are chained.
    MacArray {
        /// Number of processing elements.
        pes: u32,
    },
    /// An on-chip buffer of `kb` kilobits split into `banks` banks.
    /// Each bank gets an address-generation slice; capacity is rounded up
    /// to whole RAMB36 instances.
    Buffer {
        /// Total capacity in kilobits.
        kb: u32,
        /// Number of independently addressed banks.
        banks: u32,
    },
    /// A logic pipeline of `slices` chained slices (activation functions,
    /// pooling, im2col, control).
    Pipeline {
        /// Number of slices in the chain.
        slices: u32,
    },
    /// Free-form logic with explicit resource content; `slices` are chained,
    /// `dsps` and `brams` hang off the chain evenly.
    Custom {
        /// Slice count.
        slices: u32,
        /// DSP count.
        dsps: u32,
        /// RAMB36 count.
        brams: u32,
    },
}

impl Operator {
    /// Estimated fabric resources without running synthesis.
    pub fn resource_estimate(&self) -> Resources {
        let slice = PrimitiveKind::slice(SLICE_LUTS, SLICE_FFS).resources();
        match *self {
            Operator::MacArray { pes } => {
                (slice * u64::from(PE_SLICES) + Resources::new(0, 0, 1, 0)) * u64::from(pes)
            }
            Operator::Buffer { kb, banks } => {
                let brams = u64::from(kb.div_ceil(36));
                Resources::new(0, 0, 0, brams * 36) + slice * u64::from(banks.max(1))
            }
            Operator::Pipeline { slices } => slice * u64::from(slices),
            Operator::Custom {
                slices,
                dsps,
                brams,
            } => {
                slice * u64::from(slices)
                    + Resources::new(0, 0, u64::from(dsps), u64::from(brams) * 36)
            }
        }
    }
}

/// LUTs per synthesized slice primitive.
pub const SLICE_LUTS: u16 = 8;
/// Flip-flops per synthesized slice primitive.
pub(crate) const SLICE_FFS: u16 = 16;
/// Slices per MAC-array processing element.
pub(crate) const PE_SLICES: u32 = 4;

/// Index of an operator within an [`AppSpec`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct OperatorId(u32);

impl OperatorId {
    /// The raw index.
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct OperatorInst {
    name: String,
    op: Operator,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
struct SpecEdge {
    from: OperatorId,
    to: OperatorId,
    bits: u32,
}

#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
struct SpecPort {
    name: String,
    op: OperatorId,
    bits: u32,
    direction: PortDirection,
}

/// An accelerator described as a dataflow graph of coarse operators — the
/// input to the synthesis front-end model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AppSpec {
    name: String,
    operators: Vec<OperatorInst>,
    edges: Vec<SpecEdge>,
    ports: Vec<SpecPort>,
}

impl AppSpec {
    /// Creates an empty specification named `name`.
    pub fn new(name: impl Into<String>) -> Self {
        AppSpec {
            name: name.into(),
            operators: Vec::new(),
            edges: Vec::new(),
            ports: Vec::new(),
        }
    }

    /// The application name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Adds an operator instance and returns its id.
    pub fn add_operator(&mut self, name: impl Into<String>, op: Operator) -> OperatorId {
        let id = OperatorId(self.operators.len() as u32);
        self.operators.push(OperatorInst {
            name: name.into(),
            op,
        });
        id
    }

    /// Connects two operators with a `bits`-wide stream.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::ZeroWidthNet`] for zero-width edges; operator
    /// ids are validated at synthesis time.
    pub fn add_edge(
        &mut self,
        from: OperatorId,
        to: OperatorId,
        bits: u32,
    ) -> Result<(), NetlistError> {
        if bits == 0 {
            return Err(NetlistError::ZeroWidthNet);
        }
        self.edges.push(SpecEdge { from, to, bits });
        Ok(())
    }

    /// Declares a top-level input stream feeding operator `op`.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::ZeroWidthNet`] for zero-width ports.
    pub fn add_input(
        &mut self,
        name: impl Into<String>,
        op: OperatorId,
        bits: u32,
    ) -> Result<(), NetlistError> {
        self.add_port(name, op, bits, PortDirection::Input)
    }

    /// Declares a top-level output stream driven by operator `op`.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::ZeroWidthNet`] for zero-width ports.
    pub fn add_output(
        &mut self,
        name: impl Into<String>,
        op: OperatorId,
        bits: u32,
    ) -> Result<(), NetlistError> {
        self.add_port(name, op, bits, PortDirection::Output)
    }

    fn add_port(
        &mut self,
        name: impl Into<String>,
        op: OperatorId,
        bits: u32,
        direction: PortDirection,
    ) -> Result<(), NetlistError> {
        if bits == 0 {
            return Err(NetlistError::ZeroWidthNet);
        }
        self.ports.push(SpecPort {
            name: name.into(),
            op,
            bits,
            direction,
        });
        Ok(())
    }

    /// Estimated total resources without synthesis (used by the runtime to
    /// size virtual-block allocations before compilation finishes).
    pub fn resource_estimate(&self) -> Resources {
        self.operators
            .iter()
            .map(|o| o.op.resource_estimate())
            .sum()
    }
}

/// Synthesized interface points of one operator inside the netlist.
#[derive(Debug, Clone)]
struct LoweredOp {
    /// Primitive accepting the operator's input stream.
    head: PrimitiveId,
    /// Primitive producing the operator's output stream.
    tail: PrimitiveId,
}

/// Lowers an [`AppSpec`] into a primitive [`Netlist`].
///
/// Intra-operator structure is a dense local chain (slices feeding each
/// other, hard blocks hanging off the chain); operator-to-operator edges
/// become single nets of the declared width. The result validates.
///
/// # Errors
///
/// Returns [`NetlistError::UnknownPrimitive`] if an edge or port references
/// an operator id that does not exist in the spec.
pub fn synthesize(spec: &AppSpec) -> Result<Netlist, NetlistError> {
    let mut n = Netlist::new(spec.name.clone());
    let mut lowered: Vec<LoweredOp> = Vec::with_capacity(spec.operators.len());

    for inst in &spec.operators {
        let l = match inst.op {
            Operator::MacArray { pes } => lower_mac_array(&mut n, pes.max(1))?,
            Operator::Buffer { kb, banks } => lower_buffer(&mut n, kb.max(1), banks.max(1))?,
            Operator::Pipeline { slices } => lower_chain(&mut n, slices.max(1), 0, 0)?,
            Operator::Custom {
                slices,
                dsps,
                brams,
            } => lower_chain(&mut n, slices.max(1), dsps, brams)?,
        };
        lowered.push(l);
    }

    for e in &spec.edges {
        let from = lowered
            .get(e.from.index())
            .ok_or(NetlistError::UnknownPrimitive(PrimitiveId(e.from.0)))?;
        let to = lowered
            .get(e.to.index())
            .ok_or(NetlistError::UnknownPrimitive(PrimitiveId(e.to.0)))?;
        n.connect(from.tail, [to.head], e.bits)?;
    }
    for p in &spec.ports {
        let op = lowered
            .get(p.op.index())
            .ok_or(NetlistError::UnknownPrimitive(PrimitiveId(p.op.0)))?;
        match p.direction {
            PortDirection::Input => {
                let port = n.add_primitive(PrimitiveKind::io(p.direction));
                n.connect(port, [op.head], p.bits)?;
            }
            PortDirection::Output => {
                let port = n.add_primitive(PrimitiveKind::io(p.direction));
                n.connect(op.tail, [port], p.bits)?;
            }
        }
    }
    Ok(n)
}

fn lower_mac_array(n: &mut Netlist, pes: u32) -> Result<LoweredOp, NetlistError> {
    let mut prev_tail: Option<PrimitiveId> = None;
    let mut head = None;
    let mut tail = None;
    for _ in 0..pes {
        // One PE: PE_SLICES chained slices feeding one DSP.
        let mut prev_slice: Option<PrimitiveId> = None;
        let mut first_slice = None;
        for _ in 0..PE_SLICES {
            let id = n.add_primitive(PrimitiveKind::slice(SLICE_LUTS, SLICE_FFS));
            if let Some(p) = prev_slice {
                n.connect(p, [id], 32)?;
            }
            if first_slice.is_none() {
                first_slice = Some(id);
            }
            prev_slice = Some(id);
        }
        let dsp = n.add_primitive(PrimitiveKind::Dsp);
        n.connect(
            prev_slice.expect("PE_SLICES >= 1 guarantees a slice"),
            [dsp],
            48,
        )?;
        let first = first_slice.expect("PE_SLICES >= 1 guarantees a slice");
        // Systolic chaining between PEs.
        if let Some(pt) = prev_tail {
            n.connect(pt, [first], 16)?;
        }
        if head.is_none() {
            head = Some(first);
        }
        prev_tail = Some(dsp);
        tail = Some(dsp);
    }
    Ok(LoweredOp {
        head: head.expect("pes >= 1"),
        tail: tail.expect("pes >= 1"),
    })
}

fn lower_buffer(n: &mut Netlist, kb: u32, banks: u32) -> Result<LoweredOp, NetlistError> {
    let brams_total = kb.div_ceil(36).max(1);
    let per_bank = brams_total.div_ceil(banks);
    let mut prev_addr: Option<PrimitiveId> = None;
    let mut head = None;
    let mut last_bram = None;
    for bank in 0..banks {
        let addr = n.add_primitive(PrimitiveKind::slice(SLICE_LUTS, SLICE_FFS));
        let remaining = brams_total.saturating_sub(bank * per_bank);
        let count = per_bank.min(remaining);
        let mut sinks = Vec::new();
        for _ in 0..count {
            let bram = n.add_primitive(PrimitiveKind::bram36());
            sinks.push(bram);
            last_bram = Some(bram);
        }
        if !sinks.is_empty() {
            n.connect(addr, sinks, 32)?;
        }
        if let Some(p) = prev_addr {
            n.connect(p, [addr], 16)?;
        }
        if head.is_none() {
            head = Some(addr);
        }
        prev_addr = Some(addr);
    }
    Ok(LoweredOp {
        head: head.expect("banks >= 1"),
        tail: last_bram.or(head).expect("banks >= 1"),
    })
}

fn lower_chain(
    n: &mut Netlist,
    slices: u32,
    dsps: u32,
    brams: u32,
) -> Result<LoweredOp, NetlistError> {
    let mut ids = Vec::with_capacity(slices as usize);
    for _ in 0..slices {
        let id = n.add_primitive(PrimitiveKind::slice(SLICE_LUTS, SLICE_FFS));
        if let Some(&prev) = ids.last() {
            n.connect(prev, [id], 32)?;
        }
        ids.push(id);
    }
    // Hard blocks hang off the chain at evenly spaced attachment points.
    let attach = |i: u32, total: u32, len: usize| -> usize {
        if total <= 1 || len <= 1 {
            0
        } else {
            (i as usize * (len - 1)) / (total as usize - 1)
        }
    };
    for d in 0..dsps {
        let dsp = n.add_primitive(PrimitiveKind::Dsp);
        let host = ids[attach(d, dsps, ids.len())];
        n.connect(host, [dsp], 48)?;
    }
    for b in 0..brams {
        let bram = n.add_primitive(PrimitiveKind::bram36());
        let host = ids[attach(b, brams, ids.len())];
        n.connect(host, [bram], 32)?;
    }
    Ok(LoweredOp {
        head: *ids.first().expect("slices >= 1"),
        tail: *ids.last().expect("slices >= 1"),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo_spec() -> AppSpec {
        let mut spec = AppSpec::new("demo");
        let buf = spec.add_operator("w", Operator::Buffer { kb: 100, banks: 2 });
        let mac = spec.add_operator("m", Operator::MacArray { pes: 3 });
        let act = spec.add_operator("a", Operator::Pipeline { slices: 5 });
        spec.add_edge(buf, mac, 256).unwrap();
        spec.add_edge(mac, act, 64).unwrap();
        spec.add_input("in", mac, 64).unwrap();
        spec.add_output("out", act, 64).unwrap();
        spec
    }

    #[test]
    fn synthesize_produces_valid_netlist() {
        let n = synthesize(&demo_spec()).unwrap();
        n.validate().unwrap();
        let r = n.resource_usage();
        assert_eq!(r.dsp, 3);
        assert_eq!(r.bram_kb, 36 * 3); // ceil(100/36) = 3 RAMB36
        assert_eq!(n.io_ports().count(), 2);
    }

    #[test]
    fn estimate_matches_synthesis_for_mac_and_pipeline() {
        let mut spec = AppSpec::new("e");
        spec.add_operator("m", Operator::MacArray { pes: 10 });
        spec.add_operator("p", Operator::Pipeline { slices: 7 });
        let est = spec.resource_estimate();
        let n = synthesize(&spec).unwrap();
        assert_eq!(est, n.resource_usage());
    }

    #[test]
    fn custom_operator_hard_blocks() {
        let mut spec = AppSpec::new("c");
        spec.add_operator(
            "x",
            Operator::Custom {
                slices: 10,
                dsps: 4,
                brams: 2,
            },
        );
        let n = synthesize(&spec).unwrap();
        let r = n.resource_usage();
        assert_eq!(r.dsp, 4);
        assert_eq!(r.bram_kb, 72);
        assert_eq!(r.lut, 80);
        n.validate().unwrap();
    }

    #[test]
    fn edge_to_unknown_operator_fails_at_synthesis() {
        let mut spec = AppSpec::new("bad");
        let a = spec.add_operator("a", Operator::Pipeline { slices: 1 });
        let ghost = OperatorId(7);
        spec.add_edge(a, ghost, 8).unwrap();
        assert!(synthesize(&spec).is_err());
    }

    #[test]
    fn zero_width_edges_rejected_eagerly() {
        let mut spec = AppSpec::new("bad");
        let a = spec.add_operator("a", Operator::Pipeline { slices: 1 });
        assert_eq!(spec.add_edge(a, a, 0), Err(NetlistError::ZeroWidthNet));
        assert_eq!(spec.add_input("i", a, 0), Err(NetlistError::ZeroWidthNet));
    }

    #[test]
    fn degenerate_operator_sizes_are_clamped() {
        let mut spec = AppSpec::new("z");
        spec.add_operator("m", Operator::MacArray { pes: 0 });
        spec.add_operator("b", Operator::Buffer { kb: 0, banks: 0 });
        spec.add_operator("p", Operator::Pipeline { slices: 0 });
        let n = synthesize(&spec).unwrap();
        assert!(n.primitive_count() > 0);
    }

    #[test]
    fn operator_locality_dominates() {
        // Intra-operator nets should far outnumber inter-operator nets, so
        // the placement-based partitioner has real structure to exploit.
        let n = synthesize(&demo_spec()).unwrap();
        let total_nets = n.nets().len();
        // 2 inter-op edges + 2 port nets = 4 "global" nets.
        assert!(total_nets > 4 * 3);
    }
}
