//! The netlist container: primitives connected by multi-bit nets.

use std::fmt;

use serde::{Deserialize, Serialize};
use vital_fabric::Resources;

use crate::{NetlistError, PortDirection, Primitive, PrimitiveId, PrimitiveKind};

/// Index of a net within its [`Netlist`].
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct NetId(pub(crate) u32);

impl fmt::Display for NetId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// A multi-bit net: one driver primitive fanning out to one or more sinks.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Net {
    pub(crate) driver: PrimitiveId,
    pub(crate) sinks: Vec<PrimitiveId>,
    pub(crate) bits: u32,
}

impl Net {
    /// The primitive driving the net.
    pub fn driver(&self) -> PrimitiveId {
        self.driver
    }

    /// The primitives consuming the net.
    pub fn sinks(&self) -> &[PrimitiveId] {
        &self.sinks
    }

    /// Bit width of the net.
    pub fn bits(&self) -> u32 {
        self.bits
    }
}

/// Summary statistics of a netlist.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NetlistStats {
    /// Number of primitives (including I/O ports).
    pub primitives: usize,
    /// Number of nets.
    pub nets: usize,
    /// Number of top-level I/O port primitives.
    pub io_ports: usize,
    /// Total resources consumed.
    pub resources: Resources,
    /// Average net fanout.
    pub avg_fanout: f64,
    /// Total routed bits (sum over nets of `bits * sinks`).
    pub total_bits: u64,
}

/// A technology-mapped netlist: the IR at which ViTAL partitions
/// applications (paper §3.3, design decision in step 2).
///
/// See the [crate-level documentation](crate) for an end-to-end example.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Netlist {
    name: String,
    primitives: Vec<Primitive>,
    nets: Vec<Net>,
}

impl Netlist {
    /// Creates an empty netlist named `name`.
    pub fn new(name: impl Into<String>) -> Self {
        Netlist {
            name: name.into(),
            primitives: Vec::new(),
            nets: Vec::new(),
        }
    }

    /// Adds a primitive and returns its id.
    pub fn add_primitive(&mut self, kind: PrimitiveKind) -> PrimitiveId {
        let id = PrimitiveId(self.primitives.len() as u32);
        self.primitives.push(Primitive { id, kind });
        id
    }

    /// Connects `driver` to `sinks` with a net of width `bits`, returning
    /// the new net's id.
    ///
    /// # Errors
    ///
    /// * [`NetlistError::UnknownPrimitive`] if any id is out of range.
    /// * [`NetlistError::EmptyNet`] / [`NetlistError::ZeroWidthNet`] for
    ///   degenerate nets.
    /// * [`NetlistError::PortMisuse`] if an output port drives a net or an
    ///   input port consumes one.
    pub fn connect(
        &mut self,
        driver: PrimitiveId,
        sinks: impl IntoIterator<Item = PrimitiveId>,
        bits: u32,
    ) -> Result<NetId, NetlistError> {
        let sinks: Vec<PrimitiveId> = sinks.into_iter().collect();
        if sinks.is_empty() {
            return Err(NetlistError::EmptyNet);
        }
        if bits == 0 {
            return Err(NetlistError::ZeroWidthNet);
        }
        let driver_kind = self
            .primitive(driver)
            .ok_or(NetlistError::UnknownPrimitive(driver))?
            .kind();
        if let PrimitiveKind::Io {
            direction: PortDirection::Output,
        } = driver_kind
        {
            return Err(NetlistError::PortMisuse {
                port: driver,
                reason: "output port cannot drive a net".into(),
            });
        }
        for &s in &sinks {
            let kind = self
                .primitive(s)
                .ok_or(NetlistError::UnknownPrimitive(s))?
                .kind();
            if let PrimitiveKind::Io {
                direction: PortDirection::Input,
            } = kind
            {
                return Err(NetlistError::PortMisuse {
                    port: s,
                    reason: "input port cannot consume a net".into(),
                });
            }
        }
        let id = NetId(self.nets.len() as u32);
        self.nets.push(Net {
            driver,
            sinks,
            bits,
        });
        Ok(id)
    }

    /// Looks up a primitive by id.
    pub fn primitive(&self, id: PrimitiveId) -> Option<&Primitive> {
        self.primitives.get(id.index())
    }

    /// All primitives, in id order.
    pub fn primitives(&self) -> &[Primitive] {
        &self.primitives
    }

    /// All nets, in id order.
    pub fn nets(&self) -> &[Net] {
        &self.nets
    }

    /// Number of primitives.
    pub fn primitive_count(&self) -> usize {
        self.primitives.len()
    }

    /// The top-level I/O port primitives.
    pub fn io_ports(&self) -> impl Iterator<Item = &Primitive> {
        self.primitives.iter().filter(|p| p.kind().is_io())
    }

    /// Total fabric resources consumed by the netlist.
    pub fn resource_usage(&self) -> Resources {
        self.primitives.iter().map(|p| p.resources()).sum()
    }

    /// Computes summary statistics.
    pub fn stats(&self) -> NetlistStats {
        let total_sinks: usize = self.nets.iter().map(|n| n.sinks.len()).sum();
        let total_bits: u64 = self
            .nets
            .iter()
            .map(|n| u64::from(n.bits) * n.sinks.len() as u64)
            .sum();
        NetlistStats {
            primitives: self.primitives.len(),
            nets: self.nets.len(),
            io_ports: self.io_ports().count(),
            resources: self.resource_usage(),
            avg_fanout: if self.nets.is_empty() {
                0.0
            } else {
                total_sinks as f64 / self.nets.len() as f64
            },
            total_bits,
        }
    }

    /// Validates structural invariants: every net's endpoints exist and
    /// every non-port primitive is connected to at least one net.
    ///
    /// # Errors
    ///
    /// Returns the first violation found.
    pub fn validate(&self) -> Result<(), NetlistError> {
        let n = self.primitives.len();
        let mut touched = vec![false; n];
        for net in &self.nets {
            if net.driver.index() >= n {
                return Err(NetlistError::UnknownPrimitive(net.driver));
            }
            touched[net.driver.index()] = true;
            for &s in &net.sinks {
                if s.index() >= n {
                    return Err(NetlistError::UnknownPrimitive(s));
                }
                touched[s.index()] = true;
            }
        }
        for (i, p) in self.primitives.iter().enumerate() {
            if !touched[i] && !p.kind().is_io() {
                return Err(NetlistError::DanglingPrimitive(p.id()));
            }
        }
        Ok(())
    }
}

impl fmt::Display for Netlist {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {} primitives, {} nets, {}",
            self.name,
            self.primitives.len(),
            self.nets.len(),
            self.resource_usage()
        )
    }
}

#[cfg(test)]
impl Netlist {
    /// Looks up a net by id.
    pub(crate) fn net(&self, id: NetId) -> Option<&Net> {
        self.nets.get(id.0 as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_lut_netlist() -> (Netlist, PrimitiveId, PrimitiveId) {
        let mut n = Netlist::new("t");
        let a = n.add_primitive(PrimitiveKind::lut(6));
        let b = n.add_primitive(PrimitiveKind::lut(6));
        n.connect(a, [b], 1).unwrap();
        (n, a, b)
    }

    #[test]
    fn build_and_query() {
        let (n, a, b) = two_lut_netlist();
        assert_eq!(n.primitive_count(), 2);
        assert_eq!(n.nets().len(), 1);
        let net = n.net(NetId(0)).unwrap();
        assert_eq!(net.driver(), a);
        assert_eq!(net.sinks(), &[b]);
        assert_eq!(net.bits(), 1);
        n.validate().unwrap();
    }

    #[test]
    fn rejects_degenerate_nets() {
        let (mut n, a, _) = two_lut_netlist();
        assert_eq!(n.connect(a, [], 1), Err(NetlistError::EmptyNet));
        let b = PrimitiveId(1);
        assert_eq!(n.connect(a, [b], 0), Err(NetlistError::ZeroWidthNet));
    }

    #[test]
    fn rejects_unknown_ids() {
        let (mut n, a, _) = two_lut_netlist();
        let ghost = PrimitiveId(99);
        assert_eq!(
            n.connect(ghost, [a], 1),
            Err(NetlistError::UnknownPrimitive(ghost))
        );
        assert_eq!(
            n.connect(a, [ghost], 1),
            Err(NetlistError::UnknownPrimitive(ghost))
        );
    }

    #[test]
    fn rejects_port_misuse() {
        let mut n = Netlist::new("t");
        let inp = n.add_primitive(PrimitiveKind::io(PortDirection::Input));
        let out = n.add_primitive(PrimitiveKind::io(PortDirection::Output));
        let lut = n.add_primitive(PrimitiveKind::lut(2));
        assert!(matches!(
            n.connect(out, [lut], 1),
            Err(NetlistError::PortMisuse { .. })
        ));
        assert!(matches!(
            n.connect(lut, [inp], 1),
            Err(NetlistError::PortMisuse { .. })
        ));
        // Correct directions are fine.
        n.connect(inp, [lut], 8).unwrap();
        n.connect(lut, [out], 8).unwrap();
        n.validate().unwrap();
    }

    #[test]
    fn validate_finds_dangling_primitives() {
        let (mut n, _, _) = two_lut_netlist();
        let dangling = n.add_primitive(PrimitiveKind::Dsp);
        assert_eq!(n.validate(), Err(NetlistError::DanglingPrimitive(dangling)));
    }

    #[test]
    fn unconnected_io_is_allowed() {
        let mut n = Netlist::new("t");
        n.add_primitive(PrimitiveKind::io(PortDirection::Input));
        n.validate().unwrap();
    }

    #[test]
    fn stats_aggregate() {
        let mut n = Netlist::new("t");
        let a = n.add_primitive(PrimitiveKind::slice(8, 16));
        let b = n.add_primitive(PrimitiveKind::Dsp);
        let c = n.add_primitive(PrimitiveKind::bram36());
        n.connect(a, [b, c], 16).unwrap();
        let s = n.stats();
        assert_eq!(s.primitives, 3);
        assert_eq!(s.nets, 1);
        assert_eq!(s.resources, Resources::new(8, 16, 1, 36));
        assert!((s.avg_fanout - 2.0).abs() < 1e-12);
        assert_eq!(s.total_bits, 32);
    }

    #[test]
    fn serde_roundtrip() {
        let (n, _, _) = two_lut_netlist();
        let json = serde_json::to_string(&n).unwrap();
        let back: Netlist = serde_json::from_str(&json).unwrap();
        assert_eq!(n, back);
    }
}
