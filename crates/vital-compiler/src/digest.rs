//! Content addressing of compile inputs.
//!
//! A [`NetlistDigest`] identifies *what would be compiled*: the synthesized
//! netlist's dataflow structure plus every configuration knob that
//! influences the produced bitstream. Two specs with equal digests compile
//! to byte-identical [`AppBitstream`](crate::AppBitstream) images (up to
//! the stored application name), which is what lets the system layer's
//! bitstream database act as a compile cache — a repeat deploy of an
//! already-compiled netlist skips steps 2–6 entirely.

use std::fmt;

use serde::{Deserialize, Serialize};
use vital_fabric::Fnv1a;
use vital_netlist::Netlist;

use crate::CompilerConfig;

/// The content digest of one compile input (netlist + configuration).
///
/// The digest covers the primitive kinds (in id order), the net structure
/// (driver, sinks, width — also in id order), and the compile-relevant
/// configuration sub-structures. It deliberately **excludes**:
///
/// - the application's name — renaming does not change the compiled
///   image (primitives carry no name);
/// - [`CompilerConfig::workers`] — the parallel local-P&R fan-out is
///   bit-identical for every worker count, so it must not fragment the
///   cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct NetlistDigest(u64);

impl NetlistDigest {
    /// Digests a synthesized netlist under a compiler configuration.
    pub fn of(netlist: &Netlist, config: &CompilerConfig) -> Self {
        let mut h = Fnv1a::default();

        h.usize(netlist.primitives().len());
        for prim in netlist.primitives() {
            h.str(&format!("{:?}", prim.kind()));
        }
        h.usize(netlist.nets().len());
        for net in netlist.nets() {
            h.usize(net.driver().index());
            h.usize(net.sinks().len());
            for sink in net.sinks() {
                h.usize(sink.index());
            }
            h.u64(u64::from(net.bits()));
        }

        h.str(&format!("{:?}", config.block_resources));
        h.u64(config.fill_margin.to_bits());
        h.str(&format!("{:?}", config.placer));
        h.str(&format!("{:?}", config.interface));
        h.str(&format!("{:?}", config.pnr));

        NetlistDigest(h.finish())
    }

    /// Wraps a raw digest value (deserialized state, test fixtures).
    pub const fn from_raw(raw: u64) -> Self {
        NetlistDigest(raw)
    }

    /// The raw 64-bit value.
    pub const fn as_u64(self) -> u64 {
        self.0
    }
}

impl fmt::Display for NetlistDigest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vital_netlist::hls::{synthesize, AppSpec, Operator};

    fn spec(name: &str, pes: u32) -> AppSpec {
        let mut s = AppSpec::new(name);
        let m = s.add_operator("mac", Operator::MacArray { pes });
        s.add_input("in", m, 64).unwrap();
        s.add_output("out", m, 64).unwrap();
        s
    }

    fn digest(spec: &AppSpec, cfg: &CompilerConfig) -> NetlistDigest {
        let netlist = synthesize(spec).unwrap();
        NetlistDigest::of(&netlist, cfg)
    }

    #[test]
    fn equal_inputs_equal_digests() {
        let cfg = CompilerConfig::default();
        assert_eq!(digest(&spec("a", 8), &cfg), digest(&spec("a", 8), &cfg));
    }

    #[test]
    fn name_and_workers_do_not_fragment() {
        let cfg = CompilerConfig::default();
        let parallel = CompilerConfig {
            workers: 8,
            ..CompilerConfig::default()
        };
        let d = digest(&spec("a", 8), &cfg);
        assert_eq!(d, digest(&spec("renamed", 8), &cfg));
        assert_eq!(d, digest(&spec("a", 8), &parallel));
    }

    #[test]
    fn structure_and_config_do_fragment() {
        let cfg = CompilerConfig::default();
        let d = digest(&spec("a", 8), &cfg);
        assert_ne!(d, digest(&spec("a", 16), &cfg));
        let reseeded = CompilerConfig {
            pnr: crate::pnr::PnrConfig {
                seed: 12345,
                ..cfg.pnr
            },
            ..cfg.clone()
        };
        assert_ne!(d, digest(&spec("a", 8), &reseeded));
    }

    #[test]
    fn display_is_hex() {
        let d = NetlistDigest::from_raw(0xdead_beef);
        assert_eq!(d.to_string(), "00000000deadbeef");
        assert_eq!(d.as_u64(), 0xdead_beef);
    }
}
