//! Heterogeneous FPGA resource accounting.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Mul, Sub, SubAssign};

use serde::{Deserialize, Serialize};

/// One of the four resource classes tracked by the ViTAL abstraction.
///
/// The paper's homogeneous abstraction standardizes exactly these resource
/// types for every virtual block (Table 4): look-up tables, D flip-flops,
/// DSP slices and block RAM capacity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum ResourceKind {
    /// 6-input look-up tables (logic).
    Lut,
    /// D flip-flops (registers).
    Ff,
    /// DSP48-style hard multiply-accumulate slices.
    Dsp,
    /// Block RAM capacity in kilobits.
    BramKb,
}

impl ResourceKind {
    /// All resource kinds, in display order.
    pub const ALL: [ResourceKind; 4] = [
        ResourceKind::Lut,
        ResourceKind::Ff,
        ResourceKind::Dsp,
        ResourceKind::BramKb,
    ];
}

impl fmt::Display for ResourceKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ResourceKind::Lut => "LUT",
            ResourceKind::Ff => "FF",
            ResourceKind::Dsp => "DSP",
            ResourceKind::BramKb => "BRAM(kb)",
        };
        f.write_str(s)
    }
}

/// A vector of heterogeneous FPGA resources.
///
/// `Resources` is used both for *capacities* (what a device, region or
/// physical block provides) and for *usage* (what a netlist or virtual block
/// consumes). It supports element-wise arithmetic and containment queries.
///
/// # Example
///
/// ```
/// use vital_fabric::Resources;
///
/// let block = Resources::new(79_200, 158_400, 580, 4_320);
/// let app = Resources::new(23_500, 23_300, 42, 2_600);
/// assert!(app.fits_within(&block));
/// assert_eq!((app + app).lut, 47_000);
/// ```
#[derive(
    Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize,
)]
pub struct Resources {
    /// Number of look-up tables.
    pub lut: u64,
    /// Number of flip-flops.
    pub ff: u64,
    /// Number of DSP slices.
    pub dsp: u64,
    /// Block RAM capacity in kilobits.
    pub bram_kb: u64,
}

impl Resources {
    /// The zero resource vector.
    pub const ZERO: Resources = Resources {
        lut: 0,
        ff: 0,
        dsp: 0,
        bram_kb: 0,
    };

    /// Creates a resource vector from explicit counts.
    pub const fn new(lut: u64, ff: u64, dsp: u64, bram_kb: u64) -> Self {
        Resources {
            lut,
            ff,
            dsp,
            bram_kb,
        }
    }

    /// Returns the count for one resource kind.
    pub fn get(&self, kind: ResourceKind) -> u64 {
        match kind {
            ResourceKind::Lut => self.lut,
            ResourceKind::Ff => self.ff,
            ResourceKind::Dsp => self.dsp,
            ResourceKind::BramKb => self.bram_kb,
        }
    }

    /// Returns `true` if every component is zero.
    pub fn is_zero(&self) -> bool {
        *self == Resources::ZERO
    }

    /// Returns `true` if every component of `self` is at most the
    /// corresponding component of `capacity`.
    pub fn fits_within(&self, capacity: &Resources) -> bool {
        self.lut <= capacity.lut
            && self.ff <= capacity.ff
            && self.dsp <= capacity.dsp
            && self.bram_kb <= capacity.bram_kb
    }

    /// Element-wise saturating subtraction.
    pub fn saturating_sub(&self, other: &Resources) -> Resources {
        Resources {
            lut: self.lut.saturating_sub(other.lut),
            ff: self.ff.saturating_sub(other.ff),
            dsp: self.dsp.saturating_sub(other.dsp),
            bram_kb: self.bram_kb.saturating_sub(other.bram_kb),
        }
    }

    /// Element-wise checked subtraction; `None` if any component underflows.
    pub fn checked_sub(&self, other: &Resources) -> Option<Resources> {
        Some(Resources {
            lut: self.lut.checked_sub(other.lut)?,
            ff: self.ff.checked_sub(other.ff)?,
            dsp: self.dsp.checked_sub(other.dsp)?,
            bram_kb: self.bram_kb.checked_sub(other.bram_kb)?,
        })
    }

    /// Scales every component by `factor`, rounding to nearest.
    pub fn scale(&self, factor: f64) -> Resources {
        debug_assert!(factor >= 0.0, "resource scale factor must be non-negative");
        let s = |v: u64| ((v as f64) * factor).round().max(0.0) as u64;
        Resources {
            lut: s(self.lut),
            ff: s(self.ff),
            dsp: s(self.dsp),
            bram_kb: s(self.bram_kb),
        }
    }

    /// The utilization of `self` against `capacity`, per resource kind and
    /// as the bottleneck maximum.
    ///
    /// Components with zero capacity and zero usage report utilization 0;
    /// zero capacity with non-zero usage reports infinity.
    pub fn utilization_of(&self, capacity: &Resources) -> Utilization {
        let ratio = |used: u64, cap: u64| -> f64 {
            if used == 0 {
                0.0
            } else if cap == 0 {
                f64::INFINITY
            } else {
                used as f64 / cap as f64
            }
        };
        Utilization {
            lut: ratio(self.lut, capacity.lut),
            ff: ratio(self.ff, capacity.ff),
            dsp: ratio(self.dsp, capacity.dsp),
            bram_kb: ratio(self.bram_kb, capacity.bram_kb),
        }
    }

    /// Fill factor applied to DSP columns when sizing block allocations;
    /// hard blocks route point-to-point and tolerate high fill.
    pub(crate) const DSP_FILL: f64 = 0.90;
    /// Fill factor applied to BRAM capacity when sizing block allocations
    /// (the paper's Table 2 designs reach ~72 % BRAM fill per block).
    pub(crate) const BRAM_FILL: f64 = 0.75;

    /// The usable fraction of a block of this capacity under a LUT/FF fill
    /// `margin`: general fabric (LUTs, FFs) is limited by routability to
    /// `margin`, while hard DSP/BRAM columns fill to `DSP_FILL` /
    /// `BRAM_FILL` (90 % / 75 %).
    ///
    /// # Panics
    ///
    /// Panics if `margin` is not in `(0, 1]`.
    pub fn block_fill(&self, margin: f64) -> Resources {
        assert!(
            margin > 0.0 && margin <= 1.0,
            "margin must be in (0, 1], got {margin}"
        );
        Resources {
            lut: ((self.lut as f64) * margin).round() as u64,
            ff: ((self.ff as f64) * margin).round() as u64,
            dsp: ((self.dsp as f64) * Self::DSP_FILL).round() as u64,
            bram_kb: ((self.bram_kb as f64) * Self::BRAM_FILL).round() as u64,
        }
    }

    /// Minimum number of blocks of capacity `block` needed to hold `self`,
    /// with general fabric filled to at most `margin` (see
    /// [`Resources::block_fill`]).
    ///
    /// This is the sizing rule ViTAL's compilation flow uses to decide how
    /// many virtual blocks to allocate for an application (§3.3, task 1).
    /// `margin` accounts for packing/routability headroom; the paper's
    /// Table 2 block counts imply an effective LUT fill of roughly 30 %.
    ///
    /// # Panics
    ///
    /// Panics if `margin` is not in `(0, 1]` or the effective block capacity
    /// is zero in a resource the application needs.
    pub fn blocks_needed(&self, block: &Resources, margin: f64) -> u64 {
        let effective = block.block_fill(margin);
        let mut needed = 0u64;
        for kind in ResourceKind::ALL {
            let used = self.get(kind);
            if used == 0 {
                continue;
            }
            let cap = effective.get(kind);
            assert!(
                cap > 0,
                "block provides no {kind} capacity but application needs {used}"
            );
            needed = needed.max(used.div_ceil(cap));
        }
        needed.max(1)
    }
}

impl Add for Resources {
    type Output = Resources;

    fn add(self, rhs: Resources) -> Resources {
        Resources {
            lut: self.lut + rhs.lut,
            ff: self.ff + rhs.ff,
            dsp: self.dsp + rhs.dsp,
            bram_kb: self.bram_kb + rhs.bram_kb,
        }
    }
}

impl AddAssign for Resources {
    fn add_assign(&mut self, rhs: Resources) {
        *self = *self + rhs;
    }
}

impl Sub for Resources {
    type Output = Resources;

    /// Element-wise subtraction.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if any component underflows; use
    /// [`Resources::checked_sub`] or [`Resources::saturating_sub`] when the
    /// result may be negative.
    fn sub(self, rhs: Resources) -> Resources {
        Resources {
            lut: self.lut - rhs.lut,
            ff: self.ff - rhs.ff,
            dsp: self.dsp - rhs.dsp,
            bram_kb: self.bram_kb - rhs.bram_kb,
        }
    }
}

impl SubAssign for Resources {
    fn sub_assign(&mut self, rhs: Resources) {
        *self = *self - rhs;
    }
}

impl Mul<u64> for Resources {
    type Output = Resources;

    fn mul(self, rhs: u64) -> Resources {
        Resources {
            lut: self.lut * rhs,
            ff: self.ff * rhs,
            dsp: self.dsp * rhs,
            bram_kb: self.bram_kb * rhs,
        }
    }
}

impl Sum for Resources {
    fn sum<I: Iterator<Item = Resources>>(iter: I) -> Resources {
        iter.fold(Resources::ZERO, |acc, r| acc + r)
    }
}

impl fmt::Display for Resources {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} LUT / {} FF / {} DSP / {} kb BRAM",
            self.lut, self.ff, self.dsp, self.bram_kb
        )
    }
}

/// Per-kind utilization ratios produced by [`Resources::utilization_of`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Utilization {
    /// LUT utilization ratio.
    pub lut: f64,
    /// Flip-flop utilization ratio.
    pub ff: f64,
    /// DSP utilization ratio.
    pub dsp: f64,
    /// BRAM utilization ratio.
    pub bram_kb: f64,
}

impl Utilization {
    /// The bottleneck (maximum) utilization across all resource kinds.
    pub fn bottleneck(&self) -> f64 {
        self.lut.max(self.ff).max(self.dsp).max(self.bram_kb)
    }

    /// `true` if no resource kind exceeds 100 % utilization.
    pub fn is_feasible(&self) -> bool {
        self.bottleneck() <= 1.0
    }
}

impl fmt::Display for Utilization {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "LUT {:.1}% / FF {:.1}% / DSP {:.1}% / BRAM {:.1}%",
            self.lut * 100.0,
            self.ff * 100.0,
            self.dsp * 100.0,
            self.bram_kb * 100.0
        )
    }
}

#[cfg(test)]
impl Resources {
    /// Sets the count for one resource kind.
    pub(crate) fn set(&mut self, kind: ResourceKind, value: u64) {
        match kind {
            ResourceKind::Lut => self.lut = value,
            ResourceKind::Ff => self.ff = value,
            ResourceKind::Dsp => self.dsp = value,
            ResourceKind::BramKb => self.bram_kb = value,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic_roundtrip() {
        let a = Resources::new(10, 20, 3, 40);
        let b = Resources::new(1, 2, 3, 4);
        assert_eq!(a + b - b, a);
        assert_eq!(a * 2, a + a);
        let sum: Resources = [a, b, b].into_iter().sum();
        assert_eq!(sum, a + b + b);
    }

    #[test]
    fn fits_within_is_component_wise() {
        let cap = Resources::new(100, 100, 10, 100);
        assert!(Resources::new(100, 100, 10, 100).fits_within(&cap));
        assert!(!Resources::new(101, 0, 0, 0).fits_within(&cap));
        assert!(!Resources::new(0, 0, 11, 0).fits_within(&cap));
        assert!(Resources::ZERO.fits_within(&cap));
    }

    #[test]
    fn checked_sub_underflow() {
        let a = Resources::new(5, 5, 5, 5);
        let b = Resources::new(6, 0, 0, 0);
        assert_eq!(a.checked_sub(&b), None);
        assert_eq!(a.saturating_sub(&b), Resources::new(0, 5, 5, 5));
    }

    #[test]
    fn utilization_bottleneck() {
        let cap = Resources::new(100, 200, 10, 1000);
        let used = Resources::new(50, 50, 9, 100);
        let u = used.utilization_of(&cap);
        assert!((u.bottleneck() - 0.9).abs() < 1e-9);
        assert!(u.is_feasible());
    }

    #[test]
    fn utilization_zero_capacity() {
        let u = Resources::new(1, 0, 0, 0).utilization_of(&Resources::ZERO);
        assert!(u.lut.is_infinite());
        assert!(!u.is_feasible());
        let z = Resources::ZERO.utilization_of(&Resources::ZERO);
        assert_eq!(z.bottleneck(), 0.0);
    }

    #[test]
    fn blocks_needed_respects_margin() {
        let block = Resources::new(100, 100, 10, 100);
        let app = Resources::new(90, 0, 0, 0);
        assert_eq!(app.blocks_needed(&block, 1.0), 1);
        assert_eq!(app.blocks_needed(&block, 0.3), 3);
        // Bottleneck resource drives the count.
        let dsp_heavy = Resources::new(10, 0, 25, 0);
        assert_eq!(dsp_heavy.blocks_needed(&block, 1.0), 3);
    }

    #[test]
    fn blocks_needed_minimum_one() {
        let block = Resources::new(100, 100, 10, 100);
        assert_eq!(Resources::ZERO.blocks_needed(&block, 0.5), 1);
    }

    #[test]
    #[should_panic(expected = "margin")]
    fn blocks_needed_rejects_bad_margin() {
        let block = Resources::new(100, 100, 10, 100);
        let _ = Resources::new(1, 1, 1, 1).blocks_needed(&block, 0.0);
    }

    #[test]
    fn get_set_roundtrip() {
        let mut r = Resources::ZERO;
        for (i, kind) in ResourceKind::ALL.into_iter().enumerate() {
            r.set(kind, i as u64 + 1);
        }
        assert_eq!(r, Resources::new(1, 2, 3, 4));
        assert_eq!(r.get(ResourceKind::Dsp), 3);
    }

    #[test]
    fn display_is_nonempty() {
        assert!(!format!("{}", Resources::ZERO).is_empty());
        assert!(!format!("{}", ResourceKind::Lut).is_empty());
    }
}
