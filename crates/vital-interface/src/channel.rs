//! Cycle-level model of one latency-insensitive channel.

use std::collections::VecDeque;
use std::fmt;

use serde::{Deserialize, Serialize};
use vital_fabric::LinkTechnology;

/// User-region clock frequency assumed by the cycle model (MHz).
///
/// The paper does not publish its block clock; 300 MHz is a routine speed
/// for UltraScale+ shells and only scales the Gb/s numbers, not the shapes.
pub const CLOCK_MHZ: f64 = 300.0;

/// Which physical interconnect a channel rides on; determines its bandwidth
/// and latency parameters (paper Table 4 distinguishes inter-FPGA and
/// inter-die, while intra-die is deterministic and buffer-free, §3.5.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum LinkClass {
    /// On-chip routing within one die: deterministic, highest bandwidth.
    IntraDie,
    /// SLR crossing between dies of one package.
    InterDie,
    /// The optical ring between FPGAs.
    InterFpga,
}

impl LinkClass {
    /// Bandwidth of this link class in Gb/s under the given technology.
    pub(crate) fn bandwidth_gbps(self, links: &LinkTechnology) -> f64 {
        match self {
            LinkClass::IntraDie => {
                // On-chip routing is effectively limited by how many wires a
                // block boundary offers; model it as ~4x the SLR crossing.
                links.inter_die_gbps * 4.0
            }
            LinkClass::InterDie => links.inter_die_gbps,
            LinkClass::InterFpga => links.inter_fpga_gbps,
        }
    }

    /// One-way latency of this link class in nanoseconds.
    pub fn latency_ns(self, links: &LinkTechnology) -> f64 {
        match self {
            LinkClass::IntraDie => links.intra_die_latency_ns,
            LinkClass::InterDie => links.inter_die_latency_ns,
            LinkClass::InterFpga => links.inter_fpga_latency_ns,
        }
    }

    /// Bits this link can move per user-logic clock cycle.
    pub(crate) fn bits_per_cycle(self, links: &LinkTechnology) -> f64 {
        self.bandwidth_gbps(links) * 1.0e9 / (CLOCK_MHZ * 1.0e6)
    }

    /// One-way latency in whole clock cycles (at least 1).
    pub fn latency_cycles(self, links: &LinkTechnology) -> u32 {
        ((self.latency_ns(links) * CLOCK_MHZ * 1.0e-3).ceil() as u32).max(1)
    }
}

/// Static parameters of one channel.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ChannelSpec {
    /// Flit width in bits.
    pub width_bits: u32,
    /// Receiver FIFO depth in flits.
    pub depth: usize,
    /// Wire/pipeline latency in cycles.
    pub latency_cycles: u32,
    /// Minimum cycles between flit injections (serialization over a link
    /// narrower than the flit). 1 = full rate.
    pub serialization_interval: u32,
    /// The link class the channel rides on.
    pub link: LinkClass,
}

impl ChannelSpec {
    /// Builds a spec for a `width_bits`-flit channel over `link` under the
    /// paper-cluster link technology, with a default FIFO depth that covers
    /// the round-trip (latency × 2) so full throughput is sustainable.
    pub fn for_link(link: LinkClass, width_bits: u32) -> Self {
        Self::for_link_with(link, width_bits, &LinkTechnology::paper_cluster())
    }

    /// Like [`ChannelSpec::for_link`] with explicit link technology.
    pub(crate) fn for_link_with(link: LinkClass, width_bits: u32, links: &LinkTechnology) -> Self {
        let latency = link.latency_cycles(links);
        let ser = (f64::from(width_bits) / link.bits_per_cycle(links)).ceil() as u32;
        ChannelSpec {
            width_bits,
            depth: (2 * latency as usize + 4).max(8),
            latency_cycles: latency,
            serialization_interval: ser.max(1),
            link,
        }
    }

    /// A spec whose flit width matches the link's per-cycle capacity, so a
    /// flit can be injected every cycle and the channel can saturate the
    /// link — how a real shell sizes its gateway datapath. Used by the
    /// Table 4 maximum-bandwidth measurement.
    pub fn saturating(link: LinkClass) -> Self {
        Self::saturating_with(link, &LinkTechnology::paper_cluster())
    }

    /// Like [`ChannelSpec::saturating`] with explicit link technology.
    pub(crate) fn saturating_with(link: LinkClass, links: &LinkTechnology) -> Self {
        let width = link.bits_per_cycle(links).floor().max(1.0) as u32;
        Self::for_link_with(link, width, links)
    }
}

/// Why a channel refused to quiesce.
///
/// Quiescing is only legal at a flit boundary: while a flit is still being
/// serialized onto a link narrower than the flit, freezing the channel would
/// capture a half-transferred flit that no snapshot format can represent.
/// The control logic must keep the producer clock-gated and retry once the
/// serialization window closes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum QuiesceError {
    /// A flit injection is still serializing onto the link; the channel can
    /// quiesce no earlier than `ready_at`.
    MidSerialization {
        /// The cycle at which quiesce was attempted.
        now: u64,
        /// The first cycle at which the serialization window is closed.
        ready_at: u64,
    },
}

impl fmt::Display for QuiesceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QuiesceError::MidSerialization { now, ready_at } => write!(
                f,
                "cannot quiesce at cycle {now}: flit serialization in progress until cycle {ready_at}"
            ),
        }
    }
}

impl std::error::Error for QuiesceError {}

/// The drained, deterministic state of one channel at quiesce time.
///
/// Flit timestamps are stored as *ages* relative to the drain cycle rather
/// than absolute cycles, so a snapshot taken on one placement can be
/// restored on another with a different time base. Restoring at a cycle at
/// least as large as the oldest age reproduces the exact latency
/// accounting; see [`Channel::restore`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChannelSnapshot {
    /// The static parameters of the channel.
    pub spec: ChannelSpec,
    /// Cycles spent draining in-flight flits off the wire (0 if the wire
    /// was already empty).
    pub drain_cycles: u64,
    /// Age (drain cycle − injected cycle) of each flit buffered in the
    /// receiver FIFO, in FIFO order.
    pub fifo_ages: Vec<u64>,
    /// Flits delivered to the consumer before the quiesce.
    pub delivered: u64,
    /// Accumulated inject→pop latency of the delivered flits, in cycles.
    pub latency_sum: u64,
}

impl ChannelSnapshot {
    /// Flits captured in the snapshot (all of them sit in the FIFO: the
    /// wire is drained by construction).
    pub fn occupancy(&self) -> usize {
        self.fifo_ages.len()
    }
}

/// The dynamic state of one channel: in-flight flits plus the receiver FIFO,
/// with credit-based back-pressure.
///
/// Each flit carries the cycle at which it was injected so end-to-end
/// latency can be measured.
#[derive(Debug, Clone)]
pub struct Channel {
    spec: ChannelSpec,
    /// Flits on the wire: `(arrival_cycle, injected_cycle)`.
    in_flight: VecDeque<(u64, u64)>,
    /// Flits waiting in the receiver FIFO: `injected_cycle`.
    fifo: VecDeque<u64>,
    next_inject_allowed: u64,
    delivered: u64,
    latency_sum: u64,
}

impl Channel {
    /// Creates an idle channel.
    pub fn new(spec: ChannelSpec) -> Self {
        Channel {
            spec,
            in_flight: VecDeque::new(),
            fifo: VecDeque::new(),
            next_inject_allowed: 0,
            delivered: 0,
            latency_sum: 0,
        }
    }

    /// `true` if the sender holds a credit and the serialization window is
    /// open: pushing now will not overflow the receiver FIFO.
    pub fn can_push(&self, now: u64) -> bool {
        now >= self.next_inject_allowed && self.in_flight.len() + self.fifo.len() < self.spec.depth
    }

    /// Injects one flit at cycle `now`.
    ///
    /// # Panics
    ///
    /// Panics if [`Channel::can_push`] is false (the control logic must
    /// clock-gate the producer instead).
    pub fn push(&mut self, now: u64) {
        assert!(self.can_push(now), "push without credit at cycle {now}");
        self.in_flight
            .push_back((now + u64::from(self.spec.latency_cycles), now));
        self.next_inject_allowed = now + u64::from(self.spec.serialization_interval);
    }

    /// Moves flits that have completed their wire latency into the FIFO.
    pub fn advance(&mut self, now: u64) {
        while let Some(&(arrival, injected)) = self.in_flight.front() {
            if arrival <= now {
                self.in_flight.pop_front();
                self.fifo.push_back(injected);
            } else {
                break;
            }
        }
    }

    /// `true` if the consumer can pop a flit this cycle.
    pub(crate) fn has_data(&self) -> bool {
        !self.fifo.is_empty()
    }

    /// Pops one flit; returns `false` if the FIFO was empty.
    pub fn pop(&mut self, now: u64) -> bool {
        match self.fifo.pop_front() {
            Some(injected) => {
                self.delivered += 1;
                self.latency_sum += now - injected;
                true
            }
            None => false,
        }
    }

    /// Flits delivered to the consumer so far.
    pub fn delivered(&self) -> u64 {
        self.delivered
    }

    /// Mean end-to-end latency (inject → pop) in cycles.
    pub fn avg_latency_cycles(&self) -> f64 {
        if self.delivered == 0 {
            0.0
        } else {
            self.latency_sum as f64 / self.delivered as f64
        }
    }

    /// Flits currently buffered in the receiver FIFO.
    pub fn occupancy(&self) -> usize {
        self.fifo.len()
    }

    /// Flits currently on the wire.
    pub fn in_flight(&self) -> usize {
        self.in_flight.len()
    }

    /// `true` if no flit is anywhere in the channel.
    pub fn is_empty(&self) -> bool {
        self.in_flight.is_empty() && self.fifo.is_empty()
    }

    /// The first cycle at which [`Channel::quiesce`] can succeed: the
    /// close of the serialization window opened by the last push (0 on an
    /// untouched channel). Lets a controller check an entire channel set
    /// before destructively draining any member.
    pub fn quiesce_ready_at(&self) -> u64 {
        self.next_inject_allowed
    }

    /// Quiesces the channel at cycle `now`: stops issuing credits, lets
    /// every in-flight flit complete its wire latency, and captures the
    /// resulting state as a deterministic [`ChannelSnapshot`].
    ///
    /// The channel itself is left fully drained (wire empty, captured flits
    /// in the FIFO), so a subsequent teardown discards nothing that the
    /// snapshot does not hold.
    ///
    /// # Errors
    ///
    /// Returns [`QuiesceError::MidSerialization`] if a flit is still being
    /// serialized onto the link (`now` is inside the serialization window
    /// opened by the last [`Channel::push`]). This is the same condition
    /// under which [`Channel::can_push`] withholds credit, so the drain
    /// path can never trip the push credit assertion: it refuses with a
    /// typed error before any state is touched.
    pub fn quiesce(&mut self, now: u64) -> Result<ChannelSnapshot, QuiesceError> {
        if now < self.next_inject_allowed {
            return Err(QuiesceError::MidSerialization {
                now,
                ready_at: self.next_inject_allowed,
            });
        }
        // Drain the wire: advance time to the last in-flight arrival.
        let drained_at = self
            .in_flight
            .back()
            .map_or(now, |&(arrival, _)| arrival.max(now));
        self.advance(drained_at);
        debug_assert!(self.in_flight.is_empty(), "drain must empty the wire");
        Ok(ChannelSnapshot {
            spec: self.spec,
            drain_cycles: drained_at - now,
            fifo_ages: self.fifo.iter().map(|&inj| drained_at - inj).collect(),
            delivered: self.delivered,
            latency_sum: self.latency_sum,
        })
    }

    /// Rebuilds a channel from a snapshot, rebasing flit timestamps onto
    /// the new time base `now`.
    ///
    /// Occupancy, delivery count, and accumulated latency are reproduced
    /// exactly. When `now` is at least the oldest flit age (always true
    /// when resuming on a fresh timeline whose `now` matches or exceeds the
    /// drain cycle), future pops also accrue latency exactly as they would
    /// have without the suspend; older `now` values clamp injected cycles
    /// at 0 and under-count the buffered flits' remaining latency.
    pub fn restore(snapshot: &ChannelSnapshot, now: u64) -> Self {
        Channel {
            spec: snapshot.spec,
            in_flight: VecDeque::new(),
            fifo: snapshot
                .fifo_ages
                .iter()
                .map(|&age| now.saturating_sub(age))
                .collect(),
            next_inject_allowed: now,
            delivered: snapshot.delivered,
            latency_sum: snapshot.latency_sum,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fast_spec() -> ChannelSpec {
        ChannelSpec {
            width_bits: 64,
            depth: 4,
            latency_cycles: 2,
            serialization_interval: 1,
            link: LinkClass::IntraDie,
        }
    }

    #[test]
    fn flits_arrive_after_latency() {
        let mut c = Channel::new(fast_spec());
        c.push(0);
        c.advance(1);
        assert!(!c.has_data());
        c.advance(2);
        assert!(c.has_data());
        assert!(c.pop(2));
        assert_eq!(c.delivered(), 1);
        assert_eq!(c.avg_latency_cycles(), 2.0);
    }

    #[test]
    fn credit_backpressure_limits_occupancy() {
        let mut c = Channel::new(fast_spec());
        for now in 0..4 {
            assert!(c.can_push(now));
            c.push(now);
        }
        // Depth 4 reached: no more credit until the consumer drains.
        assert!(!c.can_push(4));
        c.advance(10);
        assert!(!c.can_push(10));
        assert!(c.pop(10));
        assert!(c.can_push(10));
    }

    #[test]
    fn serialization_interval_throttles_injection() {
        let spec = ChannelSpec {
            serialization_interval: 3,
            depth: 100,
            ..fast_spec()
        };
        let mut c = Channel::new(spec);
        c.push(0);
        assert!(!c.can_push(1));
        assert!(!c.can_push(2));
        assert!(c.can_push(3));
    }

    #[test]
    #[should_panic(expected = "without credit")]
    fn push_without_credit_panics() {
        let mut c = Channel::new(ChannelSpec {
            depth: 1,
            ..fast_spec()
        });
        c.push(0);
        c.push(1);
    }

    #[test]
    fn link_class_parameters_are_ordered() {
        let links = LinkTechnology::paper_cluster();
        // Bandwidth: intra-die > inter-die > inter-FPGA.
        assert!(
            LinkClass::IntraDie.bits_per_cycle(&links) > LinkClass::InterDie.bits_per_cycle(&links)
        );
        assert!(
            LinkClass::InterDie.bits_per_cycle(&links)
                > LinkClass::InterFpga.bits_per_cycle(&links)
        );
        // Latency: the other way around.
        assert!(
            LinkClass::InterFpga.latency_cycles(&links)
                > LinkClass::InterDie.latency_cycles(&links)
        );
    }

    #[test]
    fn quiesce_drains_wire_into_snapshot() {
        let mut c = Channel::new(fast_spec());
        c.push(0);
        c.push(1);
        c.advance(2); // first flit lands in the FIFO
        assert!(c.pop(2));
        let snap = c.quiesce(2).expect("window closed at cycle 2");
        // The second flit (injected at 1, latency 2) needed one more cycle.
        assert_eq!(snap.drain_cycles, 1);
        assert_eq!(snap.occupancy(), 1);
        assert_eq!(snap.fifo_ages, vec![2]);
        assert_eq!(snap.delivered, 1);
        assert!(c.in_flight.is_empty(), "channel left drained");
    }

    #[test]
    fn quiesce_mid_serialization_window_is_rejected() {
        let spec = ChannelSpec {
            serialization_interval: 3,
            depth: 100,
            ..fast_spec()
        };
        let mut c = Channel::new(spec);
        c.push(0);
        assert_eq!(
            c.quiesce(1),
            Err(QuiesceError::MidSerialization {
                now: 1,
                ready_at: 3
            })
        );
        // The refusal is typed and non-destructive: retrying after the
        // window closes succeeds with all state intact.
        let snap = c.quiesce(3).expect("window closed at cycle 3");
        assert_eq!(snap.occupancy(), 1);
        assert!(!QuiesceError::MidSerialization {
            now: 1,
            ready_at: 3
        }
        .to_string()
        .is_empty());
    }

    #[test]
    fn restore_reproduces_occupancy_and_latency_accounting() {
        let mut c = Channel::new(fast_spec());
        c.push(0);
        c.push(1);
        c.advance(2);
        assert!(c.pop(2));
        let snap = c.quiesce(2).unwrap();

        // Resume on a fresh time base well past the oldest age.
        let mut r = Channel::restore(&snap, 100);
        assert_eq!(r.occupancy(), snap.occupancy());
        assert_eq!(r.delivered(), 1);
        assert!(r.can_push(100), "credits resume after restore");
        assert!(r.pop(100));
        // The buffered flit was 2 cycles old at drain; popping right at the
        // restore cycle adds exactly that age (both flits saw 2 cycles).
        assert_eq!(r.avg_latency_cycles(), 2.0);

        // A second quiesce of the restored channel reproduces the capsule.
        let again = r.quiesce(100).unwrap();
        assert_eq!(again.fifo_ages, Vec::<u64>::new());
        assert_eq!(again.delivered, 2);
    }

    #[test]
    fn for_link_covers_round_trip() {
        let spec = ChannelSpec::for_link(LinkClass::InterFpga, 512);
        assert!(spec.depth >= 2 * spec.latency_cycles as usize);
        assert!(spec.serialization_interval >= 1);
    }
}
