//! Context save/restore for virtualized FPGA tenants.
//!
//! ViTAL's latency-insensitive interface makes every channel boundary a
//! safe stop point, and its per-tenant DRAM virtualization makes the
//! memory state exportable — together they turn the space-sharing
//! allocator into a hypervisor. This module packages the two halves into a
//! [`TenantCheckpoint`] *capsule*:
//!
//! * **Channels** — `quiesce_all` runs the quiesce protocol over a
//!   tenant's channels atomically: it refuses (without touching anything)
//!   unless *every* channel is past its serialization window, then drains
//!   each wire and captures deterministic
//!   [`ChannelSnapshot`]s.
//! * **DRAM** — a [`MemoryImage`] exported by
//!   the peripheral layer carries the tenant's pages and quota.
//! * **Placement & bandwidth metadata** — enough for a controller to
//!   re-place the tenant on any compatible cluster and re-request its
//!   DRAM share.
//!
//! Capsules are content-digested ([`CheckpointDigest`], the same
//! `vital_fabric::Fnv1a` as the compiler's bitstream cache): two capsules with
//! identical state digest identically, so a save → restore → save round
//! trip can be verified by digest comparison alone.
//!
//! A [`TenantCheckpoint`] binds to one compiled image and is the fast path
//! between *identical* geometries. The versioned [`PortableCheckpoint`]
//! lifts the same state into a geometry-independent form keyed by netlist
//! digest — logical scan-chain footprints per virtual block, channel
//! contents without link classes — so a tenant captured on one device
//! model can restore onto a bitstream compiled for another (DESIGN.md §17).
//!
//! # Example
//!
//! ```
//! use vital_interface::{Channel, ChannelSpec, LinkClass};
//! use vital_runtime::checkpoint::ChannelCheckpoint;
//!
//! let mut channel = Channel::new(ChannelSpec::for_link(LinkClass::IntraDie, 64));
//! channel.push(0);
//! let snapshot = channel.quiesce(10).expect("window closed");
//! let saved = ChannelCheckpoint { from_block: 0, to_block: 1, snapshot };
//! assert_eq!(saved.snapshot.occupancy(), 1);
//! ```

use std::fmt;

use serde::{Deserialize, Serialize};
use vital_fabric::Fnv1a;
use vital_interface::{
    Channel, ChannelSnapshot, ChannelSpec, FormatVersion, LinkClass, QuiesceError,
};
use vital_periph::{MemoryImage, TenantId};

/// The content digest of one checkpoint capsule.
///
/// Covers every field that influences a restore: channel endpoints,
/// specs, occupancies and delivery statistics, the DRAM image's data
/// content, and the placement/bandwidth metadata. Two capsules with equal
/// digests restore to indistinguishable tenants.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct CheckpointDigest(u64);

impl fmt::Display for CheckpointDigest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

/// One quiesced channel of a capsule: the drained snapshot plus the
/// virtual-block endpoints it connects, so a restore on a *different*
/// placement can re-derive the link class the channel must ride on.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChannelCheckpoint {
    /// Producing virtual block.
    pub from_block: u32,
    /// Consuming virtual block.
    pub to_block: u32,
    /// The drained channel state.
    pub snapshot: ChannelSnapshot,
}

/// Placement and bandwidth metadata of a suspended tenant — what the
/// controller needs (beyond channels and DRAM) to re-admit it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlacementMeta {
    /// Registered application name (the bitstream-database key used to
    /// rebind on resume).
    pub app: String,
    /// Virtual blocks the application occupies.
    pub needed_blocks: usize,
    /// The tenant's interface clock at suspend time, in cycles. Restore
    /// continues the timeline from here, so latency accounting survives
    /// the suspend.
    pub clock: u64,
    /// Primary FPGA at suspend time (informational; a resume may pick a
    /// different one).
    pub primary_fpga: usize,
    /// Distinct FPGAs spanned at suspend time.
    pub fpgas_spanned: usize,
    /// Ring-hop cost of the placement at suspend time.
    pub hop_cost: usize,
    /// DRAM bandwidth share the tenant had requested, in Gb/s.
    pub requested_gbps: f64,
}

/// A complete, self-contained save of one tenant: everything needed to
/// tear the tenant down and later rebuild it — on the same cluster or a
/// compatible one — without the application noticing more than a pause.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TenantCheckpoint {
    /// The suspended tenant's identity (preserved across the round trip).
    pub tenant: TenantId,
    /// Placement and bandwidth metadata.
    pub placement: PlacementMeta,
    /// One entry per inter-block channel, in plan order.
    pub channels: Vec<ChannelCheckpoint>,
    /// The tenant's DRAM pages and quota.
    pub memory: MemoryImage,
}

impl TenantCheckpoint {
    /// The capsule's content digest.
    pub fn digest(&self) -> CheckpointDigest {
        let mut h = Fnv1a::default();
        h.u64(self.tenant.raw());
        h.str(&self.placement.app);
        h.usize(self.placement.needed_blocks);
        h.u64(self.placement.clock);
        h.usize(self.placement.primary_fpga);
        h.usize(self.placement.fpgas_spanned);
        h.usize(self.placement.hop_cost);
        h.u64(self.placement.requested_gbps.to_bits());
        h.usize(self.channels.len());
        for ch in &self.channels {
            h.u64(u64::from(ch.from_block));
            h.u64(u64::from(ch.to_block));
            // The spec is a small Copy struct; its Debug form is a stable
            // canonical encoding (the same trick the netlist digest uses).
            h.str(&format!("{:?}", ch.snapshot.spec));
            h.u64(ch.snapshot.drain_cycles);
            h.usize(ch.snapshot.fifo_ages.len());
            for &age in &ch.snapshot.fifo_ages {
                h.u64(age);
            }
            h.u64(ch.snapshot.delivered);
            h.u64(ch.snapshot.latency_sum);
        }
        h.u64(self.memory.content_digest());
        CheckpointDigest(h.finish())
    }

    /// Total flits captured across all channel snapshots.
    pub fn total_flits(&self) -> usize {
        self.channels.iter().map(|c| c.snapshot.occupancy()).sum()
    }

    /// Bytes of DRAM page data carried by the capsule.
    pub fn dram_bytes(&self) -> u64 {
        self.memory.payload_bytes()
    }
}

/// The scan-chain footprint of one virtual block, copied out of the
/// compiled image's state-capture interface at checkpoint time.
///
/// Two bitstreams compiled from the same netlist digest expose identical
/// chains — so a restore can verify, chain for chain, that the target
/// image is state-compatible with the capsule *before* shifting anything
/// in, whatever device geometry the target was compiled for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ScanState {
    /// The virtual block the chain runs through.
    pub virtual_block: u32,
    /// Flip-flop bits on the chain.
    pub ff_bits: u64,
    /// BRAM bits reachable through the chain.
    pub bram_bits: u64,
}

impl ScanState {
    /// Total state bits this chain carries.
    pub fn total_bits(&self) -> u64 {
        self.ff_bits + self.bram_bits
    }
}

/// One channel of a [`PortableCheckpoint`], stored **without** a link
/// class: which boundary (on-chip, inter-die, inter-FPGA) the channel
/// crosses is a property of the *placement*, not of the tenant's logical
/// state, so the portable capsule keeps only the flit width and the
/// drained contents. The restore side re-derives the
/// [`ChannelSpec`] for whatever placement it lands on.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PortableChannel {
    /// Producing virtual block.
    pub from_block: u32,
    /// Consuming virtual block.
    pub to_block: u32,
    /// Flit width in bits.
    pub width_bits: u32,
    /// Cycles the drain took at capture (extends the restore clock so
    /// latency accounting stays monotonic).
    pub drain_cycles: u64,
    /// Age (cycles in flight) of each drained flit, oldest first.
    pub fifo_ages: Vec<u64>,
    /// Flits delivered before the capture.
    pub delivered: u64,
    /// Accumulated delivery latency before the capture.
    pub latency_sum: u64,
}

impl PortableChannel {
    /// Strips a quiesced channel down to its geometry-independent state.
    pub(crate) fn from_checkpoint(cc: &ChannelCheckpoint) -> Self {
        PortableChannel {
            from_block: cc.from_block,
            to_block: cc.to_block,
            width_bits: cc.snapshot.spec.width_bits,
            drain_cycles: cc.snapshot.drain_cycles,
            fifo_ages: cc.snapshot.fifo_ages.clone(),
            delivered: cc.snapshot.delivered,
            latency_sum: cc.snapshot.latency_sum,
        }
    }

    /// Rebuilds a placement-ready [`ChannelCheckpoint`]. The spec carries a
    /// placeholder on-chip link class: the controller's resume path
    /// re-derives the real link from the new placement and re-specs the
    /// channel when the boundary differs, so the placeholder never
    /// survives into a live channel on the wrong link.
    pub(crate) fn to_checkpoint(&self) -> ChannelCheckpoint {
        ChannelCheckpoint {
            from_block: self.from_block,
            to_block: self.to_block,
            snapshot: ChannelSnapshot {
                spec: ChannelSpec::for_link(LinkClass::IntraDie, self.width_bits.max(1)),
                drain_cycles: self.drain_cycles,
                fifo_ages: self.fifo_ages.clone(),
                delivered: self.delivered,
                latency_sum: self.latency_sum,
            },
        }
    }
}

/// The versioned, geometry-independent checkpoint capsule (DESIGN.md §17).
///
/// Where a [`TenantCheckpoint`] binds to a concrete compiled image (its
/// channel specs encode which physical boundaries the placement crossed),
/// a `PortableCheckpoint` is keyed by the **netlist digest**: logical
/// register/BRAM footprints per virtual block (the scan-chain map),
/// channel contents without link classes, the DRAM image, and the
/// bandwidth/clock metadata. Any bitstream compiled from the same netlist
/// — on *any* device geometry — can receive it; `TenantCheckpoint` is the
/// thin identical-geometry fast path.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PortableCheckpoint {
    /// Capsule format version; checked before any field is interpreted.
    pub version: FormatVersion,
    /// The suspended tenant's identity.
    pub tenant: TenantId,
    /// Raw netlist digest of the compile input — the geometry-independent
    /// identity the restore side matches a bitstream against.
    pub(crate) app_digest: u64,
    /// Device-model name the tenant was running on at capture
    /// (informational; restore does not require it to match).
    pub source_geometry: String,
    /// Placement and bandwidth metadata at capture. The coordinate fields
    /// (`primary_fpga`, spans, hops) are informational; restore re-places
    /// freely.
    pub placement: PlacementMeta,
    /// Per-virtual-block scan-chain map, from the compiled image's
    /// state-capture interface.
    pub scan: Vec<ScanState>,
    /// Geometry-independent channel state, in plan order.
    pub channels: Vec<PortableChannel>,
    /// The tenant's DRAM pages and quota.
    pub memory: MemoryImage,
}

impl PortableCheckpoint {
    /// Lifts an identical-geometry capsule into the portable format.
    ///
    /// `app_digest` is the netlist digest of the bitstream the tenant was
    /// running; `scan` is that bitstream's scan-chain map.
    pub(crate) fn from_capsule(
        capsule: &TenantCheckpoint,
        app_digest: u64,
        source_geometry: impl Into<String>,
        scan: Vec<ScanState>,
    ) -> Self {
        PortableCheckpoint {
            version: FormatVersion::CURRENT,
            tenant: capsule.tenant,
            app_digest,
            source_geometry: source_geometry.into(),
            placement: capsule.placement.clone(),
            scan,
            channels: capsule
                .channels
                .iter()
                .map(PortableChannel::from_checkpoint)
                .collect(),
            memory: capsule.memory.clone(),
        }
    }

    /// Lowers the capsule back into the placement-ready form the resume
    /// path consumes. Channel specs are placeholders (see
    /// [`PortableChannel::to_checkpoint`]); the controller re-derives them
    /// for the placement it allocates.
    pub(crate) fn to_capsule(&self) -> TenantCheckpoint {
        TenantCheckpoint {
            tenant: self.tenant,
            placement: self.placement.clone(),
            channels: self
                .channels
                .iter()
                .map(PortableChannel::to_checkpoint)
                .collect(),
            memory: self.memory.clone(),
        }
    }

    /// Content digest over the capsule's **logical** state only: the app
    /// identity (name + netlist digest), clock, bandwidth request, scan
    /// map, channel contents and DRAM data. Deliberately excludes the
    /// source geometry and the placement coordinate fields, so the same
    /// logical state captured on two different device models digests
    /// identically.
    pub fn digest(&self) -> CheckpointDigest {
        let mut h = Fnv1a::default();
        h.u64(u64::from(self.version.raw()));
        h.u64(self.tenant.raw());
        h.str(&self.placement.app);
        h.u64(self.app_digest);
        h.usize(self.placement.needed_blocks);
        h.u64(self.placement.clock);
        h.u64(self.placement.requested_gbps.to_bits());
        h.usize(self.scan.len());
        for s in &self.scan {
            h.u64(u64::from(s.virtual_block));
            h.u64(s.ff_bits);
            h.u64(s.bram_bits);
        }
        h.usize(self.channels.len());
        for ch in &self.channels {
            h.u64(u64::from(ch.from_block));
            h.u64(u64::from(ch.to_block));
            h.u64(u64::from(ch.width_bits));
            h.u64(ch.drain_cycles);
            h.usize(ch.fifo_ages.len());
            for &age in &ch.fifo_ages {
                h.u64(age);
            }
            h.u64(ch.delivered);
            h.u64(ch.latency_sum);
        }
        h.u64(self.memory.content_digest());
        CheckpointDigest(h.finish())
    }

    /// Total state bits across the scan map.
    pub fn scan_bits(&self) -> u64 {
        self.scan.iter().map(ScanState::total_bits).sum()
    }

    /// Total flits captured across all channels.
    pub fn total_flits(&self) -> usize {
        self.channels.iter().map(|c| c.fifo_ages.len()).sum()
    }

    /// Bytes of DRAM page data carried by the capsule.
    pub fn dram_bytes(&self) -> u64 {
        self.memory.payload_bytes()
    }

    /// Serializes the capsule to JSON (the `vitalctl checkpoint export`
    /// file format).
    ///
    /// # Errors
    ///
    /// Returns a [`serde_json::Error`] if serialization fails.
    pub fn to_json(&self) -> Result<String, serde_json::Error> {
        serde_json::to_string(self)
    }

    /// Parses a capsule from [`PortableCheckpoint::to_json`] output,
    /// checking the format version before anything else.
    ///
    /// # Errors
    ///
    /// Returns a descriptive message on malformed JSON or a version this
    /// build does not read; callers wrap it in their own typed error.
    pub fn from_json(json: &str) -> Result<Self, String> {
        let capsule: PortableCheckpoint = serde_json::from_str(json)
            .map_err(|e| format!("portable checkpoint is corrupt: {e}"))?;
        capsule.version.check("portable checkpoint")?;
        Ok(capsule)
    }
}

/// Quiesces a tenant's channels **atomically**: either every channel is
/// past its serialization window and all of them drain into snapshots, or
/// none is touched and the first offender's [`QuiesceError`] is returned.
///
/// The two-phase check matters: draining is destructive (flits move from
/// the wire into the FIFO), so a partial quiesce would leave the tenant in
/// a state that is neither running nor suspended.
///
/// # Errors
///
/// Returns the [`QuiesceError`] of the first channel (in order) still
/// inside its serialization window.
pub(crate) fn quiesce_all(
    channels: &mut [Channel],
    now: u64,
) -> Result<Vec<ChannelSnapshot>, QuiesceError> {
    for ch in channels.iter() {
        let ready_at = ch.quiesce_ready_at();
        if now < ready_at {
            return Err(QuiesceError::MidSerialization { now, ready_at });
        }
    }
    Ok(channels
        .iter_mut()
        .map(|ch| {
            ch.quiesce(now)
                .expect("readiness verified for every channel")
        })
        .collect())
}

#[cfg(test)]
impl CheckpointDigest {
    /// Wraps a raw digest value (deserialized state, test fixtures).
    pub(crate) const fn from_raw(raw: u64) -> Self {
        CheckpointDigest(raw)
    }

    /// The raw 64-bit value.
    pub(crate) const fn as_u64(self) -> u64 {
        self.0
    }
}
