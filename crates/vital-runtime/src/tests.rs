//! Unit tests of the checkpoint capsule format ([`crate::checkpoint`]).

use crate::checkpoint::*;
use vital_interface::{Channel, ChannelSpec, FormatVersion, LinkClass, QuiesceError};
use vital_periph::{MemoryImage, TenantId};

fn spec(ser: u32) -> ChannelSpec {
    ChannelSpec {
        width_bits: 64,
        depth: 16,
        latency_cycles: 2,
        serialization_interval: ser,
        link: LinkClass::IntraDie,
    }
}

fn capsule() -> TenantCheckpoint {
    let mut ch = Channel::new(spec(1));
    ch.push(0);
    ch.push(1);
    let snapshot = ch.quiesce(2).unwrap();
    TenantCheckpoint {
        tenant: TenantId::new(7),
        placement: PlacementMeta {
            app: "dnn".into(),
            needed_blocks: 3,
            clock: 2,
            primary_fpga: 1,
            fpgas_spanned: 2,
            hop_cost: 1,
            requested_gbps: 38.4,
        },
        channels: vec![ChannelCheckpoint {
            from_block: 0,
            to_block: 1,
            snapshot,
        }],
        memory: MemoryImage {
            page_size: 4096,
            quota_bytes: 8192,
            pages: vec![],
            reads: 0,
            writes: 0,
            faults: 0,
        },
    }
}

#[test]
fn quiesce_all_is_atomic() {
    let mut channels = vec![Channel::new(spec(1)), Channel::new(spec(4))];
    channels[0].push(0);
    channels[1].push(0); // window open until cycle 4
    let err = quiesce_all(&mut channels, 2).unwrap_err();
    assert_eq!(
        err,
        QuiesceError::MidSerialization {
            now: 2,
            ready_at: 4
        }
    );
    // Nothing drained: channel 0's flit is still on the wire.
    assert_eq!(channels[0].in_flight(), 1);
    let snaps = quiesce_all(&mut channels, 4).unwrap();
    assert_eq!(snaps.len(), 2);
    assert!(snaps.iter().all(|s| s.occupancy() == 1));
}

#[test]
fn digest_is_stable_and_content_sensitive() {
    let a = capsule();
    let b = capsule();
    assert_eq!(a.digest(), b.digest());
    assert_eq!(a.digest().to_string().len(), 16);

    let mut renamed = capsule();
    renamed.placement.app = "other".into();
    assert_ne!(a.digest(), renamed.digest());

    let mut heavier = capsule();
    heavier.channels[0].snapshot.fifo_ages.push(9);
    assert_ne!(a.digest(), heavier.digest());

    let mut dram = capsule();
    dram.memory.pages.push(vital_periph::PageImage {
        vpn: 0,
        bytes: vec![1; 4096],
    });
    assert_ne!(a.digest(), dram.digest());

    // Access counters are not content: the digest ignores them.
    let mut counted = capsule();
    counted.memory.reads += 5;
    assert_eq!(a.digest(), counted.digest());
}

#[test]
fn capsule_serde_roundtrip_preserves_digest() {
    let a = capsule();
    let json = serde_json::to_string(&a).unwrap();
    let back: TenantCheckpoint = serde_json::from_str(&json).unwrap();
    assert_eq!(back, a);
    assert_eq!(back.digest(), a.digest());
    assert_eq!(back.total_flits(), 2);
    assert_eq!(back.dram_bytes(), 0);
}

#[test]
fn digest_raw_roundtrip() {
    let d = CheckpointDigest::from_raw(0xabcd);
    assert_eq!(d.as_u64(), 0xabcd);
    assert_eq!(d.to_string(), "000000000000abcd");
}

/// A capsule whose channel specs are the canonical `for_link` shapes
/// the controller's deploy path builds — what a real suspend yields.
fn canonical_capsule() -> TenantCheckpoint {
    let mut ch = Channel::new(ChannelSpec::for_link(LinkClass::IntraDie, 64));
    ch.push(0);
    ch.push(1);
    let snapshot = ch.quiesce(3).unwrap();
    TenantCheckpoint {
        tenant: TenantId::new(7),
        placement: PlacementMeta {
            app: "dnn".into(),
            needed_blocks: 3,
            clock: 3,
            primary_fpga: 1,
            fpgas_spanned: 2,
            hop_cost: 1,
            requested_gbps: 38.4,
        },
        channels: vec![ChannelCheckpoint {
            from_block: 0,
            to_block: 1,
            snapshot,
        }],
        memory: MemoryImage {
            page_size: 4096,
            quota_bytes: 8192,
            pages: vec![vital_periph::PageImage {
                vpn: 2,
                bytes: vec![7; 4096],
            }],
            reads: 1,
            writes: 1,
            faults: 0,
        },
    }
}

fn scan_map() -> Vec<ScanState> {
    vec![
        ScanState {
            virtual_block: 0,
            ff_bits: 200,
            bram_bits: 36 * 1024,
        },
        ScanState {
            virtual_block: 1,
            ff_bits: 120,
            bram_bits: 0,
        },
    ]
}

#[test]
fn portable_round_trip_is_bit_identical_on_same_geometry() {
    let original = canonical_capsule();
    let portable = PortableCheckpoint::from_capsule(&original, 0xfeed, "XCVU37P", scan_map());
    assert_eq!(portable.version, FormatVersion::CURRENT);
    assert_eq!(portable.total_flits(), original.total_flits());
    assert_eq!(portable.dram_bytes(), original.dram_bytes());
    assert_eq!(portable.scan_bits(), 200 + 36 * 1024 + 120);
    // Lowering back yields the identical capsule (the channel was on
    // the canonical on-chip spec, so the placeholder reproduces it).
    let lowered = portable.to_capsule();
    assert_eq!(lowered, original);
    assert_eq!(lowered.digest(), original.digest());
}

#[test]
fn portable_digest_ignores_geometry_and_coordinates() {
    let capsule = canonical_capsule();
    let a = PortableCheckpoint::from_capsule(&capsule, 0xfeed, "XCVU37P", scan_map());
    let mut b = PortableCheckpoint::from_capsule(&capsule, 0xfeed, "XCVU37P-ALT", scan_map());
    b.placement.primary_fpga = 3;
    b.placement.fpgas_spanned = 1;
    b.placement.hop_cost = 0;
    assert_eq!(a.digest(), b.digest(), "logical state digests match");
    // ...but logical state changes are visible.
    let mut heavier = a.clone();
    heavier.channels[0].fifo_ages.push(9);
    assert_ne!(a.digest(), heavier.digest());
    let mut rescanned = a.clone();
    rescanned.scan[0].ff_bits += 1;
    assert_ne!(a.digest(), rescanned.digest());
    let mut other_app = a.clone();
    other_app.app_digest ^= 1;
    assert_ne!(a.digest(), other_app.digest());
}

#[test]
fn portable_json_round_trip_checks_version() {
    let capsule = canonical_capsule();
    let portable = PortableCheckpoint::from_capsule(&capsule, 0xfeed, "XCVU37P", scan_map());
    let json = portable.to_json().unwrap();
    let back = PortableCheckpoint::from_json(&json).unwrap();
    assert_eq!(back, portable);
    assert_eq!(back.digest(), portable.digest());

    // A capsule from a future format version is refused by name.
    let mut future = portable.clone();
    future.version = FormatVersion(99);
    let err = PortableCheckpoint::from_json(&future.to_json().unwrap()).unwrap_err();
    assert!(err.contains("99"), "{err}");
    assert!(err.contains("portable checkpoint"), "{err}");

    // Junk is a corruption error, not a panic.
    let err = PortableCheckpoint::from_json("not json").unwrap_err();
    assert!(err.contains("corrupt"), "{err}");
}
