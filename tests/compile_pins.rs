//! Pins the compiled image of suite designs as literals: the FNV-1a-64 of
//! each `AppBitstream`'s JSON. A change to how the compiler does its work
//! (the local P&R annealer above all) may not move a single placed site,
//! channel lane or clock. `compile_determinism` checks that every worker
//! count agrees; this file checks that they agree with the past.
//!
//! The designs span one to twelve virtual blocks, all with BRAM and DSP
//! primitives. Debug and release builds produce the same bytes.

use vital::compiler::{Compiler, CompilerConfig};
use vital::fabric::{DeviceModel, Fnv1a};
use vital::workloads::{benchmarks, Size};

/// Compiles the suite design `name` at `size` on the paper's device and
/// returns its block count and the FNV-1a-64 of its serialized image.
fn image_digest(name: &str, size: Size) -> (usize, u64) {
    let spec = benchmarks()
        .into_iter()
        .find(|b| b.name() == name)
        .expect("design is in the suite")
        .spec(size);
    let compiled = Compiler::for_device(&DeviceModel::xcvu37p(), 60, CompilerConfig::default())
        .compile(&spec)
        .expect("suite design compiles");
    let json = serde_json::to_string(compiled.bitstream()).expect("image serializes");
    let mut h = Fnv1a::default();
    for &b in json.as_bytes() {
        h.byte(b);
    }
    (compiled.bitstream().block_count(), h.finish())
}

#[test]
fn lstm_s_one_block_is_pinned() {
    assert_eq!(
        image_digest("lstm", Size::Small),
        (1, 0x7f4a_10ff_9792_2b2d)
    );
}

#[test]
fn svhn_s_two_blocks_is_pinned() {
    assert_eq!(
        image_digest("svhn", Size::Small),
        (2, 0xd123_6a2f_f178_dcc7)
    );
}

#[test]
fn lenet_m_four_blocks_is_pinned() {
    assert_eq!(
        image_digest("lenet", Size::Medium),
        (4, 0x43a5_9d34_acb0_83be)
    );
}

#[test]
fn alexnet_s_four_blocks_is_pinned() {
    assert_eq!(
        image_digest("alexnet", Size::Small),
        (4, 0x8b88_216d_ede5_294e)
    );
}

#[test]
fn cifar10_l_nine_blocks_is_pinned() {
    assert_eq!(
        image_digest("cifar10", Size::Large),
        (9, 0x6412_a199_a40b_1211)
    );
}

#[test]
fn alexnet_l_twelve_blocks_is_pinned() {
    assert_eq!(
        image_digest("alexnet", Size::Large),
        (12, 0x788c_a2ee_00b4_d764)
    );
}
