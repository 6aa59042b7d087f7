//! The binary wire codec writes a frame without allocating and reads one
//! with no more allocations than the decoded value owns: encoding into a
//! buffer with room for the frame allocates nothing, and decoding
//! allocates at most what cloning the value does, plus one. Its own test
//! binary, so that its counting allocator sees only this file's work; the
//! count is per thread, so that tests running in parallel do not see each
//! other's allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use vital::runtime::{ControlRequest, ControlResponse, FpgaStatus, StatusSummary};
use vital::service::{
    encode_frame, Envelope, FrameDecoder, RequestEnvelope, ResponseEnvelope, WireFormat,
    MAX_FRAME_BYTES,
};

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting allocations and reallocations.
struct Counting;

// SAFETY: every method passes its arguments to `System` unchanged and
// returns what `System` returns, so `GlobalAlloc`'s contract holds as it
// does for `System`. The counter is a const-initialized `Cell` with no
// destructor, so touching it never allocates or re-enters the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Runs `f` and returns its result and the allocations it made.
fn allocations<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (out, ALLOCATIONS.with(Cell::get) - before)
}

/// The `Status` of a 64-FPGA cluster with 15 blocks per device, half of
/// them held by tenants (the benchmark's daemon topology).
fn status_64() -> ControlResponse {
    let fpgas = (0..64)
        .map(|f| FpgaStatus {
            fpga: f,
            health: "Online".to_string(),
            blocks: (0..15)
                .map(|b| if b < 8 { 1 + (f * 4 + b / 2) as u64 } else { 0 })
                .collect(),
            free: 7,
        })
        .collect();
    ControlResponse::Status(StatusSummary {
        fpgas,
        total_free: 64 * 7,
        live_tenants: (1..=256).collect(),
        suspended_tenants: vec![300, 301],
        fpga_failures: 1,
        fpga_recoveries: 1,
        evacuations: 0,
        tenants_migrated: 3,
        tenants_torn_down: 0,
        isa_tenants: vec![400],
        isa_tiles_total: 60,
        isa_tiles_free: 48,
    })
}

/// Encodes `env` into a buffer that already has room for its frame, then
/// decodes it from a [`FrameDecoder`] holding the frame; returns the
/// allocations of each step and of cloning `env`.
fn counts<T>(env: &T) -> (u64, u64, u64)
where
    T: Envelope + serde::Serialize + Clone + PartialEq + std::fmt::Debug,
{
    let mut sized = Vec::new();
    encode_frame(env, WireFormat::Binary, MAX_FRAME_BYTES, &mut sized).unwrap();
    let mut frame = Vec::with_capacity(sized.len());
    let ((), encode) = allocations(|| {
        encode_frame(env, WireFormat::Binary, MAX_FRAME_BYTES, &mut frame).unwrap();
    });
    assert_eq!(frame, sized);

    let mut decoder = FrameDecoder::new(MAX_FRAME_BYTES);
    decoder.extend(&frame);
    let (decoded, decode) = allocations(|| decoder.next_frame::<T>().unwrap());
    let (back, format) = decoded.expect("one whole frame");
    assert_eq!((&back, format), (env, WireFormat::Binary));

    let (_copy, clone) = allocations(|| env.clone());
    (encode, decode, clone)
}

#[test]
fn a_64_fpga_status_reply_encodes_without_allocating_and_decodes_like_a_clone() {
    let env = ResponseEnvelope {
        id: 7,
        resp: status_64(),
    };
    let (encode, decode, clone) = counts(&env);
    assert_eq!(encode, 0, "encoding into a pre-sized buffer");
    assert!(
        decode <= clone + 1,
        "decoding made {decode} allocations; cloning makes {clone}"
    );
}

#[test]
fn a_deploy_request_encodes_without_allocating_and_decodes_like_a_clone() {
    let env = RequestEnvelope {
        id: 7,
        req: ControlRequest::deploy("lenet-S"),
    };
    let (encode, decode, clone) = counts(&env);
    assert_eq!(encode, 0, "encoding into a pre-sized buffer");
    assert!(
        decode <= clone + 1,
        "decoding made {decode} allocations; cloning makes {clone}"
    );
}
