//! A `NetworkSim` step and an `IsaSim` quantum allocate nothing: the
//! allocation count of a run does not grow with the cycles or quanta it
//! simulates. Its own test binary, so that its counting allocator sees
//! only this file's work; the count is per thread, so that tests running
//! in parallel do not see each other's allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use vital::interface::{ActorKind, ChannelSpec, LinkClass, NetworkSim};
use vital::isa::{IsaJob, IsaSim, IsaTemplate};
use vital::workloads::{bursty_tenant_arrivals, TenantTrafficConfig};

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

fn channel(depth: usize, latency_cycles: u32, serialization_interval: u32) -> ChannelSpec {
    ChannelSpec {
        width_bits: 64,
        depth,
        latency_cycles,
        serialization_interval,
        link: LinkClass::InterFpga,
    }
}

/// Source → relay → two stalling sinks. With stall periods 4,099 and 2
/// the period exceeds the fast-forward bound, so `run` steps every cycle.
fn stalled_network(stall_period: u32) -> NetworkSim {
    let mut sim = NetworkSim::new();
    let a = sim.add_channel(channel(8, 3, 1));
    let b = sim.add_channel(channel(4, 2, 2));
    let c = sim.add_channel(channel(6, 1, 1));
    sim.add_actor(ActorKind::Source { limit: u64::MAX }, [], [a, c]);
    sim.add_actor(ActorKind::Relay, [a], [b]);
    for (input, stall_period) in [(b, stall_period), (c, 2)] {
        sim.add_actor(
            ActorKind::Sink {
                stall_period,
                stall_duty: 1,
            },
            [input],
            [],
        );
    }
    sim
}

#[test]
fn a_network_step_allocates_nothing() {
    // 6 fast-forwards; 4,099 steps every cycle.
    for stall_period in [6, 4_099] {
        let mut sim = stalled_network(stall_period);
        sim.run(10_000); // warm the reused buffers
        let (_, short) = allocations(|| sim.run(1_000));
        let (stats, long) = allocations(|| sim.run(1_000_000));
        assert!(!stats.deadlocked);
        assert_eq!(
            (short, long),
            (0, 0),
            "stall period {stall_period}: run(1_000) and run(1_000_000) allocations"
        );
    }
}

#[test]
fn an_isa_quantum_allocates_nothing() {
    let jobs: Vec<IsaJob> = bursty_tenant_arrivals(&TenantTrafficConfig::default())
        .iter()
        .enumerate()
        .map(|(i, a)| IsaJob::new(i as u64, a.tenant, &a.app, a.work_ops, a.arrival_s))
        .collect();
    let longer: Vec<IsaJob> = jobs
        .iter()
        .map(|j| IsaJob {
            work_ops: j.work_ops * 10.0,
            ..j.clone()
        })
        .collect();
    let sim = IsaSim::new(IsaTemplate::paper_pool());
    let (report, base) = allocations(|| sim.run(&jobs));
    let (scaled, more) = allocations(|| sim.run(&longer));
    assert_eq!(report.completed(), jobs.len());
    assert_eq!(scaled.completed(), jobs.len());
    // Ten times the work is many times the quanta.
    assert!(
        scaled.makespan_s > 3.0 * report.makespan_s,
        "{} s vs {} s",
        scaled.makespan_s,
        report.makespan_s
    );
    assert_eq!(base, more, "allocations of the run and of the ×10 run");
}
