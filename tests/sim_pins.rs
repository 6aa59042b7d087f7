//! Pins the outputs of the two clocked simulators, `IsaSim` and
//! `NetworkSim`, as literals: a change to how either simulator does its
//! work may not move a single simulated number. The literals were taken
//! from the quantum-by-quantum and cycle-by-cycle implementations.

use vital::compiler::{Compiler, CompilerConfig};
use vital::fabric::{DeviceModel, Fnv1a};
use vital::interface::{
    network_from_plan, ActorKind, BlockModel, ChannelId, ChannelSpec, LinkClass, NetworkSim,
    SimStats,
};
use vital::isa::{IsaJob, IsaSim, IsaTemplate};
use vital::workloads::{benchmarks, bursty_tenant_arrivals, Size, TenantTrafficConfig};

fn fnv(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a::default();
    for &b in bytes {
        h.byte(b);
    }
    h.finish()
}

/// Every channel's delivered flits and mean latency, in channel order.
fn channel_counters(sim: &NetworkSim, channels: &[ChannelId]) -> Vec<(u64, f64)> {
    channels
        .iter()
        .map(|&c| {
            (
                sim.channel(c).delivered(),
                sim.channel(c).avg_latency_cycles(),
            )
        })
        .collect()
}

#[test]
fn isa_report_of_a_seeded_bursty_trace_is_pinned() {
    let traffic = TenantTrafficConfig {
        seed: 11,
        horizon_s: 60.0,
        ..TenantTrafficConfig::default()
    };
    let jobs: Vec<IsaJob> = bursty_tenant_arrivals(&traffic)
        .iter()
        .enumerate()
        .map(|(i, a)| IsaJob::new(i as u64, a.tenant, &a.app, a.work_ops, a.arrival_s))
        .collect();
    let mut report = IsaSim::new(IsaTemplate::paper_pool()).run(&jobs);
    // The one host measurement in the report.
    report.sched_wall_ns = 0;
    let json = serde_json::to_string(&report).expect("report serializes");
    assert_eq!(jobs.len(), 552);
    assert_eq!(report.completed(), 552);
    assert_eq!((report.reallocations, report.tiles_moved), (889, 13_060));
    assert_eq!(fnv(json.as_bytes()), 9_938_538_455_880_338_931);
}

#[test]
fn lenet_l_decoupled_network_is_pinned() {
    let spec = benchmarks()
        .iter()
        .find(|b| b.spec(Size::Large).name() == "lenet-L")
        .expect("lenet is in the suite")
        .spec(Size::Large);
    let compiled = Compiler::for_device(&DeviceModel::xcvu37p(), 60, CompilerConfig::default())
        .compile(&spec)
        .expect("lenet-L compiles");
    let (mut sim, channels) = network_from_plan(
        compiled.bitstream().channel_plan(),
        |from, to| {
            if from.abs_diff(to) <= 1 {
                LinkClass::IntraDie
            } else {
                LinkClass::InterDie
            }
        },
        u64::MAX,
        BlockModel::Decoupled,
    );
    let stats = sim.run(400_000);
    assert_eq!(
        stats,
        SimStats {
            cycles: 400_000,
            firings: 15_999_950,
            deadlocked: false,
        }
    );
    // Same-die neighbours see two cycles of latency, die crossings four.
    let expected: Vec<(u64, f64)> = [2, 4, 2, 2, 2, 4, 2, 2, 2, 4, 4, 2, 2, 4, 2, 2, 2, 2, 2, 2]
        .into_iter()
        .map(|latency: u32| (400_000 - u64::from(latency), f64::from(latency)))
        .collect();
    assert_eq!(channel_counters(&sim, &channels), expected);
}

#[test]
fn stalled_network_with_finite_sources_is_pinned() {
    let spec = |depth, latency_cycles, serialization_interval| ChannelSpec {
        width_bits: 64,
        depth,
        latency_cycles,
        serialization_interval,
        link: LinkClass::InterFpga,
    };
    let mut sim = NetworkSim::new();
    // A bounded source forks into a slow and a fast path that rejoin at a
    // stalling sink; an unbounded source feeds a second stalling sink, so
    // the network keeps moving after the bounded part has drained.
    let a1 = sim.add_channel(spec(4, 3, 2));
    let a2 = sim.add_channel(spec(8, 9, 1));
    let b1 = sim.add_channel(spec(3, 1, 1));
    let c = sim.add_channel(spec(6, 5, 3));
    let channels = [a1, a2, b1, c];
    sim.add_actor(ActorKind::Source { limit: 25_000 }, [], [a1, a2]);
    sim.add_actor(ActorKind::Relay, [a1], [b1]);
    sim.add_actor(
        ActorKind::Sink {
            stall_period: 6,
            stall_duty: 2,
        },
        [b1, a2],
        [],
    );
    sim.add_actor(ActorKind::Source { limit: u64::MAX }, [], [c]);
    sim.add_actor(
        ActorKind::Sink {
            stall_period: 4,
            stall_duty: 3,
        },
        [c],
        [],
    );
    let stats = sim.run(400_000);
    assert_eq!(
        stats,
        SimStats {
            cycles: 400_000,
            firings: 275_003,
            deadlocked: false,
        }
    );
    assert_eq!(
        channel_counters(&sim, &channels),
        [
            (25_000, 4.33316),
            (25_000, 9.33332),
            (25_000, 5.00016),
            (99_999, 22.998639986399866),
        ]
    );
}
