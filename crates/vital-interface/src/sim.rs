//! Cycle-level simulation of a network of clock-gated blocks connected by
//! latency-insensitive channels.
//!
//! Each actor models the user logic of one virtual block: it *fires* (one
//! cycle of useful work) only when every input channel has data and every
//! output channel has credit — exactly the clock-enable condition the
//! interface's control logic generates (paper §3.2). When the condition
//! fails the block is clock-gated, which both handles back-pressure and
//! guarantees the upstream producer eventually stalls too (§3.5.1).

use crate::{Channel, ChannelSpec, LinkClass, CLOCK_MHZ};

/// Index of an actor in a [`NetworkSim`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ActorId(u32);

/// Index of a channel in a [`NetworkSim`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ChannelId(u32);

impl ChannelId {
    /// The raw index.
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

/// The behaviour of one block in the network.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ActorKind {
    /// Produces one flit per firing on every output, up to `limit` flits
    /// (`u64::MAX` for unbounded).
    Source {
        /// Total flits to emit per output.
        limit: u64,
    },
    /// Consumes one flit per firing from every input. When
    /// `stall_period > 0`, the sink refuses to fire while
    /// `cycle % stall_period < stall_duty` — the "random traffic" stalls of
    /// the paper's first benchmark are generated this way.
    Sink {
        /// Stall pattern period in cycles (0 = never stall).
        stall_period: u32,
        /// Stalled cycles per period.
        stall_duty: u32,
    },
    /// Consumes one flit from every input and emits one on every output per
    /// firing (a pipeline stage of user logic).
    Relay,
}

#[derive(Debug, Clone)]
struct Actor {
    kind: ActorKind,
    inputs: Vec<ChannelId>,
    outputs: Vec<ChannelId>,
    firings: u64,
}

/// Aggregate statistics of a simulation run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimStats {
    /// Cycles simulated.
    pub cycles: u64,
    /// Total actor firings.
    pub firings: u64,
    /// `true` if the run ended with flits stuck in channels while no actor
    /// could fire — a deadlock (must never happen; §3.5.1).
    pub deadlocked: bool,
}

/// A network of actors and latency-insensitive channels.
#[derive(Debug, Clone, Default)]
pub struct NetworkSim {
    actors: Vec<Actor>,
    channels: Vec<Channel>,
    cycle: u64,
}

impl NetworkSim {
    /// Creates an empty network.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a channel and returns its id.
    pub fn add_channel(&mut self, spec: ChannelSpec) -> ChannelId {
        let id = ChannelId(self.channels.len() as u32);
        self.channels.push(Channel::new(spec));
        id
    }

    /// Adds an actor wired to the given channels and returns its id.
    ///
    /// # Panics
    ///
    /// Panics if any channel id is out of range.
    pub fn add_actor(
        &mut self,
        kind: ActorKind,
        inputs: impl IntoIterator<Item = ChannelId>,
        outputs: impl IntoIterator<Item = ChannelId>,
    ) -> ActorId {
        let inputs: Vec<ChannelId> = inputs.into_iter().collect();
        let outputs: Vec<ChannelId> = outputs.into_iter().collect();
        for c in inputs.iter().chain(&outputs) {
            assert!(
                c.index() < self.channels.len(),
                "channel {c:?} out of range"
            );
        }
        let id = ActorId(self.actors.len() as u32);
        self.actors.push(Actor {
            kind,
            inputs,
            outputs,
            firings: 0,
        });
        id
    }

    /// Read access to a channel.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn channel(&self, id: ChannelId) -> &Channel {
        &self.channels[id.index()]
    }

    fn can_fire(&self, actor: &Actor) -> bool {
        let now = self.cycle;
        match actor.kind {
            ActorKind::Source { limit } => {
                actor.firings < limit
                    && actor
                        .outputs
                        .iter()
                        .all(|&c| self.channels[c.index()].can_push(now))
            }
            ActorKind::Sink {
                stall_period,
                stall_duty,
            } => {
                let stalled =
                    stall_period > 0 && (now % u64::from(stall_period)) < u64::from(stall_duty);
                !stalled
                    && !actor.inputs.is_empty()
                    && actor
                        .inputs
                        .iter()
                        .all(|&c| self.channels[c.index()].has_data())
            }
            ActorKind::Relay => {
                !actor.inputs.is_empty()
                    && actor
                        .inputs
                        .iter()
                        .all(|&c| self.channels[c.index()].has_data())
                    && actor
                        .outputs
                        .iter()
                        .all(|&c| self.channels[c.index()].can_push(now))
            }
        }
    }

    /// Advances the network by one cycle; returns the number of actors that
    /// fired.
    pub fn step(&mut self) -> usize {
        let now = self.cycle;
        for c in &mut self.channels {
            c.advance(now);
        }
        // Evaluate all clock-enables on the pre-step state, then apply.
        let firing: Vec<usize> = (0..self.actors.len())
            .filter(|&i| self.can_fire(&self.actors[i]))
            .collect();
        for &i in &firing {
            // Split borrows: take the wiring lists out momentarily.
            let inputs = std::mem::take(&mut self.actors[i].inputs);
            let outputs = std::mem::take(&mut self.actors[i].outputs);
            for &c in &inputs {
                let popped = self.channels[c.index()].pop(now);
                debug_assert!(popped, "firing condition guaranteed data");
            }
            for &c in &outputs {
                self.channels[c.index()].push(now);
            }
            self.actors[i].inputs = inputs;
            self.actors[i].outputs = outputs;
            self.actors[i].firings += 1;
        }
        self.cycle += 1;
        firing.len()
    }

    /// Runs for exactly `cycles` cycles.
    pub fn run(&mut self, cycles: u64) -> SimStats {
        let mut firings = 0u64;
        for _ in 0..cycles {
            firings += self.step() as u64;
        }
        SimStats {
            cycles,
            firings,
            deadlocked: self.is_deadlocked(),
        }
    }

    /// Runs until the network is quiescent (no firings and no in-flight
    /// flits) or `max_cycles` elapse.
    pub fn run_until_quiescent(&mut self, max_cycles: u64) -> SimStats {
        let mut firings = 0u64;
        let mut ran = 0u64;
        let mut idle_streak = 0u32;
        while ran < max_cycles {
            let fired = self.step();
            firings += fired as u64;
            ran += 1;
            if fired == 0 && self.channels.iter().all(|c| c.in_flight() == 0) {
                idle_streak += 1;
                // Give stalled sinks a chance to resume before declaring the
                // network quiescent.
                if idle_streak > self.max_stall_period() {
                    break;
                }
            } else {
                idle_streak = 0;
            }
        }
        SimStats {
            cycles: ran,
            firings,
            deadlocked: self.is_deadlocked(),
        }
    }

    fn max_stall_period(&self) -> u32 {
        self.actors
            .iter()
            .map(|a| match a.kind {
                ActorKind::Sink { stall_period, .. } => stall_period,
                _ => 0,
            })
            .max()
            .unwrap_or(0)
            + 1
    }

    /// `true` if data remains in channels but no actor can ever fire again
    /// (checked conservatively over one full stall period).
    pub(crate) fn is_deadlocked(&self) -> bool {
        let data_left = self.channels.iter().any(|c| !c.is_empty());
        if !data_left {
            return false;
        }
        // If any actor could fire within the next stall period, we are
        // merely stalled, not deadlocked. Wire latency also counts as
        // pending progress.
        if self.channels.iter().any(|c| c.in_flight() > 0) {
            return false;
        }
        let horizon = u64::from(self.max_stall_period());
        let mut probe = self.clone();
        for _ in 0..=horizon {
            if probe.actors.iter().any(|a| probe.can_fire(a)) {
                return false;
            }
            probe.cycle += 1;
        }
        true
    }
}

/// How [`network_from_plan`] models the user logic inside each block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockModel {
    /// Each block is one atomic pipeline stage (consume all inputs, produce
    /// all outputs per firing). Only sound for *acyclic* block graphs
    /// (check [`crate::ChannelPlan::is_acyclic`]); a cyclic plan under this
    /// model deadlocks by construction, not because the interface failed.
    Pipeline,
    /// Each channel endpoint progresses independently — the paper's
    /// fine-grained clock gating (§3.5.1), where independent dataflow paths
    /// inside a block never block each other. Sound for any topology,
    /// including the cyclic block graphs real partitions produce.
    Decoupled,
}

/// Builds a cycle-level network from a compiled channel plan: every planned
/// channel becomes a latency-insensitive channel over the link class
/// `link_of(from, to)` returns, and each virtual block's user logic is
/// modelled per `model`. This lets the functional correctness of a *real
/// compiled interface plan* be checked in simulation — the paper's claim
/// that the latency-insensitive interface guarantees correctness for any
/// virtual-to-physical mapping.
///
/// `flits` bounds how many flits each source emits. Returns the simulator
/// plus the created channels in plan order; run it with
/// [`NetworkSim::run_until_quiescent`] and inspect per-channel delivery.
///
/// Blocks with no channels at all (single-block applications) yield an
/// empty network.
pub fn network_from_plan(
    plan: &crate::ChannelPlan,
    link_of: impl Fn(u32, u32) -> LinkClass,
    flits: u64,
    model: BlockModel,
) -> (NetworkSim, Vec<ChannelId>) {
    let mut sim = NetworkSim::new();
    let mut channels = Vec::with_capacity(plan.channel_count());
    for c in plan.channels() {
        let link = link_of(c.from_block, c.to_block);
        channels.push(sim.add_channel(ChannelSpec::for_link(link, c.width_bits.max(1))));
    }
    if model == BlockModel::Decoupled {
        // Fine-grained clock gating: every channel endpoint is its own
        // producer/consumer, so no path can block another.
        for &ch in &channels {
            sim.add_actor(ActorKind::Source { limit: flits }, [], [ch]);
            sim.add_actor(
                ActorKind::Sink {
                    stall_period: 0,
                    stall_duty: 0,
                },
                [ch],
                [],
            );
        }
        return (sim, channels);
    }
    // Pipeline model: group per block.
    let max_block = plan
        .channels()
        .iter()
        .map(|c| c.from_block.max(c.to_block))
        .max();
    let Some(max_block) = max_block else {
        return (sim, channels);
    };
    for b in 0..=max_block {
        let inputs: Vec<ChannelId> = plan
            .channels()
            .iter()
            .enumerate()
            .filter(|(_, c)| c.to_block == b)
            .map(|(i, _)| channels[i])
            .collect();
        let outputs: Vec<ChannelId> = plan
            .channels()
            .iter()
            .enumerate()
            .filter(|(_, c)| c.from_block == b)
            .map(|(i, _)| channels[i])
            .collect();
        match (inputs.is_empty(), outputs.is_empty()) {
            (true, true) => {} // isolated block: no interface traffic
            (true, false) => {
                sim.add_actor(ActorKind::Source { limit: flits }, [], outputs);
            }
            (false, true) => {
                sim.add_actor(
                    ActorKind::Sink {
                        stall_period: 0,
                        stall_duty: 0,
                    },
                    inputs,
                    [],
                );
            }
            (false, false) => {
                sim.add_actor(ActorKind::Relay, inputs, outputs);
            }
        }
    }
    (sim, channels)
}

/// Measurement result of [`measure_channel`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChannelMeasurement {
    /// Flits delivered to the sink.
    pub delivered: u64,
    /// Achieved bandwidth in Gb/s (at the modelled clock).
    pub achieved_gbps: f64,
    /// Mean end-to-end latency in cycles.
    pub avg_latency_cycles: f64,
    /// Mean end-to-end latency in nanoseconds.
    pub avg_latency_ns: f64,
    /// The link class that was measured.
    pub link: LinkClass,
}

/// The paper's first benchmark (§5.1, Table 4): saturating traffic over one
/// channel, measuring the maximum bandwidth and the end-to-end latency of
/// the latency-insensitive interface.
pub fn measure_channel(spec: &ChannelSpec, cycles: u64) -> ChannelMeasurement {
    let mut sim = NetworkSim::new();
    let ch = sim.add_channel(*spec);
    sim.add_actor(ActorKind::Source { limit: u64::MAX }, [], [ch]);
    sim.add_actor(
        ActorKind::Sink {
            stall_period: 0,
            stall_duty: 0,
        },
        [ch],
        [],
    );
    sim.run(cycles);
    let c = sim.channel(ch);
    let delivered = c.delivered();
    let bits = delivered * u64::from(spec.width_bits);
    let seconds = cycles as f64 / (CLOCK_MHZ * 1.0e6);
    ChannelMeasurement {
        delivered,
        achieved_gbps: bits as f64 / seconds / 1.0e9,
        avg_latency_cycles: c.avg_latency_cycles(),
        avg_latency_ns: c.avg_latency_cycles() / CLOCK_MHZ * 1.0e3,
        link: spec.link,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The clock-enable duty cycle of an actor: firings per simulated cycle.
    fn duty_cycle(sim: &NetworkSim, id: ActorId) -> f64 {
        sim.actors[id.0 as usize].firings as f64 / sim.cycle as f64
    }

    fn spec(depth: usize, latency: u32) -> ChannelSpec {
        ChannelSpec {
            width_bits: 64,
            depth,
            latency_cycles: latency,
            serialization_interval: 1,
            link: LinkClass::IntraDie,
        }
    }

    #[test]
    fn pipeline_reaches_full_throughput() {
        let mut sim = NetworkSim::new();
        let a = sim.add_channel(spec(8, 2));
        let b = sim.add_channel(spec(8, 2));
        sim.add_actor(ActorKind::Source { limit: u64::MAX }, [], [a]);
        let relay = sim.add_actor(ActorKind::Relay, [a], [b]);
        sim.add_actor(
            ActorKind::Sink {
                stall_period: 0,
                stall_duty: 0,
            },
            [b],
            [],
        );
        let stats = sim.run(1000);
        assert!(!stats.deadlocked);
        // After warm-up the relay fires nearly every cycle.
        assert!(
            duty_cycle(&sim, relay) > 0.95,
            "duty {}",
            duty_cycle(&sim, relay)
        );
    }

    #[test]
    fn backpressure_gates_the_producer() {
        let mut sim = NetworkSim::new();
        let a = sim.add_channel(spec(4, 1));
        let src = sim.add_actor(ActorKind::Source { limit: u64::MAX }, [], [a]);
        // Sink stalled half the time: source duty must drop to ~0.5.
        sim.add_actor(
            ActorKind::Sink {
                stall_period: 2,
                stall_duty: 1,
            },
            [a],
            [],
        );
        sim.run(2000);
        let duty = duty_cycle(&sim, src);
        assert!((0.4..=0.6).contains(&duty), "source duty {duty}");
    }

    #[test]
    fn bounded_source_drains_and_quiesces() {
        let mut sim = NetworkSim::new();
        let a = sim.add_channel(spec(8, 3));
        sim.add_actor(ActorKind::Source { limit: 100 }, [], [a]);
        sim.add_actor(
            ActorKind::Sink {
                stall_period: 7,
                stall_duty: 3,
            },
            [a],
            [],
        );
        let stats = sim.run_until_quiescent(100_000);
        assert!(!stats.deadlocked);
        assert_eq!(sim.channel(a).delivered(), 100);
    }

    #[test]
    fn fork_join_does_not_deadlock() {
        // Source fans out to two relays that rejoin at a sink that needs
        // both inputs: the classic place where bad buffering deadlocks.
        let mut sim = NetworkSim::new();
        let a1 = sim.add_channel(spec(2, 1));
        let a2 = sim.add_channel(spec(2, 5)); // imbalanced latencies
        let b1 = sim.add_channel(spec(2, 1));
        let b2 = sim.add_channel(spec(2, 1));
        sim.add_actor(ActorKind::Source { limit: 500 }, [], [a1, a2]);
        sim.add_actor(ActorKind::Relay, [a1], [b1]);
        sim.add_actor(ActorKind::Relay, [a2], [b2]);
        sim.add_actor(
            ActorKind::Sink {
                stall_period: 0,
                stall_duty: 0,
            },
            [b1, b2],
            [],
        );
        let stats = sim.run_until_quiescent(1_000_000);
        assert!(!stats.deadlocked);
        assert_eq!(sim.channel(b1).delivered(), 500);
        assert_eq!(sim.channel(b2).delivered(), 500);
    }

    #[test]
    fn measure_channel_inter_fpga_approaches_link_bandwidth() {
        let spec = ChannelSpec::saturating(LinkClass::InterFpga);
        let m = measure_channel(&spec, 50_000);
        let link_bw = 100.0; // Gb/s of the paper's ring
        assert!(
            m.achieved_gbps > 0.8 * link_bw && m.achieved_gbps <= link_bw * 1.05,
            "achieved {} Gb/s",
            m.achieved_gbps
        );
        assert!(m.avg_latency_ns >= 500.0);
    }

    #[test]
    fn measure_channel_inter_die_is_faster() {
        let fpga = measure_channel(&ChannelSpec::for_link(LinkClass::InterFpga, 512), 20_000);
        let die = measure_channel(&ChannelSpec::for_link(LinkClass::InterDie, 512), 20_000);
        assert!(die.achieved_gbps > fpga.achieved_gbps);
        assert!(die.avg_latency_ns < fpga.avg_latency_ns);
    }

    #[test]
    fn network_from_plan_delivers_everything() {
        use crate::{plan_channels, CutEdge, InterfaceConfig};
        // A 4-block pipeline with a side channel.
        let cuts = [
            CutEdge {
                from_block: 0,
                to_block: 1,
                bits: 256,
            },
            CutEdge {
                from_block: 1,
                to_block: 2,
                bits: 256,
            },
            CutEdge {
                from_block: 2,
                to_block: 3,
                bits: 64,
            },
            CutEdge {
                from_block: 0,
                to_block: 3,
                bits: 32,
            },
        ];
        let plan = plan_channels(&cuts, &InterfaceConfig::default());
        let flits = 200u64;
        assert!(plan.is_acyclic());
        let (mut sim, channels) = network_from_plan(
            &plan,
            |a, b| {
                if a.abs_diff(b) > 1 {
                    LinkClass::InterFpga
                } else {
                    LinkClass::InterDie
                }
            },
            flits,
            BlockModel::Pipeline,
        );
        let stats = sim.run_until_quiescent(2_000_000);
        assert!(!stats.deadlocked);
        for &c in &channels {
            assert_eq!(sim.channel(c).delivered(), flits);
        }
    }

    #[test]
    fn decoupled_model_handles_cyclic_plans() {
        use crate::{plan_channels, CutEdge, InterfaceConfig};
        // A cyclic block graph, as real partitions of deep pipelines
        // produce: 0 <-> 1.
        let cuts = [
            CutEdge {
                from_block: 0,
                to_block: 1,
                bits: 128,
            },
            CutEdge {
                from_block: 1,
                to_block: 0,
                bits: 128,
            },
        ];
        let plan = plan_channels(&cuts, &InterfaceConfig::default());
        assert!(!plan.is_acyclic());
        let flits = 300u64;
        let (mut sim, channels) = network_from_plan(
            &plan,
            |_, _| LinkClass::InterFpga,
            flits,
            BlockModel::Decoupled,
        );
        let stats = sim.run_until_quiescent(2_000_000);
        assert!(!stats.deadlocked);
        for &c in &channels {
            assert_eq!(sim.channel(c).delivered(), flits);
        }
    }

    #[test]
    fn network_from_empty_plan_is_empty() {
        use crate::{plan_channels, InterfaceConfig};
        let plan = plan_channels(&[], &InterfaceConfig::default());
        let (sim, channels) =
            network_from_plan(&plan, |_, _| LinkClass::IntraDie, 10, BlockModel::Pipeline);
        assert!(channels.is_empty());
        assert!(!sim.is_deadlocked());
    }

    #[test]
    fn empty_network_is_not_deadlocked() {
        let sim = NetworkSim::new();
        assert!(!sim.is_deadlocked());
    }
}
