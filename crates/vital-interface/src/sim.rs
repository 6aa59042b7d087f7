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

impl Actor {
    fn can_fire(&self, channels: &[Channel], now: u64) -> bool {
        let has_data = || {
            !self.inputs.is_empty() && self.inputs.iter().all(|c| channels[c.index()].has_data())
        };
        let can_push = || {
            self.outputs
                .iter()
                .all(|c| channels[c.index()].can_push(now))
        };
        match self.kind {
            ActorKind::Source { limit } => self.firings < limit && can_push(),
            ActorKind::Sink {
                stall_period,
                stall_duty,
            } => {
                let stalled =
                    stall_period > 0 && (now % u64::from(stall_period)) < u64::from(stall_duty);
                !stalled && has_data()
            }
            ActorKind::Relay => has_data() && can_push(),
        }
    }
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

/// Fast-forward is tried only when its period is at most this many
/// cycles; a longer one steps every cycle.
const MAX_PERIOD: u64 = 4_096;

/// One fast-forward snapshot of [`NetworkSim::run`].
#[derive(Debug, Clone, Default)]
struct Snapshot {
    /// Everything a step reads besides the stall phase: each channel's
    /// relative state, then each source's `firings < limit` flag.
    state: Vec<u64>,
    /// Each channel's delivered count and latency sum, then each actor's
    /// firings.
    counters: Vec<u64>,
}

impl Snapshot {
    fn take(&mut self, now: u64, actors: &[Actor], channels: &[Channel]) {
        self.state.clear();
        self.counters.clear();
        for c in channels {
            c.write_relative(now, &mut self.state);
            self.counters.extend(c.counters());
        }
        for a in actors {
            if let ActorKind::Source { limit } = a.kind {
                self.state.push(u64::from(a.firings < limit));
            }
            self.counters.push(a.firings);
        }
    }
}

/// A network of actors and latency-insensitive channels.
#[derive(Debug, Clone, Default)]
pub struct NetworkSim {
    actors: Vec<Actor>,
    channels: Vec<Channel>,
    cycle: u64,
    /// Actors whose clock enable holds this cycle, reused by every step.
    firing: Vec<usize>,
    /// The latest fast-forward snapshot and the one before it.
    snapshots: [Snapshot; 2],
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

    /// Advances the network by one cycle; returns the number of actors that
    /// fired.
    fn step(&mut self) -> usize {
        let now = self.cycle;
        let Self {
            actors,
            channels,
            firing,
            ..
        } = self;
        for c in channels.iter_mut() {
            c.advance(now);
        }
        // Evaluate all clock-enables on the pre-step state, then apply.
        firing.clear();
        firing.extend((0..actors.len()).filter(|&i| actors[i].can_fire(channels, now)));
        for &i in firing.iter() {
            let actor = &mut actors[i];
            for c in &actor.inputs {
                let popped = channels[c.index()].pop(now);
                debug_assert!(popped, "firing condition guaranteed data");
            }
            for c in &actor.outputs {
                channels[c.index()].push(now);
            }
            actor.firings += 1;
        }
        self.cycle += 1;
        firing.len()
    }

    /// Runs for exactly `cycles` cycles.
    ///
    /// Once per period P (the lcm of the sinks' stall periods and the
    /// channels' serialization intervals, if at most 4,096) the run
    /// snapshots the relative state a step reads. When it equals the
    /// snapshot of one period ago, every later period repeats it, so the
    /// run jumps whole periods at once and adds their firings, deliveries
    /// and latency by multiplication, stopping short of `cycles` and of
    /// any source's `limit`. The result equals stepping every cycle.
    pub fn run(&mut self, cycles: u64) -> SimStats {
        let end = self.cycle + cycles;
        let period = self.period();
        let mut firings = 0u64;
        // The cycle of the last snapshot taken by this run.
        let mut last: Option<u64> = None;
        while self.cycle < end {
            if let Some(p) = period.filter(|&p| self.cycle.is_multiple_of(p)) {
                let at = self.cycle;
                if self.snapshot_repeats() && last.is_some_and(|l| l + p == at) {
                    firings += self.jump(p, end);
                    if self.cycle == end {
                        break;
                    }
                }
                last = Some(at);
            }
            firings += self.step() as u64;
        }
        SimStats {
            cycles,
            firings,
            deadlocked: self.is_deadlocked(),
        }
    }

    /// The fast-forward period: the lcm of the sinks' stall periods and the
    /// channels' serialization intervals, so that every stall phase recurs
    /// after it and a throttled channel's steady state fits in it. `None`
    /// above `MAX_PERIOD`.
    fn period(&self) -> Option<u64> {
        let stalls = self.actors.iter().filter_map(|a| match a.kind {
            ActorKind::Sink { stall_period, .. } if stall_period > 0 => Some(stall_period),
            _ => None,
        });
        let intervals = self.channels.iter().map(|c| c.serialization_interval());
        let mut period = 1u64;
        for q in stalls.chain(intervals).map(u64::from) {
            period = period / gcd(period, q) * q;
            if period > MAX_PERIOD {
                return None;
            }
        }
        Some(period)
    }

    /// Takes a snapshot and says whether it repeats the latest one; it then
    /// becomes the latest.
    fn snapshot_repeats(&mut self) -> bool {
        self.snapshots.swap(0, 1);
        let [latest, earlier] = &mut self.snapshots;
        latest.take(self.cycle, &self.actors, &self.channels);
        latest.state == earlier.state
    }

    /// Jumps the most whole periods of length `p` that end by `end` and
    /// leave every source within its limit, given that the last period
    /// (between the two snapshots) repeats. Returns the firings jumped.
    fn jump(&mut self, p: u64, end: u64) -> u64 {
        let [latest, earlier] = &self.snapshots;
        let delta = |i: usize| latest.counters[i] - earlier.counters[i];
        let fired_at = 2 * self.channels.len();
        let mut k = (end - self.cycle) / p;
        for (i, a) in self.actors.iter().enumerate() {
            match (a.kind, delta(fired_at + i)) {
                (ActorKind::Source { limit }, d) if d > 0 => k = k.min((limit - a.firings) / d),
                _ => {}
            }
        }
        if k == 0 {
            return 0;
        }
        let since = self.cycle - p;
        for (i, c) in self.channels.iter_mut().enumerate() {
            c.fast_forward(since, k * p, k * delta(2 * i), k * delta(2 * i + 1));
        }
        let mut fired = 0;
        for (i, a) in self.actors.iter_mut().enumerate() {
            a.firings += k * delta(fired_at + i);
            fired += delta(fired_at + i);
        }
        self.cycle += k * p;
        k * fired
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
            if probe
                .actors
                .iter()
                .any(|a| a.can_fire(&probe.channels, probe.cycle))
            {
                return false;
            }
            probe.cycle += 1;
        }
        true
    }
}

fn gcd(a: u64, b: u64) -> u64 {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
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
    use crate::{plan_channels, CutEdge, InterfaceConfig};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

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

    fn sink(stall_period: u32, stall_duty: u32) -> ActorKind {
        ActorKind::Sink {
            stall_period,
            stall_duty,
        }
    }

    /// A source of `limit` flits feeding a sink through one channel.
    fn one_channel(spec: ChannelSpec, limit: u64, sink: ActorKind) -> (NetworkSim, ChannelId) {
        let mut sim = NetworkSim::new();
        let ch = sim.add_channel(spec);
        sim.add_actor(ActorKind::Source { limit }, [], [ch]);
        sim.add_actor(sink, [ch], []);
        (sim, ch)
    }

    /// Source → relay → sink; returns the relay.
    fn pipeline() -> (NetworkSim, ActorId) {
        let mut sim = NetworkSim::new();
        let a = sim.add_channel(spec(8, 2));
        let b = sim.add_channel(spec(8, 2));
        sim.add_actor(ActorKind::Source { limit: u64::MAX }, [], [a]);
        let relay = sim.add_actor(ActorKind::Relay, [a], [b]);
        sim.add_actor(sink(0, 0), [b], []);
        (sim, relay)
    }

    /// A source fanning out to two relays that rejoin at a sink needing
    /// both inputs: the classic place where bad buffering deadlocks.
    fn fork_join() -> (NetworkSim, [ChannelId; 2]) {
        let mut sim = NetworkSim::new();
        let a1 = sim.add_channel(spec(2, 1));
        let a2 = sim.add_channel(spec(2, 5)); // imbalanced latencies
        let b1 = sim.add_channel(spec(2, 1));
        let b2 = sim.add_channel(spec(2, 1));
        sim.add_actor(ActorKind::Source { limit: 500 }, [], [a1, a2]);
        sim.add_actor(ActorKind::Relay, [a1], [b1]);
        sim.add_actor(ActorKind::Relay, [a2], [b2]);
        sim.add_actor(sink(0, 0), [b1, b2], []);
        (sim, [b1, b2])
    }

    /// A 4-block pipeline with a side channel, as the pipeline model.
    fn acyclic_plan(flits: u64) -> (NetworkSim, Vec<ChannelId>) {
        let edge = |from_block, to_block, bits| CutEdge {
            from_block,
            to_block,
            bits,
        };
        let cuts = [
            edge(0, 1, 256),
            edge(1, 2, 256),
            edge(2, 3, 64),
            edge(0, 3, 32),
        ];
        let plan = plan_channels(&cuts, &InterfaceConfig::default());
        assert!(plan.is_acyclic());
        network_from_plan(
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
        )
    }

    /// A cyclic block graph, 0 <-> 1, as real partitions of deep
    /// pipelines produce, as the decoupled model.
    fn cyclic_plan(flits: u64) -> (NetworkSim, Vec<ChannelId>) {
        let edge = |from_block, to_block| CutEdge {
            from_block,
            to_block,
            bits: 128,
        };
        let plan = plan_channels(&[edge(0, 1), edge(1, 0)], &InterfaceConfig::default());
        assert!(!plan.is_acyclic());
        network_from_plan(
            &plan,
            |_, _| LinkClass::InterFpga,
            flits,
            BlockModel::Decoupled,
        )
    }

    /// Steps every cycle: what [`NetworkSim::run`] computes without its
    /// fast-forward.
    fn run_stepping(sim: &mut NetworkSim, cycles: u64) -> SimStats {
        let firings = (0..cycles).map(|_| sim.step() as u64).sum();
        SimStats {
            cycles,
            firings,
            deadlocked: sim.is_deadlocked(),
        }
    }

    /// Runs copies of `sim` with and without fast-forward for each of
    /// `runs` in turn and requires equal stats and an equal state — every
    /// flit's timestamps and every counter — after each.
    fn assert_fast_forward_exact(sim: &NetworkSim, runs: &[u64]) {
        let state = |s: &NetworkSim| format!("{} {:?} {:?}", s.cycle, s.actors, s.channels);
        let mut fast = sim.clone();
        let mut slow = sim.clone();
        for &cycles in runs {
            assert_eq!(fast.run(cycles), run_stepping(&mut slow, cycles));
            assert_eq!(state(&fast), state(&slow));
        }
    }

    #[test]
    fn pipeline_reaches_full_throughput() {
        let (mut sim, relay) = pipeline();
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
        // Sink stalled half the time: source duty must drop to ~0.5.
        let (mut sim, _) = one_channel(spec(4, 1), u64::MAX, sink(2, 1));
        sim.run(2000);
        let duty = duty_cycle(&sim, ActorId(0));
        assert!((0.4..=0.6).contains(&duty), "source duty {duty}");
    }

    #[test]
    fn bounded_source_drains_and_quiesces() {
        let (mut sim, a) = one_channel(spec(8, 3), 100, sink(7, 3));
        let stats = sim.run_until_quiescent(100_000);
        assert!(!stats.deadlocked);
        assert_eq!(sim.channel(a).delivered(), 100);
    }

    #[test]
    fn fork_join_does_not_deadlock() {
        let (mut sim, [b1, b2]) = fork_join();
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
        let (mut sim, channels) = acyclic_plan(200);
        let stats = sim.run_until_quiescent(2_000_000);
        assert!(!stats.deadlocked);
        for &c in &channels {
            assert_eq!(sim.channel(c).delivered(), 200);
        }
    }

    #[test]
    fn decoupled_model_handles_cyclic_plans() {
        let (mut sim, channels) = cyclic_plan(300);
        let stats = sim.run_until_quiescent(2_000_000);
        assert!(!stats.deadlocked);
        for &c in &channels {
            assert_eq!(sim.channel(c).delivered(), 300);
        }
    }

    #[test]
    fn network_from_empty_plan_is_empty() {
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

    #[test]
    fn fast_forward_equals_stepping_on_every_test_network() {
        let mut networks = vec![
            NetworkSim::new(),
            pipeline().0,
            fork_join().0,
            acyclic_plan(200).0,
            acyclic_plan(u64::MAX).0,
            cyclic_plan(300).0,
            cyclic_plan(u64::MAX).0,
            one_channel(spec(4, 1), u64::MAX, sink(2, 1)).0,
            one_channel(spec(8, 3), 100, sink(7, 3)).0,
        ];
        for spec in [
            ChannelSpec::saturating(LinkClass::InterFpga),
            ChannelSpec::saturating(LinkClass::InterDie),
            ChannelSpec::for_link(LinkClass::InterFpga, 512),
            ChannelSpec::for_link(LinkClass::InterDie, 512),
        ] {
            networks.push(one_channel(spec, u64::MAX, sink(0, 0)).0);
        }
        for sim in &networks {
            assert_fast_forward_exact(sim, &[20_000, 7, 3_001]);
        }
    }

    #[test]
    fn fast_forward_equals_stepping_on_table4_random_traffic() {
        // The draws of `vital_workloads::random_traffic_sinks(2020, 64)`,
        // the patterns of Table 4's sweep.
        let mut rng = StdRng::seed_from_u64(2020);
        for _ in 0..64 {
            let period: u32 = rng.gen_range(2..=64);
            let duty = rng.gen_range(0..period);
            let spec = ChannelSpec::saturating(LinkClass::InterFpga);
            for limit in [u64::MAX, 5_000] {
                let (sim, _) = one_channel(spec, limit, sink(period, duty));
                assert_fast_forward_exact(&sim, &[20_000]);
            }
        }
    }

    #[test]
    fn a_source_limit_inside_a_would_be_jump_ends_it() {
        // Steady from a few cycles in, one flit a cycle: the whole run
        // would be one jump if the limit did not cut it short.
        let (sim, ch) = one_channel(spec(8, 2), 1_000, sink(0, 0));
        assert_fast_forward_exact(&sim, &[100_000]);
        let mut sim = sim;
        sim.run(100_000);
        assert_eq!(sim.channel(ch).delivered(), 1_000);
        assert_eq!(sim.actors[0].firings, 1_000);
        // Two sources whose limits fall in different periods of a stalled
        // sink's cycle.
        let mut sim = NetworkSim::new();
        let a = sim.add_channel(spec(4, 3));
        let b = sim.add_channel(ChannelSpec {
            serialization_interval: 3,
            ..spec(6, 2)
        });
        sim.add_actor(ActorKind::Source { limit: 997 }, [], [a]);
        sim.add_actor(ActorKind::Source { limit: 1_201 }, [], [b]);
        sim.add_actor(sink(5, 2), [a, b], []);
        assert_fast_forward_exact(&sim, &[50_000]);
        // A source that stops just before or just after a snapshot: its
        // serialization window ends at every offset from the period.
        for limit in 1..12 {
            for (latency, interval) in [(1, 1), (1, 3), (2, 2), (3, 4), (4, 3)] {
                let spec = ChannelSpec {
                    serialization_interval: interval,
                    ..spec(4, latency)
                };
                let (sim, _) = one_channel(spec, limit, sink(0, 0));
                assert_fast_forward_exact(&sim, &[200]);
            }
        }
    }

    fn arb_spec() -> impl Strategy<Value = ChannelSpec> {
        (2usize..16, 1u32..12, 1u32..4).prop_map(|(depth, latency, ser)| ChannelSpec {
            serialization_interval: ser,
            ..spec(depth, latency)
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Pipelines of any channel parameters, source limit and sink
        /// stall pattern run the same with and without fast-forward.
        #[test]
        fn fast_forward_equals_stepping_on_any_pipeline(
            specs in prop::collection::vec(arb_spec(), 1..5),
            limit in prop_oneof![Just(u64::MAX), 1u64..3_000],
            stall_period in 0u32..40,
            stall_duty in 0u32..40,
            cycles in 1u64..6_000,
        ) {
            let mut sim = NetworkSim::new();
            let channels: Vec<_> = specs.iter().map(|s| sim.add_channel(*s)).collect();
            sim.add_actor(ActorKind::Source { limit }, [], [channels[0]]);
            for w in channels.windows(2) {
                sim.add_actor(ActorKind::Relay, [w[0]], [w[1]]);
            }
            let last = channels[channels.len() - 1];
            sim.add_actor(sink(stall_period, stall_duty), [last], []);
            assert_fast_forward_exact(&sim, &[cycles, cycles / 3 + 1]);
        }
    }
}
