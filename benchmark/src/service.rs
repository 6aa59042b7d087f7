//! The three service workloads — `tenant_closed`, `burst_open`,
//! `churn_saturate` — driven over TCP against a running [`Service`] by
//! `min(nproc, 2)` generator threads with one connection each.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use vital::runtime::{ControlRequest, ControlResponse};
use vital::service::{RemoteClient, ServiceError};

use crate::gen::{status_op, Mix, Plan, SLOTS};
use crate::lane::{Lane, LaneReport};
use crate::schedule::{self, Schedule};
use crate::stack::{self, Apps, Service, Standing};
use crate::stats::{self, Sample, WindowSummary};

/// Requests each connection of `churn_saturate` keeps in flight: below
/// the shipped `per_session_limit` of 32, so `Overloaded` cannot occur.
const CHURN_WINDOW: usize = 16;
/// `tenant_closed` pauses a seeded time below this between a reply and
/// the next request. Without it the two connections lock onto the phase
/// of the reactor's 500 µs idle sleep, in one of several regimes chosen by
/// the timing of the first requests, and throughput differs by a tenth
/// from run to run of the same seed; a tenant's `vitalctl` does not fire
/// back-to-back either.
const THINK_BELOW: Duration = Duration::from_millis(1);
/// `churn_saturate` drains every connection and runs one Evacuate →
/// Recover pair this often.
const EVACUATE_EVERY: Duration = Duration::from_secs(2);
/// How often the open loop looks at its socket while nothing is due.
const OPEN_POLL: Duration = Duration::from_micros(100);
/// How long the open loop waits for stragglers after its last send.
const OPEN_PATIENCE: Duration = Duration::from_secs(2);
/// How often the main thread samples the daemon's queue length.
const QUEUE_SAMPLE: Duration = Duration::from_millis(1);

/// Warm-up before the measured interval: a tenth of it.
pub fn warm_up(seconds: f64) -> Duration {
    Duration::from_secs_f64(seconds / 10.0)
}

/// What one service workload measured.
pub struct ServiceOutcome {
    /// Every operation kind: throughput, median and tail latency.
    pub all: WindowSummary,
    /// Fabric `Deploy` only.
    pub deploy: WindowSummary,
    /// Counts, failures, refusals and generator lag of every lane.
    pub report: LaneReport,
    /// Share of the requests due that missed the 10 ms limit or failed
    /// (the open loop counts toggles that were never sent as due).
    pub late_frac: f64,
    /// p99 of how late the open loop wrote a scheduled request, in ms.
    pub sched_lag_p99_ms: f64,
    /// Highest queue length sampled from the daemon.
    pub queue_len_max: usize,
    /// Output checks that did not hold.
    pub broken: Vec<String>,
}

/// A barrier the lanes of `churn_saturate` meet at around an evacuation.
/// Unlike `std::sync::Barrier` it lets go when a lane has died, so a
/// transport error ends the run instead of hanging it.
struct Rendezvous {
    lanes: usize,
    arrived: AtomicUsize,
    aborted: AtomicBool,
}

impl Rendezvous {
    /// Blocks until every lane has made its `nth` arrival (1-based).
    fn meet(&self, nth: usize) {
        self.arrived.fetch_add(1, Ordering::SeqCst);
        while self.arrived.load(Ordering::SeqCst) < nth * self.lanes
            && !self.aborted.load(Ordering::SeqCst)
        {
            std::thread::sleep(Duration::from_micros(20));
        }
    }
}

/// A closed loop with `window` requests in flight until `end_ns`. With
/// `evacuate_at`, every lane drains at those times and lane 0 runs one
/// Evacuate → Recover pair while nothing else is in flight.
fn closed_loop(
    lane: &mut Lane,
    index: usize,
    window: usize,
    end_ns: u64,
    evacuate_at: &[u64],
    rendezvous: &Rendezvous,
) -> Result<(), ServiceError> {
    let mut settled = Vec::new();
    let mut evacuations = evacuate_at.iter().enumerate().peekable();
    while lane.now_ns() < end_ns {
        if let Some((round, _)) = evacuations.next_if(|(_, &at)| lane.now_ns() >= at) {
            while lane.in_flight() > 0 {
                lane.pump(&mut settled)?;
            }
            rendezvous.meet(2 * round + 1);
            if index == 0 {
                for op in lane.plan.evacuation_pair() {
                    lane.call(op)?;
                }
            }
            rendezvous.meet(2 * round + 2);
            continue;
        }
        if window == 1 {
            std::thread::sleep(lane.plan.think_time(THINK_BELOW));
        }
        while lane.in_flight() < window {
            let op = lane.plan.next_op();
            lane.send(op, Instant::now())?;
        }
        lane.pump(&mut settled)?;
    }
    lane.drain(Duration::from_secs(60))
}

/// The open loop: sends what the schedule says is due, whatever is still
/// unanswered. Returns the toggles that came due and were never sent.
fn open_loop(
    lane: &mut Lane,
    schedule: &mut Schedule,
    epoch: Instant,
    end_ns: u64,
) -> Result<usize, ServiceError> {
    let at = |due_ns: u64| epoch + Duration::from_nanos(due_ns);
    let mut settled = Vec::new();
    loop {
        let now = lane.now_ns();
        if now >= end_ns {
            break;
        }
        while let Some(event) = schedule.pop_due(now) {
            let op = match event.slot {
                None => status_op(),
                Some(slot) => match lane.plan.slot_op(slot) {
                    Some(op) => op,
                    None => {
                        schedule.defer(slot, event.due_ns);
                        continue;
                    }
                },
            };
            lane.send(op, at(event.due_ns))?;
            let lag = lane.now_ns().saturating_sub(event.due_ns);
            lane.report.lag_ns.push(lag);
        }
        settled.clear();
        lane.pump(&mut settled)?;
        for &slot in &settled {
            if let Some(due_ns) = schedule.take_deferred(slot) {
                let op = lane.plan.slot_op(slot).expect("the slot has just settled");
                lane.send(op, at(due_ns))?;
            }
        }
        let until_due = schedule.next_due_ns().map_or(OPEN_POLL, |due| {
            Duration::from_nanos(due.saturating_sub(lane.now_ns()))
        });
        if until_due > Duration::from_micros(20) {
            std::thread::sleep(until_due.min(OPEN_POLL));
        }
    }
    lane.drain(OPEN_PATIENCE)?;
    Ok(schedule.parked())
}

/// Runs one service workload for `seconds` (after a warm-up of a tenth of
/// that), tears down what the generators hold and checks over `Status`
/// that the cluster is back to the standing population.
pub fn run(
    mix: Mix,
    service: &Service,
    apps: &Apps,
    standing: &Standing,
    seed: u64,
    seconds: f64,
) -> ServiceOutcome {
    let lanes = stack::generators();
    let warm_ns = warm_up(seconds).as_nanos() as u64;
    let end_ns = warm_ns + (seconds * 1e9) as u64;
    let addr = service.addr();
    let window = match mix {
        Mix::Ring => 1,
        Mix::Toggle => usize::MAX,
        Mix::Churn => CHURN_WINDOW,
    };
    let mut schedules = match mix {
        Mix::Toggle => schedule::burst_open(seed, lanes, end_ns, &apps.info),
        _ => Vec::new(),
    };
    let slots = match mix {
        Mix::Toggle => schedule::TENANTS.div_ceil(lanes),
        _ => SLOTS,
    };
    let evacuate_at: Vec<u64> = match mix {
        Mix::Churn => {
            let every = EVACUATE_EVERY.as_nanos() as u64;
            (0..)
                .map(|k| warm_ns + every / 2 + k * every)
                .take_while(|at| at + every / 4 < end_ns)
                .collect()
        }
        _ => Vec::new(),
    };
    let rendezvous = Rendezvous {
        lanes,
        arrived: AtomicUsize::new(0),
        aborted: AtomicBool::new(false),
    };

    let free_blocks = stack::total_blocks() - standing.blocks;
    let mut broken = Vec::new();
    let epoch = Instant::now();
    let mut plans: Vec<Plan> = (0..lanes)
        .map(|i| Plan::new(mix, seed, i, slots, &apps.info))
        .collect();
    for (plan, (_, pinned)) in plans.iter_mut().zip(&schedules) {
        plan.pin_apps(pinned);
    }
    let demand: usize = plans.iter().map(Plan::max_blocks).sum();
    if mix != Mix::Toggle && demand > free_blocks {
        broken.push(format!(
            "generators may hold {demand} blocks but only {free_blocks} are free"
        ));
    }

    let running = AtomicUsize::new(lanes);
    let mut queue_len_max = 0;
    let mut report = LaneReport::default();
    let mut parked = 0;
    std::thread::scope(|scope| {
        let handles: Vec<_> = plans
            .into_iter()
            .enumerate()
            .map(|(i, plan)| {
                let mut schedule = (mix == Mix::Toggle)
                    .then(|| Schedule::new(std::mem::take(&mut schedules[i].0), slots));
                let (addr, evacuate_at, rendezvous, running) =
                    (&addr, &evacuate_at, &rendezvous, &running);
                scope.spawn(move || {
                    let mut lane = Lane::connect(addr, mix == Mix::Toggle, plan, epoch)
                        .expect("connect to the service");
                    let ran = match schedule.as_mut() {
                        Some(s) => open_loop(&mut lane, s, epoch, end_ns),
                        None => closed_loop(&mut lane, i, window, end_ns, evacuate_at, rendezvous)
                            .map(|()| 0),
                    };
                    if ran.is_err() {
                        rendezvous.aborted.store(true, Ordering::SeqCst);
                    }
                    let ran = ran.and_then(|parked| lane.teardown().map(|()| parked));
                    running.fetch_sub(1, Ordering::SeqCst);
                    (lane.finish(), ran)
                })
            })
            .collect();
        while running.load(Ordering::SeqCst) > 0 {
            queue_len_max = queue_len_max.max(service.vitald.queue_len());
            std::thread::sleep(QUEUE_SAMPLE);
        }
        for handle in handles {
            let (lane_report, ran) = handle.join().expect("generator thread panicked");
            report.merge(lane_report);
            match ran {
                Ok(n) => parked += n,
                Err(e) => broken.push(format!("transport error: {e}")),
            }
        }
    });

    match RemoteClient::connect(&addr).map(|c| c.call(ControlRequest::Status)) {
        Ok(Ok(ControlResponse::Status(status))) => {
            if let Err(why) = stack::check_conservation(&status, standing) {
                broken.push(format!("after the workload: {why}"));
            }
        }
        other => broken.push(format!("final Status failed: {other:?}")),
    }

    let deploys: Vec<Sample> = report
        .samples
        .iter()
        .copied()
        .filter(|s| s.is_deploy)
        .collect();
    let measured_ns = end_ns - warm_ns;
    let mut lag_ms: Vec<f64> = report.lag_ns.iter().map(|&ns| ns as f64 / 1e6).collect();
    lag_ms.sort_by(f64::total_cmp);
    let due = report.attempted + parked as u64;
    ServiceOutcome {
        all: stats::windows(&report.samples, warm_ns, measured_ns),
        deploy: stats::windows(&deploys, warm_ns, measured_ns),
        late_frac: (report.late + parked as u64) as f64 / due.max(1) as f64,
        sched_lag_p99_ms: stats::tail(&lag_ms, 0.99).1,
        queue_len_max,
        report,
        broken,
    }
}
