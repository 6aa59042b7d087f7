//! One generator thread's connection: a [`Plan`] feeding a [`Pipeline`],
//! with the bookkeeping the closed and the open loop share — what was
//! sent when, which replies were right, which refusals were retried, and
//! how late the open loop ran.

use std::collections::VecDeque;
use std::time::{Duration, Instant};

use vital::interface::ErrorCode;
use vital::runtime::ControlResponse;
use vital::service::ServiceError;

use crate::client::Pipeline;
use crate::gen::{Op, Outcome, Plan, Refusals, MAX_ATTEMPTS};
use crate::stats::Sample;

/// Answers later than this after they were due miss the open loop's limit.
pub const LATE_LIMIT: Duration = Duration::from_millis(10);

/// An `Overloaded` refusal is sent again after this long per attempt
/// already made: the admission queue needs a moment to drain, and an
/// immediate resend would only be refused again.
const OVERLOAD_BACKOFF: Duration = Duration::from_micros(500);

/// Failure texts kept for the report (the count is never capped).
const KEPT_FAILURES: usize = 8;

/// A request in flight.
pub struct Flight {
    op: Op,
    /// Send time (closed loop) or due time (open loop): latency counts
    /// from here, through every retry.
    from: Instant,
    attempts: u32,
}

/// What one lane measured.
#[derive(Debug, Default)]
pub struct LaneReport {
    /// One sample per operation that succeeded.
    pub samples: Vec<Sample>,
    /// Operations sent (a retried operation counts once).
    pub attempted: u64,
    /// Operations that ended in a non-retryable error, a wrong reply, or
    /// ran out of retries.
    pub failed: u64,
    /// Operations answered after [`LATE_LIMIT`], or failed.
    pub late: u64,
    /// The first few failure texts.
    pub failures: Vec<String>,
    /// What the program refused, by code.
    pub refusals: Refusals,
    /// Open loop: how long after its due time each scheduled request was
    /// written to the socket, in ns.
    pub lag_ns: Vec<u64>,
}

impl LaneReport {
    /// Folds another lane's report into this one.
    pub fn merge(&mut self, other: LaneReport) {
        self.samples.extend(other.samples);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.late += other.late;
        self.failures.extend(other.failures);
        self.failures.truncate(KEPT_FAILURES);
        self.refusals.merge(&other.refusals);
        self.lag_ns.extend(other.lag_ns);
    }

    fn fail(&mut self, why: String) {
        self.failed += 1;
        self.late += 1;
        if self.failures.len() < KEPT_FAILURES {
            self.failures.push(why);
        }
    }
}

/// One connection and its generator.
pub struct Lane {
    /// The generator.
    pub plan: Plan,
    pipe: Pipeline<Flight>,
    epoch: Instant,
    /// What the lane has measured so far.
    pub report: LaneReport,
    replies: Vec<(Flight, ControlResponse)>,
    /// Refused by admission control, waiting to be sent again.
    backing_off: VecDeque<(Instant, Flight)>,
    nonblocking: bool,
}

impl Lane {
    /// Connects a lane. Sample times count from `epoch`, which every lane
    /// of a run shares.
    pub fn connect(
        addr: &str,
        nonblocking: bool,
        plan: Plan,
        epoch: Instant,
    ) -> std::io::Result<Lane> {
        Ok(Lane {
            plan,
            pipe: Pipeline::connect(addr, nonblocking)?,
            epoch,
            report: LaneReport::default(),
            replies: Vec::new(),
            backing_off: VecDeque::new(),
            nonblocking,
        })
    }

    /// Requests sent and not yet settled.
    pub fn in_flight(&self) -> usize {
        self.pipe.in_flight() + self.backing_off.len()
    }

    /// Nanoseconds since the run's epoch.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Sends `op`; its latency counts from `from`.
    pub fn send(&mut self, op: Op, from: Instant) -> Result<(), ServiceError> {
        self.report.attempted += 1;
        self.pipe.send(
            op.req.clone(),
            Flight {
                op,
                from,
                attempts: 1,
            },
        )
    }

    /// Reads the socket once and settles every reply that arrived: a good
    /// one becomes a sample, a retryable refusal goes out again, anything
    /// else is a failure. The slot of each operation that is over is
    /// pushed to `settled` (the open loop sends that tenant's deferred
    /// request then).
    pub fn pump(&mut self, settled: &mut Vec<usize>) -> Result<(), ServiceError> {
        while self
            .backing_off
            .front()
            .is_some_and(|(at, _)| *at <= Instant::now())
        {
            let (_, flight) = self.backing_off.pop_front().expect("front exists");
            self.pipe.send(flight.op.req.clone(), flight)?;
        }
        let mut replies = std::mem::take(&mut self.replies);
        if self.pipe.in_flight() > 0 || self.backing_off.is_empty() {
            self.pipe
                .poll(|flight, resp| replies.push((flight, resp)))?;
        }
        for (mut flight, resp) in replies.drain(..) {
            match self.plan.complete(&flight.op, &resp) {
                Outcome::Done => {
                    let latency = flight.from.elapsed();
                    if latency > LATE_LIMIT {
                        self.report.late += 1;
                    }
                    self.report.samples.push(Sample {
                        at_ns: self.now_ns(),
                        latency_ns: latency.as_nanos() as u64,
                        is_deploy: flight.op.kind() == "deploy",
                    });
                }
                Outcome::Retry(code) if flight.attempts < MAX_ATTEMPTS => {
                    flight.attempts += 1;
                    if code == ErrorCode::Overloaded && self.nonblocking {
                        let at = Instant::now() + OVERLOAD_BACKOFF * (flight.attempts - 1);
                        self.backing_off.push_back((at, flight));
                    } else {
                        self.pipe.send(flight.op.req.clone(), flight)?;
                    }
                    continue;
                }
                Outcome::Recover(op) if flight.attempts < MAX_ATTEMPTS => {
                    flight.attempts += 1;
                    flight.op = *op;
                    self.pipe.send(flight.op.req.clone(), flight)?;
                    continue;
                }
                Outcome::Retry(_) | Outcome::Recover(_) => {
                    self.plan.abandon(&flight.op);
                    self.report.fail(format!(
                        "{}: refused {MAX_ATTEMPTS} times",
                        flight.op.kind()
                    ));
                }
                Outcome::Failed(why) => self.report.fail(why),
            }
            settled.extend(flight.op.slot);
        }
        self.replies = replies;
        Ok(())
    }

    /// Waits until nothing is in flight (bounded by `patience`; what is
    /// still unanswered then is counted as failed).
    pub fn drain(&mut self, patience: Duration) -> Result<(), ServiceError> {
        let deadline = Instant::now() + patience;
        let mut settled = Vec::new();
        while self.in_flight() > 0 && Instant::now() < deadline {
            self.pump(&mut settled)?;
            std::thread::yield_now();
        }
        for _ in 0..self.in_flight() {
            self.report
                .fail("no reply before the run ended".to_string());
        }
        Ok(())
    }

    /// Sends one operation and waits for it to be over, retries included.
    pub fn call(&mut self, op: Op) -> Result<(), ServiceError> {
        self.send(op, Instant::now())?;
        self.drain(Duration::from_secs(60))
    }

    /// Undeploys what the lane still holds, restoring parked tenants first.
    pub fn teardown(&mut self) -> Result<(), ServiceError> {
        for slot in 0..self.plan.slot_count() {
            let failed_before = self.report.failed;
            while let Some(op) = self.plan.teardown_op(slot) {
                self.call(op)?;
                if self.report.failed > failed_before {
                    break; // already reported; do not spin on a stuck tenant
                }
            }
        }
        Ok(())
    }

    /// Ends the lane: the report, with the plan's refusal counts.
    pub fn finish(mut self) -> LaneReport {
        self.report.refusals = std::mem::take(&mut self.plan.refusals);
        self.report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{status_op, Mix};
    use crate::stack::FPGAS;
    use std::io::Write;
    use std::net::TcpListener;
    use vital::runtime::{FpgaStatus, StatusSummary};
    use vital::service::{
        encode_frame, read_frame, RequestEnvelope, ResponseEnvelope, WireFormat, MAX_FRAME_BYTES,
    };

    fn status() -> ControlResponse {
        ControlResponse::Status(StatusSummary {
            fpgas: (0..FPGAS)
                .map(|fpga| FpgaStatus {
                    fpga,
                    health: "Online".to_string(),
                    blocks: vec![0; 15],
                    free: 15,
                })
                .collect(),
            total_free: FPGAS * 15,
            live_tenants: Vec::new(),
            suspended_tenants: Vec::new(),
            fpga_failures: 0,
            fpga_recoveries: 0,
            evacuations: 0,
            tenants_migrated: 0,
            tenants_torn_down: 0,
            isa_tenants: Vec::new(),
            isa_tiles_total: 0,
            isa_tiles_free: 0,
        })
    }

    /// A peer that answers `n` `Status` requests as they come.
    fn peer(n: usize) -> (String, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let handle = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            for _ in 0..n {
                let (env, _): (RequestEnvelope, _) =
                    read_frame(&mut stream, MAX_FRAME_BYTES).unwrap();
                let reply = ResponseEnvelope {
                    id: env.id,
                    resp: status(),
                };
                let mut wire = Vec::new();
                encode_frame(&reply, WireFormat::Binary, MAX_FRAME_BYTES, &mut wire).unwrap();
                stream.write_all(&wire).unwrap();
            }
        });
        (addr, handle)
    }

    #[test]
    fn latency_counts_from_the_due_time_and_late_answers_are_counted() {
        let (addr, handle) = peer(2);
        let plan = Plan::new(Mix::Toggle, 1, 0, 1, &[]);
        let mut lane = Lane::connect(&addr, false, plan, Instant::now()).unwrap();
        // One request is due now. The other was due 20 ms ago — the
        // generator stalled — and is only sent now: the stall is its
        // latency, and it misses the 10 ms limit however fast the reply.
        lane.send(status_op(), Instant::now()).unwrap();
        lane.send(status_op(), Instant::now() - Duration::from_millis(20))
            .unwrap();
        lane.drain(Duration::from_secs(5)).unwrap();
        handle.join().unwrap();
        let report = lane.finish();
        assert_eq!((report.attempted, report.failed), (2, 0));
        assert_eq!(report.samples.len(), 2);
        assert!(report.samples[0].latency_ns < LATE_LIMIT.as_nanos() as u64);
        assert!(report.samples[1].latency_ns >= 20_000_000);
        assert_eq!(report.late, 1);
    }
}
