//! The open loop's send schedule.
//!
//! Independent tenants do not wait for each other, so `burst_open` sends
//! on a schedule fixed before the run: per-tenant on/off bursts from
//! `vital_workloads::traffic::bursty_tenant_arrivals`, time-scaled to a
//! fixed offered rate, each arrival toggling that tenant between deployed
//! and undeployed, padded with `Status` polls to four reads per write.
//! Latency is timed from the *due* time of a request, never from the time
//! it was actually sent: if the generator or the program stalls, the stall
//! is charged to every request that was due meanwhile. A tenant has one
//! request in flight; one that comes due while the previous is unanswered
//! is deferred, keeping its due time.

use std::collections::VecDeque;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use vital::workloads::{bursty_tenant_arrivals, TenantTrafficConfig};

use crate::stack::AppInfo;

/// Requests per second the open loop offers, all lanes together.
pub const OFFERED_PER_S: f64 = 5_000.0;
/// Share of the offered requests that are `Status` polls.
pub const STATUS_SHARE: f64 = 0.8;
/// Tenants of the bursty arrival process.
pub const TENANTS: usize = 42;

/// One scheduled request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// When it is due, in ns since the run's epoch.
    pub due_ns: u64,
    /// The lane's slot whose tenant toggles; `None` for a `Status` poll.
    pub slot: Option<usize>,
}

/// The schedule of one lane, consumed in due order.
#[derive(Debug)]
pub struct Schedule {
    events: Vec<Event>,
    next: usize,
    deferred: Vec<VecDeque<u64>>,
}

impl Schedule {
    /// A schedule over `events` (ascending due times) for `slots` tenants.
    pub fn new(events: Vec<Event>, slots: usize) -> Schedule {
        debug_assert!(events.windows(2).all(|w| w[0].due_ns <= w[1].due_ns));
        Schedule {
            events,
            next: 0,
            deferred: vec![VecDeque::new(); slots],
        }
    }

    /// Takes the next event if it is due by `now_ns`. After a stall this
    /// yields the whole backlog, each event with its original due time.
    pub fn pop_due(&mut self, now_ns: u64) -> Option<Event> {
        let event = *self.events.get(self.next)?;
        (event.due_ns <= now_ns).then(|| {
            self.next += 1;
            event
        })
    }

    /// Due time of the next event not yet taken.
    pub fn next_due_ns(&self) -> Option<u64> {
        self.events.get(self.next).map(|e| e.due_ns)
    }

    /// Parks a toggle whose tenant still has a request in flight.
    pub fn defer(&mut self, slot: usize, due_ns: u64) {
        self.deferred[slot].push_back(due_ns);
    }

    /// The oldest parked toggle of `slot`: its original due time.
    pub fn take_deferred(&mut self, slot: usize) -> Option<u64> {
        self.deferred[slot].pop_front()
    }

    /// Toggles that came due and were never sent.
    pub fn parked(&self) -> usize {
        self.deferred.iter().map(VecDeque::len).sum()
    }
}

/// The seeded schedules of `burst_open` for `lanes` connections over
/// `duration_ns`, with the design each lane's slots deploy. Tenant `t`
/// belongs to lane `t % lanes`, slot `t / lanes`.
pub fn burst_open(
    seed: u64,
    lanes: usize,
    duration_ns: u64,
    apps: &[AppInfo],
) -> Vec<(Vec<Event>, Vec<usize>)> {
    let duration_s = duration_ns as f64 / 1e9;
    let toggles_per_s = OFFERED_PER_S * (1.0 - STATUS_SHARE);
    let cfg = TenantTrafficConfig {
        tenants: TENANTS,
        seed,
        ..TenantTrafficConfig::default()
    };
    // Per tenant: on for mean_on of every mean_on + mean_off seconds, one
    // arrival per mean_interarrival while on. Generate half as much again
    // as the run needs, then stretch time so the first `wanted` arrivals
    // exactly fill the run: the offered rate is fixed, the bursts are the
    // trace's.
    let natural_per_s =
        TENANTS as f64 * cfg.mean_on_s / (cfg.mean_on_s + cfg.mean_off_s) / cfg.mean_interarrival_s;
    let wanted = (toggles_per_s * duration_s).round() as usize;
    let cfg = TenantTrafficConfig {
        horizon_s: 1.5 * wanted as f64 / natural_per_s + cfg.mean_on_s + cfg.mean_off_s,
        ..cfg
    };
    let mut arrivals = bursty_tenant_arrivals(&cfg);
    arrivals.truncate(wanted);
    // The last toggle lands just inside the run, not on its end.
    let stretch = 0.9999 * duration_s / arrivals.last().map_or(1.0, |a| a.arrival_s.max(1e-9));

    let slots = TENANTS.div_ceil(lanes);
    let mut out: Vec<(Vec<Event>, Vec<usize>)> =
        (0..lanes).map(|_| (Vec::new(), vec![0; slots])).collect();
    for a in &arrivals {
        let (lane, slot) = (a.tenant as usize % lanes, a.tenant as usize / lanes);
        out[lane].0.push(Event {
            due_ns: (a.arrival_s * stretch * 1e9) as u64,
            slot: Some(slot),
        });
        out[lane].1[slot] = apps
            .iter()
            .position(|i| i.name == a.app)
            .expect("trace apps are registered designs");
    }
    // Independent pollers: exponential gaps, one stream per lane.
    let status_per_lane_s = OFFERED_PER_S * STATUS_SHARE / lanes as f64;
    for (lane, (events, _)) in out.iter_mut().enumerate() {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5747_5553 ^ ((lane as u64) << 32));
        let mut t = 0.0f64;
        loop {
            let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
            t += -u.ln() / status_per_lane_s;
            if t >= duration_s {
                break;
            }
            events.push(Event {
                due_ns: (t * 1e9) as u64,
                slot: None,
            });
        }
        events.sort_by_key(|e| e.due_ns);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn apps() -> Vec<AppInfo> {
        vital::workloads::benchmarks()
            .iter()
            .flat_map(|b| {
                vital::workloads::Size::ALL.map(|s| AppInfo {
                    name: format!("{}-{}", b.name(), s.letter()),
                    blocks: b.tile_count(s) as usize,
                    isa_tiles: 1,
                })
            })
            .collect()
    }

    #[test]
    fn a_stall_is_charged_to_the_requests_that_were_due_meanwhile() {
        let events: Vec<Event> = (0..4)
            .map(|i| Event {
                due_ns: i * 1_000_000,
                slot: None,
            })
            .collect();
        let mut s = Schedule::new(events, 0);
        assert_eq!(s.pop_due(0).map(|e| e.due_ns), Some(0));
        assert_eq!(s.pop_due(500_000), None, "the second is not due yet");
        // The generator stalls until 10 ms: the backlog comes out with the
        // original due times, so a reply at 11 ms is 10, 9 and 8 ms late —
        // not the 1 ms a send-time clock would claim.
        let backlog: Vec<u64> = std::iter::from_fn(|| s.pop_due(10_000_000))
            .map(|e| e.due_ns)
            .collect();
        assert_eq!(backlog, [1_000_000, 2_000_000, 3_000_000]);
        let reply_ns = 11_000_000u64;
        let charged: Vec<u64> = backlog.iter().map(|due| reply_ns - due).collect();
        assert_eq!(charged, [10_000_000, 9_000_000, 8_000_000]);
        assert_eq!(s.next_due_ns(), None);
    }

    #[test]
    fn a_busy_tenant_defers_its_toggle_and_keeps_the_due_time() {
        let mut s = Schedule::new(Vec::new(), 2);
        s.defer(1, 7);
        s.defer(1, 9);
        assert_eq!(s.parked(), 2);
        assert_eq!(s.take_deferred(0), None);
        assert_eq!(s.take_deferred(1), Some(7));
        assert_eq!(s.take_deferred(1), Some(9));
        assert_eq!(s.parked(), 0);
    }

    #[test]
    fn burst_open_offers_the_fixed_rate_and_repeats_per_seed() {
        let (a, b) = (
            burst_open(3, 2, 2_000_000_000, &apps()),
            burst_open(3, 2, 2_000_000_000, &apps()),
        );
        assert_eq!(a, b, "same seed, same schedule");
        assert_ne!(a, burst_open(4, 2, 2_000_000_000, &apps()));
        let toggles: usize = a
            .iter()
            .map(|(e, _)| e.iter().filter(|e| e.slot.is_some()).count())
            .sum();
        let polls: usize = a
            .iter()
            .map(|(e, _)| e.iter().filter(|e| e.slot.is_none()).count())
            .sum();
        assert_eq!(toggles, 2_000, "1 000 toggles/s for 2 s, exactly");
        assert!((7_600..8_400).contains(&polls), "{polls} polls");
        for (events, pinned) in &a {
            assert!(events.windows(2).all(|w| w[0].due_ns <= w[1].due_ns));
            assert!(events.iter().all(|e| e.due_ns <= 2_000_000_000));
            assert!(events
                .iter()
                .filter_map(|e| e.slot)
                .all(|s| s < pinned.len()));
        }
    }
}
