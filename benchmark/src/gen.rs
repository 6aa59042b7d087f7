//! The seeded request generators of the three service workloads.
//!
//! A [`Plan`] belongs to one connection. It owns that connection's tenant
//! *slots* — at most sixteen live tenants, so capacity can never
//! legitimately run out — and turns seeded draws into concrete
//! [`ControlRequest`]s, filling in the tenant ids the program handed back.
//! A slot walks a fixed script (the lifecycle of one tenant) and has at
//! most one operation in flight. The plan also checks every reply against
//! the request that caused it and classifies every refusal, so the
//! transports (TCP closed loop, TCP open loop, the three replay depths of
//! the traced pass) share one definition of "correct".

use std::collections::BTreeMap;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use vital::interface::ErrorCode;
use vital::runtime::{
    ControlRequest, ControlResponse, DeployBackend, DeployRequest, MigratePolicy,
};

use crate::stack::{AppInfo, FPGAS};

/// Live tenants one connection may hold at once.
pub const SLOTS: usize = 16;
/// ISA tenants one connection may hold at once: with S-size programs
/// (at most three tiles, scaled to at most four) the 60-tile pool can
/// never be empty when a deploy arrives.
const ISA_SLOTS: usize = 2;
/// Largest share a `Scale` asks for.
const MAX_SCALE: u32 = 4;
/// Share of `churn_saturate` operations that are `Status` polls.
const CHURN_STATUS: f64 = 0.10;
/// Sends of one operation before a retryable refusal counts as a failure.
pub const MAX_ATTEMPTS: u32 = 8;

/// Which workload's traffic a plan generates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    /// `tenant_closed`: every slot walks the ring Deploy → Status →
    /// Checkpoint → Restore → Migrate(Auto) → Undeploy.
    Ring,
    /// `burst_open`: every slot toggles Deploy/Undeploy; `Status` polls
    /// come from the schedule, not from the plan.
    Toggle,
    /// `churn_saturate`: 10 % `Status`, 90 % lifecycle writes over four
    /// scripts (plain, checkpointed, migrated, ISA).
    Churn,
}

/// One step of a tenant's script.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Step {
    Deploy,
    DeployIsa,
    Status,
    Checkpoint,
    Restore,
    Migrate,
    Scale,
    Undeploy,
}

const RING: &[Step] = &[
    Step::Deploy,
    Step::Status,
    Step::Checkpoint,
    Step::Restore,
    Step::Migrate,
    Step::Undeploy,
];
const PLAIN: &[Step] = &[Step::Deploy, Step::Undeploy];
const PARKED: &[Step] = &[
    Step::Deploy,
    Step::Checkpoint,
    Step::Restore,
    Step::Undeploy,
];
const MOVED: &[Step] = &[Step::Deploy, Step::Migrate, Step::Undeploy];
const ISA: &[Step] = &[Step::DeployIsa, Step::Scale, Step::Undeploy];

#[derive(Debug, Clone)]
struct Slot {
    script: &'static [Step],
    pos: usize,
    app: usize,
    tenant: Option<u64>,
    parked: bool,
    busy: bool,
}

/// One generated operation: the request plus what its reply must say.
#[derive(Debug, Clone, PartialEq)]
pub struct Op {
    /// The slot the operation belongs to (`None` for cluster-wide ones).
    pub slot: Option<usize>,
    /// The request as sent.
    pub req: ControlRequest,
    /// Blocks (fabric) or tiles (ISA, `Scale`) the reply must report.
    expect_units: usize,
    /// A `Restore` sent because a `Migrate` was refused (see
    /// [`Outcome::Recover`]).
    recovery: bool,
}

impl Op {
    /// The operation kind, as the per-kind tables name it.
    pub fn kind(&self) -> &'static str {
        kind_of(&self.req)
    }
}

/// The per-kind name of a request: its endpoint, with ISA deploys apart.
pub fn kind_of(req: &ControlRequest) -> &'static str {
    match req {
        ControlRequest::Deploy(r) if r.backend == DeployBackend::Isa => "deploy_isa",
        other => other.endpoint(),
    }
}

/// What a reply meant for the operation that caused it.
#[derive(Debug, Clone, PartialEq)]
pub enum Outcome {
    /// The success variant for the request, with the right contents.
    Done,
    /// A retryable refusal without side effects: send the same request
    /// again, as `vitalctl` would.
    Retry(ErrorCode),
    /// A `Migrate` was refused. The move parks the tenant before it looks
    /// for new blocks, so a refusal (a claim race, typically) can leave it
    /// parked, and a second `Migrate` is then answered `UnknownTenant`. The
    /// controller's documentation prescribes the way out — "the tenant is
    /// suspended, not lost — resume it" — so the operation goes on as this
    /// `Restore`, and is over when the tenant is live again.
    Recover(Box<Op>),
    /// A non-retryable error, or a reply that does not answer the request.
    Failed(String),
}

/// Refusals seen by one plan, by [`ErrorCode`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Refusals {
    /// Non-success replies by stable code name.
    pub by_code: BTreeMap<&'static str, u64>,
    /// `InsufficientResources` replies whose own message reports at least
    /// as many free blocks as needed: two workers raced for the same
    /// blocks and the loser was refused on a half-empty cluster.
    pub claim_races: u64,
    /// `Status` replies whose `total_free` is not the sum of the devices'
    /// `free`: the snapshot was read across a concurrent write. Counted,
    /// not failed — at the seed commit `Status` takes its locks one by one.
    pub torn_status: u64,
}

impl Refusals {
    /// Adds another plan's counts.
    pub fn merge(&mut self, other: &Refusals) {
        for (code, n) in &other.by_code {
            *self.by_code.entry(code).or_default() += n;
        }
        self.claim_races += other.claim_races;
        self.torn_status += other.torn_status;
    }

    /// Count for one code.
    pub fn count(&self, code: ErrorCode) -> u64 {
        self.by_code.get(code.as_str()).copied().unwrap_or(0)
    }

    fn record(&mut self, code: ErrorCode, message: &str) {
        *self.by_code.entry(code.as_str()).or_default() += 1;
        if code == ErrorCode::InsufficientResources && reports_enough_free(message) {
            self.claim_races += 1;
        }
    }
}

/// `true` if an `InsufficientResources` message ("need N blocks, M free")
/// itself says that enough blocks were free.
fn reports_enough_free(message: &str) -> bool {
    let mut numbers = message
        .split(|c: char| !c.is_ascii_digit())
        .filter_map(|w| w.parse::<usize>().ok());
    matches!((numbers.next(), numbers.next()), (Some(needed), Some(free)) if free >= needed)
}

/// The generator of one connection.
pub struct Plan {
    mix: Mix,
    rng: StdRng,
    apps: Vec<AppInfo>,
    /// Indices of the S-size designs (the ISA deploys draw from these).
    small: Vec<usize>,
    slots: Vec<Slot>,
    /// What the program refused, by code.
    pub refusals: Refusals,
}

impl Plan {
    /// A plan for connection `conn` of `seed`, holding `slots` tenants.
    pub fn new(mix: Mix, seed: u64, conn: usize, slots: usize, apps: &[AppInfo]) -> Plan {
        let small = (0..apps.len())
            .filter(|&i| apps[i].name.ends_with("-S"))
            .collect();
        Plan {
            mix,
            rng: StdRng::seed_from_u64(
                seed ^ (conn as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15),
            ),
            apps: apps.to_vec(),
            small,
            slots: vec![
                Slot {
                    script: PLAIN,
                    pos: 0,
                    app: 0,
                    tenant: None,
                    parked: false,
                    busy: false,
                };
                slots
            ],
            refusals: Refusals::default(),
        }
    }

    /// Fixes the design each slot deploys (the open loop's tenants keep
    /// the app their trace gave them).
    pub fn pin_apps(&mut self, apps: &[usize]) {
        for (slot, &app) in self.slots.iter_mut().zip(apps) {
            slot.app = app;
        }
    }

    /// Most blocks the plan's tenants can hold at once.
    pub fn max_blocks(&self) -> usize {
        let largest = self.apps.iter().map(|a| a.blocks).max().unwrap_or(0);
        self.slots.len() * largest
    }

    /// The next operation of a closed loop: a seeded draw of the kind and
    /// of the slot, skipping slots that already have one in flight.
    pub fn next_op(&mut self) -> Op {
        if self.mix == Mix::Churn && self.rng.gen_bool(CHURN_STATUS) {
            return status_op();
        }
        let n = self.slots.len();
        let start = self.rng.gen_range(0..n);
        (0..n)
            .find_map(|k| self.slot_op((start + k) % n))
            .unwrap_or_else(status_op)
    }

    /// The next step of slot `i`, or `None` while its previous one is
    /// still in flight.
    pub fn slot_op(&mut self, i: usize) -> Option<Op> {
        if self.slots[i].busy {
            return None;
        }
        if self.slots[i].pos == 0 {
            self.start_script(i);
        }
        let slot = &mut self.slots[i];
        slot.busy = true;
        let tenant = slot.tenant.unwrap_or(0);
        let app = &self.apps[slot.app];
        let (req, expect_units) = match slot.script[slot.pos] {
            Step::Deploy => (ControlRequest::deploy(app.name.clone()), app.blocks),
            Step::DeployIsa => (
                ControlRequest::Deploy(DeployRequest::isa(app.name.clone())),
                app.isa_tiles,
            ),
            Step::Status => (ControlRequest::Status, 0),
            Step::Checkpoint => (ControlRequest::Checkpoint { tenant }, 0),
            Step::Restore => (ControlRequest::Restore { tenant }, app.blocks),
            Step::Migrate => (
                ControlRequest::Migrate {
                    tenant,
                    policy: MigratePolicy::Auto,
                },
                0,
            ),
            Step::Scale => {
                let tiles = self.rng.gen_range(1..=MAX_SCALE);
                (ControlRequest::Scale { tenant, tiles }, tiles as usize)
            }
            Step::Undeploy => (ControlRequest::Undeploy { tenant }, 0),
        };
        Some(Op {
            slot: Some(i),
            req,
            expect_units,
            recovery: false,
        })
    }

    /// Draws the script and the design of a tenant about to be deployed.
    fn start_script(&mut self, i: usize) {
        let isa_live = self
            .slots
            .iter()
            .filter(|s| s.script == ISA && (s.pos > 0 || s.busy))
            .count();
        let script = match self.mix {
            Mix::Ring => RING,
            Mix::Toggle => PLAIN,
            Mix::Churn => match self.rng.gen_range(0..100) {
                0..=34 => PLAIN,
                35..=59 => PARKED,
                60..=84 => MOVED,
                _ if isa_live < ISA_SLOTS => ISA,
                _ => PLAIN,
            },
        };
        let app = match self.mix {
            Mix::Toggle => self.slots[i].app,
            _ if script == ISA => self.small[self.rng.gen_range(0..self.small.len())],
            _ => self.rng.gen_range(0..self.apps.len()),
        };
        let slot = &mut self.slots[i];
        slot.script = script;
        slot.app = app;
    }

    /// A seeded pause between a reply and the tenant's next request,
    /// uniform below `max`.
    pub fn think_time(&mut self, max: std::time::Duration) -> std::time::Duration {
        max.mul_f64(self.rng.gen::<f64>())
    }

    /// An Evacuate → Recover pair on a seeded device. The caller sends it
    /// with nothing else in flight anywhere: an evacuation migrates every
    /// tenant of the device, the generators' too, and would race their own
    /// operations.
    pub fn evacuation_pair(&mut self) -> [Op; 2] {
        let fpga = self.rng.gen_range(0..FPGAS);
        [
            ControlRequest::Evacuate { fpga },
            ControlRequest::Recover { fpga },
        ]
        .map(|req| Op {
            slot: None,
            req,
            expect_units: 0,
            recovery: false,
        })
    }

    /// The next operation that brings slot `i` back to empty once the
    /// workload is over: restore it if it is parked, then undeploy it.
    pub fn teardown_op(&mut self, i: usize) -> Option<Op> {
        let slot = &mut self.slots[i];
        let tenant = slot.tenant?;
        slot.busy = true;
        let req = if slot.parked {
            ControlRequest::Restore { tenant }
        } else {
            ControlRequest::Undeploy { tenant }
        };
        let expect_units = match req {
            ControlRequest::Restore { .. } => self.apps[slot.app].blocks,
            _ => 0,
        };
        Some(Op {
            slot: Some(i),
            req,
            expect_units,
            recovery: false,
        })
    }

    /// Slots the plan owns.
    pub fn slot_count(&self) -> usize {
        self.slots.len()
    }

    /// Matches `resp` to the operation that caused it, records a refusal,
    /// and moves the slot on when the operation is over.
    pub fn complete(&mut self, op: &Op, resp: &ControlResponse) -> Outcome {
        let outcome = match resp.err() {
            // The tenant never left its blocks: the refused move is over.
            Some(e) if op.recovery && e.code == ErrorCode::TenantActive => Outcome::Done,
            Some(e) => {
                self.refusals.record(e.code, &e.message);
                if let (ControlRequest::Migrate { tenant, .. }, Some(i)) = (&op.req, op.slot) {
                    return Outcome::Recover(Box::new(Op {
                        slot: op.slot,
                        req: ControlRequest::Restore { tenant: *tenant },
                        expect_units: self.apps[self.slots[i].app].blocks,
                        recovery: true,
                    }));
                }
                if e.is_retryable() {
                    // The slot stays busy: the same request goes out again.
                    return Outcome::Retry(e.code);
                }
                Outcome::Failed(format!("{}: {e}", op.kind()))
            }
            None => match check_reply(op, resp) {
                Ok(()) => {
                    if let ControlResponse::Status(s) = resp {
                        let sum: usize = s.fpgas.iter().map(|f| f.free).sum();
                        self.refusals.torn_status += u64::from(s.total_free != sum);
                    }
                    Outcome::Done
                }
                Err(why) => Outcome::Failed(why),
            },
        };
        if let Some(i) = op.slot {
            let slot = &mut self.slots[i];
            slot.busy = false;
            if outcome == Outcome::Done {
                match (&op.req, resp) {
                    (_, ControlResponse::Deployed(d)) => slot.tenant = Some(d.tenant),
                    (ControlRequest::Checkpoint { .. }, _) => slot.parked = true,
                    (ControlRequest::Restore { .. }, _) => slot.parked = false,
                    (ControlRequest::Undeploy { .. }, _) => slot.tenant = None,
                    _ => {}
                }
                slot.pos = match op.req {
                    ControlRequest::Undeploy { .. } => 0,
                    _ => (slot.pos + 1) % slot.script.len(),
                };
            }
        }
        outcome
    }

    /// Gives up on an operation whose retries ran out.
    pub fn abandon(&mut self, op: &Op) {
        if let Some(i) = op.slot {
            self.slots[i].busy = false;
        }
    }
}

/// A cluster-wide `Status` poll.
pub fn status_op() -> Op {
    Op {
        slot: None,
        req: ControlRequest::Status,
        expect_units: 0,
        recovery: false,
    }
}

/// Checks that a success reply is the variant its request calls for and
/// echoes what was asked.
fn check_reply(op: &Op, resp: &ControlResponse) -> Result<(), String> {
    let want = |ok: bool, what: &str| {
        if ok {
            Ok(())
        } else {
            let reply: String = format!("{resp:?}").chars().take(200).collect();
            Err(format!("{}: {what}: {reply}", op.kind()))
        }
    };
    match (&op.req, resp) {
        (ControlRequest::Deploy(r), ControlResponse::Deployed(d)) => want(
            d.app == r.app && d.blocks == op.expect_units && d.tenant != 0,
            "wrong app, size or tenant",
        ),
        (ControlRequest::Undeploy { tenant }, ControlResponse::Undeployed { tenant: t }) => {
            want(t == tenant, "another tenant undeployed")
        }
        (ControlRequest::Checkpoint { tenant }, ControlResponse::Suspended(s)) => {
            want(s.tenant == *tenant, "another tenant suspended")
        }
        (ControlRequest::Restore { tenant }, ControlResponse::Resumed(d)) => want(
            d.tenant == *tenant && d.blocks == op.expect_units,
            "wrong tenant or size resumed",
        ),
        (ControlRequest::Migrate { tenant, .. }, ControlResponse::Migrated(m)) => want(
            m.tenant == *tenant && m.policy != MigratePolicy::Auto,
            "wrong tenant or unresolved policy",
        ),
        (ControlRequest::Scale { tenant, tiles }, ControlResponse::Scaled(s)) => want(
            s.tenant == *tenant && s.tiles_after == *tiles,
            "wrong tenant or share",
        ),
        (ControlRequest::Status, ControlResponse::Status(s)) => {
            want(s.fpgas.len() == FPGAS, "wrong device count")
        }
        (ControlRequest::Evacuate { fpga }, ControlResponse::Evacuated(e)) => {
            want(e.fpga == *fpga, "another device evacuated")
        }
        (ControlRequest::Recover { fpga }, ControlResponse::Recovered { fpga: f }) => {
            want(f == fpga, "another device recovered")
        }
        _ => want(false, "reply does not answer the request"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vital::interface::ApiError;
    use vital::runtime::DeploySummary;

    fn apps() -> Vec<AppInfo> {
        vec![
            AppInfo {
                name: "lenet-S".into(),
                blocks: 1,
                isa_tiles: 1,
            },
            AppInfo {
                name: "vgg-L".into(),
                blocks: 10,
                isa_tiles: 10,
            },
        ]
    }

    fn deployed(op: &Op, tenant: u64) -> ControlResponse {
        let ControlRequest::Deploy(r) = &op.req else {
            panic!("not a deploy: {:?}", op.req)
        };
        ControlResponse::Deployed(DeploySummary {
            tenant,
            app: r.app.clone(),
            blocks: op.expect_units,
            fpgas: 1,
            primary_fpga: 0,
            reconfig_us: 1,
            granted_gbps: 1.0,
        })
    }

    #[test]
    fn same_seed_same_requests() {
        let (mut a, mut b) = (
            Plan::new(Mix::Churn, 7, 0, SLOTS, &apps()),
            Plan::new(Mix::Churn, 7, 0, SLOTS, &apps()),
        );
        let mut other = Plan::new(Mix::Churn, 8, 0, SLOTS, &apps());
        let mut differs = false;
        for _ in 0..SLOTS {
            let (x, y, z) = (a.next_op(), b.next_op(), other.next_op());
            assert_eq!(x.req, y.req);
            differs |= x.req != z.req;
        }
        assert!(differs, "another seed gives other requests");
    }

    #[test]
    fn a_slot_has_one_operation_in_flight_and_walks_the_ring() {
        let mut plan = Plan::new(Mix::Ring, 1, 0, 1, &apps());
        let deploy = plan.slot_op(0).unwrap();
        assert_eq!(deploy.kind(), "deploy");
        assert!(plan.slot_op(0).is_none(), "busy until the reply arrives");
        assert_eq!(plan.complete(&deploy, &deployed(&deploy, 9)), Outcome::Done);
        let kinds: Vec<&str> = (0..5)
            .map(|_| {
                let op = plan.slot_op(0).unwrap();
                // Every later step names the tenant the deploy returned.
                let text = format!("{:?}", op.req);
                assert!(
                    op.kind() == "status" || text.contains("tenant: 9"),
                    "{text}"
                );
                plan.slots[0].busy = false;
                plan.slots[0].pos = (plan.slots[0].pos + 1) % RING.len();
                op.kind()
            })
            .collect();
        assert_eq!(
            kinds,
            ["status", "checkpoint", "restore", "migrate", "undeploy"]
        );
    }

    #[test]
    fn refusals_are_retried_counted_and_classified() {
        let mut plan = Plan::new(Mix::Toggle, 1, 0, 1, &apps());
        let op = plan.slot_op(0).unwrap();
        let race = ControlResponse::Err(ApiError::new(
            ErrorCode::InsufficientResources,
            "insufficient resources: need 10 blocks, 812 free",
        ));
        assert_eq!(
            plan.complete(&op, &race),
            Outcome::Retry(ErrorCode::InsufficientResources)
        );
        assert!(plan.slot_op(0).is_none(), "the slot waits for the retry");
        let full = ControlResponse::Err(ApiError::new(
            ErrorCode::InsufficientResources,
            "insufficient resources: need 10 blocks, 3 free",
        ));
        assert!(matches!(plan.complete(&op, &full), Outcome::Retry(_)));
        assert_eq!(plan.refusals.count(ErrorCode::InsufficientResources), 2);
        assert_eq!(plan.refusals.claim_races, 1);
        let hard = ControlResponse::Err(ApiError::new(ErrorCode::UnknownApp, "no such app"));
        assert!(matches!(plan.complete(&op, &hard), Outcome::Failed(_)));
        assert!(plan.slot_op(0).is_some(), "a failed deploy frees the slot");
    }

    #[test]
    fn a_refused_migrate_goes_on_as_a_restore() {
        let mut plan = Plan::new(Mix::Ring, 1, 0, 1, &apps());
        let deploy = plan.slot_op(0).unwrap();
        plan.complete(&deploy, &deployed(&deploy, 6));
        plan.slots[0].pos = RING.iter().position(|s| *s == Step::Migrate).unwrap();
        let migrate = plan.slot_op(0).unwrap();
        assert_eq!(migrate.kind(), "migrate");
        let raced = ControlResponse::Err(ApiError::new(
            ErrorCode::InsufficientResources,
            "insufficient resources: need 10 blocks, 700 free",
        ));
        let Outcome::Recover(restore) = plan.complete(&migrate, &raced) else {
            panic!("a refused migrate must be recovered, not resent");
        };
        assert_eq!(restore.req, ControlRequest::Restore { tenant: 6 });
        assert_eq!(plan.refusals.claim_races, 1);
        assert!(plan.slot_op(0).is_none(), "the slot stays busy meanwhile");
        // The race hit before the tenant was parked: it is still live,
        // which ends the operation just as a `Resumed` would.
        let live = ControlResponse::Err(ApiError::new(ErrorCode::TenantActive, "still deployed"));
        assert_eq!(plan.complete(&restore, &live), Outcome::Done);
        assert_eq!(plan.slot_op(0).unwrap().kind(), "undeploy");
    }

    #[test]
    fn a_reply_of_the_wrong_kind_or_size_fails_the_check() {
        let mut plan = Plan::new(Mix::Toggle, 1, 0, 1, &apps());
        let op = plan.slot_op(0).unwrap();
        let wrong_kind = ControlResponse::Undeployed { tenant: 1 };
        assert!(matches!(
            plan.complete(&op, &wrong_kind),
            Outcome::Failed(_)
        ));
        let op = plan.slot_op(0).unwrap();
        let mut wrong_size = deployed(&op, 4);
        if let ControlResponse::Deployed(d) = &mut wrong_size {
            d.blocks += 1;
        }
        assert!(matches!(
            plan.complete(&op, &wrong_size),
            Outcome::Failed(_)
        ));
    }

    #[test]
    fn teardown_restores_a_parked_tenant_before_undeploying_it() {
        let mut plan = Plan::new(Mix::Ring, 1, 0, 1, &apps());
        assert!(plan.teardown_op(0).is_none(), "an empty slot needs nothing");
        let deploy = plan.slot_op(0).unwrap();
        plan.complete(&deploy, &deployed(&deploy, 5));
        plan.slots[0].parked = true;
        let restore = plan.teardown_op(0).unwrap();
        assert_eq!(restore.kind(), "restore");
        plan.slots[0].parked = false;
        plan.slots[0].busy = false;
        let undeploy = plan.teardown_op(0).unwrap();
        assert_eq!(undeploy.kind(), "undeploy");
        let done = ControlResponse::Undeployed { tenant: 5 };
        assert_eq!(plan.complete(&undeploy, &done), Outcome::Done);
        assert!(plan.teardown_op(0).is_none());
    }
}
