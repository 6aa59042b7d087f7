//! Structured telemetry for the ViTAL stack: nestable tracing spans, point
//! events, a metrics registry (counters and log-scale histograms) and
//! machine-readable exporters.
//!
//! The paper's evaluation (§5, Figs. 8–10) is built on being able to
//! *measure* every layer — per-stage compile times, allocation decisions,
//! response-time distributions, failure goodput. This crate is the one
//! instrumentation substrate all layers share:
//!
//! * the **compiler** emits one span per stage and per virtual block,
//! * the **system controller** emits spans for `deploy` / `undeploy` /
//!   `fail_fpga` / `evacuate` / `defragment` with allocation-round,
//!   fpgas-used and ring-hop-cost fields,
//! * the **cluster simulator** emits a sim-time event timeline (arrivals,
//!   placements, evictions, requeues, completions) that makes every Fig. 9
//!   run replayable as a trace.
//!
//! Two exporters are provided: JSONL (one record per line, trivially
//! greppable) and Chrome `trace_event` JSON, viewable in `about:tracing`
//! or [Perfetto](https://ui.perfetto.dev).
//!
//! # Zero cost when disabled
//!
//! A [`Telemetry`] handle is either *live* (backed by shared state) or
//! *disabled* (`Telemetry::disabled()`, also the `Default`). Disabled
//! handles hold no allocation and every operation is a single branch on an
//! `Option`. The end-to-end benchmark (`benchmark/`) reports what live
//! tracing costs as `bench.trace_overhead_frac`.
//!
//! # Bounded memory
//!
//! A live handle keeps the most recent 16,384 records and drops the
//! oldest beyond that, counting each in the
//! `telemetry.records_dropped` counter — so a daemon that records every
//! request holds a constant-size trace, not one that grows per request.
//! Metrics are aggregates and never dropped.
//!
//! # Deterministic in sim time
//!
//! A handle created with [`Telemetry::sim`] uses a *manual* clock: the
//! owner records with an explicit timestamp ([`Telemetry::event_at`]). The sim path
//! never reads the wall clock, so the exported trace is a pure function of
//! the simulation inputs (verified by the `sim_determinism` integration
//! test).
//!
//! # Example
//!
//! ```
//! use vital_telemetry::Telemetry;
//!
//! let tel = Telemetry::recording();
//! {
//!     let mut span = tel.span("compile.partition");
//!     span.field("blocks", 4u64);
//!     let _child = span.child("compile.partition.refine");
//! } // spans record themselves on drop
//! tel.inc_counter("compiles", 1);
//! tel.record_hist("partition_s", 0.012);
//! assert_eq!(tel.records().len(), 2);
//! let jsonl = tel.export_jsonl();
//! assert!(jsonl.lines().count() >= 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, unreachable_pub)]

mod export;
mod metrics;

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use parking_lot::Mutex;

pub use metrics::{HistogramSummary, MetricsSnapshot};

/// Records a live handle keeps; older ones are dropped (and counted in
/// `telemetry.records_dropped`). Well above the largest simulator trace
/// the reports and tests export (about 6,200 records).
const RECORD_CAPACITY: usize = 1 << 14;

/// A single typed field value attached to a span or event.
#[derive(Debug, Clone, PartialEq)]
pub enum FieldValue {
    /// Boolean flag.
    Bool(bool),
    /// Unsigned integer.
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Floating point.
    F64(f64),
    /// Text.
    Str(String),
}

impl From<bool> for FieldValue {
    fn from(v: bool) -> Self {
        FieldValue::Bool(v)
    }
}
impl From<u64> for FieldValue {
    fn from(v: u64) -> Self {
        FieldValue::U64(v)
    }
}
impl From<u32> for FieldValue {
    fn from(v: u32) -> Self {
        FieldValue::U64(v.into())
    }
}
impl From<usize> for FieldValue {
    fn from(v: usize) -> Self {
        FieldValue::U64(v as u64)
    }
}
impl From<i64> for FieldValue {
    fn from(v: i64) -> Self {
        FieldValue::I64(v)
    }
}
impl From<f64> for FieldValue {
    fn from(v: f64) -> Self {
        FieldValue::F64(v)
    }
}
impl From<&str> for FieldValue {
    fn from(v: &str) -> Self {
        FieldValue::Str(v.to_string())
    }
}
impl From<String> for FieldValue {
    fn from(v: String) -> Self {
        FieldValue::Str(v)
    }
}

/// A key/value field.
pub type Field = (&'static str, FieldValue);

/// What kind of record a [`TraceRecord`] is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecordKind {
    /// A completed span with a duration.
    Span {
        /// Span duration in microseconds.
        dur_us: u64,
    },
    /// An instantaneous point event.
    Instant,
}

/// One recorded span or event.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceRecord {
    /// Record name (dot-separated taxonomy, e.g. `compile.local_pnr`).
    pub name: &'static str,
    /// Span-vs-event discriminator (and the span duration).
    pub kind: RecordKind,
    /// Start (or occurrence) time in microseconds on the handle's clock.
    pub start_us: u64,
    /// Display track (`tid` in the Chrome trace): 0 unless the emitter
    /// chose a track, e.g. one per parallel P&R worker slot.
    pub(crate) track: u32,
    /// Unique id of this record within the handle.
    pub id: u64,
    /// Id of the enclosing span, if any.
    pub parent: Option<u64>,
    /// Attached fields, in insertion order.
    pub fields: Vec<Field>,
}

enum Clock {
    Wall(Instant),
    Manual(AtomicU64),
}

struct Inner {
    clock: Clock,
    /// The most recent records, oldest first, at most [`RECORD_CAPACITY`].
    records: Mutex<VecDeque<TraceRecord>>,
    metrics: metrics::Registry,
    next_id: AtomicU64,
}

impl Inner {
    fn now_us(&self) -> u64 {
        match &self.clock {
            Clock::Wall(t0) => t0.elapsed().as_micros() as u64,
            Clock::Manual(us) => us.load(Ordering::Relaxed),
        }
    }

    /// Appends `record`, dropping the oldest one if the ring is full.
    fn push(&self, record: TraceRecord) {
        let mut records = self.records.lock();
        let full = records.len() == RECORD_CAPACITY;
        if full {
            records.pop_front();
        }
        records.push_back(record);
        drop(records);
        if full {
            self.metrics.inc_counter("telemetry.records_dropped", 1);
        }
    }
}

/// A cheap, clonable telemetry handle shared by every layer of the stack.
///
/// See the [crate-level documentation](crate) for the design.
#[derive(Clone, Default)]
pub struct Telemetry {
    inner: Option<Arc<Inner>>,
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.inner {
            None => f.write_str("Telemetry(disabled)"),
            Some(inner) => f
                .debug_struct("Telemetry")
                .field("records", &inner.records.lock().len())
                .finish(),
        }
    }
}

impl Telemetry {
    /// The no-op handle: records nothing, costs one branch per call.
    pub fn disabled() -> Self {
        Telemetry { inner: None }
    }

    /// A live handle on the wall clock (timestamps are microseconds since
    /// creation). Use for the compiler and the system controller.
    pub fn recording() -> Self {
        Self::with_clock(Clock::Wall(Instant::now()))
    }

    /// A live handle on a *manual* clock starting at 0 µs. Events carry
    /// explicit timestamps ([`Telemetry::event_at`]), so traces are
    /// deterministic. Use for the cluster simulator.
    pub fn sim() -> Self {
        Self::with_clock(Clock::Manual(AtomicU64::new(0)))
    }

    fn with_clock(clock: Clock) -> Self {
        Telemetry {
            inner: Some(Arc::new(Inner {
                clock,
                records: Mutex::new(VecDeque::new()),
                metrics: metrics::Registry::default(),
                next_id: AtomicU64::new(1),
            })),
        }
    }

    /// Starts a root span. The span records itself when dropped or
    /// [`finished`](Span::finish).
    pub fn span(&self, name: &'static str) -> Span {
        self.span_on_track(name, 0)
    }

    /// Starts a root span on an explicit display track (Chrome `tid`).
    pub fn span_on_track(&self, name: &'static str, track: u32) -> Span {
        match &self.inner {
            None => Span { state: None },
            Some(inner) => Span {
                state: Some(SpanState {
                    tel: self.clone(),
                    name,
                    start_us: inner.now_us(),
                    track,
                    id: inner.next_id.fetch_add(1, Ordering::Relaxed),
                    parent: None,
                    fields: Vec::new(),
                }),
            },
        }
    }

    /// Records a point event at an explicit timestamp — the sim path's
    /// primitive (no clock read at all).
    pub fn event_at(&self, t_us: u64, name: &'static str, fields: &[Field]) {
        if let Some(inner) = &self.inner {
            self.push_event(inner, t_us, name, fields);
        }
    }

    fn push_event(&self, inner: &Inner, t_us: u64, name: &'static str, fields: &[Field]) {
        let id = inner.next_id.fetch_add(1, Ordering::Relaxed);
        inner.push(TraceRecord {
            name,
            kind: RecordKind::Instant,
            start_us: t_us,
            track: 0,
            id,
            parent: None,
            fields: fields.to_vec(),
        });
    }

    /// Adds `by` to the named monotonic counter.
    pub fn inc_counter(&self, name: &'static str, by: u64) {
        if let Some(inner) = &self.inner {
            inner.metrics.inc_counter(name, by);
        }
    }

    /// Records `value` into the named log-scale histogram.
    pub fn record_hist(&self, name: &'static str, value: f64) {
        if let Some(inner) = &self.inner {
            inner.metrics.record_hist(name, value);
        }
    }

    /// A snapshot of every counter and histogram.
    pub fn metrics(&self) -> MetricsSnapshot {
        match &self.inner {
            None => MetricsSnapshot::default(),
            Some(inner) => inner.metrics.snapshot(),
        }
    }

    /// A copy of the records kept (the most recent 16,384), in completion
    /// order.
    pub fn records(&self) -> Vec<TraceRecord> {
        match &self.inner {
            None => Vec::new(),
            Some(inner) => inner.records.lock().iter().cloned().collect(),
        }
    }

    /// Exports the trace as JSON Lines: one record object per line,
    /// followed by one final `{"metrics": ...}` line. A disabled handle
    /// exports the empty string (it is a no-op sink, not an empty trace).
    pub fn export_jsonl(&self) -> String {
        if self.inner.is_none() {
            return String::new();
        }
        export::jsonl(&self.records(), &self.metrics())
    }

    /// Exports the trace in Chrome `trace_event` JSON (open in
    /// `about:tracing` or <https://ui.perfetto.dev>).
    pub fn export_chrome_trace(&self) -> String {
        export::chrome_trace(&self.records())
    }

    fn finish_span(&self, state: SpanState, end_us: u64) {
        let Some(inner) = &self.inner else { return };
        inner.push(TraceRecord {
            name: state.name,
            kind: RecordKind::Span {
                dur_us: end_us.saturating_sub(state.start_us),
            },
            start_us: state.start_us,
            track: state.track,
            id: state.id,
            parent: state.parent,
            fields: state.fields,
        });
    }
}

struct SpanState {
    tel: Telemetry,
    name: &'static str,
    start_us: u64,
    track: u32,
    id: u64,
    parent: Option<u64>,
    fields: Vec<Field>,
}

/// An in-flight span. Records itself (with its measured duration) when
/// dropped or explicitly [`finished`](Span::finish). A span made by a
/// disabled handle is an inert no-op.
#[must_use = "a span measures the scope it lives in; bind it to a variable"]
pub struct Span {
    state: Option<SpanState>,
}

impl Span {
    /// Attaches a field. No-op on disabled spans.
    pub fn field(&mut self, key: &'static str, value: impl Into<FieldValue>) {
        if let Some(state) = &mut self.state {
            state.fields.push((key, value.into()));
        }
    }

    /// Starts a child span (nested under this one in exported traces).
    pub fn child(&self, name: &'static str) -> Span {
        match &self.state {
            None => Span { state: None },
            Some(state) => {
                let mut child = state.tel.span_on_track(name, state.track);
                if let Some(cs) = &mut child.state {
                    cs.parent = Some(state.id);
                }
                child
            }
        }
    }

    /// Starts a child span on an explicit display track.
    pub fn child_on_track(&self, name: &'static str, track: u32) -> Span {
        match &self.state {
            None => Span { state: None },
            Some(state) => {
                let mut child = state.tel.span_on_track(name, track);
                if let Some(cs) = &mut child.state {
                    cs.parent = Some(state.id);
                }
                child
            }
        }
    }

    /// Ends the span now, recording it. Equivalent to dropping it, but
    /// reads as intent at call sites.
    pub fn finish(mut self) {
        self.finish_inner();
    }

    fn finish_inner(&mut self) {
        if let Some(state) = self.state.take() {
            let end = state
                .tel
                .inner
                .as_ref()
                .map(|i| i.now_us())
                .unwrap_or(state.start_us);
            state.tel.clone().finish_span(state, end);
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        self.finish_inner();
    }
}

#[cfg(test)]
impl Telemetry {
    /// Advances the manual clock (no-op on wall-clock or disabled handles).
    /// The simulators stamp their events explicitly ([`Telemetry::event_at`]);
    /// only the tests move the clock under running spans.
    pub(crate) fn set_now_us(&self, now_us: u64) {
        if let Some(inner) = &self.inner {
            if let Clock::Manual(us) = &inner.clock {
                us.store(now_us, Ordering::Relaxed);
            }
        }
    }
}

#[cfg(test)]
impl Telemetry {
    /// Records a point event at the current clock reading.
    pub(crate) fn event(&self, name: &'static str, fields: &[Field]) {
        if let Some(inner) = &self.inner {
            self.push_event(inner, inner.now_us(), name, fields);
        }
    }

    /// Drops all records and metrics collected so far.
    pub(crate) fn clear(&self) {
        if let Some(inner) = &self.inner {
            inner.records.lock().clear();
            inner.metrics.clear();
        }
    }
}

#[cfg(test)]
impl Span {
    /// This span's record id (`None` on disabled spans).
    pub(crate) fn id(&self) -> Option<u64> {
        self.state.as_ref().map(|s| s.id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_records_nothing() {
        let tel = Telemetry::disabled();
        assert!(tel.inner.is_none());
        let mut span = tel.span("noop");
        span.field("k", 1u64);
        let child = span.child("noop.child");
        child.finish();
        span.finish();
        tel.event("e", &[("x", 2u64.into())]);
        tel.inc_counter("c", 1);
        tel.record_hist("h", 1.0);
        assert!(tel.records().is_empty());
        assert!(tel.metrics().counters.is_empty());
        assert!(
            tel.export_jsonl().is_empty(),
            "no-op sink, not an empty trace"
        );
    }

    #[test]
    fn spans_nest_and_record_in_completion_order() {
        let tel = Telemetry::recording();
        let outer = tel.span("outer");
        let inner = outer.child("inner");
        let outer_id = outer.id().unwrap();
        inner.finish();
        outer.finish();
        let recs = tel.records();
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[0].name, "inner");
        assert_eq!(recs[0].parent, Some(outer_id));
        assert_eq!(recs[1].name, "outer");
        assert_eq!(recs[1].parent, None);
        assert!(matches!(recs[1].kind, RecordKind::Span { .. }));
    }

    #[test]
    fn manual_clock_never_reads_wall_time() {
        let tel = Telemetry::sim();
        tel.event_at(1_000, "a", &[]);
        tel.set_now_us(2_500);
        tel.event("b", &[("n", 7u64.into())]);
        let recs = tel.records();
        assert_eq!(recs[0].start_us, 1_000);
        assert_eq!(recs[1].start_us, 2_500);
        // A sim-time span between set_now_us calls has an exact duration.
        let span = tel.span("op");
        tel.set_now_us(3_000);
        span.finish();
        let recs = tel.records();
        assert_eq!(recs[2].kind, RecordKind::Span { dur_us: 500 }, "{recs:?}");
    }

    #[test]
    fn metrics_registry_accumulates() {
        let tel = Telemetry::recording();
        tel.inc_counter("deploys", 2);
        tel.inc_counter("deploys", 3);
        for v in [1.0, 2.0, 4.0, 8.0] {
            tel.record_hist("lat", v);
        }
        let m = tel.metrics();
        assert_eq!(m.counters["deploys"], 5);
        let h = &m.histograms["lat"];
        assert_eq!(h.count, 4);
        assert!((h.sum - 15.0).abs() < 1e-9);
        assert!(h.p50 >= 1.0 && h.p50 <= 4.0, "p50 {}", h.p50);
        assert!(h.p95 >= 4.0, "p95 {}", h.p95);
    }

    #[test]
    fn clear_resets_everything() {
        let tel = Telemetry::recording();
        tel.event("e", &[]);
        tel.inc_counter("c", 1);
        tel.clear();
        assert!(tel.records().is_empty());
        assert!(tel.metrics().counters.is_empty());
    }

    #[test]
    fn record_ring_keeps_the_newest_and_counts_the_dropped() {
        let tel = Telemetry::recording();
        for _ in 0..2 * RECORD_CAPACITY {
            tel.span("s").finish();
        }
        let recs = tel.records();
        assert_eq!(recs.len(), RECORD_CAPACITY);
        let ids: Vec<u64> = recs.iter().map(|r| r.id).collect();
        let newest = (RECORD_CAPACITY as u64 + 1..=2 * RECORD_CAPACITY as u64).collect::<Vec<_>>();
        assert_eq!(ids, newest, "the oldest half was dropped, in order");
        assert_eq!(
            tel.metrics().counters["telemetry.records_dropped"],
            RECORD_CAPACITY as u64
        );
    }

    #[test]
    fn clones_share_state() {
        let tel = Telemetry::sim();
        let other = tel.clone();
        other.event_at(5, "shared", &[]);
        assert_eq!(tel.records().len(), 1);
    }
}
