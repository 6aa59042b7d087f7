//! Trace exporters: JSON Lines and Chrome `trace_event` JSON.
//!
//! Both are pure functions of the recorded data — given the same records
//! they produce byte-identical output, which the simulator-determinism
//! test relies on.

use serde::Value;

use crate::metrics::MetricsSnapshot;
use crate::{FieldValue, RecordKind, TraceRecord};

fn render(v: Value) -> String {
    // Non-finite floats are mapped to null before we get here, so the
    // tree is always serializable.
    serde_json::to_string(&v).expect("sanitized value tree serializes")
}

fn f64_value(v: f64) -> Value {
    if v.is_finite() {
        Value::F64(v)
    } else {
        Value::Null
    }
}

fn field_value(v: &FieldValue) -> Value {
    match v {
        FieldValue::Bool(b) => Value::Bool(*b),
        FieldValue::U64(n) => Value::U64(*n),
        FieldValue::I64(n) => Value::I64(*n),
        FieldValue::F64(f) => f64_value(*f),
        FieldValue::Str(s) => Value::Str(s.clone()),
    }
}

fn fields_map(fields: &[(&'static str, FieldValue)]) -> Value {
    Value::Map(
        fields
            .iter()
            .map(|(k, v)| (k.to_string(), field_value(v)))
            .collect(),
    )
}

/// Renders the trace as JSON Lines: one object per record, then one final
/// `{"metrics": ...}` object. Every line is standalone valid JSON.
pub(crate) fn jsonl(records: &[TraceRecord], metrics: &MetricsSnapshot) -> String {
    let mut out = String::new();
    for rec in records {
        let mut entries = vec![
            ("name".to_string(), Value::Str(rec.name.to_string())),
            (
                "kind".to_string(),
                Value::Str(
                    match rec.kind {
                        RecordKind::Span { .. } => "span",
                        RecordKind::Instant => "instant",
                    }
                    .to_string(),
                ),
            ),
            ("start_us".to_string(), Value::U64(rec.start_us)),
        ];
        if let RecordKind::Span { dur_us } = rec.kind {
            entries.push(("dur_us".to_string(), Value::U64(dur_us)));
        }
        entries.push(("track".to_string(), Value::U64(rec.track.into())));
        entries.push(("id".to_string(), Value::U64(rec.id)));
        if let Some(parent) = rec.parent {
            entries.push(("parent".to_string(), Value::U64(parent)));
        }
        if !rec.fields.is_empty() {
            entries.push(("fields".to_string(), fields_map(&rec.fields)));
        }
        out.push_str(&render(Value::Map(entries)));
        out.push('\n');
    }
    out.push_str(&render(Value::Map(vec![(
        "metrics".to_string(),
        metrics_value(metrics),
    )])));
    out.push('\n');
    out
}

fn metrics_value(m: &MetricsSnapshot) -> Value {
    let counters = Value::Map(
        m.counters
            .iter()
            .map(|(k, v)| (k.clone(), Value::U64(*v)))
            .collect(),
    );
    let histograms = Value::Map(
        m.histograms
            .iter()
            .map(|(k, h)| {
                (
                    k.clone(),
                    Value::Map(vec![
                        ("count".to_string(), Value::U64(h.count)),
                        ("sum".to_string(), f64_value(h.sum)),
                        ("min".to_string(), f64_value(h.min)),
                        ("max".to_string(), f64_value(h.max)),
                        ("p50".to_string(), f64_value(h.p50)),
                        ("p95".to_string(), f64_value(h.p95)),
                    ]),
                )
            })
            .collect(),
    );
    Value::Map(vec![
        ("counters".to_string(), counters),
        ("histograms".to_string(), histograms),
    ])
}

/// Renders the trace in Chrome `trace_event` format: spans become `"X"`
/// (complete) events with `ts`/`dur`, point events become `"i"` (instant)
/// events, and the record track becomes the `tid`. Open the output in
/// `about:tracing` or <https://ui.perfetto.dev>.
pub(crate) fn chrome_trace(records: &[TraceRecord]) -> String {
    let events: Vec<Value> = records
        .iter()
        .map(|rec| {
            let mut entries = vec![
                ("name".to_string(), Value::Str(rec.name.to_string())),
                ("pid".to_string(), Value::U64(1)),
                ("tid".to_string(), Value::U64(rec.track.into())),
                ("ts".to_string(), Value::U64(rec.start_us)),
            ];
            match rec.kind {
                RecordKind::Span { dur_us } => {
                    entries.push(("ph".to_string(), Value::Str("X".to_string())));
                    entries.push(("dur".to_string(), Value::U64(dur_us)));
                }
                RecordKind::Instant => {
                    entries.push(("ph".to_string(), Value::Str("i".to_string())));
                    entries.push(("s".to_string(), Value::Str("t".to_string())));
                }
            }
            if !rec.fields.is_empty() {
                entries.push(("args".to_string(), fields_map(&rec.fields)));
            }
            Value::Map(entries)
        })
        .collect();
    let doc = Value::Map(vec![
        ("traceEvents".to_string(), Value::Seq(events)),
        ("displayTimeUnit".to_string(), Value::Str("ms".to_string())),
    ]);
    render(doc)
}

#[cfg(test)]
mod tests {
    use crate::Telemetry;

    #[test]
    fn jsonl_lines_are_valid_json() {
        let tel = Telemetry::sim();
        tel.event_at(
            10,
            "sim.arrival",
            &[("app", "dnn".into()), ("bad", f64::NAN.into())],
        );
        let span = tel.span("op");
        tel.set_now_us(25);
        span.finish();
        tel.inc_counter("arrivals", 1);
        tel.record_hist("resp_s", 0.5);
        let text = tel.export_jsonl();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        for line in &lines {
            assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
        }
        assert!(lines[0].contains("\"kind\":\"instant\""));
        assert!(lines[0].contains("\"fields\":{\"app\":\"dnn\",\"bad\":null}"));
        assert!(lines[1].contains("\"dur_us\":25"));
        assert!(lines[2].contains("\"counters\":{\"arrivals\":1}"));
        assert!(lines[2].contains("\"resp_s\""));
    }

    #[test]
    fn chrome_trace_has_complete_and_instant_events() {
        let tel = Telemetry::sim();
        let mut span = tel.span_on_track("deploy", 3);
        span.field("fpgas_used", 2u64);
        tel.set_now_us(100);
        span.finish();
        tel.event_at(40, "evict", &[]);
        let text = tel.export_chrome_trace();
        assert!(text.starts_with("{\"traceEvents\":["));
        assert!(text.contains("\"ph\":\"X\""));
        assert!(text.contains("\"dur\":100"));
        assert!(text.contains("\"tid\":3"));
        assert!(text.contains("\"ph\":\"i\""));
        assert!(text.contains("\"args\":{\"fpgas_used\":2}"));
    }

    #[test]
    fn exports_are_deterministic() {
        let build = || {
            let tel = Telemetry::sim();
            tel.event_at(1, "a", &[("k", 1u64.into())]);
            tel.event_at(2, "b", &[]);
            tel.inc_counter("c", 2);
            (tel.export_jsonl(), tel.export_chrome_trace())
        };
        assert_eq!(build(), build());
    }
}
