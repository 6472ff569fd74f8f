//! The exporter and the matching parser for the structured event log.
//!
//! The format is JSONL: one self-describing object per line, the format
//! CI schema-validates and byte-compares.
//!
//! All serialization is hand-rolled over [`std::fmt::Write`]: field order is
//! fixed, floats use Rust's shortest-round-trip formatting, and no map types
//! are involved — identical runs therefore export byte-identical logs.

use crate::event::{FaultKind, LoopPhase, ResizeCause, ThrottleCause, TraceEvent, TraceRecord};

/// Serializes records as JSONL: one event object per line, trailing newline
/// after every line.
pub fn jsonl(records: &[TraceRecord]) -> String {
    // ~96 bytes per line is a comfortable overestimate for every variant.
    let mut out = String::with_capacity(records.len() * 96 + 1);
    for rec in records {
        rec.write_jsonl(&mut out);
        out.push('\n');
    }
    out
}

/// A malformed line encountered by [`parse_jsonl`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line number of the offending line.
    pub line: usize,
    /// What was wrong with it.
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

/// Parses a JSONL log produced by [`jsonl`] back into records.
///
/// This is a deliberately minimal scanner for the flat single-line objects
/// this crate emits (no nesting, no escapes inside strings) — enough for the
/// round-trip tests and post-hoc analysis of our own logs, not a general
/// JSON parser.
pub fn parse_jsonl(text: &str) -> Result<Vec<TraceRecord>, ParseError> {
    let mut records = Vec::new();
    for (idx, line) in text.lines().enumerate() {
        let lineno = idx + 1;
        if line.trim().is_empty() {
            continue;
        }
        let fields = split_fields(line, lineno)?;
        records.push(record_from_fields(&fields, lineno)?);
    }
    Ok(records)
}

/// One `"key":value` pair of a flat object, values left as raw text.
type Field<'a> = (&'a str, &'a str);

fn split_fields(line: &str, lineno: usize) -> Result<Vec<Field<'_>>, ParseError> {
    let err = |message: &str| ParseError { line: lineno, message: message.to_string() };
    let inner = line
        .trim()
        .strip_prefix('{')
        .and_then(|s| s.strip_suffix('}'))
        .ok_or_else(|| err("expected a {...} object"))?;
    let mut fields = Vec::new();
    for part in inner.split(',') {
        let (key, value) = part.split_once(':').ok_or_else(|| err("expected \"key\":value"))?;
        let key = key
            .trim()
            .strip_prefix('"')
            .and_then(|s| s.strip_suffix('"'))
            .ok_or_else(|| err("keys must be quoted"))?;
        fields.push((key, value.trim()));
    }
    Ok(fields)
}

fn record_from_fields(fields: &[Field<'_>], lineno: usize) -> Result<TraceRecord, ParseError> {
    let err = |message: String| ParseError { line: lineno, message };
    let raw = |key: &str| -> Result<&str, ParseError> {
        fields
            .iter()
            .find(|(k, _)| *k == key)
            .map(|(_, v)| *v)
            .ok_or_else(|| err(format!("missing field `{key}`")))
    };
    let num = |key: &str| -> Result<f64, ParseError> {
        raw(key)?.parse::<f64>().map_err(|_| err(format!("field `{key}` is not a number")))
    };
    let int = |key: &str| -> Result<u64, ParseError> {
        raw(key)?.parse::<u64>().map_err(|_| err(format!("field `{key}` is not an integer")))
    };
    let id = |key: &str| -> Result<u32, ParseError> {
        raw(key)?.parse::<u32>().map_err(|_| err(format!("field `{key}` is not a u32")))
    };
    let boolean = |key: &str| -> Result<bool, ParseError> {
        raw(key)?.parse::<bool>().map_err(|_| err(format!("field `{key}` is not a bool")))
    };
    let string = |key: &str| -> Result<&str, ParseError> {
        raw(key)?
            .strip_prefix('"')
            .and_then(|s| s.strip_suffix('"'))
            .ok_or_else(|| err(format!("field `{key}` is not a string")))
    };

    let at_ms = num("at_ms")?;
    let seq = int("seq")?;
    let kind = string("type")?;
    let event = match kind {
        "dispatch" => TraceEvent::Dispatch {
            fn_id: id("fn_id")?,
            host: id("host")?,
            memory_mb: id("memory_mb")?,
            cold: boolean("cold")?,
            shadow: boolean("shadow")?,
        },
        "cold_start" => TraceEvent::ColdStart {
            fn_id: id("fn_id")?,
            host: id("host")?,
            memory_mb: id("memory_mb")?,
            init_ms: num("init_ms")?,
        },
        "eviction" => TraceEvent::Eviction { host: id("host")?, evicted: id("evicted")? },
        "throttle" => TraceEvent::Throttle {
            fn_id: id("fn_id")?,
            cause: ThrottleCause::parse(string("cause")?)
                .ok_or_else(|| err("unknown throttle cause".to_string()))?,
        },
        "resize" => TraceEvent::Resize {
            fn_id: id("fn_id")?,
            from_mb: id("from_mb")?,
            to_mb: id("to_mb")?,
            cause: ResizeCause::parse(string("cause")?)
                .ok_or_else(|| err("unknown resize cause".to_string()))?,
        },
        "drift_detected" => TraceEvent::DriftDetected { fn_id: id("fn_id")? },
        "phase_transition" => TraceEvent::PhaseTransition {
            fn_id: id("fn_id")?,
            from: LoopPhase::parse(string("from")?)
                .ok_or_else(|| err("unknown phase".to_string()))?,
            to: LoopPhase::parse(string("to")?).ok_or_else(|| err("unknown phase".to_string()))?,
        },
        "shadow_route" => {
            TraceEvent::ShadowRoute { fn_id: id("fn_id")?, base_mb: id("base_mb")? }
        }
        "artifact_update" => TraceEvent::ArtifactUpdate { updates: int("updates")? },
        "region_handoff" => TraceEvent::RegionHandoff {
            from_region: id("from_region")?,
            to_region: id("to_region")?,
        },
        "host_down" => TraceEvent::HostDown {
            host: id("host")?,
            failed_in_flight: id("failed_in_flight")?,
            lost_warm: id("lost_warm")?,
        },
        "host_up" => TraceEvent::HostUp { host: id("host")?, down_ms: num("down_ms")? },
        "invocation_failed" => TraceEvent::InvocationFailed {
            fn_id: id("fn_id")?,
            host: id("host")?,
            attempt: id("attempt")?,
            cause: FaultKind::parse(string("cause")?)
                .ok_or_else(|| err("unknown fault kind".to_string()))?,
        },
        "retry_scheduled" => TraceEvent::RetryScheduled {
            fn_id: id("fn_id")?,
            attempt: id("attempt")?,
            delay_ms: num("delay_ms")?,
        },
        "region_failover" => TraceEvent::RegionFailover {
            fn_id: id("fn_id")?,
            from_region: id("from_region")?,
            to_region: id("to_region")?,
        },
        "drift_suppressed" => TraceEvent::DriftSuppressed { fn_id: id("fn_id")? },
        other => return Err(err(format!("unknown event type `{other}`"))),
    };
    Ok(TraceRecord { at_ms, seq, event })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_records() -> Vec<TraceRecord> {
        let events = [
            TraceEvent::Dispatch { fn_id: 0, host: 3, memory_mb: 256, cold: true, shadow: false },
            TraceEvent::ColdStart { fn_id: 0, host: 3, memory_mb: 256, init_ms: 141.25 },
            TraceEvent::Eviction { host: 1, evicted: 2 },
            TraceEvent::Throttle { fn_id: 4, cause: ThrottleCause::Function },
            TraceEvent::Resize { fn_id: 0, from_mb: 256, to_mb: 1024, cause: ResizeCause::Recommend },
            TraceEvent::DriftDetected { fn_id: 2 },
            TraceEvent::PhaseTransition {
                fn_id: 2,
                from: LoopPhase::Watching,
                to: LoopPhase::Shadowing,
            },
            TraceEvent::ShadowRoute { fn_id: 2, base_mb: 256 },
            TraceEvent::ArtifactUpdate { updates: 3 },
            TraceEvent::RegionHandoff { from_region: 0, to_region: 1 },
            TraceEvent::HostDown { host: 2, failed_in_flight: 1, lost_warm: 4 },
            TraceEvent::HostUp { host: 2, down_ms: 7_500.25 },
            TraceEvent::InvocationFailed { fn_id: 3, host: 2, attempt: 2, cause: FaultKind::Init },
            TraceEvent::RetryScheduled { fn_id: 3, attempt: 3, delay_ms: 400.5 },
            TraceEvent::RegionFailover { fn_id: 5, from_region: 1, to_region: 0 },
            TraceEvent::DriftSuppressed { fn_id: 3 },
        ];
        events
            .into_iter()
            .enumerate()
            .map(|(i, event)| TraceRecord { at_ms: i as f64 * 10.5, seq: i as u64, event })
            .collect()
    }

    #[test]
    fn jsonl_round_trips_every_variant() {
        let records = sample_records();
        let text = jsonl(&records);
        assert_eq!(text.lines().count(), records.len());
        let parsed = parse_jsonl(&text).expect("exported log must parse");
        assert_eq!(parsed, records);
    }

    #[test]
    fn jsonl_reexport_is_byte_identical() {
        let records = sample_records();
        let text = jsonl(&records);
        let parsed = parse_jsonl(&text).expect("exported log must parse");
        assert_eq!(jsonl(&parsed), text);
    }

    #[test]
    fn parse_reports_line_numbers_and_reasons() {
        let bad_type = "{\"at_ms\":0,\"seq\":0,\"type\":\"warp_drive\"}\n";
        let e = parse_jsonl(bad_type).expect_err("unknown type must fail");
        assert_eq!(e.line, 1);
        assert!(e.message.contains("warp_drive"), "{e}");

        let ok_then_bad =
            "{\"at_ms\":0,\"seq\":0,\"type\":\"drift_detected\",\"fn_id\":1}\nnot json\n";
        let e = parse_jsonl(ok_then_bad).expect_err("garbage line must fail");
        assert_eq!(e.line, 2);

        let missing = "{\"at_ms\":0,\"seq\":0,\"type\":\"eviction\",\"host\":1}\n";
        let e = parse_jsonl(missing).expect_err("missing field must fail");
        assert!(e.message.contains("evicted"), "{e}");
    }

    #[test]
    fn parse_skips_blank_lines() {
        let text = "\n{\"at_ms\":1,\"seq\":0,\"type\":\"drift_detected\",\"fn_id\":7}\n\n";
        let parsed = parse_jsonl(text).expect("blank lines are ignored");
        assert_eq!(parsed.len(), 1);
        assert_eq!(parsed[0].event, TraceEvent::DriftDetected { fn_id: 7 });
    }
}
