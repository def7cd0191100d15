//! Chrome `trace_event` exporter, a minimal JSON validity checker,
//! and the normalization helper the determinism suite compares with.
//!
//! The export format is the "JSON Array Format" documented for
//! `chrome://tracing` / Perfetto: an object with a `traceEvents` array
//! of complete (`"ph": "X"`) events carrying `name`, `cat`, `ts`/`dur`
//! in microseconds, `pid`/`tid`, and an `args` object. Load the file
//! via `chrome://tracing` → *Load* to inspect a run visually.

use crate::counters::escape_json;
use crate::span::{Clock, Span};
use crate::Trace;
use std::fmt::Write;

/// Serialize a trace as Chrome `trace_event` JSON.
///
/// Each span becomes one complete event; the span's hierarchy level is
/// its `cat`, the display lane its `tid`, and `args` carries the clock
/// provenance (`"wall"` or `"modeled"`) plus the job id when present.
pub fn chrome_trace_json(trace: &Trace) -> String {
    let mut out = String::from("{\"traceEvents\":[\n");
    for (i, s) in trace.spans.iter().enumerate() {
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\
             \"pid\":1,\"tid\":{},\"args\":{{\"clock\":\"{}\"",
            escape_json(&s.name),
            escape_json(&s.cat),
            s.start_us,
            s.dur_us,
            s.lane,
            s.clock.label(),
        );
        if let Some(job) = s.job {
            let _ = write!(out, ",\"job\":{job}");
        }
        out.push_str("}}");
        out.push_str(if i + 1 < trace.spans.len() {
            ",\n"
        } else {
            "\n"
        });
    }
    let _ = writeln!(
        out,
        "],\"displayTimeUnit\":\"ms\",\"otherData\":{{\"pass\":\"{}\"}}}}",
        escape_json(&trace.pass)
    );
    out
}

/// Normalize a trace's spans into comparable event signatures.
///
/// Wall-clock timestamps differ between repetitions of the same run,
/// so they are dropped; modeled timestamps are deterministic and kept.
/// Two traces of the same seeded run must produce identical vectors —
/// the determinism suite asserts exactly that. The order is a function
/// of deterministic fields only — (clock, lane, modeled start, cat,
/// name, job, modeled duration), wall spans sorting as if at time 0 —
/// so neither recording order nor a wall timestamp can leak in.
pub fn normalized_events(trace: &Trace) -> Vec<String> {
    fn key(s: &Span) -> (&str, u32, u64, &str, &str, Option<u32>, u64) {
        let (ts, dur) = match s.clock {
            Clock::Modeled => (s.start_us, s.dur_us),
            Clock::Wall => (0, 0),
        };
        (s.clock.label(), s.lane, ts, &s.cat, &s.name, s.job, dur)
    }
    let mut spans: Vec<&Span> = trace.spans.iter().collect();
    spans.sort_by(|a, b| key(a).cmp(&key(b)));
    spans
        .iter()
        .map(|s| {
            let mut sig = format!(
                "{}/{}/job={:?}/lane={}/clock={}",
                s.cat,
                s.name,
                s.job,
                s.lane,
                s.clock.label()
            );
            if s.clock == Clock::Modeled {
                let _ = write!(sig, "/ts={}/dur={}", s.start_us, s.dur_us);
            }
            sig
        })
        .collect()
}

/// Validate that `input` is a single well-formed JSON value.
///
/// A small recursive-descent checker (the workspace has no JSON
/// dependency): used by the exporter tests and the golden-file suite
/// to guarantee emitted files are loadable by real tooling.
pub fn validate_json(input: &str) -> Result<(), idg_types::IdgError> {
    validate_json_inner(input).map_err(idg_types::IdgError::InvalidParameter)
}

fn validate_json_inner(input: &str) -> Result<(), String> {
    let bytes = input.as_bytes();
    let mut pos = 0usize;
    skip_ws(bytes, &mut pos);
    parse_value(bytes, &mut pos, 0)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing data at byte {pos}"));
    }
    Ok(())
}

const MAX_DEPTH: usize = 64;

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn parse_value(b: &[u8], pos: &mut usize, depth: usize) -> Result<(), String> {
    if depth > MAX_DEPTH {
        return Err("nesting too deep".to_string());
    }
    match b.get(*pos) {
        Some(b'{') => parse_object(b, pos, depth),
        Some(b'[') => parse_array(b, pos, depth),
        Some(b'"') => parse_string(b, pos),
        Some(b't') => parse_literal(b, pos, "true"),
        Some(b'f') => parse_literal(b, pos, "false"),
        Some(b'n') => parse_literal(b, pos, "null"),
        Some(c) if c.is_ascii_digit() || *c == b'-' => parse_number(b, pos),
        Some(c) => Err(format!("unexpected byte {:?} at {}", *c as char, pos)),
        None => Err("unexpected end of input".to_string()),
    }
}

fn parse_object(b: &[u8], pos: &mut usize, depth: usize) -> Result<(), String> {
    *pos += 1; // '{'
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(());
    }
    loop {
        skip_ws(b, pos);
        parse_string(b, pos)?;
        skip_ws(b, pos);
        if b.get(*pos) != Some(&b':') {
            return Err(format!("expected ':' at byte {pos}"));
        }
        *pos += 1;
        skip_ws(b, pos);
        parse_value(b, pos, depth + 1)?;
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(());
            }
            _ => return Err(format!("expected ',' or '}}' at byte {pos}")),
        }
    }
}

fn parse_array(b: &[u8], pos: &mut usize, depth: usize) -> Result<(), String> {
    *pos += 1; // '['
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(());
    }
    loop {
        skip_ws(b, pos);
        parse_value(b, pos, depth + 1)?;
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(());
            }
            _ => return Err(format!("expected ',' or ']' at byte {pos}")),
        }
    }
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<(), String> {
    if b.get(*pos) != Some(&b'"') {
        return Err(format!("expected string at byte {pos}"));
    }
    *pos += 1;
    while let Some(&c) = b.get(*pos) {
        match c {
            b'"' => {
                *pos += 1;
                return Ok(());
            }
            b'\\' => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"' | b'\\' | b'/' | b'b' | b'f' | b'n' | b'r' | b't') => *pos += 1,
                    Some(b'u') => {
                        for k in 1..=4 {
                            if !b.get(*pos + k).is_some_and(u8::is_ascii_hexdigit) {
                                return Err(format!("bad \\u escape at byte {pos}"));
                            }
                        }
                        *pos += 5;
                    }
                    _ => return Err(format!("bad escape at byte {pos}")),
                }
            }
            0x00..=0x1f => return Err(format!("raw control char in string at byte {pos}")),
            _ => *pos += 1,
        }
    }
    Err("unterminated string".to_string())
}

fn parse_number(b: &[u8], pos: &mut usize) -> Result<(), String> {
    let start = *pos;
    if b.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    let mut digits = 0;
    while b.get(*pos).is_some_and(u8::is_ascii_digit) {
        *pos += 1;
        digits += 1;
    }
    if digits == 0 {
        return Err(format!("bad number at byte {start}"));
    }
    if b.get(*pos) == Some(&b'.') {
        *pos += 1;
        if !b.get(*pos).is_some_and(u8::is_ascii_digit) {
            return Err(format!("bad fraction at byte {pos}"));
        }
        while b.get(*pos).is_some_and(u8::is_ascii_digit) {
            *pos += 1;
        }
    }
    if matches!(b.get(*pos), Some(b'e' | b'E')) {
        *pos += 1;
        if matches!(b.get(*pos), Some(b'+' | b'-')) {
            *pos += 1;
        }
        if !b.get(*pos).is_some_and(u8::is_ascii_digit) {
            return Err(format!("bad exponent at byte {pos}"));
        }
        while b.get(*pos).is_some_and(u8::is_ascii_digit) {
            *pos += 1;
        }
    }
    Ok(())
}

/// Parse a literal token (`true` / `false` / `null`).
fn parse_literal(b: &[u8], pos: &mut usize, lit: &str) -> Result<(), String> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(())
    } else {
        Err(format!("bad literal at byte {pos}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counters::MetricsSnapshot;

    fn sample_trace() -> Trace {
        Trace {
            pass: "gridding".to_string(),
            spans: vec![
                Span {
                    name: "HtoD".to_string(),
                    cat: "stage".to_string(),
                    job: Some(0),
                    lane: 1,
                    clock: Clock::Modeled,
                    start_us: 0,
                    dur_us: 100,
                },
                Span {
                    name: "gridder".to_string(),
                    cat: "kernel".to_string(),
                    job: Some(0),
                    lane: 2,
                    clock: Clock::Wall,
                    start_us: 7,
                    dur_us: 93,
                },
            ],
            metrics: MetricsSnapshot::new("gridding"),
        }
    }

    #[test]
    fn export_is_valid_json_with_expected_events() {
        let json = chrome_trace_json(&sample_trace());
        validate_json(&json).expect("chrome trace must be valid JSON");
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"name\":\"HtoD\""));
        assert!(json.contains("\"clock\":\"modeled\""));
        assert!(json.contains("\"job\":0"));
    }

    #[test]
    fn normalization_drops_wall_times_only() {
        let t = sample_trace();
        let sigs = normalized_events(&t);
        assert_eq!(sigs.len(), 2);
        assert!(sigs[0].contains("/ts=0/dur=100"), "{}", sigs[0]);
        assert!(!sigs[1].contains("/ts="), "{}", sigs[1]);
    }

    #[test]
    fn normalized_order_ignores_wall_timestamps_and_recording_order() {
        let wall = |name: &str, start_us| Span {
            name: name.to_string(),
            cat: "stage".to_string(),
            job: None,
            lane: 0,
            clock: Clock::Wall,
            start_us,
            dur_us: 5,
        };
        let mut a = sample_trace();
        a.spans.extend([wall("plan", 3), wall("chunk", 900)]);
        let mut b = sample_trace();
        b.spans.splice(0..0, [wall("chunk", 2), wall("plan", 40)]);
        assert_eq!(normalized_events(&a), normalized_events(&b));
    }

    #[test]
    fn validator_accepts_and_rejects() {
        validate_json("{\"a\": [1, 2.5, -3e2, true, null, \"x\\n\"]}").unwrap();
        assert!(validate_json("{\"a\":}").is_err());
        assert!(validate_json("[1, 2,]").is_err());
        assert!(validate_json("\"unterminated").is_err());
        assert!(validate_json("{} trailing").is_err());
    }
}
