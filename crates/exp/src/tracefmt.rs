//! Parsing and validation of the engine's trace sinks, plus the
//! `repro trace-report` renderer.
//!
//! The engine writes two machine-readable formats (see
//! `subvt_engine::trace`): JSON-lines (schema `v2`) and Chrome
//! trace-event JSON. This module re-reads both through a small
//! recursive-descent JSON parser — deliberately independent of the
//! writers, so round-trip tests catch malformed output instead of
//! mirroring its bugs — validates the structural invariants (every line
//! valid JSON, span tree acyclic, parent ids resolve, histogram bucket
//! counts sum to the sample count) and renders a self-time-sorted span
//! tree with counter/histogram tables.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::fmt::Write as _;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number (parsed as `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in source order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Member lookup on objects (`None` otherwise).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// Non-negative integer value, if this is a whole number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(v) if *v >= 0.0 && v.fract() == 0.0 && *v <= u64::MAX as f64 => {
                Some(*v as u64)
            }
            _ => None,
        }
    }

    /// String value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Boolean value, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Array elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }
}

/// Deepest array/object nesting [`parse_json`] accepts. The parser
/// recurses once per level, so without a bound one line of `[`s could
/// overflow the stack — an abort no `catch_unwind` can stop.
pub const MAX_JSON_DEPTH: usize = 128;

/// Parses one complete JSON value; trailing non-whitespace is an error.
///
/// # Errors
///
/// Returns a human-readable description with a byte offset, including
/// for nesting deeper than [`MAX_JSON_DEPTH`].
pub fn parse_json(text: &str) -> Result<Json, String> {
    let bytes = text.as_bytes();
    let mut pos = 0;
    let value = parse_value(bytes, &mut pos, 0)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing data at byte {pos}"));
    }
    Ok(value)
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

/// Parses the value at `pos`, which sits inside `depth` containers.
fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    skip_ws(bytes, pos);
    if matches!(bytes.get(*pos), Some(b'{' | b'[')) && depth >= MAX_JSON_DEPTH {
        return Err(format!(
            "nesting deeper than {MAX_JSON_DEPTH} levels at byte {pos}",
            pos = *pos
        ));
    }
    match bytes.get(*pos) {
        None => Err("unexpected end of input".to_owned()),
        Some(b'{') => parse_object(bytes, pos, depth + 1),
        Some(b'[') => parse_array(bytes, pos, depth + 1),
        Some(b'"') => Ok(Json::Str(parse_string(bytes, pos)?)),
        Some(b't') => parse_literal(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_literal(bytes, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_literal(bytes, pos, "null", Json::Null),
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_literal(bytes: &[u8], pos: &mut usize, lit: &str, value: Json) -> Result<Json, String> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(format!("invalid literal at byte {pos}", pos = *pos))
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
    {
        *pos += 1;
    }
    let token = std::str::from_utf8(&bytes[start..*pos]).map_err(|_| "non-utf8".to_owned())?;
    token
        .parse::<f64>()
        .map(Json::Num)
        .map_err(|_| format!("invalid number `{token}` at byte {start}"))
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    debug_assert_eq!(bytes.get(*pos), Some(&b'"'));
    *pos += 1;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err("unterminated string".to_owned()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b't') => out.push('\t'),
                    Some(b'r') => out.push('\r'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .ok_or("truncated \\u escape")?;
                        let code = u32::from_str_radix(hex, 16)
                            .map_err(|_| "bad \\u escape".to_owned())?;
                        // Surrogates never occur in our writers; map them
                        // to the replacement character rather than erroring.
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    _ => return Err(format!("bad escape at byte {pos}", pos = *pos)),
                }
                *pos += 1;
            }
            Some(_) => {
                // Consume one UTF-8 scalar (multi-byte sequences pass
                // through untouched).
                let rest =
                    std::str::from_utf8(&bytes[*pos..]).map_err(|_| "non-utf8".to_owned())?;
                let c = rest.chars().next().ok_or("unterminated string")?;
                out.push(c);
                *pos += c.len_utf8();
            }
        }
    }
}

fn parse_array(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    *pos += 1; // '['
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(bytes, pos, depth)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            _ => return Err(format!("expected , or ] at byte {pos}", pos = *pos)),
        }
    }
}

fn parse_object(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    *pos += 1; // '{'
    let mut members = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(members));
    }
    loop {
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b'"') {
            return Err(format!("expected member name at byte {pos}", pos = *pos));
        }
        let key = parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b':') {
            return Err(format!("expected : at byte {pos}", pos = *pos));
        }
        *pos += 1;
        members.push((key, parse_value(bytes, pos, depth)?));
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(members));
            }
            _ => return Err(format!("expected , or }} at byte {pos}", pos = *pos)),
        }
    }
}

/// One span read back from a sink.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceSpan {
    /// Span id.
    pub id: u64,
    /// Parent span id, `None` for roots.
    pub parent: Option<u64>,
    /// Span name.
    pub name: String,
    /// Start, µs since trace epoch.
    pub start_us: u64,
    /// Duration, µs.
    pub dur_us: u64,
    /// Executor lane (`tid` in the Chrome form).
    pub worker: u32,
    /// Typed attributes (the JSONL `attrs` object / the Chrome `args`
    /// members other than `id`/`parent`), in source order.
    pub attrs: Vec<(String, Json)>,
}

impl TraceSpan {
    /// Looks up an attribute by key.
    pub fn attr(&self, key: &str) -> Option<&Json> {
        self.attrs.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// An attribute as a non-negative integer.
    pub fn attr_u64(&self, key: &str) -> Option<u64> {
        self.attr(key).and_then(Json::as_u64)
    }

    /// An attribute as a string.
    pub fn attr_str(&self, key: &str) -> Option<&str> {
        self.attr(key).and_then(Json::as_str)
    }
}

/// One histogram read back from the JSONL sink.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceHist {
    /// Metric name.
    pub name: String,
    /// Total samples.
    pub count: u64,
    /// Sum of samples.
    pub sum: f64,
    /// Smallest sample (`NaN` when the sink wrote `null`).
    pub min: f64,
    /// Largest sample (`NaN` when the sink wrote `null`).
    pub max: f64,
    /// Ascending bucket upper bounds.
    pub bounds: Vec<f64>,
    /// Per-bucket counts (`bounds.len() + 1` entries incl. overflow).
    pub counts: Vec<u64>,
}

/// A fully parsed trace, independent of which sink produced it.
#[derive(Debug, Clone, Default)]
pub struct TraceFile {
    /// Schema version from the meta line (0 when absent — pre-v2).
    pub v: u64,
    /// All spans.
    pub spans: Vec<TraceSpan>,
    /// Counter name → value.
    pub counters: BTreeMap<String, u64>,
    /// Gauge name → value.
    pub gauges: BTreeMap<String, f64>,
    /// Histograms by name.
    pub hists: BTreeMap<String, TraceHist>,
    /// Wall time from the meta line, µs.
    pub wall_us: u64,
}

fn num_or_nan(v: Option<&Json>) -> f64 {
    match v {
        Some(Json::Num(x)) => *x,
        _ => f64::NAN,
    }
}

/// Parses a JSON-lines trace (schema v1 or v2 — v1 span lines lack
/// `id`/`parent`/`worker` and map to defaults).
///
/// # Errors
///
/// Returns the first offending line's number and parse error.
pub fn parse_jsonl(text: &str) -> Result<TraceFile, String> {
    let mut out = TraceFile::default();
    for (lineno, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let value = parse_json(line).map_err(|e| format!("line {}: {e}", lineno + 1))?;
        let kind = value
            .get("type")
            .and_then(Json::as_str)
            .ok_or(format!("line {}: missing \"type\"", lineno + 1))?;
        let name = || {
            value
                .get("name")
                .and_then(Json::as_str)
                .map(str::to_owned)
                .ok_or(format!("line {}: missing \"name\"", lineno + 1))
        };
        match kind {
            "span" => out.spans.push(TraceSpan {
                id: value.get("id").and_then(Json::as_u64).unwrap_or(0),
                parent: value.get("parent").and_then(Json::as_u64),
                name: name()?,
                start_us: value.get("start_us").and_then(Json::as_u64).unwrap_or(0),
                dur_us: value.get("dur_us").and_then(Json::as_u64).unwrap_or(0),
                worker: value.get("worker").and_then(Json::as_u64).unwrap_or(0) as u32,
                attrs: match value.get("attrs") {
                    Some(Json::Obj(members)) => members.clone(),
                    _ => Vec::new(),
                },
            }),
            "counter" => {
                let v = value
                    .get("value")
                    .and_then(Json::as_u64)
                    .ok_or(format!("line {}: counter without value", lineno + 1))?;
                out.counters.insert(name()?, v);
            }
            "gauge" => {
                out.gauges.insert(name()?, num_or_nan(value.get("value")));
            }
            "hist" => {
                let bounds = value
                    .get("bounds")
                    .and_then(Json::as_arr)
                    .map(|a| a.iter().map(|b| num_or_nan(Some(b))).collect())
                    .unwrap_or_default();
                let counts = value
                    .get("counts")
                    .and_then(Json::as_arr)
                    .map(|a| {
                        a.iter()
                            .map(|c| c.as_u64().unwrap_or(0))
                            .collect::<Vec<u64>>()
                    })
                    .unwrap_or_default();
                let h = TraceHist {
                    name: name()?,
                    count: value.get("count").and_then(Json::as_u64).unwrap_or(0),
                    sum: num_or_nan(value.get("sum")),
                    min: num_or_nan(value.get("min")),
                    max: num_or_nan(value.get("max")),
                    bounds,
                    counts,
                };
                out.hists.insert(h.name.clone(), h);
            }
            "meta" => {
                out.v = value.get("v").and_then(Json::as_u64).unwrap_or(0);
                out.wall_us = value.get("wall_us").and_then(Json::as_u64).unwrap_or(0);
            }
            other => return Err(format!("line {}: unknown type `{other}`", lineno + 1)),
        }
    }
    Ok(out)
}

/// One Chrome trace event with the mandatory fields.
#[derive(Debug, Clone, PartialEq)]
pub struct ChromeEvent {
    /// Event name.
    pub name: String,
    /// Phase: `X` (complete), `M` (metadata), `C` (counter), …
    pub ph: String,
    /// Process id.
    pub pid: u64,
    /// Thread id (the executor lane for spans).
    pub tid: u64,
    /// Timestamp, µs.
    pub ts: u64,
    /// Duration, µs.
    pub dur: u64,
    /// The `args` object, if present.
    pub args: Option<Json>,
}

/// Parses a Chrome trace-event file, requiring `pid`/`tid`/`ts`/`dur`/
/// `name`/`ph` on **every** event — the strict contract the Perfetto UI
/// and our round-trip tests rely on.
///
/// # Errors
///
/// Describes the first malformed event.
pub fn parse_chrome(text: &str) -> Result<Vec<ChromeEvent>, String> {
    let root = parse_json(text)?;
    let events = root
        .get("traceEvents")
        .and_then(Json::as_arr)
        .ok_or("missing traceEvents array")?;
    let mut out = Vec::with_capacity(events.len());
    for (i, ev) in events.iter().enumerate() {
        let field = |key: &str| {
            ev.get(key)
                .and_then(Json::as_u64)
                .ok_or(format!("event {i}: missing or invalid \"{key}\""))
        };
        out.push(ChromeEvent {
            name: ev
                .get("name")
                .and_then(Json::as_str)
                .ok_or(format!("event {i}: missing \"name\""))?
                .to_owned(),
            ph: ev
                .get("ph")
                .and_then(Json::as_str)
                .ok_or(format!("event {i}: missing \"ph\""))?
                .to_owned(),
            pid: field("pid")?,
            tid: field("tid")?,
            ts: field("ts")?,
            dur: field("dur")?,
            args: ev.get("args").cloned(),
        });
    }
    Ok(out)
}

/// Lifts Chrome complete/counter events back into a [`TraceFile`]
/// (metadata rows are dropped), so one validator and one report renderer
/// serve both formats.
pub fn trace_from_chrome(events: &[ChromeEvent]) -> TraceFile {
    let mut out = TraceFile::default();
    for ev in events {
        match ev.ph.as_str() {
            "X" => out.spans.push(TraceSpan {
                id: ev
                    .args
                    .as_ref()
                    .and_then(|a| a.get("id"))
                    .and_then(Json::as_u64)
                    .unwrap_or(0),
                parent: ev
                    .args
                    .as_ref()
                    .and_then(|a| a.get("parent"))
                    .and_then(Json::as_u64),
                name: ev.name.clone(),
                start_us: ev.ts,
                dur_us: ev.dur,
                worker: ev.tid as u32,
                attrs: match &ev.args {
                    Some(Json::Obj(members)) => members
                        .iter()
                        .filter(|(k, _)| k != "id" && k != "parent")
                        .cloned()
                        .collect(),
                    _ => Vec::new(),
                },
            }),
            "C" => {
                let v = ev
                    .args
                    .as_ref()
                    .and_then(|a| a.get("value"))
                    .and_then(Json::as_u64)
                    .unwrap_or(0);
                out.counters.insert(ev.name.clone(), v);
                out.wall_us = out.wall_us.max(ev.ts);
            }
            _ => {}
        }
    }
    out
}

/// Checks the structural invariants of a parsed trace: span ids unique,
/// every parent id resolves to a span in the file, the parent graph is
/// acyclic, and each histogram's bucket counts sum to its sample count.
///
/// # Errors
///
/// Describes the first violated invariant.
pub fn validate(trace: &TraceFile) -> Result<(), String> {
    let mut ids = HashSet::with_capacity(trace.spans.len());
    for s in &trace.spans {
        if s.id == 0 {
            return Err(format!("span `{}` has id 0", s.name));
        }
        if !ids.insert(s.id) {
            return Err(format!("duplicate span id {}", s.id));
        }
    }
    let parent_of: HashMap<u64, Option<u64>> =
        trace.spans.iter().map(|s| (s.id, s.parent)).collect();
    for s in &trace.spans {
        if let Some(p) = s.parent {
            if !parent_of.contains_key(&p) {
                return Err(format!(
                    "span {} (`{}`): parent {p} unresolved",
                    s.id, s.name
                ));
            }
        }
        // Walk the parent chain; revisiting the start means a cycle.
        let mut cursor = s.parent;
        let mut hops = 0usize;
        while let Some(p) = cursor {
            if p == s.id || hops > trace.spans.len() {
                return Err(format!("span {} (`{}`): parent cycle", s.id, s.name));
            }
            hops += 1;
            cursor = parent_of.get(&p).copied().flatten();
        }
    }
    for h in trace.hists.values() {
        let bucket_sum: u64 = h.counts.iter().sum();
        if bucket_sum != h.count {
            return Err(format!(
                "hist `{}`: bucket counts sum to {bucket_sum}, count is {}",
                h.name, h.count
            ));
        }
        if !h.bounds.is_empty() && h.counts.len() != h.bounds.len() + 1 {
            return Err(format!(
                "hist `{}`: {} bounds but {} buckets",
                h.name,
                h.bounds.len(),
                h.counts.len()
            ));
        }
    }
    Ok(())
}

/// Serializes a [`Json`] value back to compact JSON text.
pub fn render_json(value: &Json) -> String {
    match value {
        Json::Null => "null".to_owned(),
        Json::Bool(b) => b.to_string(),
        Json::Num(v) => {
            if v.is_finite() {
                format!("{v}")
            } else {
                "null".to_owned()
            }
        }
        Json::Str(s) => {
            let mut out = String::with_capacity(s.len() + 2);
            out.push('"');
            for c in s.chars() {
                match c {
                    '"' => out.push_str("\\\""),
                    '\\' => out.push_str("\\\\"),
                    '\n' => out.push_str("\\n"),
                    '\r' => out.push_str("\\r"),
                    '\t' => out.push_str("\\t"),
                    c if (c as u32) < 0x20 => {
                        let _ = write!(out, "\\u{:04x}", c as u32);
                    }
                    c => out.push(c),
                }
            }
            out.push('"');
            out
        }
        Json::Arr(items) => {
            let inner: Vec<String> = items.iter().map(render_json).collect();
            format!("[{}]", inner.join(","))
        }
        Json::Obj(members) => {
            let inner: Vec<String> = members
                .iter()
                .map(|(k, v)| format!("{}:{}", render_json(&Json::Str(k.clone())), render_json(v)))
                .collect();
            format!("{{{}}}", inner.join(","))
        }
    }
}

/// Worker-lane offset applied to server spans by [`stitch`], so the
/// stitched Chrome export renders client and server rows separately.
pub const STITCH_SERVER_LANE_BASE: u32 = 100;

/// Stitches a client-side trace and a server-side trace into one
/// parent-linked tree.
///
/// The wire protocol propagates trace context: the client stamps each
/// request with its open span id, and the server records that id as the
/// `client_span` attribute of its per-request root span (keeping each
/// per-process trace self-contained and valid on its own). Stitching
/// re-parents every such server root onto the named client span, shifts
/// the server timeline by the median offset that centers each server
/// request span inside its client span (the two processes have
/// unrelated trace epochs; the residual is the symmetric network/queue
/// delay), moves server spans onto lanes
/// `worker + STITCH_SERVER_LANE_BASE`, and merges the metric registries
/// (counters sum; a server histogram or gauge whose name collides with
/// a client one is kept under a `server.` prefix).
///
/// # Errors
///
/// When the two traces share span ids (the client must reserve a high
/// id range via `subvt_engine::trace::raise_id_floor`), or when no
/// server span references a client span (nothing to stitch).
pub fn stitch(client: &TraceFile, server: &TraceFile) -> Result<TraceFile, String> {
    let client_ids: HashSet<u64> = client.spans.iter().map(|s| s.id).collect();
    for s in &server.spans {
        if client_ids.contains(&s.id) {
            return Err(format!(
                "span id {} appears in both traces; the client must reserve \
                 a disjoint id range (trace::raise_id_floor)",
                s.id
            ));
        }
    }
    let client_by_id: HashMap<u64, &TraceSpan> = client.spans.iter().map(|s| (s.id, s)).collect();

    // Matched pairs: server request roots naming a client span.
    let mut offsets: Vec<i128> = Vec::new();
    let mut reparent: HashMap<u64, u64> = HashMap::new();
    for s in &server.spans {
        if s.parent.is_some() {
            continue;
        }
        let Some(client_span) = s.attr_u64("client_span") else {
            continue;
        };
        let Some(c) = client_by_id.get(&client_span) else {
            continue;
        };
        reparent.insert(s.id, client_span);
        let client_mid = i128::from(c.start_us) * 2 + i128::from(c.dur_us);
        let server_mid = i128::from(s.start_us) * 2 + i128::from(s.dur_us);
        offsets.push((client_mid - server_mid) / 2);
    }
    if offsets.is_empty() {
        return Err(
            "no server span carries a `client_span` attribute matching a client span; \
             nothing to stitch"
                .to_owned(),
        );
    }
    offsets.sort_unstable();
    let offset = offsets[offsets.len() / 2];

    let mut out = client.clone();
    out.v = client.v.max(server.v);
    for s in &server.spans {
        let mut merged = s.clone();
        merged.start_us = (i128::from(s.start_us) + offset).max(0) as u64;
        merged.worker = s.worker + STITCH_SERVER_LANE_BASE;
        if let Some(&new_parent) = reparent.get(&s.id) {
            merged.parent = Some(new_parent);
        }
        out.wall_us = out.wall_us.max(merged.start_us + merged.dur_us);
        out.spans.push(merged);
    }
    for (name, value) in &server.counters {
        *out.counters.entry(name.clone()).or_insert(0) += value;
    }
    for (name, value) in &server.gauges {
        if out.gauges.contains_key(name) {
            out.gauges.insert(format!("server.{name}"), *value);
        } else {
            out.gauges.insert(name.clone(), *value);
        }
    }
    for (name, hist) in &server.hists {
        let key = if out.hists.contains_key(name) {
            format!("server.{name}")
        } else {
            name.clone()
        };
        let mut hist = hist.clone();
        hist.name = key.clone();
        out.hists.insert(key, hist);
    }
    Ok(out)
}

/// Writes a parsed (e.g. stitched) [`TraceFile`] as Chrome trace-event
/// JSON — the same shape the engine's native sink emits, so Perfetto
/// and [`parse_chrome`] both accept it. Lanes at or above
/// [`STITCH_SERVER_LANE_BASE`] are labelled as server lanes.
///
/// # Errors
///
/// Propagates I/O errors from `w`.
pub fn write_chrome_from(trace: &TraceFile, w: &mut impl std::io::Write) -> std::io::Result<()> {
    write!(w, "{{\"traceEvents\":[")?;
    let mut first = true;
    let sep = |w: &mut dyn std::io::Write, first: &mut bool| -> std::io::Result<()> {
        if *first {
            *first = false;
            writeln!(w)
        } else {
            writeln!(w, ",")
        }
    };
    sep(w, &mut first)?;
    write!(
        w,
        "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\"ts\":0,\"dur\":0,\"args\":{{\"name\":\"subvt-stitched\"}}}}"
    )?;
    let mut lanes: Vec<u32> = trace.spans.iter().map(|s| s.worker).collect();
    lanes.push(0);
    lanes.sort_unstable();
    lanes.dedup();
    for lane in &lanes {
        let label = if *lane == 0 {
            "client".to_owned()
        } else if *lane < STITCH_SERVER_LANE_BASE {
            format!("client-worker-{}", lane - 1)
        } else if *lane == STITCH_SERVER_LANE_BASE {
            "server".to_owned()
        } else {
            format!("server-worker-{}", lane - STITCH_SERVER_LANE_BASE - 1)
        };
        sep(w, &mut first)?;
        write!(
            w,
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{lane},\"ts\":0,\"dur\":0,\"args\":{{\"name\":{}}}}}",
            render_json(&Json::Str(label))
        )?;
    }
    for s in &trace.spans {
        sep(w, &mut first)?;
        write!(
            w,
            "{{\"name\":{},\"cat\":\"subvt\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{},\"dur\":{},\"args\":{{\"id\":{},\"parent\":{}",
            render_json(&Json::Str(s.name.clone())),
            s.worker,
            s.start_us,
            s.dur_us,
            s.id,
            match s.parent {
                Some(p) => p.to_string(),
                None => "null".to_owned(),
            }
        )?;
        for (k, v) in &s.attrs {
            write!(
                w,
                ",{}:{}",
                render_json(&Json::Str(k.clone())),
                render_json(v)
            )?;
        }
        write!(w, "}}}}")?;
    }
    for (name, value) in &trace.counters {
        sep(w, &mut first)?;
        write!(
            w,
            "{{\"name\":{},\"ph\":\"C\",\"pid\":1,\"tid\":0,\"ts\":{},\"dur\":0,\"args\":{{\"value\":{}}}}}",
            render_json(&Json::Str(name.clone())),
            trace.wall_us,
            value
        )?;
    }
    writeln!(w)?;
    writeln!(w, "],\"displayTimeUnit\":\"ms\"}}")
}

/// One line of the daemon's structured JSONL access log (`--access-log`;
/// schema in DESIGN.md §6).
#[derive(Debug, Clone, PartialEq)]
pub struct AccessRecord {
    /// UTC timestamp (`YYYY-MM-DDTHH:MM:SSZ`).
    pub ts: String,
    /// Wire-propagated trace id (or the server-synthesized `srv-…` id
    /// when the client sent none).
    pub trace_id: String,
    /// Echoed request id.
    pub id: String,
    /// Request method.
    pub method: String,
    /// `ok` or the protocol error code.
    pub outcome: String,
    /// Cache provenance (`hit|coalesced|computed`) when applicable.
    pub cached: Option<String>,
    /// Server request-span id (0 for pre-admission rejections).
    pub span: u64,
    /// Per-phase durations in µs, in pipeline order.
    pub phases: Vec<(String, u64)>,
    /// End-to-end server-side duration, µs.
    pub total_us: u64,
}

/// Parses a JSONL access log.
///
/// # Errors
///
/// Reports the first malformed line (number + reason).
pub fn parse_access_log(text: &str) -> Result<Vec<AccessRecord>, String> {
    let mut out = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let value = parse_json(line).map_err(|e| format!("line {}: {e}", lineno + 1))?;
        let str_of = |key: &str| -> Result<String, String> {
            value
                .get(key)
                .and_then(Json::as_str)
                .map(str::to_owned)
                .ok_or(format!("line {}: missing string `{key}`", lineno + 1))
        };
        let phases = match value.get("phases") {
            Some(Json::Obj(members)) => members
                .iter()
                .filter_map(|(k, v)| v.as_u64().map(|us| (k.clone(), us)))
                .collect(),
            _ => Vec::new(),
        };
        out.push(AccessRecord {
            ts: str_of("ts")?,
            trace_id: str_of("trace_id")?,
            id: value
                .get("id")
                .and_then(Json::as_str)
                .unwrap_or("")
                .to_owned(),
            method: str_of("method")?,
            outcome: str_of("outcome")?,
            cached: value
                .get("cached")
                .and_then(Json::as_str)
                .map(str::to_owned),
            span: value.get("span").and_then(Json::as_u64).unwrap_or(0),
            phases,
            total_us: value.get("total_us").and_then(Json::as_u64).unwrap_or(0),
        });
    }
    Ok(out)
}

/// Renders an access log as a per-method summary: request counts,
/// outcomes, cache provenance, and latency/phase breakdowns. Used by
/// `repro trace-report` when it sniffs an access-log file.
pub fn render_access_report(records: &[AccessRecord]) -> String {
    let mut out = String::new();
    let errors = records.iter().filter(|r| r.outcome != "ok").count();
    let _ = writeln!(
        out,
        "access log: {} requests, {} errors",
        records.len(),
        errors
    );
    if records.is_empty() {
        return out;
    }

    let mut methods: Vec<&str> = records.iter().map(|r| r.method.as_str()).collect();
    methods.sort_unstable();
    methods.dedup();
    let _ = writeln!(out);
    let _ = writeln!(
        out,
        "  {:<14} {:>6} {:>6} {:>5} {:>9} {:>5} {:>10} {:>10} {:>10}",
        "method", "count", "errors", "hit", "coalesced", "comp", "mean", "p99", "max"
    );
    for method in methods {
        let rows: Vec<&AccessRecord> = records.iter().filter(|r| r.method == method).collect();
        let errs = rows.iter().filter(|r| r.outcome != "ok").count();
        let provenance = |kind: &str| {
            rows.iter()
                .filter(|r| r.cached.as_deref() == Some(kind))
                .count()
        };
        let mut totals: Vec<u64> = rows.iter().map(|r| r.total_us).collect();
        totals.sort_unstable();
        let mean = totals.iter().sum::<u64>() as f64 / totals.len() as f64;
        let p99 = totals[((totals.len() as f64 * 0.99).ceil() as usize).clamp(1, totals.len()) - 1];
        let _ = writeln!(
            out,
            "  {:<14} {:>6} {:>6} {:>5} {:>9} {:>5} {:>10} {:>10} {:>10}",
            method,
            rows.len(),
            errs,
            provenance("hit"),
            provenance("coalesced"),
            provenance("computed"),
            format_us(mean as u64),
            format_us(p99),
            format_us(*totals.last().unwrap_or(&0))
        );
    }

    // Mean time per pipeline phase, across everything that ran.
    let mut phase_totals: Vec<(String, u64, u64)> = Vec::new(); // (name, sum, n)
    for r in records {
        for (name, us) in &r.phases {
            match phase_totals.iter_mut().find(|(n, _, _)| n == name) {
                Some(entry) => {
                    entry.1 += us;
                    entry.2 += 1;
                }
                None => phase_totals.push((name.clone(), *us, 1)),
            }
        }
    }
    if !phase_totals.is_empty() {
        let _ = writeln!(out);
        let _ = writeln!(out, "  {:<14} {:>10} {:>10}", "phase", "mean", "total");
        for (name, sum, n) in &phase_totals {
            let _ = writeln!(
                out,
                "  {:<14} {:>10} {:>10}",
                name,
                format_us(sum / n.max(&1)),
                format_us(*sum)
            );
        }
    }
    out
}

/// Aggregated node of the report's span tree: spans with the same name
/// under the same parent group are merged.
struct ReportNode {
    name: String,
    count: u64,
    total_us: u64,
    self_us: u64,
    children: Vec<ReportNode>,
}

fn build_nodes(
    span_ids: &[usize],
    spans: &[TraceSpan],
    children_of: &HashMap<u64, Vec<usize>>,
) -> Vec<ReportNode> {
    // Group sibling spans by name, preserving first-seen order.
    let mut groups: Vec<(String, Vec<usize>)> = Vec::new();
    for &idx in span_ids {
        let name = &spans[idx].name;
        match groups.iter_mut().find(|(n, _)| n == name) {
            Some((_, members)) => members.push(idx),
            None => groups.push((name.clone(), vec![idx])),
        }
    }
    let mut nodes: Vec<ReportNode> = groups
        .into_iter()
        .map(|(name, members)| {
            let total_us: u64 = members.iter().map(|&i| spans[i].dur_us).sum();
            let child_ids: Vec<usize> = members
                .iter()
                .flat_map(|&i| {
                    children_of
                        .get(&spans[i].id)
                        .map(Vec::as_slice)
                        .unwrap_or(&[])
                })
                .copied()
                .collect();
            let children = build_nodes(&child_ids, spans, children_of);
            let child_total: u64 = child_ids.iter().map(|&i| spans[i].dur_us).sum();
            ReportNode {
                name,
                count: members.len() as u64,
                total_us,
                // Children on other workers can overlap the parent, so
                // clamp instead of underflowing.
                self_us: total_us.saturating_sub(child_total),
                children,
            }
        })
        .collect();
    nodes.sort_by_key(|n| std::cmp::Reverse(n.self_us));
    nodes
}

fn render_node(out: &mut String, node: &ReportNode, depth: usize) {
    let indent = "  ".repeat(depth);
    let label = format!("{indent}{}", node.name);
    let _ = writeln!(
        out,
        "  {label:<44} {:>6} {:>12} {:>12}",
        node.count,
        format_us(node.total_us),
        format_us(node.self_us)
    );
    for child in &node.children {
        render_node(out, child, depth + 1);
    }
}

fn format_us(us: u64) -> String {
    if us >= 1_000_000 {
        format!("{:.2}s", us as f64 / 1.0e6)
    } else if us >= 1_000 {
        format!("{:.2}ms", us as f64 / 1.0e3)
    } else {
        format!("{us}us")
    }
}

/// Estimated quantile of a parsed histogram, mirroring the engine's
/// bucket-walk estimator.
fn hist_quantile(h: &TraceHist, q: f64) -> f64 {
    if h.count == 0 {
        return f64::NAN;
    }
    let target = (q.clamp(0.0, 1.0) * h.count as f64).ceil().max(1.0) as u64;
    let mut cum = 0u64;
    for (i, &c) in h.counts.iter().enumerate() {
        cum += c;
        if cum >= target {
            return match h.bounds.get(i) {
                Some(&b) => b.min(h.max),
                None => h.max,
            };
        }
    }
    h.max
}

/// Renders the `repro trace-report` text: a span tree aggregated by name
/// and sorted by self time, then counter, gauge and histogram tables.
pub fn render_report(trace: &TraceFile) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "trace: {} spans, {} counters, {} histograms, wall {}",
        trace.spans.len(),
        trace.counters.len(),
        trace.hists.len(),
        format_us(trace.wall_us)
    );

    let ids: HashSet<u64> = trace.spans.iter().map(|s| s.id).collect();
    let mut children_of: HashMap<u64, Vec<usize>> = HashMap::new();
    let mut roots: Vec<usize> = Vec::new();
    for (idx, s) in trace.spans.iter().enumerate() {
        match s.parent {
            // Tolerate unresolved parents here (validate() reports them):
            // treat such spans as roots so the report still renders.
            Some(p) if ids.contains(&p) => children_of.entry(p).or_default().push(idx),
            _ => roots.push(idx),
        }
    }
    if !trace.spans.is_empty() {
        let _ = writeln!(out);
        let _ = writeln!(
            out,
            "  {:<44} {:>6} {:>12} {:>12}",
            "span (self-time sorted)", "count", "total", "self"
        );
        for node in build_nodes(&roots, &trace.spans, &children_of) {
            render_node(&mut out, &node, 0);
        }
    }

    if !trace.counters.is_empty() {
        let _ = writeln!(out);
        let _ = writeln!(out, "  {:<44} {:>12}", "counter", "value");
        for (name, value) in &trace.counters {
            let _ = writeln!(out, "  {name:<44} {value:>12}");
        }
    }
    if !trace.gauges.is_empty() {
        let _ = writeln!(out);
        let _ = writeln!(out, "  {:<44} {:>12}", "gauge", "value");
        for (name, value) in &trace.gauges {
            let _ = writeln!(out, "  {name:<44} {value:>12.3}");
        }
    }
    if !trace.hists.is_empty() {
        let _ = writeln!(out);
        let _ = writeln!(
            out,
            "  {:<44} {:>8} {:>10} {:>10} {:>10} {:>10}",
            "histogram", "count", "mean", "p50", "p95", "max"
        );
        for (name, h) in &trace.hists {
            let mean = if h.count > 0 {
                h.sum / h.count as f64
            } else {
                f64::NAN
            };
            let _ = writeln!(
                out,
                "  {name:<44} {:>8} {mean:>10.2} {:>10.2} {:>10.2} {:>10.2}",
                h.count,
                hist_quantile(h, 0.5),
                hist_quantile(h, 0.95),
                h.max
            );
        }
    }
    out
}

/// Renders a run manifest (the `repro --manifest` JSON, schema v2) as a
/// human-readable summary: run configuration, per-experiment timings,
/// cache behaviour, and — when present — the failures and recoveries
/// blocks. Used by `repro trace-report` when it sniffs a manifest file.
pub fn render_manifest_report(manifest: &Json) -> String {
    let mut out = String::new();
    let str_of = |key: &str| manifest.get(key).and_then(Json::as_str).unwrap_or("?");
    let u64_of = |key: &str| manifest.get(key).and_then(Json::as_u64).unwrap_or(0);
    let _ = writeln!(
        out,
        "manifest v{}: backend {}, circuit backend {}, {} jobs, wall {}",
        u64_of("v"),
        str_of("backend"),
        str_of("circuit_backend"),
        u64_of("jobs"),
        format_us(u64_of("wall_us"))
    );

    if let Some(exps) = manifest.get("experiments").and_then(Json::as_arr) {
        if !exps.is_empty() {
            let _ = writeln!(out);
            let _ = writeln!(out, "  {:<20} {:>6} {:>12}", "experiment", "runs", "total");
            for e in exps {
                let _ = writeln!(
                    out,
                    "  {:<20} {:>6} {:>12}",
                    e.get("id").and_then(Json::as_str).unwrap_or("?"),
                    e.get("runs").and_then(Json::as_u64).unwrap_or(0),
                    format_us(e.get("dur_us").and_then(Json::as_u64).unwrap_or(0))
                );
            }
        }
    }

    if let Some(cache) = manifest.get("cache") {
        let _ = writeln!(out);
        let _ = writeln!(
            out,
            "  cache: {} hits, {} misses",
            cache.get("hits").and_then(Json::as_u64).unwrap_or(0),
            cache.get("misses").and_then(Json::as_u64).unwrap_or(0)
        );
    }

    let failures = manifest
        .get("failures")
        .and_then(Json::as_arr)
        .unwrap_or(&[]);
    let _ = writeln!(out);
    if failures.is_empty() {
        let _ = writeln!(out, "  failures: none");
    } else {
        let _ = writeln!(out, "  failures: {}", failures.len());
        for f in failures {
            let _ = writeln!(
                out,
                "    {}: {}",
                f.get("id").and_then(Json::as_str).unwrap_or("?"),
                f.get("message").and_then(Json::as_str).unwrap_or("?")
            );
        }
    }

    let recoveries = manifest
        .get("recoveries")
        .and_then(Json::as_arr)
        .unwrap_or(&[]);
    if recoveries.is_empty() {
        let _ = writeln!(out, "  recoveries: none");
    } else {
        let _ = writeln!(out, "  recoveries: {}", recoveries.len());
        for r in recoveries {
            let _ = writeln!(
                out,
                "    {} via {} ({}): {}",
                r.get("site").and_then(Json::as_str).unwrap_or("?"),
                r.get("step").and_then(Json::as_str).unwrap_or("?"),
                if r.get("recovered").and_then(Json::as_bool) == Some(true) {
                    "recovered"
                } else {
                    "failed"
                },
                r.get("detail").and_then(Json::as_str).unwrap_or("")
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_parser_handles_the_grammar() {
        let v = parse_json(r#"{"a":[1,2.5,-3e2],"b":"x\n\"y","c":null,"d":true,"e":{}}"#).unwrap();
        assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 3);
        assert_eq!(
            v.get("a").unwrap().as_arr().unwrap()[2].as_f64(),
            Some(-300.0)
        );
        assert_eq!(v.get("b").unwrap().as_str(), Some("x\n\"y"));
        assert_eq!(v.get("c"), Some(&Json::Null));
        assert_eq!(v.get("d"), Some(&Json::Bool(true)));
        assert!(parse_json("{\"a\":}").is_err());
        assert!(parse_json("{} trailing").is_err());
        assert!(parse_json("").is_err());
    }

    #[test]
    fn json_nesting_is_bounded_without_recursing_past_the_limit() {
        let nested = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        assert!(parse_json(&nested(MAX_JSON_DEPTH)).is_ok());
        let err = parse_json(&nested(MAX_JSON_DEPTH + 1)).unwrap_err();
        assert!(err.contains("nesting deeper than 128"), "{err}");
        let objects = format!(
            "{}1{}",
            "{\"a\":".repeat(MAX_JSON_DEPTH + 1),
            "}".repeat(MAX_JSON_DEPTH + 1)
        );
        assert!(parse_json(&objects).unwrap_err().contains("nesting"));
        // Far past the limit, unterminated: a typed error, not a stack
        // overflow.
        let err = parse_json(&"[".repeat(200_000)).unwrap_err();
        assert!(err.contains("nesting deeper than"), "{err}");
    }

    #[test]
    fn manifest_report_lists_failures_and_recoveries() {
        let manifest = parse_json(
            r#"{"v":2,"backend":"analytic","circuit_backend":"analytic","jobs":2,
                "wall_us":1500,"experiments":[{"id":"fig2","runs":1,"dur_us":1000}],
                "cache":{"hits":3,"misses":1,"namespaces":[]},
                "failures":[{"id":"fig4","message":"injected job panic"}],
                "recoveries":[{"site":"spice.dc","step":"gmin_stepping",
                               "detail":"","recovered":true}]}"#,
        )
        .unwrap();
        let report = render_manifest_report(&manifest);
        assert!(report.contains("manifest v2"));
        assert!(report.contains("fig2"));
        assert!(report.contains("failures: 1"));
        assert!(report.contains("fig4: injected job panic"));
        assert!(report.contains("spice.dc via gmin_stepping (recovered)"));
    }

    #[test]
    fn manifest_report_handles_clean_runs() {
        let manifest = parse_json(
            r#"{"v":2,"backend":"analytic","circuit_backend":"spice","jobs":1,
                "wall_us":10,"experiments":[],"cache":{"hits":0,"misses":0,
                "namespaces":[]},"failures":[],"recoveries":[]}"#,
        )
        .unwrap();
        let report = render_manifest_report(&manifest);
        assert!(report.contains("failures: none"));
        assert!(report.contains("recoveries: none"));
    }

    #[test]
    fn jsonl_round_trip_from_engine_writer() {
        let tracer = subvt_engine::trace::Tracer::new();
        {
            let _outer = tracer.span("outer");
            drop(tracer.span("inner").attr("k", 3u64));
        }
        tracer.add("c1", 7);
        tracer.observe_with("h1", 3.0, &[1.0, 5.0]);
        let mut buf = Vec::new();
        tracer.write_jsonl(&mut buf).unwrap();
        let trace = parse_jsonl(std::str::from_utf8(&buf).unwrap()).unwrap();
        assert_eq!(trace.v, subvt_engine::trace::SCHEMA_VERSION);
        assert_eq!(trace.spans.len(), 2);
        assert_eq!(trace.counters["c1"], 7);
        assert_eq!(trace.hists["h1"].count, 1);
        validate(&trace).unwrap();
        let inner = trace.spans.iter().find(|s| s.name == "inner").unwrap();
        let outer = trace.spans.iter().find(|s| s.name == "outer").unwrap();
        assert_eq!(inner.parent, Some(outer.id));
    }

    #[test]
    fn chrome_round_trip_from_engine_writer() {
        let tracer = subvt_engine::trace::Tracer::new();
        {
            let _outer = tracer.span("outer");
            drop(tracer.span("inner"));
        }
        tracer.add("c1", 2);
        let mut buf = Vec::new();
        tracer.write_chrome(&mut buf).unwrap();
        let events = parse_chrome(std::str::from_utf8(&buf).unwrap()).unwrap();
        // process_name + >=1 thread_name + 2 spans + 1 counter.
        assert!(events.len() >= 5, "{events:?}");
        assert!(events.iter().all(|e| e.pid == 1));
        let trace = trace_from_chrome(&events);
        assert_eq!(trace.spans.len(), 2);
        assert_eq!(trace.counters["c1"], 2);
        validate(&trace).unwrap();
    }

    #[test]
    fn validate_rejects_broken_traces() {
        let mut t = TraceFile::default();
        t.spans.push(TraceSpan {
            id: 1,
            parent: Some(99),
            name: "orphan".into(),
            start_us: 0,
            dur_us: 1,
            worker: 0,
            attrs: Vec::new(),
        });
        assert!(validate(&t).unwrap_err().contains("unresolved"));

        let mut t = TraceFile::default();
        t.spans.push(TraceSpan {
            id: 1,
            parent: Some(2),
            name: "a".into(),
            start_us: 0,
            dur_us: 1,
            worker: 0,
            attrs: Vec::new(),
        });
        t.spans.push(TraceSpan {
            id: 2,
            parent: Some(1),
            name: "b".into(),
            start_us: 0,
            dur_us: 1,
            worker: 0,
            attrs: Vec::new(),
        });
        assert!(validate(&t).unwrap_err().contains("cycle"));

        let mut t = TraceFile::default();
        t.hists.insert(
            "h".into(),
            TraceHist {
                name: "h".into(),
                count: 3,
                sum: 1.0,
                min: 0.0,
                max: 1.0,
                bounds: vec![1.0],
                counts: vec![1, 1],
            },
        );
        assert!(validate(&t).unwrap_err().contains("sum to"));
    }

    #[test]
    fn report_renders_tree_and_tables() {
        let tracer = subvt_engine::trace::Tracer::new();
        {
            let _e = tracer.span("experiment.x");
            drop(tracer.span("design.sub"));
            drop(tracer.span("design.sub"));
        }
        tracer.add("cache.design.hit", 4);
        tracer.observe("design.bisect.steps", 31.0);
        let mut buf = Vec::new();
        tracer.write_jsonl(&mut buf).unwrap();
        let trace = parse_jsonl(std::str::from_utf8(&buf).unwrap()).unwrap();
        let report = render_report(&trace);
        assert!(report.contains("experiment.x"), "{report}");
        assert!(report.contains("design.sub"), "{report}");
        assert!(report.contains("cache.design.hit"), "{report}");
        assert!(report.contains("design.bisect.steps"), "{report}");
        // The two design.sub spans aggregate to one row with count 2.
        let sub_line = report.lines().find(|l| l.contains("design.sub")).unwrap();
        assert!(sub_line.contains(" 2 "), "{sub_line}");
    }

    #[test]
    fn render_json_round_trips_through_the_parser() {
        let value = Json::Obj(vec![
            ("s".into(), Json::Str("a\"b\\c\nd\u{1}".into())),
            (
                "a".into(),
                Json::Arr(vec![Json::Null, Json::Bool(true), Json::Num(-2.5)]),
            ),
            ("n".into(), Json::Num(42.0)),
        ]);
        let text = render_json(&value);
        assert_eq!(parse_json(&text).unwrap(), value);
    }

    fn span(id: u64, parent: Option<u64>, name: &str, start_us: u64, dur_us: u64) -> TraceSpan {
        TraceSpan {
            id,
            parent,
            name: name.into(),
            start_us,
            dur_us,
            worker: 0,
            attrs: Vec::new(),
        }
    }

    fn stitch_fixture() -> (TraceFile, TraceFile) {
        let mut client = TraceFile {
            v: 2,
            ..TraceFile::default()
        };
        // Client epoch starts at 10_000µs; request span covers the wire
        // round-trip.
        client
            .spans
            .push(span(1 << 32, None, "client.request", 10_000, 2_000));
        client.wall_us = 12_000;
        client.counters.insert("loadgen.sent".into(), 1);

        let mut server = TraceFile {
            v: 2,
            ..TraceFile::default()
        };
        // Server epoch is unrelated: its 500µs request span sits at
        // 777_000µs of its own trace.
        let mut req = span(7, None, "serve.request", 777_000, 500);
        req.attrs
            .push(("client_span".into(), Json::Num((1u64 << 32) as f64)));
        req.attrs
            .push(("trace_id".into(), Json::Str("lg-1".into())));
        server.spans.push(req);
        server.spans.push(span(8, Some(7), "compute", 777_100, 300));
        server.wall_us = 777_500;
        server.counters.insert("serve.accepted".into(), 1);
        (client, server)
    }

    #[test]
    fn stitch_reparents_and_realigns_server_spans() {
        let (client, server) = stitch_fixture();
        let stitched = stitch(&client, &server).unwrap();
        validate(&stitched).unwrap();
        assert_eq!(stitched.spans.len(), 3);
        let req = stitched.spans.iter().find(|s| s.id == 7).unwrap();
        // Re-parented onto the client span and centered inside it:
        // client mid 11_000 − server half-width 250 = 10_750.
        assert_eq!(req.parent, Some(1 << 32));
        assert_eq!(req.start_us, 10_750);
        assert_eq!(req.worker, STITCH_SERVER_LANE_BASE);
        // The child moved by the same offset and kept its parent.
        let compute = stitched.spans.iter().find(|s| s.id == 8).unwrap();
        assert_eq!(compute.parent, Some(7));
        assert_eq!(compute.start_us, 10_850);
        // Registries merged.
        assert_eq!(stitched.counters["loadgen.sent"], 1);
        assert_eq!(stitched.counters["serve.accepted"], 1);
    }

    #[test]
    fn stitch_rejects_id_collisions_and_unmatched_traces() {
        let (client, server) = stitch_fixture();
        let mut colliding = server.clone();
        colliding.spans[0].id = 1 << 32;
        assert!(stitch(&client, &colliding)
            .unwrap_err()
            .contains("both traces"));

        let mut unmatched = server.clone();
        unmatched.spans[0].attrs.clear();
        assert!(stitch(&client, &unmatched)
            .unwrap_err()
            .contains("nothing to stitch"));
    }

    #[test]
    fn stitched_chrome_export_round_trips() {
        let (client, server) = stitch_fixture();
        let stitched = stitch(&client, &server).unwrap();
        let mut buf = Vec::new();
        write_chrome_from(&stitched, &mut buf).unwrap();
        let text = std::str::from_utf8(&buf).unwrap();
        let events = parse_chrome(text).unwrap();
        let reparsed = trace_from_chrome(&events);
        validate(&reparsed).unwrap();
        assert_eq!(reparsed.spans.len(), stitched.spans.len());
        let req = reparsed.spans.iter().find(|s| s.id == 7).unwrap();
        assert_eq!(req.parent, Some(1 << 32));
        assert_eq!(req.attr_str("trace_id"), Some("lg-1"));
        assert_eq!(reparsed.counters["serve.accepted"], 1);
    }

    #[test]
    fn access_log_parses_and_renders() {
        let text = concat!(
            "{\"ts\":\"2026-08-08T00:00:00Z\",\"trace_id\":\"lg-1\",\"id\":\"c1\",",
            "\"method\":\"vtc\",\"outcome\":\"ok\",\"cached\":\"computed\",\"span\":7,",
            "\"phases\":{\"queue_us\":10,\"compute_us\":200,\"serialize_us\":5},",
            "\"total_us\":215}\n",
            "{\"ts\":\"2026-08-08T00:00:01Z\",\"trace_id\":\"lg-2\",\"id\":\"c2\",",
            "\"method\":\"vtc\",\"outcome\":\"ok\",\"cached\":\"hit\",\"span\":9,",
            "\"phases\":{\"queue_us\":2,\"compute_us\":1,\"serialize_us\":3},",
            "\"total_us\":6}\n",
            "{\"ts\":\"2026-08-08T00:00:02Z\",\"trace_id\":\"lg-3\",\"id\":\"c3\",",
            "\"method\":\"isub\",\"outcome\":\"overloaded\",\"span\":0,\"total_us\":1}\n",
        );
        let records = parse_access_log(text).unwrap();
        assert_eq!(records.len(), 3);
        assert_eq!(records[0].cached.as_deref(), Some("computed"));
        assert_eq!(records[0].phases.len(), 3);
        assert_eq!(records[2].outcome, "overloaded");
        assert_eq!(records[2].cached, None);

        let report = render_access_report(&records);
        assert!(report.contains("3 requests, 1 errors"), "{report}");
        assert!(report.contains("vtc"), "{report}");
        assert!(report.contains("isub"), "{report}");
        assert!(report.contains("compute_us"), "{report}");

        assert!(parse_access_log("{\"ts\":\"x\"}")
            .unwrap_err()
            .contains("line 1"));
    }
}
