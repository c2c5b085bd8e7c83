//! `dualpar-audit`: offline invariant checking for DualPar simulation
//! traces, plus report and suite diffing (see [`baseline`]).
//!
//! The simulator (PR 1's telemetry subsystem) emits a structured JSONL
//! event trace. This crate replays such a trace — from a file or straight
//! from an in-process [`TraceBuffer`] — and checks the invariants the
//! paper's design implies:
//!
//! - **trace schema**: every event's `(component, kind)` pair is registered
//!   in `dualpar_telemetry::schema::TRACE_SCHEMA` (an unregistered record
//!   would otherwise escape every check below);
//! - **monotone time**: event timestamps never go backwards;
//! - **EMC legality**: a program enters the data-driven mode only when the
//!   same-tick observation shows `io_ratio` above the threshold and
//!   `aveSeekDist/aveReqDist` above `T_improvement`, and never after the
//!   mis-prefetch veto fired (the veto is sticky);
//! - **disk exclusivity**: each data server services at most one request at
//!   a time (`disk/start` / `disk/done` pairing by request id);
//! - **PEC pairing**: process suspends and resumes alternate, and no
//!   process is left suspended at the end of the trace;
//! - **CRM ordering**: per-program phase sequence numbers strictly
//!   increase;
//! - **cache conservation**: the end-of-run prefetch ledger balances
//!   (`inserted == consumed + overwritten + evicted + misprefetched +
//!   unused_now`);
//! - **span pairing**: every `span/open` has exactly one `span/close`
//!   (no double close, no close without open, nothing open at EOF) and
//!   durations are non-negative;
//! - **span nesting**: a child span opens while its parent is open, no
//!   earlier than the parent's own open, and closes no later than the
//!   parent closes;
//! - **span stage order**: the request-lifecycle stages recorded for a
//!   sub-request key appear in pipeline order (`req.life`, `req.issue`,
//!   `server.queue`, `disk.service`, `req.ack`); stages may be skipped
//!   (the write-back ack path has no queue/service leg) but never repeat
//!   or run backwards.
//!
//! Violations are reported with the 0-based index of the offending event
//! and rendered as a machine-readable JSON summary
//! ([`AuditReport::to_json`]).
//!
//! A trace captured by a saturated ring buffer (dropped events) loses its
//! prefix, which can produce spurious pairing violations; audit complete
//! traces (`trace_dropped == 0` in the snapshot).

#![deny(missing_docs)]

pub mod baseline;

/// Every `(component, kind)` pair the auditor's dispatch understands, in
/// sorted order. Mirrors the `match` in [`Auditor::push`]; a parity test
/// keeps it in lock-step with `dualpar_telemetry::schema::TRACE_SCHEMA`.
pub fn audited_kinds() -> Vec<(&'static str, &'static str)> {
    vec![
        ("cache", "conservation"),
        ("crm", "phase"),
        ("disk", "done"),
        ("disk", "start"),
        ("emc", "config"),
        ("emc", "mode"),
        ("emc", "tick"),
        ("pec", "resume"),
        ("pec", "suspend"),
        ("span", "close"),
        ("span", "open"),
    ]
}

use dualpar_sim::{FxHashMap as HashMap, FxHashSet as HashSet};
use dualpar_telemetry::{FieldValue, TraceBuffer};
use std::fmt;

/// One dynamically-typed field of a parsed trace event.
#[derive(Debug, Clone, PartialEq)]
pub enum Field {
    /// Unsigned integer.
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Floating point.
    F64(f64),
    /// String.
    Str(String),
    /// Boolean.
    Bool(bool),
    /// JSON `null` — the telemetry writer emits it for non-finite floats,
    /// so a `null` improvement ratio means "infinite".
    Null,
}

impl Field {
    /// Numeric view (integers widen; `Null` and strings are `None`).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Field::U64(v) => Some(*v as f64),
            Field::I64(v) => Some(*v as f64),
            Field::F64(v) => Some(*v),
            _ => None,
        }
    }

    /// Unsigned view (only for non-negative integers).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Field::U64(v) => Some(*v),
            Field::I64(v) if *v >= 0 => Some(*v as u64),
            _ => None,
        }
    }

    /// String view.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Field::Str(s) => Some(s),
            _ => None,
        }
    }
}

/// A parsed trace event: timestamp, component, kind, and payload fields in
/// file order.
#[derive(Debug, Clone, PartialEq)]
pub struct AuditEvent {
    /// Simulated time in seconds.
    pub t: f64,
    /// Emitting component (`"emc"`, `"disk"`, ...).
    pub component: String,
    /// Event kind within the component.
    pub kind: String,
    /// Remaining payload fields.
    pub fields: Vec<(String, Field)>,
}

impl AuditEvent {
    /// Look up a payload field by key.
    pub fn field(&self, key: &str) -> Option<&Field> {
        self.fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// Numeric payload field.
    pub fn num(&self, key: &str) -> Option<f64> {
        self.field(key).and_then(Field::as_f64)
    }

    /// Unsigned payload field.
    pub fn u64(&self, key: &str) -> Option<u64> {
        self.field(key).and_then(Field::as_u64)
    }

    /// String payload field.
    pub fn str(&self, key: &str) -> Option<&str> {
        self.field(key).and_then(Field::as_str)
    }
}

/// A malformed trace line.
#[derive(Debug, Clone, PartialEq)]
pub struct ParseError {
    /// 1-based line number.
    pub line: usize,
    /// What went wrong.
    pub msg: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.msg)
    }
}

/// Minimal parser for the flat JSON objects the telemetry exporter writes
/// (one per line; values are numbers, strings, booleans, or `null`). The
/// vendored serde stubs cannot deserialize into dynamic values, so the
/// auditor carries its own.
struct JsonParser<'a> {
    s: &'a [u8],
    i: usize,
}

impl<'a> JsonParser<'a> {
    fn new(s: &'a str) -> Self {
        JsonParser {
            s: s.as_bytes(),
            i: 0,
        }
    }

    fn ws(&mut self) {
        while self.i < self.s.len() && self.s[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.s.get(self.i).copied()
    }

    fn eat(&mut self, b: u8) -> Result<(), String> {
        self.ws();
        if self.peek() == Some(b) {
            self.i += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", b as char, self.i))
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            let b = self.peek().ok_or("unterminated string")?;
            self.i += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let e = self.peek().ok_or("unterminated escape")?;
                    self.i += 1;
                    match e {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hex = self
                                .s
                                .get(self.i..self.i + 4)
                                .ok_or("truncated \\u escape")?;
                            self.i += 4;
                            let code = std::str::from_utf8(hex)
                                .ok()
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or("bad \\u escape")?;
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        other => return Err(format!("bad escape '\\{}'", other as char)),
                    }
                }
                // The input is valid UTF-8 (it came from a &str); copy the
                // remaining bytes of a multi-byte scalar through verbatim.
                _ => {
                    let start = self.i - 1;
                    let mut end = self.i;
                    while end < self.s.len() && self.s[end] & 0xc0 == 0x80 {
                        end += 1;
                    }
                    let chunk = std::str::from_utf8(&self.s[start..end])
                        .map_err(|_| "invalid UTF-8".to_string())?;
                    out.push_str(chunk);
                    self.i = end;
                }
            }
        }
    }

    fn value(&mut self) -> Result<Field, String> {
        self.ws();
        match self.peek().ok_or("unexpected end of line")? {
            b'"' => Ok(Field::Str(self.string()?)),
            b't' => self.literal("true", Field::Bool(true)),
            b'f' => self.literal("false", Field::Bool(false)),
            b'n' => self.literal("null", Field::Null),
            _ => self.number(),
        }
    }

    fn literal(&mut self, word: &str, f: Field) -> Result<Field, String> {
        if self.s[self.i..].starts_with(word.as_bytes()) {
            self.i += word.len();
            Ok(f)
        } else {
            Err(format!("expected '{word}'"))
        }
    }

    fn number(&mut self) -> Result<Field, String> {
        let start = self.i;
        while self
            .peek()
            .is_some_and(|b| b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E'))
        {
            self.i += 1;
        }
        let text = std::str::from_utf8(&self.s[start..self.i])
            .map_err(|_| "invalid UTF-8 in number".to_string())?;
        if text.is_empty() {
            return Err(format!("expected a value at byte {start}"));
        }
        if text.contains(['.', 'e', 'E']) {
            text.parse::<f64>()
                .map(Field::F64)
                .map_err(|e| format!("bad float '{text}': {e}"))
        } else if let Some(stripped) = text.strip_prefix('-') {
            stripped
                .parse::<u64>()
                .map(|_| ())
                .map_err(|e| format!("bad integer '{text}': {e}"))?;
            text.parse::<i64>()
                .map(Field::I64)
                .map_err(|e| format!("bad integer '{text}': {e}"))
        } else {
            text.parse::<u64>()
                .map(Field::U64)
                .map_err(|e| format!("bad integer '{text}': {e}"))
        }
    }
}

/// Parse one JSONL trace line.
fn parse_line(line: &str) -> Result<AuditEvent, String> {
    let mut p = JsonParser::new(line);
    p.eat(b'{')?;
    let mut t: Option<f64> = None;
    let mut component: Option<String> = None;
    let mut kind: Option<String> = None;
    let mut fields = Vec::new();
    loop {
        p.ws();
        if p.peek() == Some(b'}') {
            break;
        }
        let key = p.string()?;
        p.eat(b':')?;
        let value = p.value()?;
        match key.as_str() {
            "t" => {
                t = Some(
                    value
                        .as_f64()
                        .ok_or_else(|| format!("non-numeric 't': {value:?}"))?,
                );
            }
            "component" => match value {
                Field::Str(s) => component = Some(s),
                other => return Err(format!("non-string 'component': {other:?}")),
            },
            "kind" => match value {
                Field::Str(s) => kind = Some(s),
                other => return Err(format!("non-string 'kind': {other:?}")),
            },
            _ => fields.push((key, value)),
        }
        p.ws();
        match p.peek() {
            Some(b',') => p.i += 1,
            Some(b'}') => break,
            _ => return Err("expected ',' or '}'".to_string()),
        }
    }
    Ok(AuditEvent {
        t: t.ok_or("missing 't'")?,
        component: component.ok_or("missing 'component'")?,
        kind: kind.ok_or("missing 'kind'")?,
        fields,
    })
}

/// Parse a whole JSONL trace (blank lines ignored).
pub fn parse_jsonl(text: &str) -> Result<Vec<AuditEvent>, ParseError> {
    let mut out = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        out.push(parse_line(line).map_err(|msg| ParseError { line: i + 1, msg })?);
    }
    Ok(out)
}

/// Convert an in-process [`TraceBuffer`] into auditable events, bypassing
/// the JSONL round-trip. Non-finite floats become [`Field::Null`] exactly
/// as the exporter would write them, so both paths audit identically.
pub fn events_from_buffer(buf: &TraceBuffer) -> Vec<AuditEvent> {
    buf.iter()
        .map(|ev| AuditEvent {
            t: ev.t,
            component: ev.component.to_string(),
            kind: ev.kind.to_string(),
            fields: ev
                .fields
                .iter()
                .map(|(k, v)| {
                    let f = match v {
                        FieldValue::U64(v) => Field::U64(*v),
                        FieldValue::I64(v) => Field::I64(*v),
                        FieldValue::F64(v) if v.is_finite() => Field::F64(*v),
                        FieldValue::F64(_) => Field::Null,
                        FieldValue::Str(s) => Field::Str(s.clone()),
                    };
                    (k.to_string(), f)
                })
                .collect(),
        })
        .collect()
}

/// Thresholds the EMC-legality check validates against. Defaults match
/// `DualParConfig`; an `emc/config` event in the trace overrides them, so
/// tuned runs audit against their own thresholds.
#[derive(Debug, Clone, Copy)]
pub struct AuditConfig {
    /// Programs may enter the data-driven mode only above this I/O ratio.
    pub io_ratio_threshold: f64,
    /// ... and only when `aveSeekDist/aveReqDist` exceeds this.
    pub t_improvement: f64,
    /// Mis-prefetch ratio above which the veto fires (reported for
    /// context; the veto itself is audited via the tick's `vetoed` flag).
    pub misprefetch_threshold: f64,
    /// Tolerate a truncated trace prefix: a saturated ring buffer drops the
    /// oldest events, so the first `disk/done` per server and the first
    /// `pec/resume` per process may have lost their opening half. With this
    /// set, such "missing start" pairing errors — only while the server /
    /// process has not yet shown a `disk/start` / `pec/suspend` of its own —
    /// are counted as warnings ([`AuditReport::warnings`]) instead of
    /// violations. Mismatched pairings (the opening half *was* seen) are
    /// always violations.
    pub tolerate_truncation: bool,
}

impl Default for AuditConfig {
    fn default() -> Self {
        AuditConfig {
            io_ratio_threshold: 0.8,
            t_improvement: 3.0,
            misprefetch_threshold: 0.2,
            tolerate_truncation: false,
        }
    }
}

/// One invariant violation, anchored to the offending event.
#[derive(Debug, Clone, PartialEq)]
pub struct Violation {
    /// 0-based index of the event in the audited stream.
    pub index: usize,
    /// Simulated time of that event.
    pub t: f64,
    /// Which check fired.
    pub check: &'static str,
    /// Human-readable detail.
    pub message: String,
}

/// The auditor's verdict over one trace.
#[derive(Debug, Clone, Default)]
pub struct AuditReport {
    /// Events examined.
    pub events: usize,
    /// Pairing errors downgraded under
    /// [`AuditConfig::tolerate_truncation`] (dropped-prefix artifacts).
    /// Zero unless that option is set.
    pub warnings: usize,
    /// Violations found, in stream order.
    pub violations: Vec<Violation>,
}

impl AuditReport {
    /// Did the trace pass every check? (Truncation warnings don't fail it.)
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }

    /// Machine-readable summary.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\"events\":");
        out.push_str(&self.events.to_string());
        out.push_str(",\"warnings\":");
        out.push_str(&self.warnings.to_string());
        out.push_str(",\"ok\":");
        out.push_str(if self.ok() { "true" } else { "false" });
        out.push_str(",\"violations\":[");
        for (i, v) in self.violations.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"index\":");
            out.push_str(&v.index.to_string());
            out.push_str(",\"t\":");
            if v.t.is_finite() {
                out.push_str(&format!("{:?}", v.t));
            } else {
                out.push_str("null");
            }
            out.push_str(",\"check\":");
            push_json_str(&mut out, v.check);
            out.push_str(",\"message\":");
            push_json_str(&mut out, &v.message);
            out.push('}');
        }
        out.push_str("]}");
        out
    }
}

pub(crate) fn push_json_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Rank of a request-lifecycle stage span in pipeline order, `None` for
/// non-stage spans (process-state spans carry no ordering constraint).
fn stage_rank(name: &str) -> Option<u32> {
    match name {
        "req.life" => Some(0),
        "req.issue" => Some(1),
        "server.queue" => Some(2),
        "disk.service" => Some(3),
        "req.ack" => Some(4),
        _ => None,
    }
}

/// A span seen open but not yet closed.
#[derive(Debug, Clone)]
struct OpenSpan {
    name: String,
    key: u64,
    /// Logical open time (the event's `at` payload, not its stamp).
    at: f64,
    parent: Option<u64>,
    /// Index of the `span/open` event, for EOF diagnostics.
    opened_at: usize,
}

/// The last EMC tick observation seen for a program.
#[derive(Debug, Clone)]
struct TickObs {
    t: f64,
    io_ratio: f64,
    /// `None` — no improvement sample this slot; `Some(f64::INFINITY)` —
    /// the writer serialized a non-finite ratio as `null`.
    improvement: Option<f64>,
    vetoed: bool,
    mode: String,
}

/// Streaming auditor state. Feed events in order with [`Auditor::push`],
/// then [`Auditor::finish`].
pub struct Auditor {
    cfg: AuditConfig,
    index: usize,
    last_t: f64,
    violations: Vec<Violation>,
    /// Per data server: id of the in-flight request and its start index.
    in_flight: HashMap<u64, (u64, usize)>,
    /// Per PEC-suspended process: index of the suspend event.
    suspended: HashMap<u64, usize>,
    /// Per program: current execution mode label.
    modes: HashMap<u64, String>,
    /// Programs whose mis-prefetch veto has fired (sticky).
    vetoed: HashSet<u64>,
    /// Per program: most recent tick observation.
    last_tick: HashMap<u64, TickObs>,
    /// Per program: last CRM phase sequence number.
    crm_seq: HashMap<u64, u64>,
    /// Pairing errors downgraded to warnings (truncated-prefix window).
    warnings: usize,
    /// Servers that have shown a `disk/start` — a done-without-start on one
    /// of these is a real pairing error even under truncation tolerance.
    seen_disk_start: HashSet<u64>,
    /// Processes that have shown a `pec/suspend` — same reasoning.
    seen_pec_suspend: HashSet<u64>,
    /// Spans currently open, by span id.
    open_spans: HashMap<u64, OpenSpan>,
    /// Spans already closed: id → close time (`at` payload). Used to catch
    /// double closes and children outliving their parent.
    closed_spans: HashMap<u64, f64>,
    /// Per sub-request key: rank of the last lifecycle stage opened.
    span_stage: HashMap<u64, u32>,
}

impl Auditor {
    /// A fresh auditor with the given thresholds.
    pub fn new(cfg: AuditConfig) -> Self {
        Auditor {
            cfg,
            index: 0,
            last_t: f64::NEG_INFINITY,
            violations: Vec::new(),
            in_flight: HashMap::default(),
            suspended: HashMap::default(),
            modes: HashMap::default(),
            vetoed: HashSet::default(),
            last_tick: HashMap::default(),
            crm_seq: HashMap::default(),
            warnings: 0,
            seen_disk_start: HashSet::default(),
            seen_pec_suspend: HashSet::default(),
            open_spans: HashMap::default(),
            closed_spans: HashMap::default(),
            span_stage: HashMap::default(),
        }
    }

    fn flag(&mut self, t: f64, check: &'static str, message: String) {
        self.violations.push(Violation {
            index: self.index,
            t,
            check,
            message,
        });
    }

    /// Examine the next event of the stream.
    pub fn push(&mut self, ev: &AuditEvent) {
        if !ev.t.is_finite() {
            self.flag(ev.t, "monotone-time", "non-finite timestamp".to_string());
        } else if ev.t < self.last_t {
            self.flag(
                ev.t,
                "monotone-time",
                format!(
                    "timestamp {} precedes previous event at {}",
                    ev.t, self.last_t
                ),
            );
        } else {
            self.last_t = ev.t;
        }
        match (ev.component.as_str(), ev.kind.as_str()) {
            ("emc", "config") => self.on_emc_config(ev),
            ("emc", "tick") => self.on_emc_tick(ev),
            ("emc", "mode") => self.on_emc_mode(ev),
            ("crm", "phase") => self.on_crm_phase(ev),
            ("disk", "start") => self.on_disk_start(ev),
            ("disk", "done") => self.on_disk_done(ev),
            ("pec", "suspend") => self.on_pec_suspend(ev),
            ("pec", "resume") => self.on_pec_resume(ev),
            ("cache", "conservation") => self.on_cache_conservation(ev),
            ("span", "open") => self.on_span_open(ev),
            ("span", "close") => self.on_span_close(ev),
            // The arms above are exactly TRACE_SCHEMA (see audited_kinds).
            (component, kind) => self.flag(
                ev.t,
                "trace-schema",
                format!("unregistered trace kind {component}/{kind}"),
            ),
        }
        self.index += 1;
    }

    fn on_emc_config(&mut self, ev: &AuditEvent) {
        if let Some(v) = ev.num("io_ratio_threshold") {
            self.cfg.io_ratio_threshold = v;
        }
        if let Some(v) = ev.num("t_improvement") {
            self.cfg.t_improvement = v;
        }
        if let Some(v) = ev.num("misprefetch_threshold") {
            self.cfg.misprefetch_threshold = v;
        }
    }

    fn on_emc_tick(&mut self, ev: &AuditEvent) {
        let (Some(program), Some(io_ratio), Some(vetoed), Some(mode)) = (
            ev.u64("program"),
            ev.num("io_ratio"),
            ev.u64("vetoed"),
            ev.str("mode"),
        ) else {
            self.flag(ev.t, "malformed", "emc/tick missing fields".to_string());
            return;
        };
        let improvement = match ev.field("improvement") {
            None => None,
            Some(Field::Null) => Some(f64::INFINITY),
            Some(f) => f.as_f64(),
        };
        let vetoed = vetoed != 0;
        if vetoed {
            self.vetoed.insert(program);
        } else if self.vetoed.contains(&program) {
            self.flag(
                ev.t,
                "emc-veto-sticky",
                format!("program {program} tick reports vetoed=0 after the veto fired"),
            );
        }
        self.last_tick.insert(
            program,
            TickObs {
                t: ev.t,
                io_ratio,
                improvement,
                vetoed,
                mode: mode.to_string(),
            },
        );
    }

    fn on_emc_mode(&mut self, ev: &AuditEvent) {
        let (Some(program), Some(mode), Some(reason)) =
            (ev.u64("program"), ev.str("mode"), ev.str("reason"))
        else {
            self.flag(ev.t, "malformed", "emc/mode missing fields".to_string());
            return;
        };
        let prev = self
            .modes
            .get(&program)
            .map(String::as_str)
            .unwrap_or("computation_driven");
        if prev == mode {
            self.flag(
                ev.t,
                "emc-duplicate-mode",
                format!("program {program} re-enters '{mode}' (reason {reason})"),
            );
        }
        if reason == "emc" {
            match self.last_tick.get(&program).cloned() {
                None => self.flag(
                    ev.t,
                    "emc-legality",
                    format!("program {program} mode change without any EMC tick"),
                ),
                Some(obs) => {
                    if obs.t != ev.t {
                        self.flag(
                            ev.t,
                            "emc-legality",
                            format!(
                                "program {program} mode change at t={} but last tick was t={}",
                                ev.t, obs.t
                            ),
                        );
                    } else if mode == "data_driven" {
                        if obs.vetoed || self.vetoed.contains(&program) {
                            self.flag(
                                ev.t,
                                "emc-legality",
                                format!(
                                    "program {program} enters data_driven despite mis-prefetch veto"
                                ),
                            );
                        }
                        if obs.io_ratio <= self.cfg.io_ratio_threshold {
                            self.flag(
                                ev.t,
                                "emc-legality",
                                format!(
                                    "program {program} enters data_driven with io_ratio {} <= threshold {}",
                                    obs.io_ratio, self.cfg.io_ratio_threshold
                                ),
                            );
                        }
                        match obs.improvement {
                            Some(imp) if imp > self.cfg.t_improvement => {}
                            Some(imp) => self.flag(
                                ev.t,
                                "emc-legality",
                                format!(
                                    "program {program} enters data_driven with improvement {} <= T_improvement {}",
                                    imp, self.cfg.t_improvement
                                ),
                            ),
                            None => self.flag(
                                ev.t,
                                "emc-legality",
                                format!(
                                    "program {program} enters data_driven without an improvement sample"
                                ),
                            ),
                        }
                    }
                    if obs.t == ev.t && obs.mode != mode {
                        self.flag(
                            ev.t,
                            "emc-legality",
                            format!(
                                "program {program} mode event '{mode}' disagrees with same-tick observation '{}'",
                                obs.mode
                            ),
                        );
                    }
                }
            }
        }
        self.modes.insert(program, mode.to_string());
    }

    fn on_crm_phase(&mut self, ev: &AuditEvent) {
        let (Some(program), Some(seq)) = (ev.u64("program"), ev.u64("seq")) else {
            self.flag(ev.t, "malformed", "crm/phase missing fields".to_string());
            return;
        };
        if let Some(&prev) = self.crm_seq.get(&program) {
            if seq <= prev {
                self.flag(
                    ev.t,
                    "crm-sequence",
                    format!("program {program} phase seq {seq} after {prev} (must increase)"),
                );
            }
        }
        self.crm_seq.insert(program, seq);
    }

    fn on_disk_start(&mut self, ev: &AuditEvent) {
        let (Some(server), Some(id)) = (ev.u64("server"), ev.u64("id")) else {
            self.flag(ev.t, "malformed", "disk/start missing fields".to_string());
            return;
        };
        if ev.u64("sectors") == Some(0) {
            self.flag(
                ev.t,
                "disk-exclusivity",
                format!("server {server} starts zero-sector request {id}"),
            );
        }
        if let Some(&(other, at)) = self.in_flight.get(&server) {
            self.flag(
                ev.t,
                "disk-exclusivity",
                format!(
                    "server {server} starts request {id} while request {other} (event {at}) is in flight"
                ),
            );
        }
        self.in_flight.insert(server, (id, self.index));
        self.seen_disk_start.insert(server);
    }

    fn on_disk_done(&mut self, ev: &AuditEvent) {
        let (Some(server), Some(id)) = (ev.u64("server"), ev.u64("id")) else {
            self.flag(ev.t, "malformed", "disk/done missing fields".to_string());
            return;
        };
        match self.in_flight.remove(&server) {
            // Before a server's first observed start, a lone done is the
            // signature of a dropped trace prefix (its start fell off the
            // ring); count it as a warning when tolerance is on.
            None if self.cfg.tolerate_truncation && !self.seen_disk_start.contains(&server) => {
                self.warnings += 1;
            }
            None => self.flag(
                ev.t,
                "disk-pairing",
                format!("server {server} completes request {id} with nothing in flight"),
            ),
            Some((other, _)) if other != id => self.flag(
                ev.t,
                "disk-pairing",
                format!("server {server} completes request {id} but {other} was in flight"),
            ),
            Some(_) => {}
        }
    }

    fn on_pec_suspend(&mut self, ev: &AuditEvent) {
        let Some(proc) = ev.u64("proc") else {
            self.flag(ev.t, "malformed", "pec/suspend missing 'proc'".to_string());
            return;
        };
        if let Some(&at) = self.suspended.get(&proc) {
            self.flag(
                ev.t,
                "pec-pairing",
                format!("proc {proc} suspended twice (previous suspend at event {at})"),
            );
        }
        self.suspended.insert(proc, self.index);
        self.seen_pec_suspend.insert(proc);
    }

    fn on_pec_resume(&mut self, ev: &AuditEvent) {
        let Some(proc) = ev.u64("proc") else {
            self.flag(ev.t, "malformed", "pec/resume missing 'proc'".to_string());
            return;
        };
        if self.suspended.remove(&proc).is_none() {
            // Mirror of the disk case: before this process's first observed
            // suspend, the matching suspend may be in the dropped prefix.
            if self.cfg.tolerate_truncation && !self.seen_pec_suspend.contains(&proc) {
                self.warnings += 1;
            } else {
                self.flag(
                    ev.t,
                    "pec-pairing",
                    format!("proc {proc} resumed without a matching suspend"),
                );
            }
        }
    }

    fn on_span_open(&mut self, ev: &AuditEvent) {
        let (Some(id), Some(name), Some(key), Some(at)) =
            (ev.u64("id"), ev.str("name"), ev.u64("key"), ev.num("at"))
        else {
            self.flag(ev.t, "malformed", "span/open missing fields".to_string());
            return;
        };
        let name = name.to_string();
        if self.open_spans.contains_key(&id) || self.closed_spans.contains_key(&id) {
            self.flag(
                ev.t,
                "span-pairing",
                format!("span id {id} ('{name}') opened twice"),
            );
            return;
        }
        let parent = ev.u64("parent");
        if let Some(p) = parent {
            match self.open_spans.get(&p) {
                Some(ps) => {
                    if at < ps.at {
                        self.flag(
                            ev.t,
                            "span-nesting",
                            format!(
                                "span {id} ('{name}') opens at {at} before its parent {p} ('{}') opened at {}",
                                ps.name, ps.at
                            ),
                        );
                    }
                }
                None if self.closed_spans.contains_key(&p) => self.flag(
                    ev.t,
                    "span-nesting",
                    format!("span {id} ('{name}') opens under already-closed parent {p}"),
                ),
                // The parent's open may sit in a dropped ring-buffer prefix.
                None if self.cfg.tolerate_truncation => self.warnings += 1,
                None => self.flag(
                    ev.t,
                    "span-nesting",
                    format!("span {id} ('{name}') opens under unknown parent {p}"),
                ),
            }
        }
        if let Some(rank) = stage_rank(&name) {
            if let Some(&prev) = self.span_stage.get(&key) {
                if rank <= prev {
                    self.flag(
                        ev.t,
                        "span-stage-order",
                        format!(
                            "request key {key} stage '{name}' (rank {rank}) after a rank-{prev} stage; stages must advance"
                        ),
                    );
                }
            }
            self.span_stage.insert(key, rank);
        }
        self.open_spans.insert(
            id,
            OpenSpan {
                name,
                key,
                at,
                parent,
                opened_at: self.index,
            },
        );
    }

    fn on_span_close(&mut self, ev: &AuditEvent) {
        let (Some(id), Some(at)) = (ev.u64("id"), ev.num("at")) else {
            self.flag(ev.t, "malformed", "span/close missing fields".to_string());
            return;
        };
        let Some(span) = self.open_spans.remove(&id) else {
            if self.closed_spans.contains_key(&id) {
                self.flag(ev.t, "span-pairing", format!("span id {id} closed twice"));
            } else if self.cfg.tolerate_truncation {
                // Its open may be in the dropped prefix.
                self.warnings += 1;
            } else {
                self.flag(
                    ev.t,
                    "span-pairing",
                    format!("span id {id} closed without a matching open"),
                );
            }
            return;
        };
        if at < span.at {
            self.flag(
                ev.t,
                "span-pairing",
                format!(
                    "span {id} ('{}', key {}) closes at {at} before it opened at {}",
                    span.name, span.key, span.at
                ),
            );
        }
        if let Some(p) = span.parent {
            if let Some(&pc) = self.closed_spans.get(&p) {
                if at > pc {
                    self.flag(
                        ev.t,
                        "span-nesting",
                        format!(
                            "span {id} ('{}') closes at {at} after its parent {p} closed at {pc}",
                            span.name
                        ),
                    );
                }
            }
        }
        self.closed_spans.insert(id, at);
    }

    fn on_cache_conservation(&mut self, ev: &AuditEvent) {
        let keys = [
            "inserted",
            "consumed",
            "overwritten",
            "evicted",
            "misprefetched",
            "unused_now",
        ];
        let mut vals = [0u64; 6];
        for (slot, key) in vals.iter_mut().zip(keys) {
            match ev.u64(key) {
                Some(v) => *slot = v,
                None => {
                    self.flag(
                        ev.t,
                        "malformed",
                        format!("cache/conservation missing '{key}'"),
                    );
                    return;
                }
            }
        }
        let [inserted, consumed, overwritten, evicted, misprefetched, unused_now] = vals;
        let accounted = consumed + overwritten + evicted + misprefetched + unused_now;
        if inserted != accounted {
            self.flag(
                ev.t,
                "cache-conservation",
                format!(
                    "prefetched bytes not conserved: inserted {inserted} != consumed {consumed} + overwritten {overwritten} + evicted {evicted} + misprefetched {misprefetched} + unused {unused_now} (= {accounted})"
                ),
            );
        }
    }

    /// End of stream: check terminal conditions and produce the report.
    ///
    /// A request still in flight on a data server is *legal* — the engine
    /// stops as soon as the last program finishes, abandoning queued disk
    /// events — but a process still suspended is not: PEC always resumes
    /// its processes before their program can finish.
    pub fn finish(mut self) -> AuditReport {
        let mut leftover: Vec<(u64, usize)> =
            self.suspended.iter().map(|(&p, &i)| (p, i)).collect();
        leftover.sort_unstable();
        for (proc, at) in leftover {
            self.violations.push(Violation {
                index: at,
                t: self.last_t,
                check: "pec-pairing",
                message: format!(
                    "proc {proc} still suspended at end of trace (suspend at event {at})"
                ),
            });
        }
        let mut open: Vec<(u64, OpenSpan)> = self.open_spans.drain().collect();
        open.sort_unstable_by_key(|(id, _)| *id);
        for (id, span) in open {
            self.violations.push(Violation {
                index: span.opened_at,
                t: self.last_t,
                check: "span-pairing",
                message: format!(
                    "span {id} ('{}', key {}) still open at end of trace (opened at event {})",
                    span.name, span.key, span.opened_at
                ),
            });
        }
        AuditReport {
            events: self.index,
            warnings: self.warnings,
            violations: self.violations,
        }
    }
}

/// Audit a pre-parsed event stream.
pub fn audit_events(events: &[AuditEvent], cfg: AuditConfig) -> AuditReport {
    let mut a = Auditor::new(cfg);
    for ev in events {
        a.push(ev);
    }
    a.finish()
}

/// Parse and audit a JSONL trace.
pub fn audit_jsonl_str(text: &str, cfg: AuditConfig) -> Result<AuditReport, ParseError> {
    Ok(audit_events(&parse_jsonl(text)?, cfg))
}

/// Audit an in-process trace buffer.
pub fn audit_buffer(buf: &TraceBuffer, cfg: AuditConfig) -> AuditReport {
    audit_events(&events_from_buffer(buf), cfg)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn audit(lines: &str) -> AuditReport {
        audit_jsonl_str(lines, AuditConfig::default()).unwrap()
    }

    #[test]
    fn parses_writer_shapes() {
        let evs = parse_jsonl(
            "{\"t\":1.5,\"component\":\"emc\",\"kind\":\"tick\",\"program\":3,\"io_ratio\":0.9,\"improvement\":null,\"mode\":\"data_driven\",\"vetoed\":0}\n\
             {\"t\":2.0,\"component\":\"x\",\"kind\":\"y\",\"label\":\"a\\\"b\\\\c\\nd\",\"delta\":-4}\n",
        )
        .unwrap();
        assert_eq!(evs.len(), 2);
        assert_eq!(evs[0].t, 1.5);
        assert_eq!(evs[0].u64("program"), Some(3));
        assert_eq!(evs[0].field("improvement"), Some(&Field::Null));
        assert_eq!(evs[1].str("label"), Some("a\"b\\c\nd"));
        assert_eq!(evs[1].field("delta"), Some(&Field::I64(-4)));
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(parse_jsonl("{\"t\":1.0,\"component\":\"a\"}").is_err());
        assert!(parse_jsonl("not json").is_err());
        assert!(parse_jsonl("{\"t\":\"late\",\"component\":\"a\",\"kind\":\"b\"}").is_err());
    }

    #[test]
    fn clean_trace_passes() {
        let r = audit(
            "{\"t\":0.0,\"component\":\"emc\",\"kind\":\"config\",\"io_ratio_threshold\":0.8,\"t_improvement\":3.0,\"misprefetch_threshold\":0.2}\n\
             {\"t\":1.0,\"component\":\"emc\",\"kind\":\"tick\",\"program\":0,\"io_ratio\":0.95,\"improvement\":4.5,\"mode\":\"data_driven\",\"vetoed\":0}\n\
             {\"t\":1.0,\"component\":\"emc\",\"kind\":\"mode\",\"program\":0,\"mode\":\"data_driven\",\"reason\":\"emc\"}\n\
             {\"t\":1.5,\"component\":\"pec\",\"kind\":\"suspend\",\"proc\":7,\"program\":0}\n\
             {\"t\":1.6,\"component\":\"disk\",\"kind\":\"start\",\"server\":0,\"id\":1,\"lbn\":10,\"sectors\":8,\"kind_io\":\"read\"}\n\
             {\"t\":1.7,\"component\":\"disk\",\"kind\":\"done\",\"server\":0,\"id\":1}\n\
             {\"t\":1.8,\"component\":\"crm\",\"kind\":\"phase\",\"program\":0,\"seq\":1}\n\
             {\"t\":2.0,\"component\":\"pec\",\"kind\":\"resume\",\"proc\":7,\"program\":0}\n\
             {\"t\":2.5,\"component\":\"cache\",\"kind\":\"conservation\",\"inserted\":100,\"consumed\":60,\"overwritten\":10,\"evicted\":5,\"misprefetched\":25,\"unused_now\":0}\n",
        );
        assert!(r.ok(), "unexpected violations: {:?}", r.violations);
        assert_eq!(r.events, 9);
    }

    #[test]
    fn well_formed_spans_pass() {
        // A request lifecycle (life > issue, queue, service, ack) plus a
        // process-state span; skipping stages (write-back ack) is fine.
        let r = audit(
            "{\"t\":0.0,\"component\":\"span\",\"kind\":\"open\",\"id\":0,\"name\":\"req.life\",\"key\":7,\"at\":0.0}\n\
             {\"t\":0.0,\"component\":\"span\",\"kind\":\"open\",\"id\":1,\"name\":\"req.issue\",\"key\":7,\"at\":0.0,\"parent\":0}\n\
             {\"t\":0.1,\"component\":\"span\",\"kind\":\"close\",\"id\":1,\"at\":0.1}\n\
             {\"t\":0.1,\"component\":\"span\",\"kind\":\"open\",\"id\":2,\"name\":\"server.queue\",\"key\":7,\"at\":0.1,\"parent\":0}\n\
             {\"t\":0.2,\"component\":\"span\",\"kind\":\"close\",\"id\":2,\"at\":0.2}\n\
             {\"t\":0.2,\"component\":\"span\",\"kind\":\"open\",\"id\":3,\"name\":\"disk.service\",\"key\":7,\"at\":0.2,\"parent\":0}\n\
             {\"t\":0.3,\"component\":\"span\",\"kind\":\"close\",\"id\":3,\"at\":0.3}\n\
             {\"t\":0.3,\"component\":\"span\",\"kind\":\"open\",\"id\":4,\"name\":\"req.ack\",\"key\":7,\"at\":0.3,\"parent\":0}\n\
             {\"t\":0.4,\"component\":\"span\",\"kind\":\"close\",\"id\":4,\"at\":0.4}\n\
             {\"t\":0.4,\"component\":\"span\",\"kind\":\"close\",\"id\":0,\"at\":0.4}\n\
             {\"t\":0.5,\"component\":\"span\",\"kind\":\"open\",\"id\":5,\"name\":\"req.life\",\"key\":8,\"at\":0.5}\n\
             {\"t\":0.5,\"component\":\"span\",\"kind\":\"open\",\"id\":6,\"name\":\"req.issue\",\"key\":8,\"at\":0.5,\"parent\":5}\n\
             {\"t\":0.6,\"component\":\"span\",\"kind\":\"close\",\"id\":6,\"at\":0.6}\n\
             {\"t\":0.6,\"component\":\"span\",\"kind\":\"open\",\"id\":7,\"name\":\"req.ack\",\"key\":8,\"at\":0.6,\"parent\":5}\n\
             {\"t\":0.7,\"component\":\"span\",\"kind\":\"close\",\"id\":7,\"at\":0.7}\n\
             {\"t\":0.7,\"component\":\"span\",\"kind\":\"close\",\"id\":5,\"at\":0.7}\n\
             {\"t\":0.7,\"component\":\"span\",\"kind\":\"open\",\"id\":8,\"name\":\"proc.compute\",\"key\":1,\"at\":0.7}\n\
             {\"t\":0.8,\"component\":\"span\",\"kind\":\"close\",\"id\":8,\"at\":0.8}\n",
        );
        assert!(r.ok(), "unexpected violations: {:?}", r.violations);
    }

    #[test]
    fn flags_span_open_at_eof() {
        let r = audit(
            "{\"t\":0.0,\"component\":\"span\",\"kind\":\"open\",\"id\":0,\"name\":\"proc.compute\",\"key\":1,\"at\":0.0}\n",
        );
        assert_eq!(r.violations.len(), 1);
        assert_eq!(r.violations[0].check, "span-pairing");
        assert!(r.violations[0].message.contains("still open"));
    }

    #[test]
    fn flags_span_pairing_and_order_errors() {
        // Close without open.
        let r =
            audit("{\"t\":0.1,\"component\":\"span\",\"kind\":\"close\",\"id\":9,\"at\":0.1}\n");
        assert_eq!(r.violations.len(), 1);
        assert_eq!(r.violations[0].check, "span-pairing");
        // …downgraded to a warning under truncation tolerance.
        let tol = AuditConfig {
            tolerate_truncation: true,
            ..AuditConfig::default()
        };
        let r = audit_jsonl_str(
            "{\"t\":0.1,\"component\":\"span\",\"kind\":\"close\",\"id\":9,\"at\":0.1}\n",
            tol,
        )
        .unwrap();
        assert!(r.ok());
        assert_eq!(r.warnings, 1);
        // Double close.
        let r = audit(
            "{\"t\":0.0,\"component\":\"span\",\"kind\":\"open\",\"id\":0,\"name\":\"req.life\",\"key\":1,\"at\":0.0}\n\
             {\"t\":0.1,\"component\":\"span\",\"kind\":\"close\",\"id\":0,\"at\":0.1}\n\
             {\"t\":0.2,\"component\":\"span\",\"kind\":\"close\",\"id\":0,\"at\":0.2}\n",
        );
        assert_eq!(r.violations.len(), 1);
        assert!(r.violations[0].message.contains("closed twice"));
        // Stage order regression: service after ack on the same key.
        let r = audit(
            "{\"t\":0.0,\"component\":\"span\",\"kind\":\"open\",\"id\":0,\"name\":\"req.ack\",\"key\":3,\"at\":0.0}\n\
             {\"t\":0.1,\"component\":\"span\",\"kind\":\"close\",\"id\":0,\"at\":0.1}\n\
             {\"t\":0.2,\"component\":\"span\",\"kind\":\"open\",\"id\":1,\"name\":\"disk.service\",\"key\":3,\"at\":0.2}\n\
             {\"t\":0.3,\"component\":\"span\",\"kind\":\"close\",\"id\":1,\"at\":0.3}\n",
        );
        assert_eq!(r.violations.len(), 1, "{:?}", r.violations);
        assert_eq!(r.violations[0].check, "span-stage-order");
    }

    #[test]
    fn flags_span_nesting_errors() {
        // Child closing after its parent closed.
        let r = audit(
            "{\"t\":0.0,\"component\":\"span\",\"kind\":\"open\",\"id\":0,\"name\":\"proc.suspended\",\"key\":1,\"at\":0.0}\n\
             {\"t\":0.1,\"component\":\"span\",\"kind\":\"open\",\"id\":1,\"name\":\"proc.ghost\",\"key\":1,\"at\":0.1,\"parent\":0}\n\
             {\"t\":0.2,\"component\":\"span\",\"kind\":\"close\",\"id\":0,\"at\":0.2}\n\
             {\"t\":0.3,\"component\":\"span\",\"kind\":\"close\",\"id\":1,\"at\":0.3}\n",
        );
        assert_eq!(r.violations.len(), 1, "{:?}", r.violations);
        assert_eq!(r.violations[0].check, "span-nesting");
        // Child opening before the parent did.
        let r = audit(
            "{\"t\":0.0,\"component\":\"span\",\"kind\":\"open\",\"id\":0,\"name\":\"req.life\",\"key\":1,\"at\":0.5}\n\
             {\"t\":0.1,\"component\":\"span\",\"kind\":\"open\",\"id\":1,\"name\":\"req.issue\",\"key\":1,\"at\":0.2,\"parent\":0}\n\
             {\"t\":0.6,\"component\":\"span\",\"kind\":\"close\",\"id\":1,\"at\":0.6}\n\
             {\"t\":0.6,\"component\":\"span\",\"kind\":\"close\",\"id\":0,\"at\":0.6}\n",
        );
        assert_eq!(r.violations.len(), 1, "{:?}", r.violations);
        assert_eq!(r.violations[0].check, "span-nesting");
        assert!(r.violations[0].message.contains("before its parent"));
    }

    #[test]
    fn flags_time_regression() {
        let r = audit(
            "{\"t\":2.0,\"component\":\"emc\",\"kind\":\"config\"}\n\
             {\"t\":1.0,\"component\":\"emc\",\"kind\":\"config\"}\n",
        );
        assert_eq!(r.violations.len(), 1);
        assert_eq!(r.violations[0].check, "monotone-time");
        assert_eq!(r.violations[0].index, 1);
    }

    #[test]
    fn flags_unregistered_trace_kinds() {
        // A record outside TRACE_SCHEMA would escape every invariant check,
        // so the auditor rejects it instead of ignoring it.
        let r = audit(
            "{\"t\":1.0,\"component\":\"disk\",\"kind\":\"seek\",\"server\":0}\n\
             {\"t\":1.5,\"component\":\"emc\",\"kind\":\"config\"}\n",
        );
        assert_eq!(r.violations.len(), 1, "{:?}", r.violations);
        assert_eq!(r.violations[0].check, "trace-schema");
        assert_eq!(r.violations[0].index, 0);
        assert!(r.violations[0].message.contains("disk/seek"));
    }

    #[test]
    fn flags_overlapping_disk_requests() {
        let r = audit(
            "{\"t\":1.0,\"component\":\"disk\",\"kind\":\"start\",\"server\":2,\"id\":1,\"sectors\":8}\n\
             {\"t\":1.1,\"component\":\"disk\",\"kind\":\"start\",\"server\":2,\"id\":2,\"sectors\":8}\n",
        );
        assert_eq!(r.violations.len(), 1);
        assert_eq!(r.violations[0].check, "disk-exclusivity");
    }

    #[test]
    fn in_flight_at_eof_is_legal_but_done_mismatch_is_not() {
        let ok = audit(
            "{\"t\":1.0,\"component\":\"disk\",\"kind\":\"start\",\"server\":0,\"id\":1,\"sectors\":8}\n",
        );
        assert!(ok.ok());
        let bad = audit(
            "{\"t\":1.0,\"component\":\"disk\",\"kind\":\"start\",\"server\":0,\"id\":1,\"sectors\":8}\n\
             {\"t\":1.1,\"component\":\"disk\",\"kind\":\"done\",\"server\":0,\"id\":9}\n",
        );
        assert_eq!(bad.violations.len(), 1);
        assert_eq!(bad.violations[0].check, "disk-pairing");
    }

    #[test]
    fn flags_unbalanced_pec_pairs() {
        let r = audit(
            "{\"t\":1.0,\"component\":\"pec\",\"kind\":\"suspend\",\"proc\":1}\n\
             {\"t\":1.5,\"component\":\"pec\",\"kind\":\"resume\",\"proc\":2}\n",
        );
        let checks: Vec<_> = r.violations.iter().map(|v| v.check).collect();
        // resume without suspend + proc 1 left suspended at EOF.
        assert_eq!(checks, vec!["pec-pairing", "pec-pairing"]);
    }

    #[test]
    fn truncation_tolerance_downgrades_prefix_orphans() {
        // A ring trace whose prefix fell off: the first done/resume per
        // server/proc arrive with their opening halves missing.
        let lines = "{\"t\":1.0,\"component\":\"disk\",\"kind\":\"done\",\"server\":0,\"id\":7}\n\
             {\"t\":1.1,\"component\":\"pec\",\"kind\":\"resume\",\"proc\":3,\"program\":0}\n\
             {\"t\":1.2,\"component\":\"disk\",\"kind\":\"start\",\"server\":0,\"id\":8,\"sectors\":8}\n\
             {\"t\":1.3,\"component\":\"disk\",\"kind\":\"done\",\"server\":0,\"id\":8}\n";
        // Default: both orphans are violations.
        let strict = audit(lines);
        assert_eq!(strict.violations.len(), 2);
        assert_eq!(strict.warnings, 0);
        // Tolerant: downgraded to counted warnings; the paired tail is clean.
        let cfg = AuditConfig {
            tolerate_truncation: true,
            ..AuditConfig::default()
        };
        let tolerant = audit_jsonl_str(lines, cfg).unwrap();
        assert!(tolerant.ok(), "unexpected: {:?}", tolerant.violations);
        assert_eq!(tolerant.warnings, 2);
        assert!(tolerant.to_json().contains("\"warnings\":2"));
    }

    #[test]
    fn truncation_tolerance_keeps_post_prefix_pairing_errors() {
        // Once a server/proc has shown its opening half, a later orphan can
        // no longer be blamed on the dropped prefix — still a violation.
        let lines = "{\"t\":1.0,\"component\":\"disk\",\"kind\":\"start\",\"server\":0,\"id\":1,\"sectors\":8}\n\
             {\"t\":1.1,\"component\":\"disk\",\"kind\":\"done\",\"server\":0,\"id\":1}\n\
             {\"t\":1.2,\"component\":\"disk\",\"kind\":\"done\",\"server\":0,\"id\":2}\n\
             {\"t\":1.3,\"component\":\"pec\",\"kind\":\"suspend\",\"proc\":5,\"program\":0}\n\
             {\"t\":1.4,\"component\":\"pec\",\"kind\":\"resume\",\"proc\":5,\"program\":0}\n\
             {\"t\":1.5,\"component\":\"pec\",\"kind\":\"resume\",\"proc\":5,\"program\":0}\n";
        let cfg = AuditConfig {
            tolerate_truncation: true,
            ..AuditConfig::default()
        };
        let r = audit_jsonl_str(lines, cfg).unwrap();
        assert_eq!(r.warnings, 0);
        let checks: Vec<_> = r.violations.iter().map(|v| v.check).collect();
        assert_eq!(checks, vec!["disk-pairing", "pec-pairing"]);
    }

    #[test]
    fn flags_illegal_mode_entry() {
        // io_ratio below threshold: entering data_driven is illegal.
        let r = audit(
            "{\"t\":1.0,\"component\":\"emc\",\"kind\":\"tick\",\"program\":0,\"io_ratio\":0.5,\"improvement\":4.5,\"mode\":\"data_driven\",\"vetoed\":0}\n\
             {\"t\":1.0,\"component\":\"emc\",\"kind\":\"mode\",\"program\":0,\"mode\":\"data_driven\",\"reason\":\"emc\"}\n",
        );
        assert!(r.violations.iter().any(|v| v.check == "emc-legality"));
    }

    #[test]
    fn null_improvement_means_infinite_and_is_legal() {
        let r = audit(
            "{\"t\":1.0,\"component\":\"emc\",\"kind\":\"tick\",\"program\":0,\"io_ratio\":0.95,\"improvement\":null,\"mode\":\"data_driven\",\"vetoed\":0}\n\
             {\"t\":1.0,\"component\":\"emc\",\"kind\":\"mode\",\"program\":0,\"mode\":\"data_driven\",\"reason\":\"emc\"}\n",
        );
        assert!(r.ok(), "unexpected: {:?}", r.violations);
    }

    #[test]
    fn forced_mode_skips_threshold_checks() {
        let r = audit(
            "{\"t\":0.0,\"component\":\"emc\",\"kind\":\"mode\",\"program\":1,\"mode\":\"data_driven\",\"reason\":\"forced\"}\n",
        );
        assert!(r.ok(), "unexpected: {:?}", r.violations);
    }

    #[test]
    fn flags_conservation_imbalance_and_crm_regression() {
        let r = audit(
            "{\"t\":1.0,\"component\":\"crm\",\"kind\":\"phase\",\"program\":0,\"seq\":2}\n\
             {\"t\":2.0,\"component\":\"crm\",\"kind\":\"phase\",\"program\":0,\"seq\":2}\n\
             {\"t\":3.0,\"component\":\"cache\",\"kind\":\"conservation\",\"inserted\":100,\"consumed\":10,\"overwritten\":0,\"evicted\":0,\"misprefetched\":0,\"unused_now\":0}\n",
        );
        let checks: Vec<_> = r.violations.iter().map(|v| v.check).collect();
        assert_eq!(checks, vec!["crm-sequence", "cache-conservation"]);
    }

    #[test]
    fn report_json_is_machine_readable() {
        let r = audit(
            "{\"t\":2.0,\"component\":\"emc\",\"kind\":\"config\"}\n\
             {\"t\":1.0,\"component\":\"emc\",\"kind\":\"config\"}\n",
        );
        let json = r.to_json();
        assert!(json.starts_with(
            "{\"events\":2,\"warnings\":0,\"ok\":false,\"violations\":[{\"index\":1,"
        ));
        // The summary itself must parse with our own parser (it is flat
        // except for the violations array, so check the key bits).
        assert!(json.contains("\"check\":\"monotone-time\""));
    }

    #[test]
    fn audited_kinds_mirror_telemetry_schema() {
        // The auditor's dispatch table and telemetry's canonical
        // TRACE_SCHEMA must name exactly the same pairs — a drifted entry
        // means records are silently ignored (or an audit check is dead).
        let schema: Vec<(&str, &str)> = dualpar_telemetry::schema::TRACE_SCHEMA
            .iter()
            .map(|s| (s.component, s.kind))
            .collect();
        assert_eq!(crate::audited_kinds(), schema);
    }
}
