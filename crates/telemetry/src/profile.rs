//! Time attribution over a [`SpanLog`]: where did every simulated second go?
//!
//! Three views, all deterministic (BTreeMap-ordered, integer-stable math):
//!
//! - **time-in-state**: per-process totals and makespan fractions for the
//!   `proc.*` state spans (compute / blocked_io / barrier / suspended, with
//!   `proc.ghost` as an overlay inside suspended time);
//! - **stage latencies**: per-name histogram summaries (mean + p50/p90/p99)
//!   over the request-lifecycle spans (`req.*`, `server.*`, `disk.*`);
//! - **critical path**: the chain of spans that bounds makespan, extracted
//!   by walking back from the latest-closing span to the latest span that
//!   closed at or before its open, repeatedly.
//!
//! Plus a flamegraph-collapsed rendering ([`folded`]) whose lines are
//! `root;child;leaf self_time_us`, consumable by standard flamegraph
//! tooling. See `docs/PROFILING.md` for semantics and the span catalogue.

use crate::span::SpanLog;
use crate::{Hist, HistogramSummary};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// One process row of the time-in-state table.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ProcStateRow {
    /// The span key identifying the process (cluster encoding: see
    /// `docs/PROFILING.md`).
    pub key: u64,
    /// Human label for the process (e.g. `"p0/r3"`).
    pub label: String,
    /// Seconds per state span name (`proc.compute`, `proc.blocked_io`, ...).
    pub seconds: BTreeMap<String, f64>,
    /// Same, as fractions of makespan. `proc.ghost` overlays
    /// `proc.suspended`, so fractions can sum above 1.
    pub fractions: BTreeMap<String, f64>,
}

/// One hop of the critical path, latest first.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CriticalPathHop {
    /// Span name.
    pub name: String,
    /// Span key.
    pub key: u64,
    /// Open time in simulated seconds.
    pub open: f64,
    /// Close time in simulated seconds.
    pub close: f64,
}

/// Serializable attribution summary of a span log, embedded in run
/// reports and consumed by `dualpar profile` / `dualpar-audit --baseline`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SpanProfile {
    /// Simulated makespan the fractions are measured against.
    pub makespan: f64,
    /// Total spans recorded.
    pub spans_total: u64,
    /// Spans never closed (0 in a complete run).
    pub spans_open: u64,
    /// Per-process time-in-state rows, ordered by key.
    pub time_in_state: Vec<ProcStateRow>,
    /// Per-stage latency summaries for request-lifecycle spans, by name.
    pub stage_latency: BTreeMap<String, HistogramSummary>,
    /// The makespan-bounding chain of spans, latest first.
    pub critical_path: Vec<CriticalPathHop>,
}

fn is_proc_state(name: &str) -> bool {
    name.starts_with("proc.")
}

fn is_request_stage(name: &str) -> bool {
    name.starts_with("req.") || name.starts_with("server.") || name.starts_with("disk.")
}

impl SpanProfile {
    /// Build the profile from a span log. `makespan` is the run's simulated
    /// end time; `proc_label` renders a `proc.*` span key for humans.
    pub fn from_log(log: &SpanLog, makespan: f64, proc_label: impl Fn(u64) -> String) -> Self {
        let mut per_proc: BTreeMap<u64, BTreeMap<String, f64>> = BTreeMap::new();
        let mut stages: BTreeMap<String, Hist> = BTreeMap::new();
        for rec in log.records() {
            let name = log.name(rec.name);
            if is_proc_state(name) {
                *per_proc
                    .entry(rec.key)
                    .or_default()
                    .entry(name.to_string())
                    .or_insert(0.0) += rec.duration();
            } else if is_request_stage(name) && rec.close.is_some() {
                stages
                    .entry(name.to_string())
                    .or_insert_with(Hist::new)
                    .push(rec.duration());
            }
        }
        let time_in_state = per_proc
            .into_iter()
            .map(|(key, seconds)| {
                let fractions = seconds
                    .iter()
                    .map(|(name, secs)| {
                        let frac = if makespan > 0.0 { secs / makespan } else { 0.0 };
                        (name.clone(), frac)
                    })
                    .collect();
                ProcStateRow {
                    key,
                    label: proc_label(key),
                    seconds,
                    fractions,
                }
            })
            .collect();
        SpanProfile {
            makespan,
            spans_total: log.len() as u64,
            spans_open: log.open_count(),
            time_in_state,
            stage_latency: stages
                .iter()
                .map(|(k, h)| (k.clone(), h.summary()))
                .collect(),
            critical_path: critical_path(log),
        }
    }

    /// Render the profile as an aligned human-readable table.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "span profile: makespan {:.6}s, {} spans ({} unclosed)\n",
            self.makespan, self.spans_total, self.spans_open
        ));
        // Column set: union of state names across rows, in BTreeMap order.
        let mut states: Vec<&str> = Vec::new();
        for row in &self.time_in_state {
            for name in row.seconds.keys() {
                if !states.contains(&name.as_str()) {
                    states.push(name);
                }
            }
        }
        states.sort_unstable();
        if !self.time_in_state.is_empty() {
            out.push_str("\ntime in state (seconds, fraction of makespan):\n");
            out.push_str(&format!("{:<10}", "proc"));
            for s in &states {
                out.push_str(&format!(" {:>22}", s.strip_prefix("proc.").unwrap_or(s)));
            }
            out.push('\n');
            for row in &self.time_in_state {
                out.push_str(&format!("{:<10}", row.label));
                for s in &states {
                    let secs = row.seconds.get(*s).copied().unwrap_or(0.0);
                    let frac = row.fractions.get(*s).copied().unwrap_or(0.0);
                    out.push_str(&format!(" {:>13.6} ({:>4.1}%)", secs, frac * 100.0));
                }
                out.push('\n');
            }
        }
        if !self.stage_latency.is_empty() {
            out.push_str("\nstage latency (seconds):\n");
            out.push_str(&format!(
                "{:<14} {:>8} {:>12} {:>12} {:>12} {:>12} {:>12}\n",
                "stage", "count", "mean", "p50", "p90", "p99", "max"
            ));
            for (name, h) in &self.stage_latency {
                out.push_str(&format!(
                    "{:<14} {:>8} {:>12.6} {:>12.6} {:>12.6} {:>12.6} {:>12.6}\n",
                    name, h.count, h.mean, h.p50, h.p90, h.p99, h.max
                ));
            }
        }
        if !self.critical_path.is_empty() {
            out.push_str("\ncritical path (latest first):\n");
            for hop in &self.critical_path {
                out.push_str(&format!(
                    "  {:<14} key={:<12} [{:.6} .. {:.6}] {:>10.6}s\n",
                    hop.name,
                    hop.key,
                    hop.open,
                    hop.close,
                    (hop.close - hop.open).max(0.0)
                ));
            }
        }
        out
    }
}

/// Extract the makespan-bounding chain: start from the latest-closing span
/// (ties: larger open, then higher id) and repeatedly hop to the
/// latest-closing span whose close is at or before the current open. Stops
/// at simulated time zero or when no predecessor exists.
pub fn critical_path(log: &SpanLog) -> Vec<CriticalPathHop> {
    // Latest-finishing closed span wins; ties prefer the earliest open,
    // then the higher index for full determinism. Zero-length spans carry
    // no attributable time and would trap the walk at their instant
    // (their close equals the next bound), so they never join the path.
    let best = |bound: Option<f64>| -> Option<usize> {
        let mut best: Option<(f64, f64, usize)> = None;
        for (idx, rec) in log.records().iter().enumerate() {
            let Some(close) = rec.close else { continue };
            if close <= rec.open {
                continue;
            }
            if let Some(b) = bound {
                if close > b {
                    continue;
                }
            }
            let cand = (close, -rec.open, idx);
            if best.is_none_or(|cur| cand > cur) {
                best = Some(cand);
            }
        }
        best.map(|(_, _, idx)| idx)
    };
    let mut path = Vec::new();
    let mut cur = best(None);
    while let Some(idx) = cur {
        let rec = &log.records()[idx];
        let close = rec.close.unwrap_or(rec.open);
        path.push(CriticalPathHop {
            name: log.name(rec.name).to_string(),
            key: rec.key,
            open: rec.open,
            close,
        });
        if rec.open <= 0.0 || path.len() >= 256 {
            break;
        }
        cur = best(Some(rec.open));
        // A predecessor identical to the current hop would loop forever;
        // `close <= open` strictly decreases the bound except at zero-length
        // spans, which the id tie-break cannot distinguish — guard directly.
        if let Some(next) = cur {
            if next == idx {
                break;
            }
        }
    }
    path
}

/// Render the log as flamegraph-collapsed stacks: one line per distinct
/// name-stack, `root;child;leaf <self_time_us>`, sorted lexicographically.
/// Self time is the span's duration minus its children's, clamped at zero,
/// rounded to integer microseconds of simulated time.
pub fn folded(log: &SpanLog) -> String {
    let records = log.records();
    let mut child_sum = vec![0.0f64; records.len()];
    for rec in records {
        if rec.parent.is_valid() {
            let p = rec.parent.0 as usize;
            if p < records.len() {
                child_sum[p] += rec.duration();
            }
        }
    }
    let mut stacks: BTreeMap<String, u64> = BTreeMap::new();
    for (idx, rec) in records.iter().enumerate() {
        let self_secs = (rec.duration() - child_sum[idx]).max(0.0);
        let us = (self_secs * 1e6).round() as u64;
        if us == 0 {
            continue;
        }
        // Build the name stack root-first by walking parent links.
        let mut frames = vec![log.name(rec.name)];
        let mut cur = rec.parent;
        let mut guard = 0;
        while let Some(p) = log.get(cur) {
            frames.push(log.name(p.name));
            cur = p.parent;
            guard += 1;
            if guard > 64 {
                break;
            }
        }
        frames.reverse();
        *stacks.entry(frames.join(";")).or_insert(0) += us;
    }
    let mut out = String::new();
    for (stack, us) in &stacks {
        out.push_str(stack);
        out.push(' ');
        out.push_str(&us.to_string());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::SpanId;

    fn demo_log() -> SpanLog {
        let mut log = SpanLog::new();
        // proc 0: compute [0,2], blocked [2,5], compute [5,6]
        let c0 = log.open("proc.compute", SpanId::INVALID, 0, 0.0);
        log.close(c0, 2.0);
        let b0 = log.open("proc.blocked_io", SpanId::INVALID, 0, 2.0);
        log.close(b0, 5.0);
        let c1 = log.open("proc.compute", SpanId::INVALID, 0, 5.0);
        log.close(c1, 6.0);
        // request 9: life [2,5] with disk.service child [3,4.5]
        let life = log.open("req.life", SpanId::INVALID, 9, 2.0);
        let disk = log.open("disk.service", life, 9, 3.0);
        log.close(disk, 4.5);
        log.close(life, 5.0);
        log
    }

    #[test]
    fn time_in_state_sums_per_proc() {
        let p = SpanProfile::from_log(&demo_log(), 6.0, |k| format!("proc{k}"));
        assert_eq!(p.time_in_state.len(), 1);
        let row = &p.time_in_state[0];
        assert_eq!(row.label, "proc0");
        assert!((row.seconds["proc.compute"] - 3.0).abs() < 1e-12);
        assert!((row.seconds["proc.blocked_io"] - 3.0).abs() < 1e-12);
        assert!((row.fractions["proc.compute"] - 0.5).abs() < 1e-12);
        assert_eq!(p.spans_open, 0);
        assert_eq!(p.spans_total, 5);
    }

    #[test]
    fn stage_latency_covers_request_spans_only() {
        let p = SpanProfile::from_log(&demo_log(), 6.0, |k| k.to_string());
        assert_eq!(
            p.stage_latency.keys().collect::<Vec<_>>(),
            vec!["disk.service", "req.life"]
        );
        let h = &p.stage_latency["req.life"];
        assert_eq!(h.count, 1);
        assert!((h.mean - 3.0).abs() < 1e-12);
    }

    #[test]
    fn critical_path_walks_back_to_zero() {
        let p = SpanProfile::from_log(&demo_log(), 6.0, |k| k.to_string());
        let names: Vec<&str> = p.critical_path.iter().map(|h| h.name.as_str()).collect();
        // Latest close 6.0 is the final compute span; its open (5.0) is
        // covered by req.life closing at 5.0; req.life opens at 2.0, covered
        // by the first compute span closing at 2.0, which opens at 0.
        assert_eq!(names, vec!["proc.compute", "req.life", "proc.compute"]);
        assert_eq!(p.critical_path.last().unwrap().open, 0.0);
    }

    #[test]
    fn folded_attributes_self_time() {
        let text = folded(&demo_log());
        let lines: Vec<&str> = text.lines().collect();
        assert!(lines.contains(&"proc.blocked_io 3000000"));
        assert!(lines.contains(&"req.life;disk.service 1500000"));
        // life is 3s with a 1.5s child: 1.5s self.
        assert!(lines.contains(&"req.life 1500000"));
        let mut sorted = lines.clone();
        sorted.sort_unstable();
        assert_eq!(lines, sorted, "folded output is sorted");
    }

    #[test]
    fn empty_log_profiles_cleanly() {
        let log = SpanLog::new();
        let p = SpanProfile::from_log(&log, 0.0, |k| k.to_string());
        assert_eq!(p.spans_total, 0);
        assert!(p.critical_path.is_empty());
        assert_eq!(folded(&log), "");
        assert!(!p.render_text().is_empty());
    }
}
