//! Baseline comparison of run reports: the triage half of the auditor.
//!
//! `dualpar-audit trace --baseline <old.json> <new.json>` diffs two
//! `RunReport` JSON files (as printed by `dualpar <spec>` or
//! `dualpar profile <target> --json`) and fails — nonzero exit — when the
//! new run regresses past a configurable threshold. Compared metrics, all
//! in simulated time so the check is machine-independent:
//!
//! - **makespan**: `span_profile.makespan` when present, else `sim_end`;
//! - **per-stage latency**: `p50` and `p99` of every request-lifecycle
//!   stage both reports carry (`span_profile.stage_latency`);
//! - **time in state**: seconds per process state summed over processes
//!   (`span_profile.time_in_state`), excluding `proc.compute` — more
//!   compute is not a service regression, more blocked/suspended time is;
//! - **counters**: every counter present in either report is listed in the
//!   diff for context, but never gates the exit code (byte totals move
//!   with workload changes, which is not by itself a regression).
//!
//! A metric regresses when it grows by more than `max_regress_pct` percent
//! *and* by more than an absolute floor of 1 µs — percentage alone would
//! flag nanosecond jitter on near-zero baselines. Metrics appearing in
//! only one report are skipped (there is nothing to compare).

use serde::{find_field, Value};

/// Absolute growth (seconds) below which a metric never counts as a
/// regression, whatever the percentage says.
const ABS_FLOOR_SECS: f64 = 1e-6;

/// One compared metric that moved.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricDelta {
    /// Dotted metric path, e.g. `stage.server.queue.p99`.
    pub metric: String,
    /// Baseline value (seconds).
    pub old: f64,
    /// New value (seconds).
    pub new: f64,
    /// `(new - old) / old * 100`; infinite when the baseline was zero.
    pub delta_pct: f64,
}

/// One counter present in either report.
#[derive(Debug, Clone, PartialEq)]
pub struct CounterDelta {
    /// Counter name.
    pub name: String,
    /// Baseline value (0 when absent).
    pub old: u64,
    /// New value (0 when absent).
    pub new: u64,
}

/// Outcome of a baseline comparison.
#[derive(Debug, Clone)]
pub struct BaselineDiff {
    /// Threshold the regression gate used (percent).
    pub max_regress_pct: f64,
    /// Metrics that grew past the threshold, in metric order.
    pub regressions: Vec<MetricDelta>,
    /// Metrics that shrank past the same threshold (context only).
    pub improvements: Vec<MetricDelta>,
    /// Counters whose values differ between the reports.
    pub counters: Vec<CounterDelta>,
}

impl BaselineDiff {
    /// Did the new report avoid every regression?
    pub fn ok(&self) -> bool {
        self.regressions.is_empty()
    }

    /// Machine-readable summary (single JSON object).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\"schema\":\"dualpar-audit-baseline/v1\",\"max_regress_pct\":");
        push_f64(&mut out, self.max_regress_pct);
        out.push_str(",\"ok\":");
        out.push_str(if self.ok() { "true" } else { "false" });
        for (key, list) in [
            ("regressions", &self.regressions),
            ("improvements", &self.improvements),
        ] {
            out.push_str(",\"");
            out.push_str(key);
            out.push_str("\":[");
            for (i, d) in list.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str("{\"metric\":\"");
                out.push_str(&d.metric);
                out.push_str("\",\"old\":");
                push_f64(&mut out, d.old);
                out.push_str(",\"new\":");
                push_f64(&mut out, d.new);
                out.push_str(",\"delta_pct\":");
                push_f64(&mut out, d.delta_pct);
                out.push('}');
            }
            out.push(']');
        }
        out.push_str(",\"counters\":[");
        for (i, c) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"name\":\"");
            out.push_str(&c.name);
            out.push_str("\",\"old\":");
            out.push_str(&c.old.to_string());
            out.push_str(",\"new\":");
            out.push_str(&c.new.to_string());
            out.push('}');
        }
        out.push_str("]}");
        out
    }

    /// Human-readable rendering, one metric per line.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for d in &self.regressions {
            out.push_str(&format!(
                "REGRESSION {:<28} {:>12.6} -> {:>12.6}  (+{:.1}%)\n",
                d.metric, d.old, d.new, d.delta_pct
            ));
        }
        for d in &self.improvements {
            out.push_str(&format!(
                "improved   {:<28} {:>12.6} -> {:>12.6}  ({:.1}%)\n",
                d.metric, d.old, d.new, d.delta_pct
            ));
        }
        let changed = self.counters.iter().filter(|c| c.old != c.new).count();
        out.push_str(&format!(
            "baseline diff: {} regression(s), {} improvement(s), {} counter(s) changed (threshold {}%)\n",
            self.regressions.len(),
            self.improvements.len(),
            changed,
            self.max_regress_pct
        ));
        out
    }
}

fn push_f64(out: &mut String, x: f64) {
    if x.is_finite() {
        out.push_str(&format!("{x:?}"));
    } else {
        out.push_str("null");
    }
}

/// Pull the map entries at a dotted path, or `None` anywhere along it.
fn map_at<'a>(root: &'a Value, path: &[&str]) -> Option<&'a Vec<(String, Value)>> {
    let mut cur = root;
    for key in path {
        cur = find_field(cur.as_map()?, key)?;
    }
    cur.as_map()
}

fn as_f64(v: &Value) -> Option<f64> {
    match v {
        Value::F64(x) => Some(*x),
        Value::U64(x) => Some(*x as f64),
        Value::I64(x) => Some(*x as f64),
        _ => None,
    }
}

fn as_u64(v: &Value) -> Option<u64> {
    match v {
        Value::U64(x) => Some(*x),
        Value::I64(x) if *x >= 0 => Some(*x as u64),
        _ => None,
    }
}

/// The simulated-seconds metrics of one report, flattened to dotted names.
fn latency_metrics(report: &Value) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    let profile = report
        .as_map()
        .and_then(|m| find_field(m, "span_profile"))
        .filter(|v| !matches!(v, Value::Null));
    let makespan = profile
        .and_then(|p| find_field(p.as_map()?, "makespan"))
        .and_then(as_f64)
        .or_else(|| {
            // `sim_end` is a raw nanosecond count; the profile's makespan
            // is in seconds. Normalise so thresholds mean the same thing.
            report
                .as_map()
                .and_then(|m| find_field(m, "sim_end"))
                .and_then(as_f64)
                .map(|ns| ns / 1e9)
        });
    if let Some(m) = makespan {
        out.push(("makespan".to_string(), m));
    }
    let Some(profile) = profile else { return out };
    if let Some(stages) = map_at(profile, &["stage_latency"]) {
        for (stage, summary) in stages {
            let Some(fields) = summary.as_map() else {
                continue;
            };
            for q in ["p50", "p99"] {
                if let Some(v) = find_field(fields, q).and_then(as_f64) {
                    out.push((format!("stage.{stage}.{q}"), v));
                }
            }
        }
    }
    if let Some(rows) = profile
        .as_map()
        .and_then(|m| find_field(m, "time_in_state"))
    {
        let mut by_state: Vec<(String, f64)> = Vec::new();
        for row in rows.as_seq().into_iter().flatten() {
            let Some(states) = map_at(row, &["seconds"]) else {
                continue;
            };
            for (state, secs) in states {
                if state == "proc.compute" {
                    continue;
                }
                let Some(secs) = as_f64(secs) else { continue };
                match by_state.iter_mut().find(|(s, _)| s == state) {
                    Some((_, total)) => *total += secs,
                    None => by_state.push((state.clone(), secs)),
                }
            }
        }
        for (state, total) in by_state {
            out.push((format!("state.{state}.secs"), total));
        }
    }
    out
}

fn counters(report: &Value) -> Vec<(String, u64)> {
    map_at(report, &["telemetry", "counters"])
        .map(|entries| {
            entries
                .iter()
                .filter_map(|(k, v)| Some((k.clone(), as_u64(v)?)))
                .collect()
        })
        .unwrap_or_default()
}

/// Diff two parsed `RunReport` JSON values. `max_regress_pct` is the growth
/// (percent) past which a simulated-time metric counts as a regression.
pub fn diff_reports(old: &Value, new: &Value, max_regress_pct: f64) -> BaselineDiff {
    let old_metrics = latency_metrics(old);
    let new_metrics = latency_metrics(new);
    let mut regressions = Vec::new();
    let mut improvements = Vec::new();
    for (name, old_v) in &old_metrics {
        let Some((_, new_v)) = new_metrics.iter().find(|(n, _)| n == name) else {
            continue;
        };
        let delta = new_v - old_v;
        let delta_pct = if *old_v > 0.0 {
            delta / old_v * 100.0
        } else if delta.abs() <= ABS_FLOOR_SECS {
            0.0
        } else {
            f64::INFINITY * delta.signum()
        };
        let d = MetricDelta {
            metric: name.clone(),
            old: *old_v,
            new: *new_v,
            delta_pct,
        };
        if delta > ABS_FLOOR_SECS && delta_pct > max_regress_pct {
            regressions.push(d);
        } else if delta < -ABS_FLOOR_SECS && delta_pct < -max_regress_pct {
            improvements.push(d);
        }
    }
    let old_counters = counters(old);
    let new_counters = counters(new);
    let mut names: Vec<&String> = old_counters
        .iter()
        .chain(&new_counters)
        .map(|(n, _)| n)
        .collect();
    names.sort_unstable();
    names.dedup();
    let counters = names
        .into_iter()
        .map(|name| CounterDelta {
            name: name.clone(),
            old: old_counters
                .iter()
                .find(|(n, _)| n == name)
                .map_or(0, |(_, v)| *v),
            new: new_counters
                .iter()
                .find(|(n, _)| n == name)
                .map_or(0, |(_, v)| *v),
        })
        .filter(|c| c.old != c.new)
        .collect();
    BaselineDiff {
        max_regress_pct,
        regressions,
        improvements,
        counters,
    }
}

/// Parse two report JSON strings and diff them.
pub fn diff_report_strs(
    old: &str,
    new: &str,
    max_regress_pct: f64,
) -> Result<BaselineDiff, String> {
    let old: Value = serde_json::from_str(old).map_err(|e| format!("baseline report: {e}"))?;
    let new: Value = serde_json::from_str(new).map_err(|e| format!("new report: {e}"))?;
    Ok(diff_reports(&old, &new, max_regress_pct))
}

/// Schema tag of `dualpar suite` summaries (`BENCH_suite.json`).
/// Duplicates `dualpar_bench::suite::SUITE_SCHEMA` (the two crates are
/// deliberately independent); drift is caught loudly by the check.sh
/// suite-gate stage, where a mismatched tag turns the suite/suite diff
/// into a mixed-document usage error.
pub const SUITE_SCHEMA: &str = "dualpar-bench-suite/v1";

/// Is this parsed JSON document a whole-suite summary rather than a single
/// `RunReport`?
pub fn is_suite_doc(v: &Value) -> bool {
    v.as_map()
        .and_then(|m| find_field(m, "schema"))
        .and_then(Value::as_str)
        == Some(SUITE_SCHEMA)
}

/// One suite entry compared across two `BENCH_suite.json` artifacts.
#[derive(Debug, Clone)]
pub struct SuiteRunDelta {
    /// Suite entry name (shared by both artifacts).
    pub name: String,
    /// Simulated events processed in the baseline run. Simulation-
    /// determined, so inequality with the new count gates the diff.
    pub old_events: u64,
    /// Simulated events processed in the new run.
    pub new_events: u64,
    /// Report fingerprints equal? Also gates — the fingerprint covers the
    /// whole serialized report, so a mismatch means the simulation itself
    /// diverged, not just the machine.
    pub fingerprint_match: bool,
    /// Baseline events per wall-clock second. Machine-dependent, so
    /// reported but never gated here.
    pub old_rate: f64,
    /// New events per wall-clock second.
    pub new_rate: f64,
    /// `(new_rate - old_rate) / old_rate * 100`; 0 when the old rate is 0.
    pub rate_delta_pct: f64,
    /// The baseline run's `error` field (absent before the field existed).
    pub old_error: Option<String>,
    /// The new run's `error` field; any value here gates the diff.
    pub new_error: Option<String>,
}

impl SuiteRunDelta {
    /// Did this entry preserve determinism (and complete) in the new run?
    pub fn ok(&self) -> bool {
        self.new_error.is_none() && self.old_events == self.new_events && self.fingerprint_match
    }
}

/// Outcome of diffing two whole-suite summaries.
#[derive(Debug, Clone)]
pub struct SuiteDiff {
    /// Entries present in both artifacts, in the baseline's order.
    pub runs: Vec<SuiteRunDelta>,
    /// Entry names only the baseline has (a dropped run gates the diff).
    pub missing_in_new: Vec<String>,
    /// Entry names only the new artifact has (reported, not gated).
    pub added_in_new: Vec<String>,
    /// Baseline aggregate throughput — total events over total wall
    /// seconds across the runs completed in both artifacts.
    pub old_agg_rate: f64,
    /// New aggregate throughput over the same run set.
    pub new_agg_rate: f64,
    /// `(new - old) / old * 100` of the aggregate rate; 0 on a 0 baseline.
    pub agg_rate_delta_pct: f64,
}

impl SuiteDiff {
    /// Clean when every shared entry is deterministic-equal and completed,
    /// and the new artifact dropped nothing.
    pub fn ok(&self) -> bool {
        self.missing_in_new.is_empty() && self.runs.iter().all(SuiteRunDelta::ok)
    }

    /// Machine-readable summary (single JSON object).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\"schema\":\"dualpar-audit-suitediff/v1\",\"ok\":");
        out.push_str(if self.ok() { "true" } else { "false" });
        out.push_str(",\"old_agg_events_per_sec\":");
        push_f64(&mut out, self.old_agg_rate);
        out.push_str(",\"new_agg_events_per_sec\":");
        push_f64(&mut out, self.new_agg_rate);
        out.push_str(",\"agg_rate_delta_pct\":");
        push_f64(&mut out, self.agg_rate_delta_pct);
        out.push_str(",\"runs\":[");
        for (i, r) in self.runs.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"name\":\"");
            out.push_str(&r.name);
            out.push_str("\",\"ok\":");
            out.push_str(if r.ok() { "true" } else { "false" });
            out.push_str(",\"events_match\":");
            out.push_str(if r.old_events == r.new_events {
                "true"
            } else {
                "false"
            });
            out.push_str(",\"fingerprint_match\":");
            out.push_str(if r.fingerprint_match { "true" } else { "false" });
            out.push_str(",\"old_rate\":");
            push_f64(&mut out, r.old_rate);
            out.push_str(",\"new_rate\":");
            push_f64(&mut out, r.new_rate);
            out.push_str(",\"rate_delta_pct\":");
            push_f64(&mut out, r.rate_delta_pct);
            out.push('}');
        }
        out.push_str("],\"missing_in_new\":[");
        for (i, n) in self.missing_in_new.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('"');
            out.push_str(n);
            out.push('"');
        }
        out.push_str("],\"added_in_new\":[");
        for (i, n) in self.added_in_new.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('"');
            out.push_str(n);
            out.push('"');
        }
        out.push_str("]}");
        out
    }

    /// Human-readable rendering, one entry per line.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for r in &self.runs {
            let verdict = if let Some(err) = &r.new_error {
                format!("FAILED ({err})")
            } else if r.old_events != r.new_events {
                format!("EVENTS DIVERGED {} -> {}", r.old_events, r.new_events)
            } else if !r.fingerprint_match {
                "FINGERPRINT DIVERGED".to_string()
            } else {
                format!(
                    "{:>12.0} -> {:>12.0} ev/s ({:+.1}%)",
                    r.old_rate, r.new_rate, r.rate_delta_pct
                )
            };
            out.push_str(&format!("{:<20} {verdict}\n", r.name));
        }
        for n in &self.missing_in_new {
            out.push_str(&format!("{n:<20} MISSING from new artifact\n"));
        }
        for n in &self.added_in_new {
            out.push_str(&format!("{n:<20} new entry (no baseline)\n"));
        }
        out.push_str(&format!(
            "suite diff: aggregate {:.0} -> {:.0} ev/s ({:+.1}%), {} entries compared, determinism {}\n",
            self.old_agg_rate,
            self.new_agg_rate,
            self.agg_rate_delta_pct,
            self.runs.len(),
            if self.ok() { "ok" } else { "VIOLATED" }
        ));
        out
    }
}

/// The fields of one run summary this diff consumes.
struct SuiteRunFields {
    name: String,
    wall_secs: f64,
    sim_events: u64,
    fingerprint: String,
    error: Option<String>,
}

fn suite_runs(doc: &Value) -> Result<Vec<SuiteRunFields>, String> {
    let runs = doc
        .as_map()
        .and_then(|m| find_field(m, "runs"))
        .and_then(Value::as_seq)
        .ok_or("suite summary has no \"runs\" list")?;
    let mut out = Vec::with_capacity(runs.len());
    for (i, run) in runs.iter().enumerate() {
        let m = run
            .as_map()
            .ok_or_else(|| format!("runs[{i}]: expected an object"))?;
        let name = find_field(m, "name")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("runs[{i}]: missing string field \"name\""))?
            .to_string();
        let wall_secs = find_field(m, "wall_secs")
            .and_then(as_f64)
            .ok_or_else(|| format!("runs[{i}] ({name}): missing \"wall_secs\""))?;
        let sim_events = find_field(m, "sim_events")
            .and_then(as_u64)
            .ok_or_else(|| format!("runs[{i}] ({name}): missing \"sim_events\""))?;
        let fingerprint = find_field(m, "report_fingerprint")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("runs[{i}] ({name}): missing \"report_fingerprint\""))?
            .to_string();
        // Absent before the field existed; null for a completed run.
        let error = find_field(m, "error")
            .and_then(Value::as_str)
            .map(str::to_string);
        out.push(SuiteRunFields {
            name,
            wall_secs,
            sim_events,
            fingerprint,
            error,
        });
    }
    Ok(out)
}

fn rate_of(events: u64, wall: f64) -> f64 {
    if wall > 0.0 {
        events as f64 / wall
    } else {
        0.0
    }
}

fn pct_delta(old: f64, new: f64) -> f64 {
    if old > 0.0 {
        (new - old) / old * 100.0
    } else {
        0.0
    }
}

/// Diff two parsed `BENCH_suite.json` documents: determinism fields
/// (`sim_events`, `report_fingerprint`, run completion) gate; event-rate
/// movement is reported.
pub fn diff_suites(old: &Value, new: &Value) -> Result<SuiteDiff, String> {
    let old_runs = suite_runs(old).map_err(|e| format!("baseline suite: {e}"))?;
    let new_runs = suite_runs(new).map_err(|e| format!("new suite: {e}"))?;
    let mut runs = Vec::new();
    let mut missing_in_new = Vec::new();
    let mut totals = (0u64, 0f64, 0u64, 0f64); // old ev, old wall, new ev, new wall
    for o in &old_runs {
        let Some(n) = new_runs.iter().find(|n| n.name == o.name) else {
            missing_in_new.push(o.name.clone());
            continue;
        };
        let old_rate = rate_of(o.sim_events, o.wall_secs);
        let new_rate = rate_of(n.sim_events, n.wall_secs);
        if o.error.is_none() && n.error.is_none() {
            totals.0 = totals.0.saturating_add(o.sim_events);
            totals.1 += o.wall_secs;
            totals.2 = totals.2.saturating_add(n.sim_events);
            totals.3 += n.wall_secs;
        }
        runs.push(SuiteRunDelta {
            name: o.name.clone(),
            old_events: o.sim_events,
            new_events: n.sim_events,
            fingerprint_match: o.fingerprint == n.fingerprint,
            old_rate,
            new_rate,
            rate_delta_pct: pct_delta(old_rate, new_rate),
            old_error: o.error.clone(),
            new_error: n.error.clone(),
        });
    }
    let added_in_new = new_runs
        .iter()
        .filter(|n| old_runs.iter().all(|o| o.name != n.name))
        .map(|n| n.name.clone())
        .collect();
    let old_agg_rate = rate_of(totals.0, totals.1);
    let new_agg_rate = rate_of(totals.2, totals.3);
    Ok(SuiteDiff {
        runs,
        missing_in_new,
        added_in_new,
        old_agg_rate,
        new_agg_rate,
        agg_rate_delta_pct: pct_delta(old_agg_rate, new_agg_rate),
    })
}

/// Either kind of baseline comparison, picked by document schema.
#[derive(Debug, Clone)]
pub enum AnyDiff {
    /// Two single `RunReport`s, diffed on simulated-time metrics.
    Report(BaselineDiff),
    /// Two whole-suite summaries, diffed per run.
    Suite(SuiteDiff),
}

impl AnyDiff {
    /// Did the comparison pass its gate (no regressions / no divergence)?
    pub fn ok(&self) -> bool {
        match self {
            AnyDiff::Report(d) => d.ok(),
            AnyDiff::Suite(d) => d.ok(),
        }
    }

    /// Machine-readable summary of whichever diff ran.
    pub fn to_json(&self) -> String {
        match self {
            AnyDiff::Report(d) => d.to_json(),
            AnyDiff::Suite(d) => d.to_json(),
        }
    }

    /// Human-readable rendering of whichever diff ran.
    pub fn render_text(&self) -> String {
        match self {
            AnyDiff::Report(d) => d.render_text(),
            AnyDiff::Suite(d) => d.render_text(),
        }
    }
}

/// Parse two JSON strings and diff them as whatever they are: two
/// `BENCH_suite.json` summaries get the per-run suite diff, two
/// `RunReport`s the metric diff, and a mixed pair is a usage error.
pub fn diff_strs_auto(old: &str, new: &str, max_regress_pct: f64) -> Result<AnyDiff, String> {
    let old: Value = serde_json::from_str(old).map_err(|e| format!("baseline report: {e}"))?;
    let new: Value = serde_json::from_str(new).map_err(|e| format!("new report: {e}"))?;
    match (is_suite_doc(&old), is_suite_doc(&new)) {
        (true, true) => Ok(AnyDiff::Suite(diff_suites(&old, &new)?)),
        (false, false) => Ok(AnyDiff::Report(diff_reports(&old, &new, max_regress_pct))),
        (true, false) => Err("baseline is a suite summary but the new file is not".into()),
        (false, true) => Err("new file is a suite summary but the baseline is not".into()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(queue_p99: f64, suspended: f64, bytes: u64) -> String {
        format!(
            "{{\"sim_end\":1.0,\"telemetry\":{{\"counters\":{{\"io.bytes_read\":{bytes}}}}},\
             \"span_profile\":{{\"makespan\":1.0,\
             \"stage_latency\":{{\"server.queue\":{{\"count\":4,\"p50\":0.01,\"p99\":{queue_p99}}}}},\
             \"time_in_state\":[{{\"key\":0,\"label\":\"p0/r0\",\"seconds\":{{\"proc.compute\":0.5,\"proc.suspended\":{suspended}}}}}]}}}}"
        )
    }

    #[test]
    fn identical_reports_are_clean() {
        let a = report(0.02, 0.3, 100);
        let d = diff_report_strs(&a, &a, 5.0).unwrap();
        assert!(d.ok());
        assert!(d.improvements.is_empty());
        assert!(d.counters.is_empty());
        assert!(d.to_json().contains("\"ok\":true"));
    }

    #[test]
    fn regression_past_threshold_fails() {
        let old = report(0.02, 0.3, 100);
        let new = report(0.05, 0.3, 100);
        let d = diff_report_strs(&old, &new, 5.0).unwrap();
        assert!(!d.ok());
        assert_eq!(d.regressions.len(), 1);
        assert_eq!(d.regressions[0].metric, "stage.server.queue.p99");
        assert!((d.regressions[0].delta_pct - 150.0).abs() < 1e-9);
        assert!(d.to_json().contains("\"ok\":false"));
    }

    #[test]
    fn small_moves_and_counters_do_not_fail() {
        // +2% queue p99 under a 5% gate; counters move freely.
        let old = report(0.0200, 0.3, 100);
        let new = report(0.0204, 0.3, 999);
        let d = diff_report_strs(&old, &new, 5.0).unwrap();
        assert!(d.ok(), "{:?}", d.regressions);
        assert_eq!(d.counters.len(), 1);
        assert_eq!(d.counters[0].new, 999);
    }

    #[test]
    fn improvements_and_state_time_are_tracked() {
        let old = report(0.02, 0.4, 100);
        let new = report(0.01, 0.6, 100);
        let d = diff_report_strs(&old, &new, 5.0).unwrap();
        assert_eq!(d.regressions.len(), 1);
        assert_eq!(d.regressions[0].metric, "state.proc.suspended.secs");
        assert_eq!(d.improvements.len(), 1);
        assert_eq!(d.improvements[0].metric, "stage.server.queue.p99");
    }

    fn suite_doc(runs: &[(&str, f64, u64, &str, Option<&str>)]) -> String {
        let mut body = String::new();
        for (i, (name, wall, events, fp, err)) in runs.iter().enumerate() {
            if i > 0 {
                body.push(',');
            }
            let err = match err {
                Some(e) => format!("\"{e}\""),
                None => "null".to_string(),
            };
            body.push_str(&format!(
                "{{\"name\":\"{name}\",\"wall_secs\":{wall},\"sim_events\":{events},\
                 \"report_fingerprint\":\"{fp}\",\"error\":{err}}}"
            ));
        }
        format!(
            "{{\"schema\":\"{SUITE_SCHEMA}\",\"jobs\":4,\"total_wall_secs\":1.0,\"runs\":[{body}]}}"
        )
    }

    #[test]
    fn suite_diff_gates_determinism_and_reports_rates() {
        let old = suite_doc(&[
            ("a", 1.0, 1000, "aaaa", None),
            ("b", 2.0, 4000, "bbbb", None),
        ]);
        // Same events+fingerprints, faster walls: clean, rate reported up.
        let faster = suite_doc(&[
            ("a", 0.5, 1000, "aaaa", None),
            ("b", 1.0, 4000, "bbbb", None),
        ]);
        let d = match diff_strs_auto(&old, &faster, 5.0).unwrap() {
            AnyDiff::Suite(d) => d,
            other => panic!("expected suite diff, got {other:?}"),
        };
        assert!(d.ok());
        assert!((d.agg_rate_delta_pct - 100.0).abs() < 1e-9, "{d:?}");
        assert!(d.to_json().contains("\"ok\":true"));
        // A fingerprint flip, an event-count drift, or a failed run gates.
        let diverged = suite_doc(&[
            ("a", 1.0, 1000, "XXXX", None),
            ("b", 2.0, 4000, "bbbb", None),
        ]);
        assert!(!diff_strs_auto(&old, &diverged, 5.0).unwrap().ok());
        let drifted = suite_doc(&[
            ("a", 1.0, 1001, "aaaa", None),
            ("b", 2.0, 4000, "bbbb", None),
        ]);
        assert!(!diff_strs_auto(&old, &drifted, 5.0).unwrap().ok());
        let failed = suite_doc(&[
            ("a", 1.0, 1000, "aaaa", None),
            ("b", 0.0, 0, "", Some("timed out after 1.0s wall-clock")),
        ]);
        assert!(!diff_strs_auto(&old, &failed, 5.0).unwrap().ok());
        // A dropped entry gates; an added one does not.
        let dropped = suite_doc(&[("a", 1.0, 1000, "aaaa", None)]);
        let d = match diff_strs_auto(&old, &dropped, 5.0).unwrap() {
            AnyDiff::Suite(d) => d,
            other => panic!("expected suite diff, got {other:?}"),
        };
        assert!(!d.ok());
        assert_eq!(d.missing_in_new, vec!["b".to_string()]);
        let grown = suite_doc(&[
            ("a", 1.0, 1000, "aaaa", None),
            ("b", 2.0, 4000, "bbbb", None),
            ("c", 1.0, 500, "cccc", None),
        ]);
        let d = match diff_strs_auto(&old, &grown, 5.0).unwrap() {
            AnyDiff::Suite(d) => d,
            other => panic!("expected suite diff, got {other:?}"),
        };
        assert!(d.ok());
        assert_eq!(d.added_in_new, vec!["c".to_string()]);
    }

    #[test]
    fn suite_diff_accepts_legacy_summaries_without_error_field() {
        // Pre-timeout artifacts have no "error" key at all.
        let legacy = format!(
            "{{\"schema\":\"{SUITE_SCHEMA}\",\"runs\":[{{\"name\":\"a\",\"wall_secs\":1.0,\
             \"sim_events\":10,\"report_fingerprint\":\"ffff\"}}]}}"
        );
        let current = suite_doc(&[("a", 1.0, 10, "ffff", None)]);
        assert!(diff_strs_auto(&legacy, &current, 5.0).unwrap().ok());
    }

    #[test]
    fn mixed_document_kinds_are_a_usage_error() {
        let report = report(0.02, 0.3, 100);
        let suite = suite_doc(&[("a", 1.0, 10, "ffff", None)]);
        assert!(diff_strs_auto(&report, &suite, 5.0).is_err());
        assert!(diff_strs_auto(&suite, &report, 5.0).is_err());
        // And two plain reports still take the metric path.
        assert!(matches!(
            diff_strs_auto(&report, &report, 5.0).unwrap(),
            AnyDiff::Report(_)
        ));
    }

    #[test]
    fn reports_without_profiles_compare_makespan_only() {
        // `sim_end` is nanoseconds: 1 s baseline doubling to 2 s.
        let old = "{\"sim_end\":1000000000,\"span_profile\":null}";
        let new = "{\"sim_end\":2000000000,\"span_profile\":null}";
        let d = diff_report_strs(old, new, 5.0).unwrap();
        assert_eq!(d.regressions.len(), 1);
        assert_eq!(d.regressions[0].metric, "makespan");
    }
}
