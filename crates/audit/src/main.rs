//! `dualpar-audit` — trace auditor and report differ for the DualPar
//! workspace.
//!
//! ```text
//! dualpar-audit trace <trace.jsonl> [--json <out.json>] [--tolerate-truncation]
//! dualpar-audit trace --baseline <old-report.json> <new-report.json> \
//!     [--json <out.json>] [--max-regress-pct <pct>]
//! ```
//!
//! `--tolerate-truncation` accepts ring-buffer traces whose oldest events
//! were dropped (runs past `trace_capacity`): pairing errors explainable by
//! the missing prefix are counted as warnings instead of violations.
//!
//! `--baseline` switches from trace auditing to report diffing: both
//! arguments are `RunReport` JSON files (`dualpar profile <t> --json`),
//! and the exit code reflects whether any simulated-time metric regressed
//! past `--max-regress-pct` (default 5). When both arguments are instead
//! whole-suite summaries (`dualpar suite` artifacts, schema
//! `dualpar-bench-suite/v1`), the diff runs per suite entry: per-run
//! `sim_events` + report fingerprints must match and every run must have
//! completed, while events-per-second movement (machine-dependent) is
//! reported without gating. See [`dualpar_audit::baseline`].
//!
//! Exit status: 0 — clean; 1 — violations or regressions; 2 — usage or
//! I/O error.

use dualpar_audit::{audit_jsonl_str, baseline, AuditConfig};
use std::fs;
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: dualpar-audit trace <trace.jsonl> [--json <out.json>] [--tolerate-truncation]\n       dualpar-audit trace --baseline <old-report.json> <new-report.json> [--json <out.json>] [--max-regress-pct <pct>]";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("trace") => cmd_trace(&args[1..]),
        _ => Err(USAGE.to_string()),
    };
    match result {
        Ok(clean) => {
            if clean {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(msg) => {
            eprintln!("dualpar-audit: {msg}");
            ExitCode::from(2)
        }
    }
}

fn cmd_trace(args: &[String]) -> Result<bool, String> {
    let mut trace_path: Option<PathBuf> = None;
    let mut json_out: Option<PathBuf> = None;
    let mut baseline_path: Option<PathBuf> = None;
    let mut max_regress_pct = 5.0;
    let mut cfg = AuditConfig::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--json" => {
                json_out = Some(PathBuf::from(it.next().ok_or("--json needs a path")?));
            }
            "--baseline" => {
                baseline_path = Some(PathBuf::from(it.next().ok_or("--baseline needs a path")?));
            }
            "--max-regress-pct" => {
                max_regress_pct = it
                    .next()
                    .ok_or("--max-regress-pct needs a value")?
                    .parse::<f64>()
                    .map_err(|e| format!("--max-regress-pct: {e}"))?;
                if !max_regress_pct.is_finite() || max_regress_pct < 0.0 {
                    return Err("--max-regress-pct must be a non-negative number".into());
                }
            }
            "--tolerate-truncation" => cfg.tolerate_truncation = true,
            _ if trace_path.is_none() => trace_path = Some(PathBuf::from(arg)),
            _ => return Err(USAGE.to_string()),
        }
    }
    let trace_path = trace_path.ok_or(USAGE)?;
    if let Some(old_path) = baseline_path {
        return cmd_baseline(&old_path, &trace_path, max_regress_pct, json_out.as_deref());
    }
    let text = fs::read_to_string(&trace_path)
        .map_err(|e| format!("reading {}: {e}", trace_path.display()))?;
    let report =
        audit_jsonl_str(&text, cfg).map_err(|e| format!("{}: {e}", trace_path.display()))?;
    for v in &report.violations {
        println!(
            "violation at event {} (t={}): [{}] {}",
            v.index, v.t, v.check, v.message
        );
    }
    let json = report.to_json();
    match &json_out {
        Some(path) => fs::write(path, format!("{json}\n"))
            .map_err(|e| format!("writing {}: {e}", path.display()))?,
        None => println!("{json}"),
    }
    eprintln!(
        "dualpar-audit: {} events, {} violation(s), {} truncation warning(s)",
        report.events,
        report.violations.len(),
        report.warnings
    );
    Ok(report.ok())
}

/// Diff a new report against a baseline; clean means no metric regressed
/// past the threshold. When both files are whole-suite summaries
/// (`BENCH_suite.json`), the diff switches to per-run mode: determinism
/// fields (`sim_events`, `report_fingerprint`, completion) gate the exit
/// code, event-rate movement is reported.
fn cmd_baseline(
    old_path: &std::path::Path,
    new_path: &std::path::Path,
    max_regress_pct: f64,
    json_out: Option<&std::path::Path>,
) -> Result<bool, String> {
    let old =
        fs::read_to_string(old_path).map_err(|e| format!("reading {}: {e}", old_path.display()))?;
    let new =
        fs::read_to_string(new_path).map_err(|e| format!("reading {}: {e}", new_path.display()))?;
    let diff = baseline::diff_strs_auto(&old, &new, max_regress_pct)?;
    print!("{}", diff.render_text());
    let json = diff.to_json();
    match json_out {
        Some(path) => fs::write(path, format!("{json}\n"))
            .map_err(|e| format!("writing {}: {e}", path.display()))?,
        None => println!("{json}"),
    }
    Ok(diff.ok())
}
