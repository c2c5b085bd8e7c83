//! Lint rule registry: names, severities, scopes.
//!
//! Every finding the engine can produce references a rule in [`RULES`].
//! Rules come in two severities: **deny** rules fail the lint gate
//! (`scripts/check.sh` requires zero), **warn** rules are reported but do
//! not flip the exit code. Suppressions (file-level allow-list entries and
//! inline `audit:allow` comments) apply to both.

pub mod schema;
pub mod source;

use std::fmt;

/// How serious a rule violation is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Reported, but does not fail the lint gate.
    Warn,
    /// Fails the lint gate; `check.sh` requires zero of these.
    Deny,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Severity::Warn => "warn",
            Severity::Deny => "deny",
        })
    }
}

/// Where a rule applies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scope {
    /// Every `crates/*/src` file.
    Workspace,
    /// Only the disk/cache hot paths (`crates/disk/src`, `crates/cache/src`).
    HotPath,
}

/// Static description of one lint rule.
#[derive(Debug, Clone, Copy)]
pub struct RuleInfo {
    /// Rule name, as used in findings and allow-list entries.
    pub name: &'static str,
    /// Deny or warn.
    pub severity: Severity,
    /// Which files the rule runs on.
    pub scope: Scope,
    /// One-line human summary.
    pub summary: &'static str,
}

/// Every rule the engine knows, in stable report order.
pub const RULES: &[RuleInfo] = &[
    RuleInfo {
        name: "unwrap",
        severity: Severity::Deny,
        scope: Scope::Workspace,
        summary: ".unwrap() in library code — use expect(...) or propagate",
    },
    RuleInfo {
        name: "panic",
        severity: Severity::Deny,
        scope: Scope::Workspace,
        summary: "panic!(...) in library code — return an error instead",
    },
    RuleInfo {
        name: "std-mutex",
        severity: Severity::Deny,
        scope: Scope::Workspace,
        summary: "std::sync::Mutex — the workspace standardizes on parking_lot",
    },
    RuleInfo {
        name: "narrowing-cast",
        severity: Severity::Deny,
        scope: Scope::HotPath,
        summary: "narrowing `as` cast in a hot path — truncated LBN/byte count",
    },
    RuleInfo {
        name: "overflow-arith",
        severity: Severity::Deny,
        scope: Scope::Workspace,
        summary: "unguarded +/* on an overflow-sensitive quantity (time, deadline, lbn, ...)",
    },
    RuleInfo {
        name: "std-hash",
        severity: Severity::Deny,
        scope: Scope::Workspace,
        summary: "std HashMap/HashSet — use dualpar_sim::hash::{FxHashMap, FxHashSet} for deterministic iteration",
    },
    RuleInfo {
        name: "wall-clock",
        severity: Severity::Deny,
        scope: Scope::Workspace,
        summary: "Instant::now/SystemTime::now — wall-clock reads break replay determinism",
    },
    RuleInfo {
        name: "thread-id",
        severity: Severity::Deny,
        scope: Scope::Workspace,
        summary: "thread::current() — thread identity is nondeterministic across runs",
    },
    RuleInfo {
        name: "raw-thread",
        severity: Severity::Deny,
        scope: Scope::Workspace,
        summary: "thread::spawn/scope or raw mpsc channel — concurrency lives in simcore::pool only",
    },
    RuleInfo {
        name: "env-read",
        severity: Severity::Deny,
        scope: Scope::Workspace,
        summary: "env::var/vars — environment reads make runs machine-dependent",
    },
    RuleInfo {
        name: "float-accum",
        severity: Severity::Warn,
        scope: Scope::Workspace,
        summary: ".sum/.product::<f32|f64>() — float accumulation order sensitivity",
    },
    RuleInfo {
        name: "trace-schema",
        severity: Severity::Deny,
        scope: Scope::Workspace,
        summary: "emitted (component, kind) pair out of sync with telemetry's TRACE_SCHEMA",
    },
    RuleInfo {
        name: "unused-suppression",
        severity: Severity::Deny,
        scope: Scope::Workspace,
        summary: "allow-list entry no longer matches any finding — delete it",
    },
];

/// Look up a rule by name.
pub fn rule_info(name: &str) -> Option<&'static RuleInfo> {
    RULES.iter().find(|r| r.name == name)
}

/// Severity of a rule (engine-internal convenience; panics on unknown
/// names, which would be a bug in the rule implementations).
pub fn severity_of(name: &str) -> Severity {
    rule_info(name)
        .unwrap_or_else(|| unreachable!("unknown rule {name}"))
        .severity
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rule_names_are_unique() {
        for (i, a) in RULES.iter().enumerate() {
            for b in &RULES[i + 1..] {
                assert_ne!(a.name, b.name);
            }
        }
    }

    #[test]
    fn lookup_and_severity() {
        assert_eq!(rule_info("unwrap").unwrap().severity, Severity::Deny);
        assert_eq!(severity_of("float-accum"), Severity::Warn);
        assert!(rule_info("no-such-rule").is_none());
        assert!(Severity::Deny > Severity::Warn);
    }
}
