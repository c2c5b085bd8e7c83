//! Canonical trace-record schema: the single source of truth for every
//! `(component, kind)` pair the simulator is allowed to emit.
//!
//! Three parties must agree on this table:
//!
//! 1. **Emitters** — every [`TraceEvent::new`](crate::TraceEvent::new) /
//!    [`Telemetry::event`](crate::Telemetry::event) call site across the
//!    workspace passes a `(component, kind)` string-literal pair;
//! 2. **The auditor** — `dualpar-audit` dispatches its invariant checks on
//!    exactly these pairs (`dualpar_audit::audited_kinds` mirrors this
//!    table, and a parity test enforces the mirror) and reports any other
//!    pair in a trace as a `trace-schema` violation;
//! 3. **The coverage test** — `tests/tests/telemetry.rs` runs the
//!    interference scenario with spans on and asserts that the set of
//!    pairs it emits equals this table, so a registered kind that nothing
//!    emits (a dead audit rule) fails the test suite.
//!
//! Adding a new trace record therefore takes three steps, and the tests
//! fail until all three are done: add the entry here, emit it, and teach
//! the auditor what invariant it carries.

/// One registered trace-record kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KindSpec {
    /// Emitting component (`"emc"`, `"disk"`, ...).
    pub component: &'static str,
    /// Event kind within the component.
    pub kind: &'static str,
    /// Name of the audit check that consumes records of this kind.
    pub audit_check: &'static str,
}

/// Every `(component, kind)` pair the simulator may emit, with the audit
/// check that consumes it. Kept sorted by `(component, kind)`.
pub const TRACE_SCHEMA: &[KindSpec] = &[
    KindSpec {
        component: "cache",
        kind: "conservation",
        audit_check: "cache-conservation",
    },
    KindSpec {
        component: "crm",
        kind: "phase",
        audit_check: "crm-sequence",
    },
    KindSpec {
        component: "disk",
        kind: "done",
        audit_check: "disk-pairing",
    },
    KindSpec {
        component: "disk",
        kind: "start",
        audit_check: "disk-exclusivity",
    },
    KindSpec {
        component: "emc",
        kind: "config",
        audit_check: "emc-legality",
    },
    KindSpec {
        component: "emc",
        kind: "mode",
        audit_check: "emc-legality",
    },
    KindSpec {
        component: "emc",
        kind: "tick",
        audit_check: "emc-veto-sticky",
    },
    KindSpec {
        component: "pec",
        kind: "resume",
        audit_check: "pec-pairing",
    },
    KindSpec {
        component: "pec",
        kind: "suspend",
        audit_check: "pec-pairing",
    },
    KindSpec {
        component: "span",
        kind: "close",
        audit_check: "span-pairing",
    },
    KindSpec {
        component: "span",
        kind: "open",
        audit_check: "span-pairing",
    },
];

/// Is `(component, kind)` a registered pair?
pub fn is_registered(component: &str, kind: &str) -> bool {
    TRACE_SCHEMA
        .iter()
        .any(|s| s.component == component && s.kind == kind)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_is_sorted_and_duplicate_free() {
        for w in TRACE_SCHEMA.windows(2) {
            assert!(
                (w[0].component, w[0].kind) < (w[1].component, w[1].kind),
                "TRACE_SCHEMA must stay sorted and unique: {:?} then {:?}",
                w[0],
                w[1]
            );
        }
    }

    #[test]
    fn registration_lookup_works() {
        assert!(is_registered("disk", "start"));
        assert!(!is_registered("disk", "seek"));
        assert!(!is_registered("", ""));
    }
}
