//! Rule definitions: identifiers, severities, and one-line rationales.
//!
//! The actual matching logic lives in [`crate::scan`]; this module is the
//! single registry every other layer (reporter, config validation, CLI
//! `rules` listing) keys off, so an unknown rule id in `lint.toml` or a
//! suppression comment is always detectable.

/// How a finding affects the exit code.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Severity {
    /// Fails the run (CI gate).
    Deny,
    /// Reported but does not fail the run.
    Warn,
}

impl Severity {
    /// Lowercase label used in diagnostics.
    pub fn label(self) -> &'static str {
        match self {
            Severity::Deny => "error",
            Severity::Warn => "warning",
        }
    }
}

/// Static metadata for one rule.
#[derive(Debug, Clone, Copy)]
pub struct RuleMeta {
    /// Stable identifier (`det001`, …) used in diagnostics and suppressions.
    pub id: &'static str,
    /// Whether a finding fails the run.
    pub severity: Severity,
    /// One-line statement of the contract the rule enforces.
    pub summary: &'static str,
}

/// Every rule the pass knows about.
///
/// Determinism rules guard the bit-identical-replay contract, hot-path rules
/// guard the zero-allocation kernels and service fast paths, panic rules
/// guard library crates against aborting the simulation, and the `lint*`
/// rules keep the suppression mechanism and the hot list themselves honest.
pub const RULES: &[RuleMeta] = &[
    RuleMeta {
        id: "det001",
        severity: Severity::Deny,
        summary: "wall-clock time source (Instant/SystemTime) in a simulation crate; \
                  virtual time must come from engine::time::SimTime",
    },
    RuleMeta {
        id: "det002",
        severity: Severity::Deny,
        summary: "ambient RNG (thread_rng/rand::random) is seedless and breaks replay; \
                  draw from a named engine::rng::RngStream",
    },
    RuleMeta {
        id: "det003",
        severity: Severity::Deny,
        summary: "ad-hoc thread spawn outside an approved parallel module; \
                  fan out through engine::parallel's per-job-seed discipline",
    },
    RuleMeta {
        id: "det004",
        severity: Severity::Deny,
        summary: "HashMap/HashSet in a simulation crate iterates in arbitrary order; \
                  use BTreeMap/BTreeSet or a sorted Vec where order can feed results",
    },
    RuleMeta {
        id: "hot001",
        severity: Severity::Deny,
        summary: "allocation or clone in a configured hot path \
                  (clone/to_vec/Vec::new/vec!/format!/collect); reuse scratch buffers",
    },
    RuleMeta {
        id: "panic001",
        severity: Severity::Deny,
        summary: "unwrap() in library code can abort a long simulation; \
                  propagate a Result or document the invariant with expect + suppression",
    },
    RuleMeta {
        id: "panic002",
        severity: Severity::Deny,
        summary: "expect() in library code; acceptable only for documented invariants \
                  (suppress with the invariant as the reason)",
    },
    RuleMeta {
        id: "panic003",
        severity: Severity::Deny,
        summary: "direct literal index (x[0]) can panic on short slices; \
                  prefer first()/get() or prove length and suppress",
    },
    RuleMeta {
        id: "float001",
        severity: Severity::Deny,
        summary: "partial_cmp().unwrap()/expect() panics on NaN and hides a \
                  non-total order; use f64::total_cmp",
    },
    RuleMeta {
        id: "lint001",
        severity: Severity::Deny,
        summary: "suppression comment without a reason string; \
                  every exemption must say why it is sound",
    },
    RuleMeta {
        id: "lint002",
        severity: Severity::Deny,
        summary: "suppression comment that matches no finding; delete it so \
                  the suppression inventory stays truthful",
    },
    RuleMeta {
        id: "lint003",
        severity: Severity::Deny,
        summary: "suppression names an unknown rule id",
    },
    RuleMeta {
        id: "lint004",
        severity: Severity::Deny,
        summary: "lint.toml [hot] functions entry that names no library function; \
                  hot001 checks nothing for it, so fix the name or delete the entry",
    },
];

/// Looks up a rule's metadata by id.
pub fn rule(id: &str) -> Option<&'static RuleMeta> {
    RULES.iter().find(|r| r.id == id)
}
