//! `sizeless_lint` — the workspace's contract-enforcing static-analysis pass.
//!
//! The simulator's headline property is bit-identical replay of multi-region
//! fleet simulations at any thread count, and its training hot paths are
//! allocation-free by design. Both are easy to break silently: one stray
//! `Instant::now()`, an unordered-map iteration, or a reintroduced `clone()`
//! in a kernel undoes guarantees the rest of the workspace depends on. This
//! crate makes those contracts machine-checked: a token-level analysis pass
//! (hand-rolled lexer, no `syn` — consistent with the vendored-offline
//! dependency policy) that sweeps every first-party Rust source and fails CI
//! on new violations.
//!
//! Rule families (see [`rules::RULES`] for the full registry):
//!
//! - **determinism** (`det001`–`det004`): wall-clock time, ambient RNG,
//!   ad-hoc threading, and arbitrary-order hash collections;
//! - **hot path** (`hot001`): allocation/clone tokens inside the configured
//!   hot functions and modules;
//! - **panic safety** (`panic001`–`panic003`): `unwrap`/`expect`/literal
//!   indexing in non-test library code;
//! - **float determinism** (`float001`): `partial_cmp(..).unwrap()` where
//!   `total_cmp` is required;
//! - **suppression hygiene** (`lint001`–`lint003`): reasonless, stale, or
//!   unknown-rule suppressions;
//! - **hot-list hygiene** (`lint004`): a `[hot] functions` entry that
//!   names no library function, reported against `lint.toml` once the
//!   whole tree is swept.
//!
//! Existing, triaged sites are recorded either inline —
//! `// lint: allow(panic002) reason="…"` — or as module/crate-scoped
//! `[[allow]]` entries in the checked-in `lint.toml`; anything new fails.
//!
//! # Examples
//!
//! ```
//! use sizeless_lint::{config::Config, scan::lint_source};
//!
//! let cfg = Config {
//!     sim_crates: vec!["engine".into()],
//!     ..Config::default()
//! };
//! let report = lint_source(
//!     "crates/engine/src/clock.rs",
//!     "fn now() -> std::time::Instant { std::time::Instant::now() }",
//!     &cfg,
//! );
//! assert!(report.findings.iter().all(|f| f.rule == "det001"));
//! assert_eq!(report.findings.len(), 2); // the type and the call site
//! ```

pub mod config;
pub mod lexer;
pub mod report;
pub mod rules;
pub mod scan;

use config::Config;
use scan::{FileReport, Finding};
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Aggregate result of sweeping a workspace tree.
#[derive(Debug, Default)]
pub struct WorkspaceReport {
    /// Unsuppressed findings across all files, in path order.
    pub findings: Vec<Finding>,
    /// Count of findings silenced by reasoned suppressions/allows.
    pub suppressed: usize,
    /// Number of `.rs` files scanned.
    pub files: usize,
    /// Per-file lexer failures, reported as hard errors.
    pub lex_errors: Vec<(String, u32, String)>,
}

impl WorkspaceReport {
    /// Number of findings that fail the run.
    pub fn deny_count(&self) -> usize {
        self.findings
            .iter()
            .filter(|f| f.severity == rules::Severity::Deny)
            .count()
            + self.lex_errors.len()
    }
}

/// Validates that every `[[allow]]` entry names a known rule.
pub fn validate_config(config: &Config) -> Result<(), String> {
    for a in &config.allows {
        if rules::rule(&a.rule).is_none() {
            return Err(format!("lint.toml: [[allow]] names unknown rule `{}`", a.rule));
        }
    }
    Ok(())
}

/// Sweeps every first-party `.rs` file under `root` and lints it.
///
/// Directory traversal is sorted so output (and CI failure order) is
/// deterministic. Paths whose first components match a `[paths] exclude`
/// prefix — `vendor/`, `target/`, and the linter's own violation fixtures —
/// are skipped, as are dot-directories. After the sweep, every `[hot]
/// functions` entry that no library `fn` definition matched is a `lint004`
/// finding against `lint.toml`.
pub fn lint_workspace(root: &Path, config: &Config) -> io::Result<WorkspaceReport> {
    let mut files = Vec::new();
    collect_rs_files(root, root, config, &mut files)?;
    files.sort();
    let mut report = WorkspaceReport::default();
    let mut hot_defined = vec![false; config.hot_functions.len()];
    for rel in files {
        let src = fs::read_to_string(root.join(&rel))?;
        let rel_str = rel.to_string_lossy().replace('\\', "/");
        let FileReport {
            findings,
            suppressed,
            lex_errors,
            hot_functions_defined,
        } = scan::lint_source(&rel_str, &src, config);
        for i in hot_functions_defined {
            hot_defined[i] = true;
        }
        report.files += 1;
        report.suppressed += suppressed;
        report.findings.extend(findings);
        report
            .lex_errors
            .extend(lex_errors.into_iter().map(|(l, m)| (rel_str.clone(), l, m)));
    }
    for (i, entry) in config.hot_functions.iter().enumerate() {
        if !hot_defined[i] {
            report.findings.push(Finding {
                rule: "lint004",
                severity: rules::Severity::Deny,
                path: "lint.toml".into(),
                line: config.hot_function_lines.get(i).copied().unwrap_or(1),
                col: 1,
                message: format!(
                    "`[hot] functions` entry `{entry}` names no function in library code"
                ),
            });
        }
    }
    Ok(report)
}

fn collect_rs_files(
    root: &Path,
    dir: &Path,
    config: &Config,
    out: &mut Vec<PathBuf>,
) -> io::Result<()> {
    let mut entries: Vec<_> = fs::read_dir(dir)?.collect::<Result<_, _>>()?;
    entries.sort_by_key(|e| e.file_name());
    for entry in entries {
        let path = entry.path();
        let rel = path.strip_prefix(root).unwrap_or(&path);
        let rel_str = rel.to_string_lossy().replace('\\', "/");
        if config
            .exclude
            .iter()
            .any(|ex| rel_str == *ex || rel_str.starts_with(&format!("{ex}/")))
        {
            continue;
        }
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if entry.file_type()?.is_dir() {
            if name.starts_with('.') {
                continue;
            }
            collect_rs_files(root, &path, config, out)?;
        } else if name.ends_with(".rs") {
            out.push(rel.to_path_buf());
        }
    }
    Ok(())
}
