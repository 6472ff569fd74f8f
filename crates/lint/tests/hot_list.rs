//! `lint004`: a `[hot] functions` entry must name a function that library
//! code defines, or `hot001` silently checks nothing for it. Each case
//! sweeps the one-file tree under `tests/fixtures/hot_sweep`.

use sizeless_lint::config::Config;
use sizeless_lint::lint_workspace;
use sizeless_lint::scan::Finding;
use std::path::Path;

fn sweep(functions: &[&str]) -> Vec<Finding> {
    let entries: String = functions
        .iter()
        .map(|f| format!("    \"{f}\",\n"))
        .collect();
    let toml = format!("[hot]\nfunctions = [\n{entries}]\n");
    let config = Config::parse(&toml).expect("fixture config parses");
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/hot_sweep");
    lint_workspace(&root, &config)
        .expect("sweep succeeds")
        .findings
}

#[test]
fn an_entry_naming_no_function_is_one_finding() {
    let findings = sweep(&["Matrix::matmul_into", "Matrix::reset"]);
    assert_eq!(findings.len(), 1, "{findings:?}");
    let f = &findings[0];
    assert_eq!(
        (f.rule, f.path.as_str(), f.line),
        ("lint004", "lint.toml", 4)
    );
    assert!(f.message.contains("`Matrix::reset`"), "{}", f.message);
}

#[test]
fn an_entry_naming_a_library_function_is_clean() {
    assert_eq!(sweep(&["Matrix::matmul_into"]), Vec::new());
}

#[test]
fn a_function_defined_only_in_tests_does_not_count() {
    let findings = sweep(&["test_only_helper"]);
    assert_eq!(findings.len(), 1, "{findings:?}");
    assert_eq!(findings[0].rule, "lint004");
}
