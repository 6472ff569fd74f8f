//! Per-rule positive/negative coverage for the scanner, plus suppression
//! and allowlist behavior. Sources are inline so each case documents
//! exactly what triggers (or must not trigger) a rule; on-disk violation
//! fixtures live in `tests/fixtures/` and are covered by
//! `fixtures_fail.rs`.

use sizeless_lint::config::{AllowEntry, Config};
use sizeless_lint::scan::{lint_source, FileReport};

/// A config with `engine` and `fleet` as simulation crates and one hot
/// function, mirroring the shape of the real `lint.toml`.
fn cfg() -> Config {
    Config {
        sim_crates: vec!["engine".into(), "fleet".into()],
        hot_modules: vec!["engine::queue".into()],
        hot_functions: vec!["Matrix::matmul_into".into()],
        ..Config::default()
    }
}

fn rules_of(report: &FileReport) -> Vec<&str> {
    report.findings.iter().map(|f| f.rule).collect()
}

#[track_caller]
fn expect_rule(path: &str, src: &str, rule: &str) {
    let report = lint_source(path, src, &cfg());
    assert!(
        report.findings.iter().any(|f| f.rule == rule),
        "expected {rule} in {path}, got {:?}",
        rules_of(&report)
    );
}

#[track_caller]
fn expect_clean(path: &str, src: &str) {
    let report = lint_source(path, src, &cfg());
    assert!(
        report.findings.is_empty(),
        "expected no findings in {path}, got {:?}",
        rules_of(&report)
    );
}

// ---- det001: wall-clock time in simulation crates --------------------

#[test]
fn det001_instant_in_sim_crate_lib() {
    expect_rule(
        "crates/engine/src/clock.rs",
        "pub fn now() -> std::time::Instant { std::time::Instant::now() }",
        "det001",
    );
}

#[test]
fn det001_systemtime_in_sim_crate_lib() {
    expect_rule(
        "crates/fleet/src/x.rs",
        "use std::time::SystemTime;",
        "det001",
    );
}

#[test]
fn det001_not_in_non_sim_crate() {
    expect_clean(
        "crates/stats/src/x.rs",
        "pub fn now() -> std::time::Instant { std::time::Instant::now() }",
    );
}

#[test]
fn det001_not_in_integration_tests() {
    expect_clean(
        "crates/engine/tests/wallclock.rs",
        "fn t() { let _ = std::time::Instant::now(); }",
    );
}

#[test]
fn det001_not_in_cfg_test_module() {
    expect_clean(
        "crates/engine/src/clock.rs",
        r#"
pub fn ok() {}

#[cfg(test)]
mod tests {
    #[test]
    fn timing() { let _ = std::time::Instant::now(); }
}
"#,
    );
}

// ---- det002: ambient RNG ---------------------------------------------

#[test]
fn det002_thread_rng_in_any_lib() {
    expect_rule(
        "crates/stats/src/x.rs",
        "pub fn r() -> f64 { rand::thread_rng().gen() }",
        "det002",
    );
}

#[test]
fn det002_rand_random_path() {
    expect_rule(
        "crates/neural/src/x.rs",
        "pub fn r() -> f64 { rand::random() }",
        "det002",
    );
}

#[test]
fn det002_bare_random_method_is_fine() {
    // `self.random()` is someone's own method, not `rand::random()`.
    expect_clean(
        "crates/neural/src/x.rs",
        "pub fn r(&self) -> f64 { self.random() }",
    );
}

// ---- det003: ad-hoc threading ----------------------------------------

#[test]
fn det003_thread_spawn() {
    expect_rule(
        "crates/stats/src/x.rs",
        "pub fn go() { std::thread::spawn(|| {}); }",
        "det003",
    );
}

#[test]
fn det003_thread_scope() {
    expect_rule(
        "crates/neural/src/x.rs",
        "pub fn go() { std::thread::scope(|s| {}); }",
        "det003",
    );
}

#[test]
fn det003_unrelated_spawn_is_fine() {
    expect_clean(
        "crates/neural/src/x.rs",
        "pub fn go(pool: &Pool) { pool.spawn(|| {}); }",
    );
}

#[test]
fn det003_allowed_by_module_entry() {
    let mut config = cfg();
    config.allows.push(AllowEntry {
        rule: "det003".into(),
        module: Some("engine::parallel".into()),
        krate: None,
        reason: "deterministic scoped fan-out".into(),
    });
    let report = lint_source(
        "crates/engine/src/parallel.rs",
        "pub fn go() { std::thread::scope(|s| {}); }",
        &config,
    );
    assert!(report.findings.is_empty(), "{:?}", rules_of(&report));
    assert_eq!(report.suppressed, 1);
}

// ---- det004: hash collections in simulation crates -------------------

#[test]
fn det004_hashmap_in_sim_crate() {
    expect_rule(
        "crates/fleet/src/x.rs",
        "use std::collections::HashMap;",
        "det004",
    );
}

#[test]
fn det004_btreemap_is_fine() {
    expect_clean(
        "crates/fleet/src/x.rs",
        "use std::collections::BTreeMap;",
    );
}

#[test]
fn det004_hashmap_outside_sim_crates_is_fine() {
    expect_clean(
        "crates/neural/src/x.rs",
        "use std::collections::HashMap;",
    );
}

// ---- hot001: allocation in hot paths ---------------------------------

#[test]
fn hot001_clone_in_hot_function() {
    expect_rule(
        "crates/neural/src/matrix.rs",
        r#"
impl Matrix {
    pub fn matmul_into(&self, other: &Matrix, out: &mut Matrix) {
        let copy = other.clone();
    }
}
"#,
        "hot001",
    );
}

#[test]
fn hot001_vec_macro_in_hot_module() {
    expect_rule(
        "crates/engine/src/queue.rs",
        "pub fn push(&mut self) { let v = vec![1, 2]; }",
        "hot001",
    );
}

#[test]
fn hot001_hot_function_taking_impl_trait() {
    // The `impl` of an argument type must not open an impl block that
    // hides the function body.
    expect_rule(
        "crates/neural/src/matrix.rs",
        r#"
impl Matrix {
    pub fn matmul_into(&mut self, rows: impl IntoIterator<Item = f64>) {
        let v = Vec::new();
    }
}
"#,
        "hot001",
    );
}

#[test]
fn hot001_hot_function_returning_impl_trait() {
    expect_rule(
        "crates/neural/src/matrix.rs",
        r#"
impl Matrix {
    pub fn matmul_into(&self) -> impl Iterator<Item = f64> + '_ {
        self.data.clone().into_iter()
    }
}
"#,
        "hot001",
    );
}

#[test]
fn hot001_clone_outside_hot_paths_is_fine() {
    expect_clean(
        "crates/neural/src/matrix.rs",
        r#"
impl Matrix {
    pub fn to_owned_rows(&self) -> Vec<f64> { self.data.clone() }
}
"#,
    );
}

#[test]
fn hot001_same_method_name_on_other_type_is_fine() {
    // `Other::matmul_into` is not the configured `Matrix::matmul_into`.
    expect_clean(
        "crates/neural/src/other.rs",
        r#"
impl Other {
    pub fn matmul_into(&self) { let v = self.data.clone(); }
}
"#,
    );
}

// ---- panic001/panic002/panic003: panic safety ------------------------

#[test]
fn panic001_unwrap_in_lib() {
    expect_rule(
        "crates/core/src/x.rs",
        "pub fn f(o: Option<u32>) -> u32 { o.unwrap() }",
        "panic001",
    );
}

#[test]
fn panic002_expect_in_lib() {
    expect_rule(
        "crates/core/src/x.rs",
        "pub fn f(o: Option<u32>) -> u32 { o.expect(\"present\") }",
        "panic002",
    );
}

#[test]
fn panic003_literal_index_in_lib() {
    expect_rule(
        "crates/core/src/x.rs",
        "pub fn f(v: &[u32]) -> u32 { v[0] }",
        "panic003",
    );
}

#[test]
fn panic_rules_skip_cfg_test_modules() {
    expect_clean(
        "crates/core/src/x.rs",
        r#"
pub fn ok() {}

#[cfg(test)]
mod tests {
    #[test]
    fn t() {
        let v = vec![1];
        assert_eq!(v[0], Some(1).unwrap());
    }
}
"#,
    );
}

#[test]
fn panic_rules_skip_integration_tests() {
    expect_clean(
        "crates/core/tests/api.rs",
        "fn f(v: &[u32]) -> u32 { v[0] + Some(1).unwrap() }",
    );
}

#[test]
fn panic003_variable_index_is_fine() {
    expect_clean(
        "crates/core/src/x.rs",
        "pub fn f(v: &[u32], i: usize) -> u32 { v[i] }",
    );
}

// ---- float001: NaN-panicking comparisons -----------------------------

#[test]
fn float001_partial_cmp_unwrap() {
    expect_rule(
        "crates/stats/src/x.rs",
        "pub fn s(v: &mut [f64]) { v.sort_by(|a, b| a.partial_cmp(b).unwrap()); }",
        "float001",
    );
}

#[test]
fn float001_partial_cmp_expect() {
    expect_rule(
        "crates/stats/src/x.rs",
        "pub fn s(v: &mut [f64]) { v.sort_by(|a, b| a.partial_cmp(b).expect(\"no NaN\")); }",
        "float001",
    );
}

#[test]
fn float001_applies_even_in_tests() {
    // Float ordering must be total everywhere, including test code.
    expect_rule(
        "crates/stats/tests/order.rs",
        "fn s(v: &mut [f64]) { v.sort_by(|a, b| a.partial_cmp(b).unwrap()); }",
        "float001",
    );
}

#[test]
fn float001_total_cmp_is_the_fix() {
    expect_clean(
        "crates/stats/src/x.rs",
        "pub fn s(v: &mut [f64]) { v.sort_by(|a, b| a.total_cmp(b)); }",
    );
}

// ---- suppression behavior --------------------------------------------

#[test]
fn trailing_suppression_silences_its_line() {
    let report = lint_source(
        "crates/core/src/x.rs",
        "pub fn f(v: &[u32]) -> u32 { v[0] } // lint: allow(panic003) reason=\"asserted above\"\n",
        &cfg(),
    );
    assert!(report.findings.is_empty(), "{:?}", rules_of(&report));
    assert_eq!(report.suppressed, 1);
}

#[test]
fn own_line_suppression_covers_the_next_line() {
    let report = lint_source(
        "crates/core/src/x.rs",
        r#"
pub fn f(v: &[u32]) -> u32 {
    // lint: allow(panic003) reason="caller proves length"
    v[0]
}
"#,
        &cfg(),
    );
    assert!(report.findings.is_empty(), "{:?}", rules_of(&report));
    assert_eq!(report.suppressed, 1);
}

#[test]
fn suppression_does_not_leak_past_its_line() {
    let report = lint_source(
        "crates/core/src/x.rs",
        r#"
pub fn f(v: &[u32]) -> u32 {
    // lint: allow(panic003) reason="first only"
    let a = v[0];
    let b = v[1];
    a + b
}
"#,
        &cfg(),
    );
    assert_eq!(rules_of(&report), vec!["panic003"], "second index still fires");
    assert_eq!(report.suppressed, 1);
}

#[test]
fn reasonless_suppression_is_lint001_and_does_not_suppress() {
    let report = lint_source(
        "crates/core/src/x.rs",
        "pub fn f(v: &[u32]) -> u32 { v[0] } // lint: allow(panic003)\n",
        &cfg(),
    );
    let mut rules = rules_of(&report);
    rules.sort_unstable();
    assert_eq!(rules, vec!["lint001", "panic003"]);
    assert_eq!(report.suppressed, 0);
}

#[test]
fn unused_suppression_is_lint002() {
    let report = lint_source(
        "crates/core/src/x.rs",
        "pub fn f() {} // lint: allow(panic003) reason=\"nothing here\"\n",
        &cfg(),
    );
    assert_eq!(rules_of(&report), vec!["lint002"]);
}

#[test]
fn unknown_rule_in_suppression_is_lint003() {
    let report = lint_source(
        "crates/core/src/x.rs",
        "pub fn f() {} // lint: allow(bogus042) reason=\"typo\"\n",
        &cfg(),
    );
    assert_eq!(rules_of(&report), vec!["lint003"]);
}

#[test]
fn suppression_only_covers_listed_rules() {
    let report = lint_source(
        "crates/core/src/x.rs",
        "pub fn f(v: &[u32]) -> u32 { v[0] + Some(1).unwrap() } \
         // lint: allow(panic003) reason=\"length proven\"\n",
        &cfg(),
    );
    assert_eq!(rules_of(&report), vec!["panic001"], "unwrap still fires");
    assert_eq!(report.suppressed, 1);
}

// ---- crate-scoped allowlist ------------------------------------------

#[test]
fn crate_scoped_allow_covers_whole_crate() {
    let mut config = cfg();
    config.allows.push(AllowEntry {
        rule: "panic002".into(),
        module: None,
        krate: Some("bench".into()),
        reason: "experiment binaries may assert".into(),
    });
    let report = lint_source(
        "crates/bench/src/bin/fig2.rs",
        "pub fn f(o: Option<u32>) -> u32 { o.expect(\"cli arg\") }",
        &config,
    );
    assert!(report.findings.is_empty(), "{:?}", rules_of(&report));
    assert_eq!(report.suppressed, 1);
}

#[test]
fn crate_scoped_allow_does_not_cover_other_crates() {
    let mut config = cfg();
    config.allows.push(AllowEntry {
        rule: "panic002".into(),
        module: None,
        krate: Some("bench".into()),
        reason: "experiment binaries may assert".into(),
    });
    let report = lint_source(
        "crates/core/src/x.rs",
        "pub fn f(o: Option<u32>) -> u32 { o.expect(\"nope\") }",
        &config,
    );
    assert_eq!(rules_of(&report), vec!["panic002"]);
}
