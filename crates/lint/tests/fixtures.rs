//! Fixture-driven rule tests: every rule fires on its positive fixture, is
//! silent on its negative fixture, and the full fixture sweep renders to a
//! pinned snapshot (`fixtures/expected.txt`) so diagnostics — line numbers,
//! messages, hints, ordering — cannot drift unnoticed.

use std::path::PathBuf;

use moctopus_lint::{classify, lint_file_with_meta, Finding, Report};

/// `(fixture file, pretend workspace path it is linted under)`.
///
/// The pretend path picks the file class and crate the rule scoping needs:
/// D2 has a second positive inside `crates/bench`, which used to be the one
/// zone where wall clocks were legal and no longer is.
const FIXTURES: &[(&str, &str)] = &[
    ("hash_iter_order/positive.rs", "crates/core/src/d1_positive.rs"),
    ("hash_iter_order/negative.rs", "crates/core/src/d1_negative.rs"),
    ("hash_iter_order/idmap_positive.rs", "crates/graph-store/src/d1_idmap_positive.rs"),
    ("hash_iter_order/idmap_negative.rs", "crates/graph-store/src/d1_idmap_negative.rs"),
    ("wall_clock_in_sim/positive.rs", "crates/pim-sim/src/d2_positive.rs"),
    ("wall_clock_in_sim/negative.rs", "crates/bench/src/d2_negative.rs"),
    ("wall_clock_in_sim/bench_positive.rs", "crates/bench/src/bin/d2_bench_positive.rs"),
    ("panic_in_lib/positive.rs", "crates/core/src/d4_positive.rs"),
    ("panic_in_lib/negative.rs", "crates/core/src/d4_negative.rs"),
    ("fsync_before_rename/positive.rs", "crates/graph-store/src/d5_positive.rs"),
    ("fsync_before_rename/negative.rs", "crates/graph-store/src/d5_negative.rs"),
    ("stdout_thread_leak/positive.rs", "crates/server/src/bin/d6_positive.rs"),
    ("stdout_thread_leak/negative.rs", "crates/server/src/bin/d6_negative.rs"),
    ("exemptions/reasoned.rs", "crates/core/src/ex_reasoned.rs"),
    ("exemptions/missing_reason.rs", "crates/core/src/ex_missing_reason.rs"),
    ("exemptions/unknown_rule.rs", "crates/core/src/ex_unknown_rule.rs"),
    ("exemptions/unused.rs", "crates/core/src/ex_unused.rs"),
];

fn fixtures_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("fixtures")
}

fn lint_fixture(file: &str, pretend: &str) -> Vec<Finding> {
    let text = std::fs::read_to_string(fixtures_dir().join(file))
        .unwrap_or_else(|e| panic!("fixture {file}: {e}"));
    let meta = classify(pretend).unwrap_or_else(|| panic!("{pretend} must classify"));
    lint_file_with_meta(meta, &text)
}

fn rules_of(findings: &[Finding]) -> Vec<&str> {
    findings.iter().map(|f| f.rule).collect()
}

#[test]
fn every_positive_fixture_fires_only_its_rule() {
    for rule in [
        "hash-iter-order",
        "wall-clock-in-sim",
        "panic-in-lib",
        "fsync-before-rename",
        "stdout-thread-leak",
    ] {
        let file = format!("{}/positive.rs", rule.replace('-', "_"));
        let (_, pretend) = FIXTURES
            .iter()
            .find(|(f, _)| *f == file)
            .unwrap_or_else(|| panic!("no fixture entry for {file}"));
        let findings = lint_fixture(&file, pretend);
        assert!(!findings.is_empty(), "{rule}: positive fixture produced no findings");
        assert!(
            findings.iter().all(|f| f.rule == rule),
            "{rule}: positive fixture leaked other rules: {:?}",
            rules_of(&findings)
        );
    }
}

#[test]
fn every_negative_fixture_is_clean() {
    for rule in [
        "hash_iter_order",
        "wall_clock_in_sim",
        "panic_in_lib",
        "fsync_before_rename",
        "stdout_thread_leak",
    ] {
        let file = format!("{rule}/negative.rs");
        let (_, pretend) = FIXTURES
            .iter()
            .find(|(f, _)| *f == file)
            .unwrap_or_else(|| panic!("no fixture entry for {file}"));
        let findings = lint_fixture(&file, pretend);
        assert!(
            findings.is_empty(),
            "{rule}: negative fixture is not clean: {:?}",
            rules_of(&findings)
        );
    }
}

/// D1 must follow `graph_store::IdMap`: behind a fixed hasher an order leak no
/// longer shows as a run-to-run diff, so the rule is the only guard left.
#[test]
fn hash_iter_order_tracks_the_id_map_alias() {
    let findings = lint_fixture(
        "hash_iter_order/idmap_positive.rs",
        "crates/graph-store/src/d1_idmap_positive.rs",
    );
    assert_eq!(rules_of(&findings), vec!["hash-iter-order"; 2], "field sink and for-loop");
    assert!(findings[0].message.contains("`degrees`") && findings[0].message.contains("`iter`"));
    assert!(findings[1].message.contains("`seen`") && findings[1].message.contains("`for-loop`"));
    let findings = lint_fixture(
        "hash_iter_order/idmap_negative.rs",
        "crates/graph-store/src/d1_idmap_negative.rs",
    );
    assert!(findings.is_empty(), "point operations flagged: {:?}", rules_of(&findings));
}

/// D2 has no carve-out for the experiment harness: wall-clock belongs in
/// `perf/`, which is outside the analyzed tree.
#[test]
fn wall_clock_is_flagged_in_the_bench_crate_too() {
    for pretend in ["crates/bench/src/bin/d2_bench_positive.rs", "crates/bench/src/d2.rs"] {
        let findings = lint_fixture("wall_clock_in_sim/bench_positive.rs", pretend);
        assert_eq!(rules_of(&findings), vec!["wall-clock-in-sim"], "under {pretend}");
        assert!(findings[0].message.contains("`Instant`"));
        assert!(findings[0].hint.contains("perf/"), "the hint names where timing belongs");
    }
}

#[test]
fn reasoned_exemption_silences_and_counts_as_used() {
    let findings = lint_fixture("exemptions/reasoned.rs", "crates/core/src/ex_reasoned.rs");
    assert!(findings.is_empty(), "reasoned allow must silence: {:?}", rules_of(&findings));
}

#[test]
fn exemption_without_reason_is_an_error_and_suppresses_nothing() {
    let findings =
        lint_fixture("exemptions/missing_reason.rs", "crates/core/src/ex_missing_reason.rs");
    let rules = rules_of(&findings);
    assert_eq!(rules, vec!["bad-exemption", "hash-iter-order"], "got: {rules:?}");
    assert!(findings[0].message.contains("missing its mandatory reason"));
}

#[test]
fn exemption_naming_an_unknown_rule_is_an_error() {
    let findings = lint_fixture("exemptions/unknown_rule.rs", "crates/core/src/ex_unknown_rule.rs");
    let rules = rules_of(&findings);
    assert_eq!(rules, vec!["bad-exemption"], "got: {rules:?}");
    assert!(findings[0].message.contains("unknown rule"));
}

#[test]
fn exemption_that_suppresses_nothing_is_flagged() {
    let findings = lint_fixture("exemptions/unused.rs", "crates/core/src/ex_unused.rs");
    let rules = rules_of(&findings);
    assert_eq!(rules, vec!["unused-exemption"], "got: {rules:?}");
}

#[test]
fn fixture_sweep_matches_pinned_snapshot() {
    let mut report = Report::default();
    for (file, pretend) in FIXTURES {
        report.files_scanned += 1;
        report.findings.extend(lint_fixture(file, pretend));
    }
    report.sort();
    let rendered = report.render();
    let expected_path = fixtures_dir().join("expected.txt");
    if std::env::var_os("UPDATE_EXPECTED").is_some() {
        std::fs::write(&expected_path, &rendered).expect("write expected.txt");
    }
    let expected = std::fs::read_to_string(&expected_path)
        .expect("fixtures/expected.txt must exist (regenerate with UPDATE_EXPECTED=1)");
    assert_eq!(
        rendered, expected,
        "fixture diagnostics drifted; if the change is intentional, update fixtures/expected.txt"
    );
}
