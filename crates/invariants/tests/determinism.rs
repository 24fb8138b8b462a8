//! The analyzer is held to the same contract as the simulator it
//! polices: byte-identical output across runs, and a canonical (crate,
//! file, line, rule) ordering that no traversal accident can perturb.

use invariants::report;

#[test]
fn analyzer_output_is_byte_identical_across_runs() {
    let root = invariants::workspace_root();
    let first = report::render_json(&invariants::lint_workspace(&root));
    let second = report::render_json(&invariants::lint_workspace(&root));
    assert_eq!(
        first, second,
        "analyzer JSON must be byte-identical across runs"
    );
}

#[test]
fn diagnostics_are_canonically_sorted() {
    let root = invariants::workspace_root();
    let diags = invariants::lint_workspace(&root);
    let mut resorted = diags.clone();
    invariants::sort_diagnostics(&mut resorted);
    assert_eq!(
        diags, resorted,
        "lint_workspace must emit diagnostics already in canonical order"
    );
}
