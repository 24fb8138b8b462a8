//! The CI gate: the whole workspace must satisfy every invariant rule,
//! with zero unexplained or stale escape hatches. Any finding fails.

use std::collections::BTreeSet;

#[test]
fn workspace_has_no_findings() {
    let diagnostics = invariants::lint_workspace(&invariants::workspace_root());
    let report: String = diagnostics.iter().map(|d| format!("  {d}\n")).collect();
    assert!(
        diagnostics.is_empty(),
        "\n{n} invariant violation(s):\n{report}\
         Fix the code, or — only where the exception is sound — add\n  \
         // invariants: allow(<rule>) — <reason>\n\
         on or directly above the offending line.",
        n = diagnostics.len()
    );
}

#[test]
fn every_sanctioned_env_fn_exists_and_reads_the_environment() {
    // A sanction must point at something: a funnel that was renamed or
    // deleted must take its exemption with it, and one that stopped
    // reading the environment no longer needs it.
    let files = invariants::workspace_files(&invariants::workspace_root());
    let env_readers: Vec<_> = files
        .iter()
        .flat_map(|f| invariants::items::parse_items(f).fns)
        .filter(|f| !f.is_test)
        .filter(|f| {
            f.sources
                .iter()
                .any(|s| s.kind == invariants::items::SourceKind::EnvRead)
        })
        .collect();
    for &(krate, name) in invariants::taint::SANCTIONED_ENV_FNS {
        assert!(
            env_readers
                .iter()
                .any(|f| f.crate_name == krate && f.name == name),
            "SANCTIONED_ENV_FNS names `{krate}::{name}`, but the workspace has no \
             such function with an env read in its body — drop the sanction"
        );
    }
    // And the converse: the sanctions are the whole list. A binary may
    // read the environment at its edge (`src/bin/`, `examples/`); library
    // code may not, whether or not a digest sink happens to reach the read.
    let unsanctioned: Vec<String> = env_readers
        .iter()
        .filter(|f| f.file.split('/').any(|c| c == "src") && !f.file.contains("src/bin/"))
        .filter(|f| {
            !invariants::taint::SANCTIONED_ENV_FNS
                .contains(&(f.crate_name.as_str(), f.name.as_str()))
        })
        .map(|f| format!("{} ({}:{})", f.label(), f.file, f.line))
        .collect();
    assert!(
        unsanctioned.is_empty(),
        "library functions read the environment without a sanction: {unsanctioned:?}"
    );
}

#[test]
fn rules_are_documented_and_named_consistently() {
    // Every rule must have a non-empty name and description, and names
    // must be unique — `allow(...)` directives address rules by name.
    let rules = invariants::rules::all_rules();
    let mut names = BTreeSet::new();
    for r in &rules {
        assert!(!r.name().is_empty());
        assert!(!r.description().is_empty());
        assert!(names.insert(r.name().to_string()), "duplicate {}", r.name());
    }
    assert_eq!(rules.len(), 9);

    // The interprocedural passes are documented alongside: unique names,
    // disjoint from the lexical set (an `allow` must be unambiguous).
    for (name, desc) in invariants::rules::interprocedural_rules() {
        assert!(!name.is_empty() && !desc.is_empty());
        assert!(names.insert(name.to_string()), "duplicate {name}");
    }
}
