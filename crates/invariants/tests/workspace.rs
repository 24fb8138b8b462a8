//! The CI gate: the whole workspace must satisfy every invariant rule
//! modulo the committed ratchet baseline, with zero unexplained or stale
//! escape hatches.

use std::collections::BTreeSet;

#[test]
fn workspace_satisfies_all_invariants_modulo_baseline() {
    let root = invariants::workspace_root();
    let diagnostics = invariants::lint_workspace(&root);

    let baseline_path = root.join("invariants-baseline.json");
    let text = std::fs::read_to_string(&baseline_path)
        .unwrap_or_else(|e| panic!("read {}: {e}", baseline_path.display()));
    let accepted = invariants::baseline::parse(&text)
        .unwrap_or_else(|e| panic!("{}: {e}", baseline_path.display()));

    let ratchet = invariants::baseline::ratchet(&diagnostics, &accepted);
    if !ratchet.new.is_empty() {
        let mut report = String::new();
        for d in &ratchet.new {
            report.push_str(&format!("  {d}\n"));
        }
        panic!(
            "\n{n} NEW invariant violation(s) not in invariants-baseline.json:\n{report}\
             Fix the code, or — only where the exception is sound — add\n  \
             // invariants: allow(<rule>) — <reason>\n\
             on or directly above the offending line. The baseline only\n\
             ever burns down; re-bless is reserved for reviewed burn-downs:\n  \
             cargo run -p invariants -- --baseline invariants-baseline.json --bless",
            n = ratchet.new.len()
        );
    }
    assert!(
        ratchet.stale.is_empty(),
        "stale baseline entries no longer fire — delete them from {}:\n  {}",
        baseline_path.display(),
        ratchet.stale.join("\n  ")
    );
}

#[test]
fn baseline_only_carries_panic_path_burn_down() {
    // The accepted debt is the panic-path audit of the pre-existing
    // dispatch hot path. Determinism-taint findings must never be
    // baselined — they are fixed or explicitly `allow`ed with a reason.
    let root = invariants::workspace_root();
    let text = std::fs::read_to_string(root.join("invariants-baseline.json")).unwrap();
    let accepted = invariants::baseline::parse(&text).unwrap();
    for key in &accepted {
        assert!(
            key.starts_with("panic-path|"),
            "non-panic-path baseline entry: {key}"
        );
    }
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
