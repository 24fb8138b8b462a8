//! Self-tests for the interprocedural passes: multi-file in-memory
//! workspaces pushed through the full pipeline via
//! [`invariants::analyze_files`]. Each test is a miniature of a real
//! violation class — several are the exact pre-fix shapes of violations
//! this analyzer found in the workspace (and that were then fixed), kept
//! here so the shapes can never silently regress to unreported.

use invariants::source::SourceFile;
use invariants::Diagnostic;
use std::path::PathBuf;

fn analyze(files: &[(&str, &str, &str)]) -> Vec<Diagnostic> {
    let parsed: Vec<SourceFile> = files
        .iter()
        .map(|(path, krate, src)| SourceFile::parse(PathBuf::from(path), krate, src))
        .collect();
    invariants::analyze_files(&parsed)
}

#[test]
fn taint_chain_crosses_crates() {
    // A wall-clock read two crates away from the sink root, threaded
    // through a non-root intermediate: the finding lands on the source
    // function and carries the full discovery chain.
    let diags = analyze(&[
        (
            "crates/netsim/src/sim.rs",
            "netsim",
            "pub fn run_until() { fabric::stamp_frame(); }\n",
        ),
        (
            "crates/fabric/src/wirefmt.rs",
            "fabric",
            "pub fn stamp_frame() { experiments::helper_now(); }\n",
        ),
        (
            "crates/experiments/src/timing.rs",
            "experiments",
            "pub fn helper_now() -> Instant { Instant::now() }\n",
        ),
    ]);
    assert_eq!(diags.len(), 1, "{diags:#?}");
    let d = &diags[0];
    assert_eq!(d.rule, "taint-wall-clock");
    assert_eq!(d.crate_name, "experiments");
    assert_eq!(d.symbol, "experiments::helper_now");
    assert_eq!(
        d.chain,
        vec![
            "netsim::run_until",
            "fabric::stamp_frame",
            "experiments::helper_now",
            "Instant::now",
        ]
    );
    assert!(d.message.contains("2 call hops"), "{}", d.message);
    assert_eq!(
        d.chain_display(),
        "netsim::run_until → fabric::stamp_frame → experiments::helper_now ⟶ Instant::now"
    );
}

#[test]
fn allow_mid_chain_cuts_propagation() {
    // The same chain with a reasoned generic `allow(taint)` on the
    // call-site line in the middle: the edge is cut, nothing downstream
    // is reachable, and the allow counts as used.
    let diags = analyze(&[
        (
            "crates/netsim/src/sim.rs",
            "netsim",
            "pub fn run_until() { fabric::stamp_frame(); }\n",
        ),
        (
            "crates/fabric/src/wirefmt.rs",
            "fabric",
            "pub fn stamp_frame() {\n    \
             // invariants: allow(taint) — helper output feeds an operator log, never the digest\n    \
             experiments::helper_now();\n}\n",
        ),
        (
            "crates/experiments/src/timing.rs",
            "experiments",
            "pub fn helper_now() -> Instant { Instant::now() }\n",
        ),
    ]);
    assert!(diags.is_empty(), "{diags:#?}");
}

#[test]
fn env_read_is_flagged_outside_sanctioned_fns_only() {
    // Pre-fix shape of the real conformance::dump violation: an env read
    // inline on the sink path is flagged; the same read funneled through
    // the sanctioned `artifact_dir` config point is not.
    let diags = analyze(&[(
        "crates/conformance/src/artifact.rs",
        "conformance",
        "pub fn run_scenario() {\n    \
         let dir = artifact_dir();\n    \
         let raw = std::env::var(\"SPEEDLIGHT_X\");\n    \
         drop((dir, raw));\n}\n\
         pub fn artifact_dir() -> u32 {\n    \
         std::env::var_os(\"DIR\");\n    0\n}\n",
    )]);
    assert_eq!(diags.len(), 1, "{diags:#?}");
    assert_eq!(diags[0].rule, "taint-env-read");
    assert_eq!(diags[0].symbol, "conformance::run_scenario");
    assert_eq!(diags[0].line, 3);
}

#[test]
fn fixed_seed_rng_and_thread_id_sources_are_flagged() {
    // A literal-seeded RNG root and a thread-identity read inside the
    // sink region — both outside the lexical rules' vocabulary.
    let diags = analyze(&[(
        "crates/netsim/src/sim.rs",
        "netsim",
        "pub fn run_until() {\n    \
         let rng = SimRng::new(42);\n    \
         let who = thread::current();\n    \
         drop((rng, who));\n}\n",
    )]);
    let got: Vec<(&str, u32)> = diags.iter().map(|d| (d.rule.as_str(), d.line)).collect();
    assert_eq!(
        got,
        vec![("taint-fixed-seed-rng", 2), ("taint-thread-id", 3)],
        "{diags:#?}"
    );
}

#[test]
fn hash_collection_in_helper_crate_reaches_sink() {
    // The lexical hash-collection rule only covers the deterministic
    // crates; the taint pass extends it to helpers anywhere the sink
    // region reaches.
    let diags = analyze(&[
        (
            "crates/netsim/src/sim.rs",
            "netsim",
            "pub fn run_until() { experiments::tally(); }\n",
        ),
        (
            "crates/experiments/src/tally.rs",
            "experiments",
            "pub fn tally() {\n    let mut m = HashMap::new();\n    m.insert(1, 2);\n}\n",
        ),
    ]);
    assert_eq!(diags.len(), 1, "{diags:#?}");
    assert_eq!(diags[0].rule, "taint-hash-collection");
    assert_eq!(diags[0].symbol, "experiments::tally");
}

#[test]
fn panic_sites_group_per_function_with_chain() {
    let diags = analyze(&[(
        "crates/core/src/control.rs",
        "core",
        "pub fn on_notification() {\n    advance();\n}\n\
         fn advance() {\n    maybe().unwrap();\n    maybe().unwrap();\n}\n\
         fn maybe() -> Option<u32> {\n    None\n}\n",
    )]);
    assert_eq!(diags.len(), 1, "{diags:#?}");
    let d = &diags[0];
    assert_eq!(d.rule, "panic-path");
    assert_eq!(d.symbol, "core::advance");
    assert_eq!(d.line, 5);
    assert!(d.message.contains("2 sites"), "{}", d.message);
    assert_eq!(
        d.chain,
        vec!["core::on_notification", "core::advance", "unwrap"]
    );
}

#[test]
fn wall_clock_in_fanout_regression() {
    // Pre-fix shape of the real parfan violation: the deterministic
    // fan-out entry point sampling Instant::now() while reachable from
    // conformance's matrix runner.
    let pre = analyze(&[
        (
            "crates/conformance/src/runner.rs",
            "conformance",
            "pub fn run_matrix() { parfan::map_labeled(); }\n",
        ),
        (
            "crates/parfan/src/lib.rs",
            "parfan",
            "pub fn map_labeled() {\n    let t0 = Instant::now();\n    drop(t0);\n}\n",
        ),
    ]);
    assert_eq!(pre.len(), 1, "{pre:#?}");
    assert_eq!(pre[0].rule, "taint-wall-clock");
    assert_eq!(pre[0].symbol, "parfan::map_labeled");

    // Post-fix shape: the one gated telemetry probe carries a reasoned
    // source-line allow (the deterministic entry points no longer sample
    // the clock at all).
    let post = analyze(&[
        (
            "crates/conformance/src/runner.rs",
            "conformance",
            "pub fn run_matrix() { parfan::map_labeled(); }\n",
        ),
        (
            "crates/parfan/src/lib.rs",
            "parfan",
            "pub fn map_labeled() {\n    \
             // invariants: allow(taint-wall-clock) — telemetry only, never in results\n    \
             let t0 = Instant::now();\n    drop(t0);\n}\n",
        ),
    ]);
    assert!(post.is_empty(), "{post:#?}");
}

#[test]
fn check_then_expect_on_dispatch_regression() {
    // Pre-fix shape of the real control.rs / observer.rs / network.rs
    // violations: a lookup the caller "knows" succeeds, re-done with
    // `.expect()` on the dispatch path.
    let pre = analyze(&[(
        "crates/core/src/control.rs",
        "core",
        "pub fn on_notification(u: u32) {\n    \
         let t = lookup(u).expect(\"checked\");\n    drop(t);\n}\n\
         fn lookup(u: u32) -> Option<u32> {\n    Some(u)\n}\n",
    )]);
    assert_eq!(pre.len(), 1, "{pre:#?}");
    assert_eq!(pre[0].rule, "panic-path");
    assert_eq!(pre[0].symbol, "core::on_notification");

    // Post-fix shape: the let-else total form.
    let post = analyze(&[(
        "crates/core/src/control.rs",
        "core",
        "pub fn on_notification(u: u32) {\n    \
         let Some(t) = lookup(u) else {\n        return;\n    };\n    drop(t);\n}\n\
         fn lookup(u: u32) -> Option<u32> {\n    Some(u)\n}\n",
    )]);
    assert!(post.is_empty(), "{post:#?}");
}

#[test]
fn unused_interprocedural_allow_is_reported() {
    // Allow hygiene extends to the taint escape hatch: a generic
    // `allow(taint)` that cuts no edge is stale and must be deleted.
    let diags = analyze(&[(
        "crates/fabric/src/route.rs",
        "fabric",
        "pub fn route() {\n    \
         // invariants: allow(taint) — nothing here actually calls out\n    \
         let x = 1 + 1;\n    drop(x);\n}\n",
    )]);
    let got: Vec<(&str, u32)> = diags.iter().map(|d| (d.rule.as_str(), d.line)).collect();
    assert_eq!(got, vec![("unused-allow", 2)], "{diags:#?}");
}

#[test]
fn emulation_handlers_are_dispatch_roots() {
    // The live device's frame and initiation handlers run the same agent
    // the simulator dispatches into, so a panic site in either is audited
    // like one under `fabric::handle`.
    let diags = analyze(&[(
        "crates/emulation/src/device.rs",
        "emulation",
        "pub struct Device {\n    counts: Vec<u64>,\n}\n\
         impl Device {\n    \
         pub fn on_frame(&mut self, port: usize) {\n        self.counts[port] += 1;\n    }\n    \
         pub fn on_initiate(&mut self, port: usize) {\n        \
         if let Some(c) = self.counts.get_mut(port) {\n            *c += 1;\n        }\n    }\n}\n",
    )]);
    let got: Vec<(&str, &str, u32)> = diags
        .iter()
        .map(|d| (d.rule.as_str(), d.symbol.as_str(), d.line))
        .collect();
    assert_eq!(
        got,
        vec![("panic-path", "emulation::Device::on_frame", 6)],
        "{diags:#?}"
    );
}
