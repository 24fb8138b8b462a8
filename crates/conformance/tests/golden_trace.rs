//! Golden-trace tests: small scenarios' snapshot-lifecycle traces are
//! pinned byte-for-byte — one healthy channel-state run, and one
//! clock-skew run exercising every PTP degradation knob.
//!
//! The traces are pure sim-time JSONL, so any change to protocol event
//! ordering, event vocabulary, field layout, or the JSON writer shows up
//! here as a diff. To re-bless after an *intentional* change:
//!
//! ```text
//! SPEEDLIGHT_BLESS=1 cargo test -p conformance --test golden_trace
//! ```
//!
//! then review `git diff` on the golden files before committing them.

use conformance::runner::{run_fabric_sharded_full, run_fabric_traced};
use conformance::scenario::Scenario;

const SPEC: &str = "topo=line:2;wl=cbr;lb=ecmp;cs=1;mod=16;snaps=2;ival=2;seed=0x60de";
const GOLDEN_PATH: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/line2_cs_trace.jsonl"
);

const SKEW_SPEC: &str = "topo=line:2;wl=cbr;lb=ecmp;cs=0;mod=16;snaps=3;ival=3;\
                         ptpdrift=50000;ptpstep=1@4:300;ptpasym=80;seed=0x5ce1";
const SKEW_GOLDEN_PATH: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/line2_ptp_skew_trace.jsonl"
);

#[test]
fn line2_channel_state_trace_matches_golden() {
    let sc = Scenario::from_spec(SPEC).expect("golden spec is valid");
    let (run, divergences, lines) = run_fabric_traced(&sc);
    assert!(divergences.is_empty(), "golden scenario must be conformant");
    assert_eq!(run.snapshots.len(), sc.snapshots);
    assert!(!lines.is_empty());

    let mut got = lines.join("\n");
    got.push('\n');

    if std::env::var_os("SPEEDLIGHT_BLESS").is_some() {
        std::fs::write(GOLDEN_PATH, &got).expect("write golden trace");
        return;
    }

    let want = include_str!("golden/line2_cs_trace.jsonl");
    assert!(
        got == want,
        "trace diverged from golden file ({} vs {} lines).\n\
         If the change is intentional, re-bless with\n\
         SPEEDLIGHT_BLESS=1 cargo test -p conformance --test golden_trace",
        got.lines().count(),
        want.lines().count(),
    );
}

const SHARDED_GOLDEN_PATH: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/line2_cs_sharded_trace.jsonl"
);

/// Sharded-engine variant of the healthy channel-state golden: the
/// merged trace is pinned byte-for-byte and must be identical at 1, 2,
/// and 4 shards, along with the merged metrics JSON. The sharded merge
/// order differs from the serial scheduler's insertion order, so this is
/// a separate golden file — but the event *content* is the same
/// lifecycle vocabulary the serial golden pins.
#[test]
fn line2_channel_state_sharded_trace_matches_golden() {
    let sc = Scenario::from_spec(SPEC).expect("golden spec is valid");
    let (run, lines, metrics, _) = run_fabric_sharded_full(&sc, 1);
    assert_eq!(run.snapshots.len(), sc.snapshots);
    assert!(!lines.is_empty());

    let mut got = lines.join("\n");
    got.push('\n');

    for shards in [2usize, 4] {
        let (_, other_lines, other_metrics, _) = run_fabric_sharded_full(&sc, shards);
        let mut other = other_lines.join("\n");
        other.push('\n');
        assert!(
            other == got,
            "sharded trace diverges at {shards} shards ({} vs {} lines)",
            other.lines().count(),
            got.lines().count(),
        );
        assert!(
            other_metrics == metrics,
            "sharded metrics diverge at {shards} shards"
        );
    }

    if std::env::var_os("SPEEDLIGHT_BLESS").is_some() {
        std::fs::write(SHARDED_GOLDEN_PATH, &got).expect("write sharded golden trace");
        return;
    }

    let want = include_str!("golden/line2_cs_sharded_trace.jsonl");
    assert!(
        got == want,
        "sharded trace diverged from golden file ({} vs {} lines).\n\
         If the change is intentional, re-bless with\n\
         SPEEDLIGHT_BLESS=1 cargo test -p conformance --test golden_trace",
        got.lines().count(),
        want.lines().count(),
    );
}

/// Clock-skew variant: holdover drift + a mid-run offset step + path
/// asymmetry all shift initiation *timing*, and the pinned trace proves
/// the shifted schedule is itself deterministic — the degradation model
/// never touches the RNG stream, only the initiation target times.
#[test]
fn line2_ptp_skew_trace_matches_golden() {
    let sc = Scenario::from_spec(SKEW_SPEC).expect("skew golden spec is valid");
    assert!(sc.has_ptp_degradation());
    let (run, divergences, lines) = run_fabric_traced(&sc);
    // Bounded skew only delays markers; the oracle stays fully strict.
    assert!(divergences.is_empty(), "skew scenario must be conformant");
    assert_eq!(run.snapshots.len(), sc.snapshots);
    assert!(!lines.is_empty());

    let mut got = lines.join("\n");
    got.push('\n');

    if std::env::var_os("SPEEDLIGHT_BLESS").is_some() {
        std::fs::write(SKEW_GOLDEN_PATH, &got).expect("write skew golden trace");
        return;
    }

    let want = include_str!("golden/line2_ptp_skew_trace.jsonl");
    assert!(
        got == want,
        "clock-skew trace diverged from golden file ({} vs {} lines).\n\
         If the change is intentional, re-bless with\n\
         SPEEDLIGHT_BLESS=1 cargo test -p conformance --test golden_trace",
        got.lines().count(),
        want.lines().count(),
    );
}
