//! The deterministic `speedlight-profile/v1` artifact (and the merged
//! metrics JSON it travels with) must be byte-identical at every shard
//! count. Shards are an explicit simulation parameter, so one test
//! process sweeps {1, 2, 4}.
//!
//! The fig9-style scenario (leaf-spine testbed, Hadoop workload,
//! channel-state snapshots — the shape behind the paper's Fig. 9 sync
//! CDFs) is additionally pinned against a committed golden profile, so
//! any change to stall accounting, window math, or the profile writer
//! shows up as a reviewable diff. To re-bless after an *intentional*
//! change (and then update [`GOLDEN_DIGEST`], which a re-bless alone
//! cannot move):
//!
//! ```text
//! SPEEDLIGHT_BLESS=1 cargo test -p conformance --test profile_equivalence
//! ```

use conformance::runner::run_fabric_sharded_full;
use conformance::{matrix, Scenario};

/// Leaf-spine + Hadoop + channel-state: the matrix scenario closest to
/// the paper's Fig. 9 testbed.
const FIG9_SCENARIO: &str = "hadoop_ecmp_cs";

const GOLDEN_PATH: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/fig9_profile.json"
);

/// The digest the committed golden file carries.
const GOLDEN_DIGEST: &str = "bdb7d0744d55ffb0";

fn profile_at(sc: &Scenario, shards: usize) -> (String, String) {
    let (_, _, metrics, profile) = run_fabric_sharded_full(sc, shards);
    (metrics, profile)
}

#[test]
fn fig9_profile_is_shard_count_invariant() {
    let sc = Scenario::from_spec(matrix::spec(FIG9_SCENARIO)).expect("matrix spec parses");
    let (ref_metrics, ref_profile) = profile_at(&sc, 1);
    assert!(ref_profile.contains("speedlight-profile/v1"));
    assert!(obs::profile::extract_digest(&ref_profile).is_some());

    for shards in [2usize, 4] {
        let (metrics, profile) = profile_at(&sc, shards);
        assert!(
            profile == ref_profile,
            "profile diverges at {shards} shards"
        );
        assert!(metrics == ref_metrics, "metrics diverge at {shards} shards");
    }

    if std::env::var_os("SPEEDLIGHT_BLESS").is_some() {
        std::fs::write(GOLDEN_PATH, &ref_profile).expect("write golden profile");
        return;
    }

    let want = include_str!("golden/fig9_profile.json");
    assert_eq!(
        obs::profile::extract_digest(want).as_deref(),
        Some(GOLDEN_DIGEST),
        "golden profile was re-blessed without updating GOLDEN_DIGEST"
    );
    assert!(
        ref_profile == want,
        "profile diverged from golden file.\n\
         If the change is intentional, re-bless with\n\
         SPEEDLIGHT_BLESS=1 cargo test -p conformance --test profile_equivalence"
    );
}

/// The profile has to stay meaningful, not just stable: every external
/// domain row is present, windows advanced, and stall is bounded by the
/// trivial ceiling `windows × lookahead` per domain.
#[test]
fn fig9_profile_is_internally_consistent() {
    let sc = Scenario::from_spec(matrix::spec(FIG9_SCENARIO)).expect("matrix spec parses");
    let (_, profile) = profile_at(&sc, 2);

    let field = |line: &str, key: &str| -> Option<u64> {
        let rest = line.split(&format!("\"{key}\":")).nth(1)?.trim_start();
        let end = rest.find([',', ' ', '}']).unwrap_or(rest.len());
        rest.get(..end)?.parse().ok()
    };

    let mut windows = 0u64;
    let mut lookahead = 0u64;
    let mut devices = 0usize;
    let mut total_events = 0u64;
    for line in profile.lines() {
        if let Some(w) = field(line, "windows") {
            windows = w;
        }
        if let Some(l) = field(line, "lookahead_ns") {
            lookahead = l;
        }
        if line.contains("\"kind\":\"device\"") || line.contains("\"kind\":\"host\"") {
            devices += 1;
            let events = field(line, "events").expect("domain row has events");
            let stall = field(line, "stall_ns").expect("domain row has stall_ns");
            total_events += events;
            assert!(
                stall <= windows * lookahead,
                "stall {stall} exceeds windows×lookahead ceiling"
            );
        }
    }
    assert!(windows > 0, "run must close at least one window");
    assert!(lookahead > 0);
    assert!(devices >= 8, "leaf-spine testbed has switches and hosts");
    assert!(total_events > 0, "devices executed events");
}
