//! The `bench_netsim` digest pins, run against the binary itself.
//!
//! Serial: with tracing at its default (`TraceSink::Off`) and no
//! `--profile-out`, fig9, smoke and the serial fat_tree:8 run must
//! reproduce the committed serial snapshot digests byte-for-byte. This is
//! the "no hot-path tax when disabled" contract: the profiler hooks
//! compile to a branch on a `None` option, and the digest pin proves they
//! never perturb the simulation. The fat-tree pin is also the one run
//! whose digest depends on the event queue holding `(time, insertion
//! order)` across same-instant bursts of thousands of events;
//! `fabric/tests/queue_order.rs` derives it from the reference queue.
//!
//! Sharded: the fig9 profile written at 2 and at 4 shards must be the
//! same bytes and carry the committed profile digest. The child resolves
//! its worker count from the OS like any user's run; the pin holds at any
//! count, which is the point.

use std::process::Command;

/// `(what to run, serial snapshot digest at --seed 9)`.
const SERIAL_PINS: &[(&[&str], &str)] = &[
    (&["--scenario", "fig9"], "94f4c88c10ba015f"),
    (&["--scenario", "smoke"], "7dc7a4db56455a62"),
    (&["--topology", "fat_tree:8"], "35debf7fe444bc6a"),
];

const PINNED_FIG9_SHARDED_PROFILE_DIGEST: &str = "73ad5b8b1f85e9d1";

fn bench_netsim(args: &[&str]) {
    let status = Command::new(env!("CARGO_BIN_EXE_bench_netsim"))
        .args(args)
        .status()
        .expect("run bench_netsim");
    assert!(status.success(), "bench_netsim {args:?} failed ({status})");
}

#[test]
fn serial_digests_with_profiling_disabled() {
    for (run, digest) in SERIAL_PINS {
        bench_netsim(&[run, &["--seed", "9", "--expect-digest", digest][..]].concat());
    }
}

#[test]
fn fig9_sharded_profile_is_shard_count_invariant() {
    let profile_at = |shards: &str| {
        let path = format!(
            "{}/fig9-s{shards}-profile.json",
            env!("CARGO_TARGET_TMPDIR")
        );
        bench_netsim(&[
            "--scenario",
            "fig9",
            "--seed",
            "9",
            "--shards",
            shards,
            "--profile-out",
            &path,
        ]);
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"))
    };
    let two = profile_at("2");
    assert!(two == profile_at("4"), "profile differs at 2 vs 4 shards");
    assert_eq!(
        obs::profile::extract_digest(&two).as_deref(),
        Some(PINNED_FIG9_SHARDED_PROFILE_DIGEST),
        "fig9 sharded profile digest moved"
    );
}
