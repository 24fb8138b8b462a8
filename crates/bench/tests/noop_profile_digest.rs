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
//! Sharded: fig9 and fat_tree:8 must reproduce the committed sharded
//! snapshot digests at 2 and at 4 shards, and the fig9 profile written at
//! 2 and at 4 shards must be the same bytes and carry the committed
//! profile digest. The child runs exactly as a user's run does: one
//! thread, on any machine.

use std::process::Command;

/// `(what to run, serial snapshot digest at --seed 9)`.
const SERIAL_PINS: &[(&[&str], &str)] = &[
    (&["--scenario", "fig9"], "94f4c88c10ba015f"),
    (&["--scenario", "smoke"], "7dc7a4db56455a62"),
    (&["--topology", "fat_tree:8"], "1762f838ba1c32cc"),
];

/// `(what to run, sharded snapshot digest at --seed 9)`, each at
/// `--shards 2` and `--shards 4`.
const SHARDED_PINS: &[(&[&str], &str)] = &[
    (&["--topology", "fat_tree:8"], "23b6cafb5dcfc81c"),
    (&["--scenario", "fig9"], "04d8a6024b1a0519"),
];

const PINNED_FIG9_SHARDED_PROFILE_DIGEST: &str = "f949803f75ff8130";

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
fn sharded_digests_at_two_and_four_shards() {
    for (run, digest) in SHARDED_PINS {
        for shards in ["2", "4"] {
            let pin = ["--seed", "9", "--shards", shards, "--expect-digest", digest];
            bench_netsim(&[run, &pin[..]].concat());
        }
    }
}

/// Tracing and profiling ride the one run and must not move its digest.
#[test]
fn fig9_digest_holds_with_trace_and_profile_on() {
    let tmp = env!("CARGO_TARGET_TMPDIR");
    let trace = format!("{tmp}/fig9-pin-trace.jsonl");
    let profile = format!("{tmp}/fig9-pin-profile.json");
    let (run, digest) = SERIAL_PINS[0];
    let pin = ["--seed", "9", "--expect-digest", digest];
    let outs = ["--trace-out", &trace, "--profile-out", &profile];
    bench_netsim(&[run, &pin[..], &outs[..]].concat());
    let lines = std::fs::read_to_string(&trace).unwrap_or_else(|e| panic!("read {trace}: {e}"));
    assert!(lines.contains("\"ev\":\"trace.meta\""), "no trace header");
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
