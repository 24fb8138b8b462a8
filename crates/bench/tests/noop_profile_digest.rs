//! Profiling-off digest pin: with tracing at its default
//! (`TraceSink::Off`) and no `--profile-out`, the full fig9 scenario must
//! reproduce the committed serial snapshot digest byte-for-byte. This is
//! the "no hot-path tax when disabled" contract: the profiler hooks
//! compile to a branch on a `None` option, and the digest pin proves
//! they never perturb the simulation.

use std::process::Command;

const PINNED_FIG9_DIGEST: &str = "94f4c88c10ba015f";

#[test]
fn fig9_serial_digest_with_profiling_disabled() {
    let status = Command::new(env!("CARGO_BIN_EXE_bench_netsim"))
        .args([
            "--scenario",
            "fig9",
            "--seed",
            "9",
            "--expect-digest",
            PINNED_FIG9_DIGEST,
        ])
        .status()
        .expect("run bench_netsim");
    assert!(
        status.success(),
        "bench_netsim digest pin failed (exit {status})"
    );
}
