//! Profiling-off regression gate: with tracing at its default
//! (`TraceSink::Off`) and no `--profile-out`, the full fig9 scenario must reproduce the
//! committed serial snapshot digest byte-for-byte and pass the
//! `--check` regression gate against the committed baseline. This is
//! the "no hot-path tax when disabled" contract: the profiler hooks
//! compile to a branch on a `None` option, and the digest pin proves
//! they never perturb the simulation.

use std::process::Command;

const PINNED_FIG9_DIGEST: &str = "94f4c88c10ba015f";

fn repo_file(rel: &str) -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(rel)
}

#[test]
fn fig9_serial_digest_and_check_gate_with_profiling_disabled() {
    let dir = std::env::temp_dir().join("speedlight-noop-profile-test");
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let out = dir.join("bench-fig9.json");
    let metrics_out = dir.join("bench-fig9-metrics.json");

    // --threshold 0.95 keeps the *gate machinery* exercised while
    // tolerating debug-profile builds: the committed baseline was
    // measured in release, and this test also runs under `cargo test`
    // without optimizations. CI's bench-smoke job runs the tight
    // release-mode threshold.
    let status = Command::new(env!("CARGO_BIN_EXE_bench_netsim"))
        .args([
            "--scenario",
            "fig9",
            "--seed",
            "9",
            "--trials",
            "1",
            "--expect-digest",
            PINNED_FIG9_DIGEST,
            "--threshold",
            "0.95",
        ])
        .arg("--out")
        .arg(&out)
        .arg("--metrics-out")
        .arg(&metrics_out)
        .arg("--check")
        .arg(repo_file("BENCH_netsim.json"))
        .status()
        .expect("run bench_netsim");
    assert!(
        status.success(),
        "bench_netsim digest pin or check gate failed (exit {status})"
    );

    let report = std::fs::read_to_string(&out).expect("read bench report");
    assert!(
        report.contains(PINNED_FIG9_DIGEST),
        "report must carry the pinned serial digest"
    );
    assert!(
        !report.contains("\"profile\""),
        "no profile section when --profile-out is absent"
    );
}
