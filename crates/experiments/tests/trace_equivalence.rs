//! Trace determinism across worker counts: the merged JSONL trace of the
//! fig. 12 grid must be byte-identical at any worker count.
//!
//! This is the observability analogue of `parallel_equivalence`: each grid
//! cell buffers its own trace, and `fig12::grid_trace` merges the per-cell
//! buffers in input order, so neither scheduling nor worker count may leak
//! into the output.

use experiments::fig12;
use netsim::time::Duration;

fn small() -> fig12::Fig12Config {
    fig12::Fig12Config {
        duration: Duration::from_millis(60),
        snapshot_period: Duration::from_millis(2),
        poll_period: Duration::from_millis(5),
        warmup: Duration::from_millis(20),
        flowlet_gap_us: 60,
        seed: 12,
    }
}

#[test]
fn fig12_trace_is_byte_identical_across_job_counts() {
    let cfg = small();
    let serial = parfan::with_jobs(1, || fig12::grid_trace(&cfg));
    let two = parfan::with_jobs(2, || fig12::grid_trace(&cfg));
    let four = parfan::with_jobs(4, || fig12::grid_trace(&cfg));

    assert!(!serial.is_empty(), "trace must not be empty");
    // Six cells, each opening with its own trace.meta header.
    assert_eq!(
        serial
            .iter()
            .filter(|l| l.contains("\"trace.meta\""))
            .count(),
        6
    );
    assert!(serial[0].contains("\"trace.meta\""));

    assert_eq!(serial, two, "jobs=1 vs jobs=2 trace diverged");
    assert_eq!(serial, four, "jobs=1 vs jobs=4 trace diverged");
}
