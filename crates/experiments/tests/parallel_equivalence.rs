//! Serial-vs-parallel equivalence: every parallelized experiment must
//! produce byte-identical results at any worker count.
//!
//! Equality is checked on the `Debug` rendering of the full result structs,
//! which covers every field (including the raw sorted CDF samples) bit for
//! bit — f64s format losslessly enough to distinguish any accumulation-order
//! difference, and a mismatch fails with a readable diff. Worker counts are
//! pinned with `parfan::with_jobs`, a per-thread scope, so the comparison
//! is the same on any machine.

use experiments::{fig11, fig12, fig9};
use fabric::topology::LbKind;
use netsim::time::Duration;

fn fig9_small() -> fig9::Fig9Config {
    fig9::Fig9Config {
        snapshots: 30,
        sweeps: 20,
        period: Duration::from_millis(3),
        seed: 9,
    }
}

fn fig12_small() -> fig12::Fig12Config {
    fig12::Fig12Config {
        duration: Duration::from_millis(150),
        snapshot_period: Duration::from_millis(2),
        poll_period: Duration::from_millis(5),
        warmup: Duration::from_millis(40),
        flowlet_gap_us: 60,
        seed: 12,
    }
}

#[test]
fn fig9_parallel_matches_serial() {
    let cfg = fig9_small();
    let serial = parfan::with_jobs(1, || format!("{:?}", fig9::run(&cfg)));
    let parallel = parfan::with_jobs(4, || format!("{:?}", fig9::run(&cfg)));
    assert_eq!(serial, parallel);
}

#[test]
fn fig11_parallel_matches_serial() {
    let cfg = fig11::Fig11Config {
        router_counts: vec![10, 100, 1_000],
        units_per_router: 64,
        trials: 5,
        seed: 11,
    };
    let serial = parfan::with_jobs(1, || format!("{:?}", fig11::run(&cfg)));
    let parallel = parfan::with_jobs(4, || format!("{:?}", fig11::run(&cfg)));
    assert_eq!(serial, parallel);
}

#[test]
fn fig12_parallel_matches_serial() {
    let cfg = fig12_small();
    let serial = parfan::with_jobs(1, || format!("{:?}", fig12::run(&cfg)));
    let parallel = parfan::with_jobs(4, || format!("{:?}", fig12::run(&cfg)));
    assert_eq!(serial, parallel);
}

#[test]
fn concurrent_fig12_cells_do_not_alias_state() {
    // Regression test for the hidden-shared-state audit: a grid cell run
    // concurrently with a different cell must equal the same cell run
    // alone. If cell setup leaked state between jobs (shared RNG, shared
    // builder scratch), the co-scheduled run would diverge.
    use experiments::common::Workload;
    let cfg = fig12_small();
    let alone = format!(
        "{:?}",
        fig12::run_cell(&cfg, Workload::Hadoop, LbKind::Ecmp)
    );
    let cells = [
        (Workload::Hadoop, LbKind::Ecmp),
        (Workload::Memcache, LbKind::Flowlet { gap_us: 60 }),
    ];
    let co_scheduled = parfan::with_jobs(2, || {
        parfan::map(&cells, |_, &(w, lb)| {
            format!("{:?}", fig12::run_cell(&cfg, w, lb))
        })
    });
    assert_eq!(co_scheduled[0], alone);
}
