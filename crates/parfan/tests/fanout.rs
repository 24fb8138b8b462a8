//! parfan unit suite: input-order preservation, panic propagation with the
//! job label, `with_jobs` scoping, and the serial fallback.

use parfan::{map, map_cfg, map_labeled, resolved_jobs, with_jobs, Config};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};

fn cfg(jobs: usize, chunk: usize) -> Config {
    Config { jobs, chunk }
}

#[test]
fn results_preserve_input_order() {
    let items: Vec<u64> = (0..97).collect();
    for jobs in [1, 2, 3, 8, 200] {
        for chunk in [0, 1, 5, 64, 1000] {
            let got = map_cfg(
                cfg(jobs, chunk),
                &items,
                |i, _| format!("#{i}"),
                |i, &x| x * 1_000 + i as u64,
            );
            let want: Vec<u64> = items
                .iter()
                .enumerate()
                .map(|(i, &x)| x * 1_000 + i as u64)
                .collect();
            assert_eq!(got, want, "jobs={jobs} chunk={chunk}");
        }
    }
}

#[test]
fn empty_and_single_item_inputs() {
    let empty: Vec<u32> = Vec::new();
    assert_eq!(map(&empty, |_, &x| x), Vec::<u32>::new());
    assert_eq!(
        map_cfg(cfg(8, 3), &[42u32], |_, _| "x".into(), |_, &x| x),
        vec![42]
    );
}

#[test]
fn parallel_panic_carries_index_and_label() {
    let items: Vec<u64> = (0..32).collect();
    let err = catch_unwind(AssertUnwindSafe(|| {
        map_cfg(
            cfg(4, 1),
            &items,
            |i, &x| format!("seed 0x{:x} job {i}", x ^ 0xBEEF),
            |_, &x| {
                if x == 7 {
                    panic!("simulated failure at {x}");
                }
                x
            },
        )
    }))
    .expect_err("a worker panic must propagate to the caller");
    let msg = err
        .downcast_ref::<String>()
        .expect("re-raised panic carries a String payload");
    assert!(msg.contains("job #7"), "missing index: {msg}");
    assert!(msg.contains("seed 0xbee8"), "missing label: {msg}");
    assert!(
        msg.contains("simulated failure at 7"),
        "missing cause: {msg}"
    );
}

#[test]
fn multiple_panics_report_a_failing_job() {
    // Several jobs fail concurrently: the re-raised panic names one of the
    // genuinely failing (odd) indices — never a healthy job — and is the
    // lowest index among those captured before the run was poisoned.
    let items: Vec<u64> = (0..64).collect();
    for _ in 0..8 {
        let err = catch_unwind(AssertUnwindSafe(|| {
            map_cfg(
                cfg(8, 1),
                &items,
                |i, _| format!("#{i}"),
                |_, &x| {
                    if x % 2 == 1 {
                        panic!("odd {x}");
                    }
                    x
                },
            )
        }))
        .expect_err("panics must propagate");
        let msg = err.downcast_ref::<String>().expect("String payload");
        let idx: u64 = msg
            .strip_prefix("parfan job #")
            .and_then(|m| m.split_whitespace().next())
            .and_then(|n| n.parse().ok())
            .unwrap_or_else(|| panic!("unparseable report: {msg}"));
        assert!(idx % 2 == 1, "reported job #{idx} did not fail: {msg}");
    }
}

#[test]
fn serial_path_spawns_no_trampoline_and_preserves_panic_payload() {
    // At jobs=1 the panic payload reaches the caller verbatim (no
    // re-wrapping), exactly as an inline loop would behave.
    let err = catch_unwind(AssertUnwindSafe(|| {
        map_cfg(
            cfg(1, 0),
            &[1u32, 2, 3],
            |i, _| format!("#{i}"),
            |_, &x| {
                if x == 2 {
                    panic!("raw payload");
                }
                x
            },
        )
    }))
    .expect_err("panic must propagate");
    let msg = err.downcast_ref::<&str>().expect("verbatim &str payload");
    assert_eq!(*msg, "raw payload");
}

#[test]
fn serial_path_stops_at_first_panic() {
    let ran = AtomicUsize::new(0);
    let _ = catch_unwind(AssertUnwindSafe(|| {
        map_cfg(
            cfg(1, 0),
            &[0u32, 1, 2, 3],
            |i, _| format!("#{i}"),
            |_, &x| {
                ran.fetch_add(1, Ordering::SeqCst);
                if x == 1 {
                    panic!("stop");
                }
                x
            },
        )
    }));
    assert_eq!(
        ran.load(Ordering::SeqCst),
        2,
        "jobs after the panic must not run"
    );
}

#[test]
fn with_jobs_overrides_and_restores() {
    let outer = resolved_jobs();
    let inner = with_jobs(3, resolved_jobs);
    assert_eq!(inner, 3);
    assert_eq!(resolved_jobs(), outer, "override must not leak");
    // Nested overrides: innermost wins, each restored on exit.
    with_jobs(2, || {
        assert_eq!(resolved_jobs(), 2);
        with_jobs(5, || assert_eq!(resolved_jobs(), 5));
        assert_eq!(resolved_jobs(), 2);
    });
    // Restored even when the body unwinds.
    let _ = catch_unwind(AssertUnwindSafe(|| with_jobs(7, || panic!("boom"))));
    assert_eq!(resolved_jobs(), outer);
}

#[test]
fn jobs_one_fallback_is_bit_identical_to_parallel() {
    // The determinism contract in one assertion: a pure seeded job list
    // produces the same bytes at jobs=1 and jobs=4.
    let items: Vec<u64> = (0..40).collect();
    let f = |i: usize, seed: &u64| -> Vec<u64> {
        // A toy "simulation": a few splitmix-ish steps from the job's seed.
        let mut s = seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        (0..8)
            .map(|_| {
                s = s
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                s
            })
            .collect()
    };
    let serial = with_jobs(1, || map(&items, f));
    let parallel = with_jobs(4, || map(&items, f));
    assert_eq!(serial, parallel);
}

#[test]
fn labels_are_lazy_and_only_built_on_panic() {
    // Label closures run only for panicked jobs, so an expensive label
    // can't slow the happy path.
    let labeled = AtomicUsize::new(0);
    let items: Vec<u32> = (0..50).collect();
    let out = map_cfg(
        cfg(4, 4),
        &items,
        |_, _| {
            labeled.fetch_add(1, Ordering::SeqCst);
            String::new()
        },
        |_, &x| x,
    );
    assert_eq!(out.len(), 50);
    assert_eq!(labeled.load(Ordering::SeqCst), 0);
}

#[test]
fn map_labeled_smoke() {
    let out = map_labeled(&[10u32, 20], |i, &x| format!("{i}/{x}"), |_, &x| x + 1);
    assert_eq!(out, vec![11, 21]);
}
