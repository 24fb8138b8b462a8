//! Deterministic parallel fan-out.
//!
//! Every evaluation surface in this repository — figure sweeps,
//! conformance scenarios, bench trials — is a list of *independent seeded
//! simulations*: each job builds its own testbed, forks its own RNG from
//! its own seed, and shares no mutable state with its siblings. This crate
//! fans such job lists across cores while keeping the one property the
//! whole reproduction rests on: **the results are byte-identical to a
//! serial run**, whatever the worker count, chunk size, or OS schedule.
//!
//! The contract, precisely:
//!
//! * **Input-order results.** [`map`] returns `results[i] = f(i, &items[i])`
//!   — a parallel evaluation of the obvious sequential map, never a
//!   completion-order collection.
//! * **Zero behavior change at `jobs = 1`.** The serial path runs `f` on
//!   the calling thread with no spawns and no panic trampoline; a panic
//!   unwinds exactly as it would in a `for` loop.
//! * **Panics carry the job's label.** With `jobs > 1` a worker panic is
//!   captured and re-raised on the caller as `parfan job #<i> (<label>)
//!   panicked: <message>`; when several jobs panic in the same run, the
//!   lowest captured input index is the one re-raised (deterministic
//!   whenever a single job is at fault).
//! * **No shared mutable state.** `f` gets `(index, &item)` and must
//!   derive everything else (RNGs included) from them; the type signature
//!   (`F: Sync`, `T: Sync`) refuses closures that capture `&mut`.
//!
//! Worker count resolves, in order: a scoped [`with_jobs`] override (used
//! by the serial-vs-parallel equality tests), then
//! [`std::thread::available_parallelism`]. There is no knob: a value that
//! cannot change any output is a resource limit, and the OS already has
//! the controls for that (`taskset`, cgroup CPU quotas), which
//! `available_parallelism` honours. Workers claim fixed-size chunks of
//! the index space from a shared atomic cursor — work-stealing
//! granularity without any ordering consequence.
//!
//! No entry point reads the wall clock, so the conformance and sweep
//! paths that feed digests are clock-free end to end; speedups are
//! measured from outside, by `crates/bench`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod digest;

use std::any::Any;
use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;

thread_local! {
    static JOBS_OVERRIDE: Cell<Option<usize>> = const { Cell::new(None) };
}

/// Fan-out configuration. `Default` resolves the worker count via
/// [`resolved_jobs`] and picks the chunk size automatically.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    /// Worker threads (clamped to ≥ 1 and to the job count).
    pub jobs: usize,
    /// Indices claimed per cursor fetch; `0` = automatic (≈ 4 chunks per
    /// worker, so stragglers can be stolen around).
    pub chunk: usize,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            jobs: resolved_jobs(),
            chunk: 0,
        }
    }
}

/// A captured worker panic: job index, human-readable label, raw payload.
type CapturedPanic = (usize, String, Box<dyn Any + Send>);

/// The worker count fan-outs use by default: the innermost [`with_jobs`]
/// override if any, else the parallelism the OS makes available to this
/// process (affinity mask and cgroup CPU quota included, so `taskset -c 0`
/// forces the strictly serial path).
pub fn resolved_jobs() -> usize {
    if let Some(n) = JOBS_OVERRIDE.with(Cell::get) {
        return n.max(1);
    }
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Run `f` with the default worker count pinned to `jobs` on this thread
/// (restored on exit, even across unwinds). This is how the equality
/// tests compare `jobs = 1` against `jobs = 4` on any machine.
pub fn with_jobs<R>(jobs: usize, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<usize>);
    impl Drop for Restore {
        fn drop(&mut self) {
            JOBS_OVERRIDE.with(|c| c.set(self.0));
        }
    }
    let _restore = Restore(JOBS_OVERRIDE.with(|c| c.replace(Some(jobs))));
    f()
}

/// Parallel map with default configuration and index-only job labels.
/// `results[i] == f(i, &items[i])`, independent of worker count.
pub fn map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    map_labeled(items, |i, _| format!("job #{i}"), f)
}

/// [`map`] with a caller-supplied label per job (put the seed in it: the
/// label is what a captured panic is re-raised with).
pub fn map_labeled<T, R, F, L>(items: &[T], label: L, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
    L: Fn(usize, &T) -> String + Sync,
{
    map_cfg(Config::default(), items, label, f)
}

/// The full-control entry point: explicit worker count and chunk size.
pub fn map_cfg<T, R, F, L>(cfg: Config, items: &[T], label: L, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
    L: Fn(usize, &T) -> String + Sync,
{
    let jobs = cfg.jobs.max(1).min(items.len().max(1));
    if jobs <= 1 {
        // The strictly serial path: no threads, no `catch_unwind` — a
        // panic in `f` unwinds exactly as an inline `for` loop would.
        return items
            .iter()
            .enumerate()
            .map(|(i, item)| f(i, item))
            .collect();
    }
    let chunk = if cfg.chunk == 0 {
        (items.len() / (jobs * 4)).max(1)
    } else {
        cfg.chunk
    };

    let cursor = AtomicUsize::new(0);
    let poisoned = AtomicBool::new(false);
    // One slot per job, filled exactly once by whichever worker claims the
    // index — input order falls out of indexing, not completion order.
    let slots: Vec<Mutex<Option<R>>> = (0..items.len()).map(|_| Mutex::new(None)).collect();
    let panics: Mutex<Vec<CapturedPanic>> = Mutex::new(Vec::new());

    std::thread::scope(|scope| {
        for _ in 0..jobs {
            scope.spawn(|| {
                loop {
                    if poisoned.load(Ordering::Acquire) {
                        return;
                    }
                    let start = cursor.fetch_add(chunk, Ordering::Relaxed);
                    if start >= items.len() {
                        return;
                    }
                    let end = (start + chunk).min(items.len());
                    for i in start..end {
                        if poisoned.load(Ordering::Acquire) {
                            return;
                        }
                        let item = &items[i];
                        // `f` is `Sync` over shared borrows, so the only
                        // unwind-safety question is observing `item` after
                        // a sibling's panic — and a poisoned run never
                        // reads any slot back.
                        match catch_unwind(AssertUnwindSafe(|| f(i, item))) {
                            Ok(r) => {
                                *slots[i].lock().expect("slot lock") = Some(r);
                            }
                            Err(payload) => {
                                poisoned.store(true, Ordering::Release);
                                panics.lock().expect("panic lock").push((
                                    i,
                                    label(i, item),
                                    payload,
                                ));
                                return;
                            }
                        }
                    }
                }
            });
        }
    });

    let mut captured = panics.into_inner().expect("panic lock");
    if !captured.is_empty() {
        // Deterministic failure report: the lowest input index wins, no
        // matter which worker hit it first.
        captured.sort_by_key(|(i, _, _)| *i);
        let (index, label, payload) = captured.swap_remove(0);
        panic!(
            "parfan job #{index} ({label}) panicked: {}",
            payload_message(&payload)
        );
    }

    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("slot lock")
                .expect("non-poisoned fan-out fills every slot")
        })
        .collect()
}

/// Best-effort text of a panic payload (`&str` and `String` payloads cover
/// every `panic!`/`assert!` in the workspace).
fn payload_message(payload: &Box<dyn Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}
