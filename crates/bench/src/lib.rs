//! Benchmark harness for Speedlight-rs.
//!
//! Binaries (`cargo run --release -p bench --bin <name>`) regenerate the
//! paper's evaluation artifacts:
//!
//! | binary | artifact |
//! |--------|----------|
//! | `table1` | Table 1 — Tofino resource usage |
//! | `fig9` | Fig. 9 — synchronization CDFs |
//! | `fig10` | Fig. 10 — max sustained snapshot rate |
//! | `fig11` | Fig. 11 — synchronization vs network size |
//! | `fig12` | Fig. 12 — load-balance stddev CDFs |
//! | `fig13` | Fig. 13 — Spearman correlation study |
//! | `ablations` | beyond-paper design ablations |
//!
//! Speed numbers come from one place: the `benchmark` binary declared in
//! `BENCHMARK.json` (manual in `src/bin/benchmark/README.md`).
//! `bench_netsim` runs one seeded scenario once and pins its snapshot
//! digest; `speedlight-trace` reads the traces it writes.

#![forbid(unsafe_code)]

pub mod trace;
