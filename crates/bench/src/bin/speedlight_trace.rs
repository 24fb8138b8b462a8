//! `speedlight-trace`: human-readable views over a snapshot-lifecycle
//! JSONL trace (as produced by `bench_netsim --trace-out <path>`,
//! `Testbed::enable_trace`, or the conformance golden files).
//!
//! ```text
//! cargo run -p bench --bin speedlight-trace -- [subcommand] <trace.jsonl> [sections]
//!
//! subcommands:
//!   analyze        per-epoch latency breakdown (initiation fan-out,
//!                  collection, seal) reconstructed from the causal chain
//!   critical-path  per-epoch slowest chain with device hops, plus the
//!                  marker-fanout depth histogram
//!
//! sections (default view, no subcommand):
//!   --epochs      per-epoch timeline (initiate → save → report → complete)
//!   --devices     per-device event-kind counts
//!   --histograms  completion-latency and queue-depth histogram tables
//! ```
//!
//! With no subcommand and no section flags, all three sections print.

use bench::trace::{analyze, fanout_histogram, parse_trace, EpochAnalysis, TraceEvent};
use obs::json::{field, JsonValue};
use obs::metrics::{Histogram, DEPTH_BOUNDS, LATENCY_BOUNDS_NS};
use std::collections::BTreeMap;
use std::process::ExitCode;

fn fmt_value(v: &JsonValue) -> String {
    match v {
        JsonValue::U64(n) => n.to_string(),
        JsonValue::I64(n) => n.to_string(),
        JsonValue::Bool(b) => b.to_string(),
        JsonValue::Str(s) => s.clone(),
    }
}

/// `12_345_678` ns → `12.346ms`-style human time.
fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.3}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.3}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.1}us", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

fn epoch_of(ev: &TraceEvent) -> Option<u64> {
    field(&ev.fields, "epoch").and_then(|v| v.as_u64())
}

fn device_of(ev: &TraceEvent) -> Option<u64> {
    field(&ev.fields, "dev").and_then(|v| v.as_u64())
}

fn print_epochs(events: &[TraceEvent]) {
    let mut by_epoch: BTreeMap<u64, Vec<&TraceEvent>> = BTreeMap::new();
    for ev in events {
        if let Some(e) = epoch_of(ev) {
            by_epoch.entry(e).or_default().push(ev);
        }
    }
    println!("== per-epoch timeline ==");
    if by_epoch.is_empty() {
        println!("  (no epoch-tagged events)");
        return;
    }
    for (epoch, evs) in &by_epoch {
        let start = evs.iter().map(|e| e.t_ns).min().unwrap_or(0);
        let complete = evs.iter().find(|e| e.name == "snap.complete");
        let span = match complete {
            Some(c) => format!("completed in {}", fmt_ns(c.t_ns.saturating_sub(start))),
            None => "incomplete".to_string(),
        };
        println!("epoch {epoch} ({span})");
        // Collapse the per-unit flood: milestones individually, bulk
        // event kinds as (first seen, count); rows sort by time.
        let mut rows: Vec<(u64, String)> = Vec::new();
        let mut bulk: BTreeMap<&str, (u64, u64)> = BTreeMap::new();
        for ev in evs {
            match ev.name.as_str() {
                "snap.initiate" | "snap.complete" | "snap.reinitiate" | "snap.exclude"
                | "obs.finalize" | "cp.inconsistent" => {
                    let detail: Vec<String> = ev
                        .fields
                        .iter()
                        .filter(|(k, _)| k != "t" && k != "ev" && k != "epoch")
                        .map(|(k, v)| format!("{k}={}", fmt_value(v)))
                        .collect();
                    rows.push((ev.t_ns, format!("{:<16} {}", ev.name, detail.join(" "))));
                }
                name => {
                    let slot = bulk.entry(name).or_insert((ev.t_ns, 0));
                    slot.1 += 1;
                }
            }
        }
        for (name, (first, count)) in &bulk {
            rows.push((*first, format!("{name:<16} x{count} (first arrival)")));
        }
        rows.sort_by(|a, b| (a.0, &a.1).cmp(&(b.0, &b.1)));
        for (t, text) in &rows {
            println!("  {:>12}  {text}", fmt_ns(*t));
        }
    }
}

fn print_devices(events: &[TraceEvent]) {
    let mut by_dev: BTreeMap<u64, BTreeMap<&str, u64>> = BTreeMap::new();
    for ev in events {
        if let Some(d) = device_of(ev) {
            *by_dev.entry(d).or_default().entry(&ev.name).or_insert(0) += 1;
        }
    }
    println!("\n== per-device summary ==");
    if by_dev.is_empty() {
        println!("  (no device-tagged events)");
        return;
    }
    for (dev, kinds) in &by_dev {
        let total: u64 = kinds.values().sum();
        let detail: Vec<String> = kinds.iter().map(|(k, n)| format!("{k}={n}")).collect();
        println!("device {dev}: {total} events  [{}]", detail.join(" "));
    }
}

fn print_histogram(title: &str, unit_is_time: bool, h: &Histogram) {
    println!("\n{title} ({} samples)", h.count());
    if h.count() == 0 {
        println!("  (empty)");
        return;
    }
    let max = h.counts().iter().copied().max().unwrap_or(1).max(1);
    let mut lo = 0u64;
    for (i, &n) in h.counts().iter().enumerate() {
        let label = match h.bounds().get(i) {
            Some(&hi) if unit_is_time => format!("{:>10} ..= {:<10}", fmt_ns(lo), fmt_ns(hi)),
            Some(&hi) => format!("{lo:>10} ..= {hi:<10}"),
            None if unit_is_time => format!("{:>10} ..  {:<10}", fmt_ns(lo), "inf"),
            None => format!("{lo:>10} ..  {:<10}", "inf"),
        };
        let bar = "#".repeat(((n * 40).div_ceil(max)) as usize);
        println!("  {label} {n:>8} {bar}");
        lo = h.bounds().get(i).map_or(lo, |&b| b + 1);
    }
    // Exact nearest-rank quantiles (bucket upper bounds; `inf` when the
    // rank lands in the overflow bucket).
    let q = |p: u64| {
        h.quantile(p).map_or_else(
            || "inf".to_string(),
            |v| {
                if unit_is_time {
                    fmt_ns(v)
                } else {
                    v.to_string()
                }
            },
        )
    };
    println!("  p50<={} p90<={} p99<={}", q(50), q(90), q(99));
}

fn print_analyze(analyses: &[EpochAnalysis]) {
    println!("== per-epoch latency breakdown ==");
    if analyses.is_empty() {
        println!("  (no snap.initiate events)");
        return;
    }
    let opt = |v: Option<u64>| v.map_or_else(|| "-".to_string(), fmt_ns);
    for a in analyses {
        let status = if a.finalize_t.is_none() {
            "unsealed".to_string()
        } else if a.forced {
            format!("FORCED, {} excluded", a.excluded)
        } else {
            "clean".to_string()
        };
        println!(
            "epoch {:>3}  total={:>10}  fanout={:>10}  collect={:>10}  seal={:>10}  \
             reports={:>3}  devices={}  {}{}",
            a.epoch,
            opt(a.total_ns()),
            opt(a.fanout_ns()),
            opt(a.collect_ns()),
            opt(a.seal_ns()),
            a.report_arrivals.len(),
            a.devices,
            status,
            if a.reinitiations > 0 {
                format!(", reinitiated x{}", a.reinitiations)
            } else {
                String::new()
            },
        );
    }
}

fn print_critical_path(analyses: &[EpochAnalysis]) {
    println!("== per-epoch critical path (slowest chain) ==");
    if analyses.is_empty() {
        println!("  (no snap.initiate events)");
        return;
    }
    for a in analyses {
        println!(
            "epoch {} ({}):",
            a.epoch,
            a.total_ns().map_or_else(|| "unsealed".into(), fmt_ns)
        );
        let hops = a.critical_path();
        let mut prev = None;
        for hop in &hops {
            let delta = match prev {
                Some(p) => format!("+{}", fmt_ns(hop.t_ns.saturating_sub(p))),
                None => String::new(),
            };
            println!("  {:>12}  {:<24} {delta}", fmt_ns(hop.t_ns), hop.label);
            prev = Some(hop.t_ns);
        }
    }
    print_histogram(
        "marker fanout per (epoch, device)",
        false,
        &fanout_histogram(analyses),
    );
}

fn print_histograms(events: &[TraceEvent]) {
    println!("\n== histograms ==");
    let mut latency = Histogram::new(&LATENCY_BOUNDS_NS);
    let mut depth = Histogram::new(&DEPTH_BOUNDS);
    for ev in events {
        match ev.name.as_str() {
            "snap.complete" => {
                if let Some(d) = field(&ev.fields, "dur_ns").and_then(|v| v.as_u64()) {
                    latency.observe(d);
                }
            }
            "notify.export" => {
                if let Some(d) = field(&ev.fields, "depth").and_then(|v| v.as_u64()) {
                    depth.observe(d);
                }
            }
            _ => {}
        }
    }
    print_histogram("snapshot completion latency", true, &latency);
    print_histogram("CP queue depth at notification arrival", false, &depth);
}

const USAGE: &str = "usage: speedlight-trace [analyze|critical-path] <trace.jsonl> \
                     [--epochs] [--devices] [--histograms]";

/// What to print.
#[derive(PartialEq, Eq, Clone, Copy)]
enum Mode {
    /// The flag-selected default sections.
    Sections,
    /// Per-epoch latency breakdown.
    Analyze,
    /// Per-epoch slowest chain + fanout histogram.
    CriticalPath,
}

fn main() -> ExitCode {
    let mut path: Option<String> = None;
    let mut mode = Mode::Sections;
    let (mut epochs, mut devices, mut histograms) = (false, false, false);
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--epochs" => epochs = true,
            "--devices" => devices = true,
            "--histograms" => histograms = true,
            "analyze" if path.is_none() && mode == Mode::Sections => mode = Mode::Analyze,
            "critical-path" if path.is_none() && mode == Mode::Sections => {
                mode = Mode::CriticalPath
            }
            "--help" | "-h" => {
                eprintln!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other if other.starts_with('-') => {
                eprintln!("unknown flag {other:?} (try --help)");
                return ExitCode::FAILURE;
            }
            other => {
                if path.replace(other.to_string()).is_some() {
                    eprintln!("exactly one trace file expected (try --help)");
                    return ExitCode::FAILURE;
                }
            }
        }
    }
    let Some(path) = path else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    if !(epochs || devices || histograms) {
        (epochs, devices, histograms) = (true, true, true);
    }

    let doc = match std::fs::read_to_string(&path) {
        Ok(doc) => doc,
        Err(e) => {
            eprintln!("cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let events = match parse_trace(&doc) {
        Ok(evs) => evs,
        Err(e) => {
            eprintln!("{path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(meta) = events.iter().find(|e| e.name == "trace.meta") {
        let schema = field(&meta.fields, "schema")
            .and_then(|v| v.as_str())
            .unwrap_or("?");
        println!("{path}: {} events, schema {schema}\n", events.len());
        if schema != obs::TRACE_SCHEMA {
            eprintln!(
                "warning: schema {schema:?} differs from {:?}",
                obs::TRACE_SCHEMA
            );
        }
    } else {
        println!("{path}: {} events (no trace.meta header)\n", events.len());
    }

    match mode {
        Mode::Analyze => print_analyze(&analyze(&events)),
        Mode::CriticalPath => print_critical_path(&analyze(&events)),
        Mode::Sections => {
            if epochs {
                print_epochs(&events);
            }
            if devices {
                print_devices(&events);
            }
            if histograms {
                print_histograms(&events);
            }
        }
    }
    ExitCode::SUCCESS
}
