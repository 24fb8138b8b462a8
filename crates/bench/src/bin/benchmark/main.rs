//! The benchmark of Speedlight-rs: five workloads, host-time and
//! simulated-time metrics kept apart, and a layer ledger measured from
//! outside the crates it measures. See `README.md` beside this file.
//!
//! ```text
//! benchmark --workload <name> [--seed <u64>] [--seconds <n>] [--trace 0|1] [--spans-out <path>]
//!     one workload in this process; the last line of stdout is
//!     {"correct":..,"attempted":..,"failed":..,"metrics":{..}}:
//!     the gated end-to-end metrics with --trace 0, the layer ledger with --trace 1
//! benchmark [--seed <u64>] [--seconds <n>] [--layers] [--out <path>]
//!     every workload, five runs each, every run in a child process of
//!     its own, one after another; prints the `speedlight-benchmark/v1`
//!     document
//! benchmark --compare <a.json> <b.json>
//!     judges b against a, cell by cell, by the bounds in a
//! ```
//!
//! Every knob is an argument: the program reads no environment variable.
//! Host time is taken with one `Instant` pair per timed region, outside
//! the simulator. Every trial runs on the main thread alone: library
//! fan-out is pinned with `parfan::with_jobs(1, ..)`, under which the
//! sharded engine of `fat_tree8_shards2` runs its windows inline. Its
//! worker pool and barrier hand-off are therefore in no `wall_s`; the one
//! place threads run is the ledger's `netsim.shard.threaded_ns_per_window`
//! replay (two workers, `--trace 1` only).

mod des;
mod json;
mod layers;
mod observer1m;
mod ratesearch;
mod replay;
mod report;
mod spec;
mod stats;
mod traced;

use json::Value;
use spec::{Kind, Workload};
use stats::Summary;
use std::process::ExitCode;
use std::time::{Duration as WallDuration, Instant as WallInstant};

/// What one trial of any workload yields.
#[derive(Debug, Clone)]
pub struct Trial {
    pub setup_s: f64,
    pub wall_s: f64,
    pub digest: u64,
    /// Events dispatched or reports offered; 0 where the runner hides it.
    pub work: u64,
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
    /// Simulated-time end-to-end metrics this workload has, by name.
    pub sim: Vec<(&'static str, f64)>,
}

impl Trial {
    pub fn from_des(t: &des::DesTrial) -> Trial {
        let out = &t.out;
        let mut sim = vec![("snapshots", out.snapshots as f64)];
        let (p50, p90) = des::p50_p90(&out.latencies_us);
        sim.extend(p50.map(|v| ("snap_latency_p50_us", v)));
        sim.extend(p90.map(|v| ("snap_latency_p90_us", v)));
        sim.extend(
            des::p50_p90(&out.spreads_us)
                .0
                .map(|v| ("sync_spread_p50_us", v)),
        );
        Trial {
            setup_s: t.setup_s,
            wall_s: t.wall_s,
            digest: out.digest,
            work: out.events,
            attempted: out.attempted,
            failed: out.failed,
            problems: out.problems.clone(),
            sim,
        }
    }

    pub fn from_observer(t: &observer1m::ObserverTrial) -> Trial {
        Trial {
            setup_s: t.setup_s,
            wall_s: t.wall_s,
            digest: t.digest,
            work: t.offered,
            attempted: t.offered,
            failed: t.offered - t.credited.min(t.offered),
            problems: t.problems.clone(),
            sim: vec![("snapshots", t.sealed as f64)],
        }
    }

    pub fn from_rate_search(t: &ratesearch::RateTrial) -> Trial {
        Trial {
            setup_s: t.setup_s,
            wall_s: t.wall_s,
            digest: t.digest,
            work: 0,
            attempted: t.attempted,
            failed: t.failed,
            problems: Vec::new(),
            sim: t
                .max_rate_at_64()
                .map(|hz| ("max_snapshot_rate_hz", hz))
                .into_iter()
                .collect(),
        }
    }
}

fn run_trial(w: &Workload, seed: u64) -> Trial {
    match w.kind {
        Kind::Des(spec) => Trial::from_des(&des::run_trial(&spec, seed, des::TrialOpts::default())),
        Kind::Observer => Trial::from_observer(&observer1m::run_trial(seed, false)),
        Kind::RateSearch => Trial::from_rate_search(&ratesearch::run_trial(seed)),
    }
}

/// Peak resident set of this process so far (`VmHWM`), in bytes.
pub fn peak_rss_bytes() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<u64>().ok())
        .map_or(0, |kb| kb * 1024)
}

/// Problems of a set of trials of one (workload, seed): each trial's own,
/// plus any disagreement on digest or work count with the warm-up.
fn trial_problems(warm_up: &Trial, measured: &[Trial]) -> Vec<String> {
    let mut problems = warm_up.problems.clone();
    for (i, t) in measured.iter().enumerate() {
        problems.extend(t.problems.iter().cloned());
        if (t.digest, t.work) != (warm_up.digest, warm_up.work) {
            problems.push(format!(
                "trial {i} diverged from the warm-up: digest {:016x} work {} vs {:016x} {}",
                t.digest, t.work, warm_up.digest, warm_up.work
            ));
        }
    }
    problems
}

/// Everything one `--workload` run found.
pub struct RunResult {
    pub workload: &'static str,
    pub seed: u64,
    pub seconds: u64,
    pub trials: usize,
    pub digest: u64,
    pub work: u64,
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
    /// End-to-end metrics by name: every trial's value for host times,
    /// one value for what a process or a seed has only one of.
    pub end_to_end: Vec<(&'static str, Vec<f64>)>,
    pub ledger: Option<layers::Ledger>,
}

impl RunResult {
    pub fn correct(&self) -> bool {
        self.problems.is_empty()
    }

    /// What `work` counts and the name of its rate, where the runner
    /// exposes a count.
    fn work_unit(&self) -> Option<(&'static str, &'static str)> {
        match spec::workload(self.workload)?.kind {
            Kind::Des(_) => Some(("events", "events_per_s")),
            Kind::Observer => Some(("reports", "reports_per_s")),
            Kind::RateSearch => None,
        }
    }

    fn median(&self, name: &str) -> Option<f64> {
        let (_, raw) = self.end_to_end.iter().find(|(n, _)| *n == name)?;
        Some(Summary::of(raw).median)
    }
}

/// Warm up once, then measure whole trials back to back for `seconds`
/// (at least [`spec::MIN_TRIALS`]), all on this thread.
fn measure(w: &'static Workload, seed: u64, seconds: u64) -> RunResult {
    let warm_up = run_trial(w, seed);
    let budget = WallDuration::from_secs(seconds);
    let start = WallInstant::now();
    let mut measured = Vec::new();
    while measured.len() < spec::MIN_TRIALS || start.elapsed() < budget {
        measured.push(run_trial(w, seed));
    }
    let problems = trial_problems(&warm_up, &measured);
    let fail_share = warm_up.failed as f64 / warm_up.attempted.max(1) as f64;
    let mut end_to_end = vec![
        ("setup_s", measured.iter().map(|t| t.setup_s).collect()),
        ("wall_s", measured.iter().map(|t| t.wall_s).collect()),
        (
            "peak_rss_mb",
            vec![peak_rss_bytes() as f64 / (1024.0 * 1024.0)],
        ),
        ("fail_share", vec![fail_share]),
    ];
    for &(name, value) in &warm_up.sim {
        if spec::end_to_end(name).is_some_and(|m| m.applies_to(w.name)) {
            end_to_end.push((name, vec![value]));
        }
    }
    RunResult {
        workload: w.name,
        seed,
        seconds,
        trials: measured.len(),
        digest: warm_up.digest,
        work: warm_up.work,
        attempted: warm_up.attempted,
        failed: warm_up.failed,
        problems,
        end_to_end,
        ledger: None,
    }
}

/// The separate traced pass: one reference trial and the layer ledger.
fn trace(w: &'static Workload, seed: u64) -> RunResult {
    let ledger = layers::run(w, seed);
    let r = ledger.reference.clone();
    let mut problems = r.problems.clone();
    problems.extend(ledger.problems.iter().cloned());
    RunResult {
        workload: w.name,
        seed,
        seconds: 0,
        trials: 1,
        digest: r.digest,
        work: r.work,
        attempted: r.attempted,
        failed: r.failed,
        problems,
        end_to_end: Vec::new(),
        ledger: Some(ledger),
    }
}

/// `# `-prefixed lines for people: every metric by name with its unit
/// and the clock it uses.
fn render_human(r: &RunResult) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let hw = report::hardware();
    let _ = writeln!(
        out,
        "# workload {}  seed {}  trials {} (+1 warm-up)  hw: {} cores, {}",
        r.workload, r.seed, r.trials, hw.0, hw.1
    );
    let _ = write!(
        out,
        "# digest {:016x}  attempted {}  failed {}",
        r.digest, r.attempted, r.failed
    );
    if let (Some((unit, rate)), Some(wall)) = (r.work_unit(), r.median("wall_s")) {
        let _ = write!(
            out,
            "  {unit} {}  {rate} {:.0}",
            r.work,
            r.work as f64 / wall
        );
    }
    out.push('\n');
    for (name, raw) in &r.end_to_end {
        let Some(m) = spec::end_to_end(name) else {
            continue;
        };
        let s = Summary::of(raw);
        let _ = writeln!(
            out,
            "# {:<22} {:>14.6} {:<5} clock={:<4} n={} q1={:.6} q3={:.6} min={:.6} max={:.6}",
            m.name,
            s.median,
            m.unit,
            m.clock,
            raw.len(),
            s.q1,
            s.q3,
            s.min,
            s.max
        );
    }
    if let Some(l) = &r.ledger {
        let _ = writeln!(
            out,
            "# layer ledger against an untraced trial of {:.6} s (host clock unless sim.*):",
            l.reference.wall_s
        );
        for &(name, unit) in spec::LEDGER {
            let _ = writeln!(out, "# {name:<46} {:>16.4} {unit}", l.values[name]);
        }
        let _ = writeln!(out, "# cost x count, as a share of that trial:");
        out.push_str(&l.render_shares());
    }
    for p in &r.problems {
        let _ = writeln!(out, "# PROBLEM: {p}");
    }
    out
}

/// The one-line record the all-workloads mode assembles its document from.
fn render_detail(r: &RunResult) -> Value {
    let mut fields = vec![
        ("workload", Value::str(r.workload)),
        (
            "why",
            Value::str(spec::workload(r.workload).map_or("", |w| w.why)),
        ),
        ("seed", Value::Num(r.seed as f64)),
        ("seconds", Value::Num(r.seconds as f64)),
        ("trials", Value::Num(r.trials as f64)),
        ("digest", Value::str(format!("{:016x}", r.digest))),
        ("attempted", Value::Num(r.attempted as f64)),
        ("failed", Value::Num(r.failed as f64)),
        (
            "problems",
            Value::Arr(r.problems.iter().map(Value::str).collect()),
        ),
    ];
    if let Some((unit, rate)) = r.work_unit() {
        fields.push((unit, Value::Num(r.work as f64)));
        if let Some(wall) = r.median("wall_s") {
            fields.push((rate, Value::Num(r.work as f64 / wall)));
        }
    }
    fields.push((
        "metrics",
        Value::obj(
            r.end_to_end
                .iter()
                .map(|(name, raw)| (*name, Summary::of(raw).to_json())),
        ),
    ));
    if let Some(l) = &r.ledger {
        fields.push((
            "layers",
            Value::obj(
                spec::LEDGER
                    .iter()
                    .map(|&(n, _)| (n, Value::Num(l.values[n]))),
            ),
        ));
    }
    Value::obj([("detail", Value::obj(fields))])
}

/// The last line of stdout: exactly `correct`, `attempted`, `failed` and
/// `metrics`, the latter holding the gated end-to-end metrics or, for a
/// traced run, the ledger.
fn render_result(r: &RunResult) -> Value {
    let metric = |value: f64, unit: &str| {
        Value::obj([("value", Value::Num(value)), ("unit", Value::str(unit))])
    };
    let metrics = match &r.ledger {
        None => Value::obj(spec::GATED.iter().filter_map(|&name| {
            let m = spec::end_to_end(name)?;
            Some((name, metric(r.median(name)?, m.unit)))
        })),
        Some(l) => Value::obj(
            spec::LEDGER
                .iter()
                .map(|&(name, unit)| (name, metric(l.values[name], unit))),
        ),
    };
    Value::obj([
        ("correct", Value::Bool(r.correct())),
        ("attempted", Value::Num(r.attempted.max(1) as f64)),
        ("failed", Value::Num(r.failed as f64)),
        ("metrics", metrics),
    ])
}

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    trace: bool,
    layers: bool,
    out: Option<String>,
    spans_out: Option<String>,
    compare: Option<(String, String)>,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: spec::DEFAULT_SEED,
        seconds: spec::DEFAULT_SECONDS,
        trace: false,
        layers: false,
        out: None,
        spans_out: None,
        compare: None,
    };
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = Some(value()?),
            "--seed" => a.seed = value()?.parse().map_err(|_| "--seed takes a u64")?,
            "--seconds" => {
                a.seconds = value()?
                    .parse()
                    .map_err(|_| "--seconds takes a whole number")?;
                if !(1..=60).contains(&a.seconds) {
                    return Err("--seconds must be between 1 and 60".into());
                }
            }
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--layers" => a.layers = true,
            "--out" => a.out = Some(value()?),
            "--spans-out" => a.spans_out = Some(value()?),
            "--compare" => a.compare = Some((value()?, value()?)),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(a)
}

fn run_one_workload(args: &Args, name: &str) -> Result<ExitCode, String> {
    let Some(w) = spec::workload(name) else {
        let known: Vec<&str> = spec::WORKLOADS.iter().map(|w| w.name).collect();
        return Err(format!("unknown workload {name:?}; one of {known:?}"));
    };
    let result = if args.trace {
        trace(w, args.seed)
    } else {
        measure(w, args.seed, args.seconds)
    };
    // Only the traced driver keeps whole spans; the other passes aggregate.
    if let (Some(path), Some(l)) = (&args.spans_out, &result.ledger) {
        if !l.spans.is_empty() {
            std::fs::write(path, traced::render_spans(&l.spans))
                .map_err(|e| format!("cannot write {path}: {e}"))?;
        }
    }
    print!("{}", render_human(&result));
    println!("{}", render_detail(&result).render());
    println!("{}", render_result(&result).render());
    Ok(if result.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    if cfg!(debug_assertions) {
        eprintln!("benchmark: refusing to measure a debug build; run with --release");
        return ExitCode::FAILURE;
    }
    let outcome = parse_args(std::env::args().skip(1)).and_then(|args| {
        if let Some((a, b)) = &args.compare {
            report::compare(a, b)
        } else if let Some(name) = args.workload.clone() {
            run_one_workload(&args, &name)
        } else {
            report::run_all(args.seed, args.seconds, args.layers, args.out.as_deref())
        }
    });
    outcome.unwrap_or_else(|e| {
        eprintln!("benchmark: {e}");
        ExitCode::FAILURE
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trial(digest: u64) -> Trial {
        Trial {
            setup_s: 0.01,
            wall_s: 1.0,
            digest,
            work: 1000,
            attempted: 10,
            failed: 0,
            problems: Vec::new(),
            sim: Vec::new(),
        }
    }

    fn result(problems: Vec<String>) -> RunResult {
        RunResult {
            workload: "fig9_leaf_spine",
            seed: 9,
            seconds: 1,
            trials: 2,
            digest: 7,
            work: 1000,
            attempted: 10,
            failed: 0,
            problems,
            end_to_end: vec![
                ("setup_s", vec![0.011, 0.012]),
                ("wall_s", vec![1.25, 1.5]),
                ("peak_rss_mb", vec![42.5]),
                ("fail_share", vec![0.0]),
            ],
            ledger: None,
        }
    }

    #[test]
    fn a_corrupted_digest_fails_the_run() {
        let clean = trial_problems(&trial(7), &[trial(7), trial(7)]);
        assert!(clean.is_empty());
        assert!(result(clean).correct());

        let corrupt = trial_problems(&trial(7), &[trial(7), trial(8)]);
        assert_eq!(corrupt.len(), 1, "{corrupt:?}");
        let r = result(corrupt);
        assert!(!r.correct());
        assert_eq!(render_result(&r).get("correct"), Some(&Value::Bool(false)));
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let line = render_result(&result(Vec::new())).render();
        let v = json::parse(&line).unwrap();
        let keys: Vec<&str> = v
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let metrics = v.get("metrics").unwrap().as_obj().unwrap();
        let names: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(names, spec::GATED);
        // Nearest-rank median of two trials is the lower one, as measured.
        let wall = v.get("metrics").unwrap().get("wall_s").unwrap();
        assert_eq!(wall.get("value").unwrap().as_f64(), Some(1.25));
        assert_eq!(wall.get("unit").unwrap().as_str(), Some("s"));
    }

    #[test]
    fn arguments_are_checked() {
        let parse = |s: &str| parse_args(s.split_whitespace().map(String::from));
        let a = parse("--workload fat_tree8 --seed 3 --seconds 10 --trace 1").unwrap();
        assert_eq!(
            (a.workload.as_deref(), a.seed, a.seconds, a.trace),
            (Some("fat_tree8"), 3, 10, true)
        );
        assert!(parse("--seconds 0").is_err());
        assert!(parse("--trace 2").is_err());
        assert!(parse("--seed").is_err());
        assert!(parse("--jobs 4").is_err());
    }
}
