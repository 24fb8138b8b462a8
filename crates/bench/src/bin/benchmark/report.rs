//! The `speedlight-benchmark/v1` document: assembling it from one child
//! process per workload, and comparing two of them.

use crate::json::{self, Value};
use crate::spec::{self, EndToEnd};
use crate::stats::{self, Better, Bound, Summary};
use std::process::{Command, ExitCode};

pub const SCHEMA: &str = "speedlight-benchmark/v1";

/// `(cores, model)` as `/proc/cpuinfo` lists them.
pub fn hardware() -> (u64, String) {
    let info = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let cores = info.lines().filter(|l| l.starts_with("processor")).count() as u64;
    let model = info
        .lines()
        .find(|l| l.starts_with("model name"))
        .and_then(|l| l.split_once(':'))
        .map_or("unknown", |(_, m)| m.trim())
        .to_string();
    (cores, model)
}

/// The checked-out commit, read from `.git` in the working directory;
/// `unknown` in a checkout that is not a repository.
fn git_commit() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok();
    let head = read(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let commit = match head.strip_prefix("ref: ") {
        Some(r) => read(&format!(".git/{r}")).map(|s| s.trim().to_string()),
        None => Some(head.to_string()),
    };
    commit
        .filter(|c| !c.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

fn bound_to_json(b: Bound) -> Value {
    match b {
        Bound::Share { share, floor } => {
            Value::obj([("share", Value::Num(share)), ("floor", Value::Num(floor))])
        }
        Bound::AnyWorsening => Value::obj([("any_worsening", Value::Bool(true))]),
    }
}

fn bound_from_json(v: &Value) -> Option<Bound> {
    if v.get("any_worsening").is_some() {
        return Some(Bound::AnyWorsening);
    }
    Some(Bound::Share {
        share: v.get("share")?.as_f64()?,
        floor: v.get("floor")?.as_f64()?,
    })
}

fn metric_to_json(m: &EndToEnd) -> Value {
    Value::obj([
        ("name", Value::str(m.name)),
        ("unit", Value::str(m.unit)),
        ("clock", Value::str(m.clock)),
        ("better", Value::str(m.better.label())),
        ("bound", bound_to_json(m.bound)),
        (
            "workloads",
            Value::Arr(m.on.iter().map(|&w| Value::str(w)).collect()),
        ),
    ])
}

/// Run this program again for one workload and return the `detail`
/// object it printed on its second-to-last line. The child is waited for
/// before this returns; a child that fails its checks fails the whole run.
fn child_detail(
    workload: &str,
    seed: u64,
    seconds: u64,
    trace: bool,
    spans_out: Option<&str>,
) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this program: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if let Some(path) = spans_out {
        cmd.args(["--spans-out", path]);
    }
    let output = cmd
        .output()
        .map_err(|e| format!("cannot run {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    for line in stdout.lines().filter(|l| l.starts_with('#')) {
        eprintln!("{line}");
    }
    if !output.status.success() {
        return Err(format!(
            "{workload} failed ({}): {}",
            output.status,
            String::from_utf8_lossy(&output.stderr).trim()
        ));
    }
    let line = stdout
        .lines()
        .rev()
        .nth(1)
        .ok_or(format!("{workload} printed no detail line"))?;
    json::parse(line)?
        .get("detail")
        .cloned()
        .ok_or(format!("{workload}: detail line without a detail object"))
}

/// What the runs of one workload must agree on: same seed, same outputs.
const RUN_INVARIANTS: [&str; 5] = ["digest", "attempted", "failed", "events", "reports"];

/// Fold the `detail` records of one workload's runs into its entry of the
/// document: per metric, a summary over the runs' medians (`raw`, one value
/// per run) with every run's trials beside it; the rates from the median
/// `wall_s`; everything else from the first run, after checking that the
/// runs agree on it.
pub fn merge_runs(details: &[Value]) -> Result<Value, String> {
    let first = details.first().ok_or("no run to merge")?;
    let name = first.get("workload").and_then(Value::as_str).unwrap_or("?");
    for (i, d) in details.iter().enumerate() {
        if let Some(k) = RUN_INVARIANTS.iter().find(|&&k| d.get(k) != first.get(k)) {
            return Err(format!("{name}: run {i} disagrees with run 0 on {k}"));
        }
    }
    let per_run = |metric: &str| -> Option<Vec<Summary>> {
        details
            .iter()
            .map(|d| Summary::from_json(d.get("metrics")?.get(metric)?))
            .collect()
    };
    let mut fields = Vec::new();
    for (k, v) in first.as_obj().ok_or("detail is not an object")? {
        match k.as_str() {
            "trials" => {
                fields.push(("runs".to_string(), Value::Num(details.len() as f64)));
                let counts = details.iter().filter_map(|d| d.get("trials").cloned());
                fields.push((k.clone(), Value::Arr(counts.collect())));
            }
            "events_per_s" | "reports_per_s" => {
                let work = first
                    .get(k.trim_end_matches("_per_s"))
                    .and_then(Value::as_f64);
                let wall = per_run("wall_s").map(|runs| {
                    Summary::of(&runs.iter().map(|r| r.median).collect::<Vec<_>>()).median
                });
                if let (Some(work), Some(wall)) = (work, wall) {
                    fields.push((k.clone(), Value::Num(work / wall)));
                }
            }
            "metrics" => {
                let mut metrics = Vec::new();
                for (metric, _) in v.as_obj().ok_or("metrics is not an object")? {
                    let runs = per_run(metric)
                        .ok_or(format!("{name}: a run is missing metric {metric}"))?;
                    let medians: Vec<f64> = runs.iter().map(|r| r.median).collect();
                    let mut cell = Summary::of(&medians).to_json();
                    if let Value::Obj(cell) = &mut cell {
                        let trials = runs
                            .iter()
                            .map(|r| Value::Arr(r.raw.iter().map(|&t| Value::Num(t)).collect()));
                        cell.push(("trials".to_string(), Value::Arr(trials.collect())));
                    }
                    metrics.push((metric.clone(), cell));
                }
                fields.push((k.clone(), Value::Obj(metrics)));
            }
            _ => fields.push((k.clone(), v.clone())),
        }
    }
    Ok(Value::Obj(fields))
}

/// Every workload, strictly one after another, [`spec::RUNS`] times, each
/// run in a process of its own (so `peak_rss_mb` is that run's and nothing
/// carries over). The runs of a workload are spread over the whole command
/// (round-robin), so a slow spell of the machine hits one run of several
/// workloads, not every run of one.
pub fn run_all(
    seed: u64,
    seconds: u64,
    with_layers: bool,
    out: Option<&str>,
) -> Result<ExitCode, String> {
    let mut runs: Vec<Vec<Value>> = vec![Vec::new(); spec::WORKLOADS.len()];
    for _ in 0..spec::RUNS {
        for (w, details) in spec::WORKLOADS.iter().zip(&mut runs) {
            details.push(child_detail(w.name, seed, seconds, false, None)?);
        }
    }
    let mut workloads = Vec::new();
    for (w, details) in spec::WORKLOADS.iter().zip(&runs) {
        let mut entry = merge_runs(details)?;
        if with_layers {
            let spans = out.map(|o| format!("{o}.{}.spans.jsonl", w.name));
            let traced = child_detail(w.name, seed, seconds, true, spans.as_deref())?;
            if let (Value::Obj(fields), Some(layers)) = (&mut entry, traced.get("layers")) {
                fields.push(("layers".to_string(), layers.clone()));
            }
        }
        workloads.push((w.name, entry));
    }
    let (cores, model) = hardware();
    let doc = Value::obj([
        ("schema", Value::str(SCHEMA)),
        ("git", Value::str(git_commit())),
        (
            "hw",
            Value::obj([
                ("cores", Value::Num(cores as f64)),
                ("model", Value::str(model)),
            ]),
        ),
        ("seed", Value::Num(seed as f64)),
        ("seconds", Value::Num(seconds as f64)),
        (
            "end_to_end",
            Value::Arr(spec::END_TO_END.iter().map(metric_to_json).collect()),
        ),
        ("workloads", Value::obj(workloads)),
    ]);
    let text = doc.render_pretty();
    if let Some(path) = out {
        std::fs::write(path, &text).map_err(|e| format!("cannot write {path}: {e}"))?;
    }
    print!("{text}");
    Ok(ExitCode::SUCCESS)
}

fn load(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let doc = json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    match doc.get("schema").and_then(Value::as_str) {
        Some(SCHEMA) => Ok(doc),
        other => Err(format!("{path}: schema {other:?}, expected {SCHEMA:?}")),
    }
}

fn summary_of(doc: &Value, workload: &str, metric: &str) -> Option<Summary> {
    Summary::from_json(
        doc.get("workloads")?
            .get(workload)?
            .get("metrics")?
            .get(metric)?,
    )
}

/// One line per (workload, end-to-end metric) of document `a`: the two
/// medians over the runs, the ratio with its base, the run-to-run spread
/// of each side, and the verdict by the bounds `a` carries. A workload or
/// a cell that `b` lacks, and a digest that differs, are not `ok` either.
/// Returns the text and how many lines are not `ok`.
pub fn compare_docs(a: &Value, b: &Value) -> Result<(String, usize), String> {
    use std::fmt::Write as _;
    let mut out = String::new();
    let mut not_ok = 0;
    let hw = |d: &Value| {
        let hw = d.get("hw");
        format!(
            "{} cores, {}",
            hw.and_then(|h| h.get("cores"))
                .and_then(Value::as_f64)
                .unwrap_or(0.0),
            hw.and_then(|h| h.get("model"))
                .and_then(Value::as_str)
                .unwrap_or("unknown"),
        )
    };
    let git = |d: &Value| {
        d.get("git")
            .and_then(Value::as_str)
            .unwrap_or("unknown")
            .to_string()
    };
    let _ = writeln!(out, "a: {} on {}", git(a), hw(a));
    let _ = writeln!(out, "b: {} on {}", git(b), hw(b));
    let metrics = a
        .get("end_to_end")
        .and_then(Value::as_arr)
        .ok_or("document a lists no end_to_end metrics")?;
    let workloads = a
        .get("workloads")
        .and_then(Value::as_obj)
        .ok_or("document a has no workloads")?;
    for (workload, wa) in workloads {
        let Some(wb) = b.get("workloads").and_then(|w| w.get(workload)) else {
            let _ = writeln!(out, "{workload}: MISSING in b");
            not_ok += 1;
            continue;
        };
        let digest = |w: &Value| w.get("digest").and_then(Value::as_str).map(str::to_string);
        let (da, db) = (
            digest(wa).unwrap_or_default(),
            digest(wb).unwrap_or_default(),
        );
        let same = if da == db {
            "same digest"
        } else {
            not_ok += 1;
            "DIGESTS DIFFER"
        };
        let _ = writeln!(out, "{workload}: {da} vs {db} ({same})");
        for m in metrics {
            let name = m
                .get("name")
                .and_then(Value::as_str)
                .ok_or("metric without a name")?;
            let Some(sa) = summary_of(a, workload, name) else {
                continue; // not defined on this workload
            };
            let Some(sb) = summary_of(b, workload, name) else {
                let _ = writeln!(out, "  {name:<22} a={:<14.6} MISSING in b", sa.median);
                not_ok += 1;
                continue;
            };
            let better = match m.get("better").and_then(Value::as_str) {
                Some("higher") => Better::Higher,
                _ => Better::Lower,
            };
            let bound = m
                .get("bound")
                .and_then(bound_from_json)
                .ok_or(format!("metric {name} without a bound"))?;
            let verdict = stats::judge(&sa, &sb, better, bound);
            not_ok += usize::from(verdict != stats::Verdict::Ok);
            let ratio = if sa.median == 0.0 {
                "-".to_string()
            } else {
                format!("{:.4}", sb.median / sa.median)
            };
            let _ = writeln!(
                out,
                "  {name:<22} a={:<14.6} b={:<14.6} b/a={ratio:<8} (base a) spread a={:.3} b={:.3}  {}",
                sa.median,
                sb.median,
                sa.spread(),
                sb.spread(),
                verdict.label()
            );
        }
    }
    Ok((out, not_ok))
}

pub fn compare(path_a: &str, path_b: &str) -> Result<ExitCode, String> {
    let (text, not_ok) = compare_docs(&load(path_a)?, &load(path_b)?)?;
    print!("{text}");
    println!("{not_ok} line(s) not ok");
    Ok(if not_ok == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A document with one workload, `wall_s` by run and one `fail_share`.
    fn doc(wall: &[f64], fail_share: f64) -> Value {
        doc_with(
            "00ff",
            vec![
                ("wall_s", Summary::of(wall).to_json()),
                ("fail_share", Summary::of(&[fail_share]).to_json()),
            ],
        )
    }

    fn doc_with(digest: &str, metrics: Vec<(&str, Value)>) -> Value {
        Value::obj([
            ("schema", Value::str(SCHEMA)),
            (
                "end_to_end",
                Value::Arr(spec::END_TO_END.iter().map(metric_to_json).collect()),
            ),
            (
                "workloads",
                Value::obj([(
                    "fat_tree8",
                    Value::obj([
                        ("digest", Value::str(digest)),
                        ("metrics", Value::obj(metrics)),
                    ]),
                )]),
            ),
        ])
    }

    #[test]
    fn compare_judges_each_cell_by_the_documents_bounds() {
        let base = doc(&[1.00, 1.01, 1.02], 0.0);
        let (text, not_ok) = compare_docs(&base, &doc(&[1.15, 1.16, 1.17], 0.0)).unwrap();
        assert_eq!(not_ok, 0, "{text}");
        assert!(text.contains("same digest") && text.contains("(base a)"));

        let (text, not_ok) = compare_docs(&base, &doc(&[1.30, 1.31, 1.32], 0.0)).unwrap();
        assert_eq!(not_ok, 1, "{text}");
        assert!(text.contains("worse"));

        let (_, not_ok) = compare_docs(&base, &doc(&[1.00, 1.01, 1.02], 0.01)).unwrap();
        assert_eq!(not_ok, 1, "any increase of fail_share is a regression");

        // Runs of b that spread wider than the bound resolve nothing.
        let (text, not_ok) = compare_docs(&base, &doc(&[0.7, 1.0, 1.4], 0.0)).unwrap();
        assert_eq!(not_ok, 1, "{text}");
        assert!(text.contains("unresolved"));
    }

    #[test]
    fn what_b_lost_or_changed_is_not_ok() {
        let base = doc(&[1.00, 1.01, 1.02], 0.0);

        let lost_cell = doc_with("00ff", vec![("wall_s", Summary::of(&[1.0]).to_json())]);
        let (text, not_ok) = compare_docs(&base, &lost_cell).unwrap();
        assert_eq!(not_ok, 1, "{text}");
        assert!(text.contains("fail_share") && text.contains("MISSING in b"));

        let mut lost_workload = base.clone();
        if let Value::Obj(fields) = &mut lost_workload {
            fields.retain(|(k, _)| k != "workloads");
            fields.push((
                "workloads".to_string(),
                Value::obj([("other", Value::Null)]),
            ));
        }
        let (text, not_ok) = compare_docs(&base, &lost_workload).unwrap();
        assert_eq!(not_ok, 1, "{text}");
        assert!(text.contains("fat_tree8: MISSING in b"));

        let other_digest = doc_with(
            "00fe",
            vec![
                ("wall_s", Summary::of(&[1.00, 1.01, 1.02]).to_json()),
                ("fail_share", Summary::of(&[0.0]).to_json()),
            ],
        );
        let (text, not_ok) = compare_docs(&base, &other_digest).unwrap();
        assert_eq!(not_ok, 1, "{text}");
        assert!(text.contains("DIGESTS DIFFER"));
    }

    fn detail(digest: &str, wall: &[f64], rss: f64) -> Value {
        Value::obj([
            ("workload", Value::str("fat_tree8")),
            ("trials", Value::Num(wall.len() as f64)),
            ("digest", Value::str(digest)),
            ("events", Value::Num(1000.0)),
            ("events_per_s", Value::Num(1.0)),
            (
                "metrics",
                Value::obj([
                    ("wall_s", Summary::of(wall).to_json()),
                    ("peak_rss_mb", Summary::of(&[rss]).to_json()),
                ]),
            ),
        ])
    }

    #[test]
    fn runs_merge_into_a_summary_over_their_medians() {
        let runs = [
            detail("ab", &[2.0, 2.2, 2.4], 21.0),
            detail("ab", &[1.9, 2.0, 2.1], 21.5),
            detail("ab", &[2.5, 2.6, 2.7], 20.5),
        ];
        let entry = merge_runs(&runs).unwrap();
        assert_eq!(entry.get("runs").and_then(Value::as_f64), Some(3.0));
        let wall = Summary::from_json(entry.get("metrics").unwrap().get("wall_s").unwrap());
        let wall = wall.unwrap();
        assert_eq!(wall.raw, [2.2, 2.0, 2.6], "one median per run");
        assert_eq!((wall.median, wall.min, wall.max), (2.2, 2.0, 2.6));
        let cell = entry.get("metrics").unwrap().get("wall_s").unwrap();
        assert_eq!(
            cell.get("trials").and_then(Value::as_arr).map(<[_]>::len),
            Some(3)
        );
        // The rate is taken at the median run, not copied from the first.
        assert_eq!(
            entry.get("events_per_s").and_then(Value::as_f64),
            Some(1000.0 / 2.2)
        );

        let diverged = [detail("ab", &[2.0], 21.0), detail("ac", &[2.0], 21.0)];
        let err = merge_runs(&diverged).unwrap_err();
        assert!(err.contains("disagrees") && err.contains("digest"), "{err}");
    }

    #[test]
    fn bounds_survive_the_document() {
        for m in &spec::END_TO_END {
            let back = bound_from_json(metric_to_json(m).get("bound").unwrap());
            assert_eq!(back, Some(m.bound), "{}", m.name);
        }
    }

    #[test]
    fn hardware_names_at_least_one_core() {
        assert!(hardware().0 >= 1);
    }
}
