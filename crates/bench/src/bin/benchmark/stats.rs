//! Order statistics and regression bounds.
//!
//! Percentiles are nearest-rank (a reported value is always one that was
//! measured). Quartiles follow Python's `statistics.quantiles(v, n=4)`
//! (exclusive method), because that is how the spread of a metric across
//! runs is defined for this benchmark.

use crate::json::Value;

/// Nearest-rank percentile of an ascending slice: the value at 1-based
/// rank `ceil(p * n)`. `p` in `(0, 1]`.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(sorted.len(), p) - 1]
}

fn rank(n: usize, p: f64) -> usize {
    ((p * n as f64).ceil() as usize).clamp(1, n)
}

/// Whether percentile `p` of `n` samples has at least ten samples beyond
/// it — the rule for reporting any percentile above the median.
pub fn supports_percentile(n: usize, p: f64) -> bool {
    n > 0 && n - rank(n, p) >= 10
}

/// `(q1, q2, q3)` as `statistics.quantiles(values, n=4)` gives them.
/// Fewer than two samples have no quartiles; all three collapse.
pub fn quartiles(sorted: &[f64]) -> (f64, f64, f64) {
    assert!(!sorted.is_empty(), "quartiles of no samples");
    let ld = sorted.len();
    if ld < 2 {
        return (sorted[0], sorted[0], sorted[0]);
    }
    let m = ld + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    (q(1), q(2), q(3))
}

/// One metric over the measured trials of one workload.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub min: f64,
    pub max: f64,
    /// Every trial's value, in trial order.
    pub raw: Vec<f64>,
}

impl Summary {
    pub fn of(raw: &[f64]) -> Summary {
        let mut sorted = raw.to_vec();
        sorted.sort_by(f64::total_cmp);
        let (q1, _, q3) = quartiles(&sorted);
        Summary {
            median: percentile(&sorted, 0.5),
            q1,
            q3,
            min: sorted[0],
            max: sorted[sorted.len() - 1],
            raw: raw.to_vec(),
        }
    }

    /// Interquartile distance as a share of the median.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }

    pub fn to_json(&self) -> Value {
        Value::obj([
            ("median", Value::Num(self.median)),
            ("q1", Value::Num(self.q1)),
            ("q3", Value::Num(self.q3)),
            ("min", Value::Num(self.min)),
            ("max", Value::Num(self.max)),
            ("n", Value::Num(self.raw.len() as f64)),
            (
                "raw",
                Value::Arr(self.raw.iter().map(|&v| Value::Num(v)).collect()),
            ),
        ])
    }

    pub fn from_json(v: &Value) -> Option<Summary> {
        let num = |k: &str| v.get(k)?.as_f64();
        Some(Summary {
            median: num("median")?,
            q1: num("q1")?,
            q3: num("q3")?,
            min: num("min")?,
            max: num("max")?,
            raw: v
                .get("raw")?
                .as_arr()?
                .iter()
                .map(Value::as_f64)
                .collect::<Option<_>>()?,
        })
    }
}

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// How far a metric may worsen before a change counts as a regression.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Bound {
    /// A share of the base median, never tighter than `floor` in the
    /// metric's own unit (sub-millisecond set-up times jitter by more
    /// than any sensible share).
    Share { share: f64, floor: f64 },
    /// Any worsening at all is a regression (`fail_share`).
    AnyWorsening,
}

impl Bound {
    /// The allowed worsening, in the metric's unit, against `base`.
    pub fn allowance(self, base: f64) -> f64 {
        match self {
            Bound::Share { share, floor } => (share * base.abs()).max(floor),
            Bound::AnyWorsening => 0.0,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Worse,
    /// The run-to-run spread is wider than the bound, so the two medians
    /// cannot be told apart at that resolution.
    Unresolved,
}

impl Verdict {
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Compare `change` against `base` under `bound`. Each summary is over
/// the runs (processes) of one document, one value per run.
///
/// `worse` when the change's median is beyond the allowance; otherwise
/// `unresolved` when either side's run-to-run interquartile distance
/// exceeds the allowance — unless every run of the change reads better
/// than every run of the base, which no spread can explain away.
pub fn judge(base: &Summary, change: &Summary, better: Better, bound: Bound) -> Verdict {
    let allowance = bound.allowance(base.median);
    let worsening = match better {
        Better::Lower => change.median - base.median,
        Better::Higher => base.median - change.median,
    };
    if worsening > allowance {
        return Verdict::Worse;
    }
    let clean_win = match better {
        Better::Lower => change.max < base.min,
        Better::Higher => change.min > base.max,
    };
    let widest = (base.q3 - base.q1).max(change.q3 - change.q1);
    if widest > allowance && !clean_win {
        return Verdict::Unresolved;
    }
    Verdict::Ok
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_returns_measured_values() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 5.0);
        assert_eq!(percentile(&v, 0.9), 9.0);
        assert_eq!(percentile(&v, 1.0), 10.0);
        assert_eq!(percentile(&[7.0], 0.5), 7.0);
        // Odd count: the true middle.
        assert_eq!(percentile(&[1.0, 2.0, 9.0], 0.5), 2.0);
    }

    #[test]
    fn a_percentile_needs_ten_samples_beyond_it() {
        assert!(!supports_percentile(99, 0.9)); // rank 90, 9 beyond
        assert!(supports_percentile(100, 0.9)); // rank 90, 10 beyond
        assert!(!supports_percentile(149, 0.99));
        assert!(supports_percentile(1000, 0.99));
        assert!(!supports_percentile(0, 0.5));
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
        assert_eq!(quartiles(&[1.0, 2.0, 4.0]), (1.0, 2.0, 4.0));
        // statistics.quantiles([3, 5], n=4) == [2.5, 4.0, 5.5]
        assert_eq!(quartiles(&[3.0, 5.0]), (2.5, 4.0, 5.5));
    }

    fn flat(v: f64) -> Summary {
        Summary::of(&[v, v, v])
    }

    #[test]
    fn share_bound_with_absolute_floor() {
        let ten_pct = Bound::Share {
            share: 0.10,
            floor: 0.0,
        };
        assert_eq!(
            judge(&flat(1.0), &flat(1.09), Better::Lower, ten_pct),
            Verdict::Ok
        );
        assert_eq!(
            judge(&flat(1.0), &flat(1.11), Better::Lower, ten_pct),
            Verdict::Worse
        );
        assert_eq!(
            judge(&flat(80.0), &flat(71.0), Better::Higher, ten_pct),
            Verdict::Worse
        );
        // setup_s: 10 % of 1 ms is 0.1 ms, but the floor allows 5 ms.
        let setup = Bound::Share {
            share: 0.10,
            floor: 0.005,
        };
        assert_eq!(
            judge(&flat(0.001), &flat(0.004), Better::Lower, setup),
            Verdict::Ok
        );
        assert_eq!(
            judge(&flat(0.001), &flat(0.0061), Better::Lower, setup),
            Verdict::Worse
        );
    }

    #[test]
    fn any_increase_of_fail_share_is_worse() {
        let b = Bound::AnyWorsening;
        assert_eq!(judge(&flat(0.0), &flat(0.0), Better::Lower, b), Verdict::Ok);
        assert_eq!(
            judge(&flat(0.0), &flat(1e-9), Better::Lower, b),
            Verdict::Worse
        );
        assert_eq!(judge(&flat(0.5), &flat(0.4), Better::Lower, b), Verdict::Ok);
    }

    #[test]
    fn wide_spread_is_unresolved_unless_every_run_wins() {
        let ten_pct = Bound::Share {
            share: 0.10,
            floor: 0.0,
        };
        let noisy = Summary::of(&[0.8, 1.0, 1.0, 1.0, 1.3]);
        assert_eq!(
            judge(&noisy, &noisy, Better::Lower, ten_pct),
            Verdict::Unresolved
        );
        let all_faster = Summary::of(&[0.5, 0.6, 0.7, 0.75, 0.79]);
        assert_eq!(
            judge(&noisy, &all_faster, Better::Lower, ten_pct),
            Verdict::Ok
        );
    }
}
