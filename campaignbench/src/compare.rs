//! Offline comparison of two result sets (parent and change), the logic
//! behind the `bench-diff` tool.
//!
//! A result set is the `results.jsonl` the benchmark appends to: one
//! JSON object per run with its workload, seed, trace flag, start time
//! and metrics. Runs of the two sides are paired by (workload, seed).

use crate::stats::{median, quartiles, relative_spread};
use popele_lab::sweep::json::Json;

/// One recorded run.
#[derive(Debug, Clone, PartialEq)]
pub struct Run {
    /// Workload name.
    pub workload: String,
    /// Benchmark seed.
    pub seed: u64,
    /// Whether the run was traced (per-layer metrics).
    pub trace: bool,
    /// Start time, milliseconds since the Unix epoch.
    pub started_ms: u64,
    /// Whether the run's outputs checked out.
    pub correct: bool,
    /// Metric values by name.
    pub metrics: Vec<(String, f64)>,
}

impl Run {
    /// Parses one line of `results.jsonl`.
    ///
    /// # Errors
    ///
    /// Describes the first missing or malformed field.
    pub fn parse(line: &str) -> Result<Self, String> {
        let json = Json::parse(line)?;
        let text = |key: &str| {
            json.get(key)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or(format!("missing {key}"))
        };
        let number = |key: &str| {
            json.get(key)
                .and_then(Json::as_u64)
                .ok_or(format!("missing {key}"))
        };
        let flag = |key: &str| match json.get(key) {
            Some(Json::Bool(b)) => Ok(*b),
            _ => Err(format!("missing {key}")),
        };
        let Some(Json::Obj(members)) = json.get("metrics") else {
            return Err("missing metrics".into());
        };
        let metrics = members
            .iter()
            .map(|(name, m)| {
                m.get("value")
                    .and_then(Json::as_f64)
                    .map(|v| (name.clone(), v))
                    .ok_or(format!("metric {name} has no value"))
            })
            .collect::<Result<_, _>>()?;
        Ok(Self {
            workload: text("workload")?,
            seed: number("seed")?,
            trace: flag("trace")?,
            started_ms: number("started_unix_ms")?,
            correct: flag("correct")?,
            metrics,
        })
    }

    /// A metric's value.
    #[must_use]
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }
}

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better (times, memory).
    Lower,
    /// Larger is better (rates).
    Higher,
}

impl Better {
    /// Whether `change` improves on `parent`.
    #[must_use]
    pub fn improves(self, parent: f64, change: f64) -> bool {
        match self {
            Better::Lower => change < parent,
            Better::Higher => change > parent,
        }
    }

    /// How much worse `change` is than `parent`, as a share of `parent`
    /// (negative when it is better).
    #[must_use]
    pub fn worsening(self, parent: f64, change: f64) -> f64 {
        if parent == 0.0 {
            return 0.0;
        }
        match self {
            Better::Lower => (change - parent) / parent.abs(),
            Better::Higher => (parent - change) / parent.abs(),
        }
    }
}

/// Verdict on one (workload, metric) pairing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The change wins at least nine tenths of the pairs and the medians
    /// differ by more than the parent's own interquartile distance.
    Gain,
    /// The change's median is worse than the parent's by more than the
    /// bound.
    Regression,
    /// Neither: the change stays within the bound.
    WithinBound,
    /// The parent's own spread is wider than the bound, so the runs
    /// cannot tell a change of that size apart from noise.
    Unresolved,
    /// The metric has no bound (a per-layer metric), so no verdict.
    NoBound,
}

impl Verdict {
    /// Label printed in the report.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Gain => "gain",
            Verdict::Regression => "REGRESSION",
            Verdict::WithinBound => "within bound",
            Verdict::Unresolved => "unresolved",
            Verdict::NoBound => "-",
        }
    }
}

/// The comparison of one metric on one workload.
#[derive(Debug, Clone, PartialEq)]
pub struct Comparison {
    /// Parent median, first and third quartile.
    pub parent: (f64, f64, f64),
    /// Change median, first and third quartile.
    pub change: (f64, f64, f64),
    /// Runs on each side.
    pub samples: (usize, usize),
    /// Pairs (same seed on both sides) and the change's wins among them.
    pub pairs: usize,
    /// Pairs the change won (ties count for neither side).
    pub wins: usize,
    /// Pairs in which the parent ran first.
    pub parent_first: usize,
    /// Interquartile distance of the parent over its median.
    pub parent_spread: f64,
    /// The verdict.
    pub verdict: Verdict,
}

impl Comparison {
    /// Share of pairs the change won.
    #[must_use]
    pub fn win_fraction(&self) -> f64 {
        if self.pairs == 0 {
            0.0
        } else {
            self.wins as f64 / self.pairs as f64
        }
    }
}

fn summary(values: &[f64]) -> (f64, f64, f64) {
    let (q1, q3) = quartiles(values);
    (median(values), q1, q3)
}

/// Compares one metric of one workload: `parent` and `change` are
/// (seed, start time, value) per run.
///
/// Returns `None` when either side has no runs.
#[must_use]
pub fn compare(
    parent: &[(u64, u64, f64)],
    change: &[(u64, u64, f64)],
    better: Better,
    bound: Option<f64>,
) -> Option<Comparison> {
    if parent.is_empty() || change.is_empty() {
        return None;
    }
    let values = |runs: &[(u64, u64, f64)]| runs.iter().map(|r| r.2).collect::<Vec<_>>();
    let (p_values, c_values) = (values(parent), values(change));
    let (p, c) = (summary(&p_values), summary(&c_values));
    let (mut pairs, mut wins, mut parent_first) = (0, 0, 0);
    for &(seed, p_start, p_value) in parent {
        if let Some(&(_, c_start, c_value)) = change.iter().find(|r| r.0 == seed) {
            pairs += 1;
            wins += usize::from(better.improves(p_value, c_value));
            parent_first += usize::from(p_start <= c_start);
        }
    }
    let mut comparison = Comparison {
        parent: p,
        change: c,
        samples: (p_values.len(), c_values.len()),
        pairs,
        wins,
        parent_first,
        parent_spread: relative_spread(&p_values),
        verdict: Verdict::NoBound,
    };
    if let Some(bound) = bound {
        let all_better = p_values
            .iter()
            .all(|&pv| c_values.iter().all(|&cv| better.improves(pv, cv)));
        comparison.verdict = if comparison.parent_spread > bound && !all_better {
            Verdict::Unresolved
        } else if comparison.win_fraction() >= 0.9
            && better.improves(p.0, c.0)
            && (c.0 - p.0).abs() > p.2 - p.1
        {
            Verdict::Gain
        } else if better.worsening(p.0, c.0) > bound {
            Verdict::Regression
        } else {
            Verdict::WithinBound
        };
    }
    Some(comparison)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn runs(values: &[f64]) -> Vec<(u64, u64, f64)> {
        values
            .iter()
            .enumerate()
            .map(|(i, &v)| (i as u64, 2 * i as u64, v))
            .collect()
    }

    #[test]
    fn parses_a_result_line() {
        let line = r#"{"workload":"sweep-lazy","seed":3,"trace":false,"started_unix_ms":17,"samples":4,"host":{},"correct":true,"attempted":56,"failed":0,"metrics":{"wall_s":{"value":5.5,"unit":"s"}}}"#;
        let run = Run::parse(line).unwrap();
        assert_eq!(run.workload, "sweep-lazy");
        assert_eq!(run.seed, 3);
        assert!(!run.trace && run.correct);
        assert_eq!(run.metric("wall_s"), Some(5.5));
        assert_eq!(run.metric("setup_s"), None);
        assert!(Run::parse(r#"{"workload":"x"}"#).is_err());
    }

    #[test]
    fn clear_gain_with_low_noise() {
        let parent = runs(&[10.0, 10.1, 9.9, 10.05, 9.95, 10.0, 10.1, 9.9, 10.0, 10.02]);
        let change = runs(&[8.0, 8.1, 7.9, 8.05, 7.95, 8.0, 8.1, 7.9, 8.0, 8.02]);
        let c = compare(&parent, &change, Better::Lower, Some(0.1)).unwrap();
        assert_eq!(c.verdict, Verdict::Gain);
        assert_eq!((c.pairs, c.wins), (10, 10));
        assert_eq!(c.win_fraction(), 1.0);
    }

    #[test]
    fn regression_beyond_the_bound() {
        let parent = runs(&[10.0, 10.1, 9.9, 10.0]);
        let change = runs(&[12.0, 12.1, 11.9, 12.0]);
        let c = compare(&parent, &change, Better::Lower, Some(0.1)).unwrap();
        assert_eq!(c.verdict, Verdict::Regression);
        // For a rate, the same numbers are a gain.
        let c = compare(&parent, &change, Better::Higher, Some(0.1)).unwrap();
        assert_eq!(c.verdict, Verdict::Gain);
    }

    #[test]
    fn noisy_parent_is_unresolved_unless_every_run_is_better() {
        let parent = runs(&[5.0, 10.0, 15.0, 7.0, 13.0]);
        let change = runs(&[9.0, 9.5, 10.5, 11.0, 10.0]);
        let c = compare(&parent, &change, Better::Lower, Some(0.1)).unwrap();
        assert_eq!(c.verdict, Verdict::Unresolved);
        let change = runs(&[0.5, 0.75, 1.0, 1.25, 1.5]);
        let c = compare(&parent, &change, Better::Lower, Some(0.1)).unwrap();
        assert_eq!(c.verdict, Verdict::Gain);
    }

    #[test]
    fn ties_count_for_neither_side_and_order_is_recorded() {
        let parent = vec![(1, 0, 5.0), (2, 10, 5.0), (3, 20, 6.0)];
        let change = vec![(1, 5, 5.0), (2, 5, 4.0), (4, 5, 1.0)];
        let c = compare(&parent, &change, Better::Lower, None).unwrap();
        assert_eq!((c.pairs, c.wins, c.parent_first), (2, 1, 1));
        assert_eq!(c.verdict, Verdict::NoBound);
        assert_eq!(compare(&[], &change, Better::Lower, None), None);
    }
}
