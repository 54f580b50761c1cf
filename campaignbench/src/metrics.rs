//! Metric definitions and the per-layer breakdown of a traced replay.
//!
//! The names and units here are the ones `BENCHMARK.json` declares; a
//! test keeps the two in step.

use crate::replay::TrialPath;
use crate::trace::{self_times_ns, Span};

/// End-to-end metrics (untraced runs): name and unit.
pub const END_TO_END: [(&str, &str); 4] = [
    ("wall_s", "s"),
    ("interactions_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (traced run): name and unit, grouped by layer.
pub const PER_LAYER: [(&str, &str); 41] = [
    ("graph.build_s", "s"),
    ("graph.builds", "count"),
    ("graph.edges", "count"),
    ("select.s", "s"),
    ("select.cells", "count"),
    ("select.dense", "count"),
    ("select.lazy", "count"),
    ("select.generic", "count"),
    ("select.count", "count"),
    ("trials.dense.s", "s"),
    ("trials.dense.steps", "count"),
    ("trials.dense.ns_per_step", "ns"),
    ("trials.dense.clique.ns_per_step", "ns"),
    ("trials.dense.packed.ns_per_step", "ns"),
    ("trials.dense.csr.ns_per_step", "ns"),
    ("trials.lazy.s", "s"),
    ("trials.lazy.steps", "count"),
    ("trials.lazy.ns_per_step", "ns"),
    ("trials.count.s", "s"),
    ("trials.count.steps", "count"),
    ("trials.count.ns_per_step", "ns"),
    ("trials.generic.s", "s"),
    ("trials.generic.steps", "count"),
    ("trials.generic.ns_per_step", "ns"),
    ("trials.faults.s", "s"),
    ("trials.faults.us_per_trial", "us"),
    ("trials.stabilize.s", "s"),
    ("trials.stabilize.us_per_trial", "us"),
    ("trials.timeouts", "count"),
    ("faults.resolve_s", "s"),
    ("faults.resolves", "count"),
    ("journal.append_s", "s"),
    ("journal.appends", "count"),
    ("journal.bytes", "bytes"),
    ("checkpoint.save_s", "s"),
    ("checkpoint.saves", "count"),
    ("checkpoint.bytes", "bytes"),
    ("summary.s", "s"),
    ("pool.busy_ratio", "ratio"),
    ("trace.coverage", "ratio"),
    ("trace.overhead", "ratio"),
];

/// Whether `name` is a valid metric name: 1 to 64 characters from
/// letters, digits, `_`, `.` and `-`, starting with a letter or digit.
#[must_use]
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Whether `unit` is a valid unit: 1 to 16 characters from letters,
/// digits, `_`, `/`, `%`, `.` and `-`.
#[must_use]
pub fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// Trials attempted and failed in one run. When an output check fails,
/// every trial of the run counts as failed.
#[must_use]
pub fn failure_counts(attempted: u64, failed_trials: u64, outputs_ok: bool) -> (u64, u64) {
    let failed = if outputs_ok {
        failed_trials.min(attempted)
    } else {
        attempted
    };
    (attempted, failed)
}

/// Time and work of one kind of span, summed.
#[derive(Debug, Clone, Copy, Default)]
struct Bucket {
    ns: u64,
    calls: u64,
    steps: u64,
    trials: u64,
}

impl Bucket {
    fn add(&mut self, ns: u64, span: &Span) {
        self.ns += ns;
        self.calls += 1;
        self.steps += span.attr("steps");
        self.trials += span.attr("trials");
    }

    fn secs(self) -> f64 {
        self.ns as f64 / 1e9
    }

    fn ns_per_step(self) -> f64 {
        per(self.ns as f64, self.steps)
    }

    fn us_per_trial(self) -> f64 {
        per(self.ns as f64 / 1e3, self.trials)
    }
}

fn per(amount: f64, count: u64) -> f64 {
    if count == 0 {
        0.0
    } else {
        amount / count as f64
    }
}

/// Where a traced replay spent its time, and the per-layer metrics.
#[derive(Debug, Clone)]
pub struct Breakdown {
    /// Per-layer metrics, in [`PER_LAYER`] order.
    pub metrics: Vec<(&'static str, f64)>,
    /// Share of the traced wall time per layer (self time), largest
    /// first, for the human-readable report.
    pub shares: Vec<(String, f64)>,
    /// Traced wall time without the side measurements, in seconds.
    pub traced_s: f64,
}

impl Breakdown {
    /// A per-layer metric's value by name.
    ///
    /// # Panics
    ///
    /// Panics on a name not in [`PER_LAYER`].
    #[must_use]
    pub fn metric(&self, name: &str) -> f64 {
        self.metrics
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
            .unwrap_or_else(|| panic!("no per-layer metric {name}"))
    }
}

/// Computes the per-layer metrics of a traced replay. `wall_s` is the
/// untraced run's wall time at `workers` workers, and `serial_wall_s`
/// the untraced wall time at one worker.
///
/// Layers are named by the span name up to its first `.`; `campaign`
/// and `shard` spans are structure, not layers, and `faults.resolve`
/// spans are side measurements left out of both the coverage sum and
/// the traced wall time.
#[must_use]
pub fn breakdown(spans: &[Span], workers: usize, wall_s: f64, serial_wall_s: f64) -> Breakdown {
    let self_ns = self_times_ns(spans);
    let mut traced_ns = 0u64;
    let mut side = Bucket::default();
    let mut layer_ns: Vec<(String, u64)> = Vec::new();
    let mut graph = Bucket::default();
    let mut edges = 0u64;
    let mut select = Bucket::default();
    let mut selected = [0u64; 5];
    let mut tiers: [Bucket; 4] = Default::default();
    // Dense trial time by the decoder the trials ran on (the `decoder`
    // attribute: clique, packed, CSR, scheduler).
    let mut decoders: [Bucket; 4] = Default::default();
    let mut paths: [Bucket; 3] = Default::default();
    let mut timeouts = 0u64;
    let mut appends = Bucket::default();
    let mut append_bytes = 0u64;
    let mut saves = Bucket::default();
    let mut save_bytes = 0u64;
    let mut summary = Bucket::default();

    for (span, &own) in spans.iter().zip(&self_ns) {
        let name = span.name.as_str();
        match name {
            "campaign" => {
                traced_ns += span.duration_ns();
                continue;
            }
            "shard" => continue,
            "faults.resolve" => {
                side.add(span.duration_ns(), span);
                continue;
            }
            _ => {}
        }
        let layer = match name.strip_prefix("trials.") {
            Some(tier) => format!("trials.{tier}"),
            None => name.split('.').next().unwrap_or(name).to_string(),
        };
        match layer_ns.iter_mut().find(|(l, _)| *l == layer) {
            Some((_, ns)) => *ns += own,
            None => layer_ns.push((layer, own)),
        }
        match name {
            "graph.build" => {
                graph.add(own, span);
                edges += span.attr("edges");
            }
            "select" => {
                select.add(own, span);
                selected[usize::try_from(span.attr("engine")).unwrap_or(0).min(4)] += 1;
            }
            "journal.append" => {
                appends.add(own, span);
                append_bytes += span.attr("bytes");
            }
            "checkpoint.save" => {
                saves.add(own, span);
                save_bytes += span.attr("bytes");
            }
            "summary" => summary.add(own, span),
            _ => {}
        }
        if let Some(tier) = name.strip_prefix("trials.") {
            let slot = match tier {
                "dense" => 0,
                "lazy" => 1,
                "count" => 2,
                _ => 3,
            };
            tiers[slot].add(own, span);
            if slot == 0 {
                let decoder = usize::try_from(span.attr("decoder")).map_or(3, |d| d.min(3));
                decoders[decoder].add(own, span);
            }
            paths[TrialPath::from_code(span.attr("path")).code() as usize].add(own, span);
            timeouts += span.attr("timeouts");
        }
    }

    let busy_ns: u64 = layer_ns.iter().map(|(_, ns)| ns).sum();
    let traced_ns = traced_ns.saturating_sub(side.ns);
    let traced_s = traced_ns as f64 / 1e9;
    let busy_s = busy_ns as f64 / 1e9;
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let [dense, lazy, count, generic] = tiers;
    let [_, faults, stabilize] = paths;
    let metrics = vec![
        ("graph.build_s", graph.secs()),
        ("graph.builds", graph.calls as f64),
        ("graph.edges", edges as f64),
        ("select.s", select.secs()),
        ("select.cells", select.calls as f64),
        ("select.dense", selected[1] as f64),
        ("select.lazy", selected[2] as f64),
        ("select.generic", selected[0] as f64),
        ("select.count", selected[3] as f64),
        ("trials.dense.s", dense.secs()),
        ("trials.dense.steps", dense.steps as f64),
        ("trials.dense.ns_per_step", dense.ns_per_step()),
        ("trials.dense.clique.ns_per_step", decoders[0].ns_per_step()),
        ("trials.dense.packed.ns_per_step", decoders[1].ns_per_step()),
        ("trials.dense.csr.ns_per_step", decoders[2].ns_per_step()),
        ("trials.lazy.s", lazy.secs()),
        ("trials.lazy.steps", lazy.steps as f64),
        ("trials.lazy.ns_per_step", lazy.ns_per_step()),
        ("trials.count.s", count.secs()),
        ("trials.count.steps", count.steps as f64),
        ("trials.count.ns_per_step", count.ns_per_step()),
        ("trials.generic.s", generic.secs()),
        ("trials.generic.steps", generic.steps as f64),
        ("trials.generic.ns_per_step", generic.ns_per_step()),
        ("trials.faults.s", faults.secs()),
        ("trials.faults.us_per_trial", faults.us_per_trial()),
        ("trials.stabilize.s", stabilize.secs()),
        ("trials.stabilize.us_per_trial", stabilize.us_per_trial()),
        ("trials.timeouts", timeouts as f64),
        ("faults.resolve_s", side.secs()),
        ("faults.resolves", side.calls as f64),
        ("journal.append_s", appends.secs()),
        ("journal.appends", appends.calls as f64),
        ("journal.bytes", append_bytes as f64),
        ("checkpoint.save_s", saves.secs()),
        ("checkpoint.saves", saves.calls as f64),
        ("checkpoint.bytes", save_bytes as f64),
        ("summary.s", summary.secs()),
        ("pool.busy_ratio", ratio(busy_s, workers as f64 * wall_s)),
        ("trace.coverage", ratio(busy_s, traced_s)),
        ("trace.overhead", ratio(traced_s, serial_wall_s)),
    ];
    let mut shares: Vec<(String, f64)> = layer_ns
        .into_iter()
        .map(|(layer, ns)| (layer, ratio(ns as f64, traced_ns as f64)))
        .collect();
    shares.push((
        "(per-trial setup: trials.faults + trials.stabilize)".into(),
        ratio((faults.ns + stabilize.ns) as f64, traced_ns as f64),
    ));
    shares.sort_by(|a, b| b.1.total_cmp(&a.1));
    Breakdown {
        metrics,
        shares,
        traced_s,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name: name.into(),
            trace: 0,
            parent,
            start_ns,
            end_ns,
            attrs: Vec::new(),
        }
    }

    fn with(mut span: Span, attrs: &[(&'static str, u64)]) -> Span {
        span.attrs.extend_from_slice(attrs);
        span
    }

    #[test]
    fn metric_names_and_units_are_valid_and_unique() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(&PER_LAYER).map(|m| m.0).collect();
        for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(valid_name(name), "{name}");
            assert!(valid_unit(unit), "{unit}");
        }
        names.sort_unstable();
        let len = names.len();
        names.dedup();
        assert_eq!(names.len(), len, "duplicate metric name");
    }

    /// `BENCHMARK.json` at the repository root declares exactly the
    /// workloads and metrics this crate runs and prints, within the
    /// limits the file format sets.
    #[test]
    fn benchmark_json_matches_the_code() {
        use popele_lab::sweep::json::Json;
        let text = include_str!("../../BENCHMARK.json");
        assert!(text.len() <= 64 * 1024);
        let json = Json::parse(text).unwrap();
        let Json::Obj(members) = &json else {
            panic!("not an object")
        };
        let keys: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        let field = |m: &Json, key: &str| m.get(key).and_then(Json::as_str).unwrap().to_string();
        let workloads: Vec<String> = json
            .get("workloads")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|w| {
                let why = field(w, "why");
                assert!(why.len() <= 200 && !why.contains('\n'));
                field(w, "name")
            })
            .collect();
        let names: Vec<&str> = crate::workloads::Workload::ALL
            .iter()
            .map(|w| w.name())
            .collect();
        assert_eq!(workloads, names);
        let group = |key: &str| -> Vec<(String, String, Option<f64>)> {
            json.get(key)
                .and_then(Json::as_arr)
                .unwrap()
                .iter()
                .map(|m| {
                    let better = field(m, "better");
                    assert!(better == "lower" || better == "higher");
                    (
                        field(m, "name"),
                        field(m, "unit"),
                        m.get("bound").and_then(Json::as_f64),
                    )
                })
                .collect()
        };
        let end_to_end = group("end_to_end");
        let declared: Vec<(&str, &str)> = end_to_end
            .iter()
            .map(|(n, u, _)| (n.as_str(), u.as_str()))
            .collect();
        assert_eq!(declared, END_TO_END);
        let setup_bound = end_to_end
            .iter()
            .find(|m| m.0 == "setup_s")
            .unwrap()
            .2
            .unwrap();
        for (name, _, bound) in &end_to_end {
            let bound = bound.unwrap_or_else(|| panic!("{name} has no bound"));
            assert!(
                bound > 0.0 && bound <= 0.25 && bound <= setup_bound,
                "{name}"
            );
        }
        let per_layer = group("per_layer");
        let declared: Vec<(&str, &str)> = per_layer
            .iter()
            .map(|(n, u, _)| (n.as_str(), u.as_str()))
            .collect();
        assert_eq!(declared, PER_LAYER);
        assert!(per_layer.iter().all(|m| m.2.is_none()));
    }

    #[test]
    fn name_validation_rejects_bad_characters() {
        for good in ["wall_s", "trials.dense.ns_per_step", "a-b", "9lives"] {
            assert!(valid_name(good), "{good}");
        }
        for bad in [
            "",
            ".hidden",
            "_x",
            "with space",
            "slash/y",
            "é",
            &"x".repeat(65),
        ] {
            assert!(!valid_name(bad), "{bad}");
        }
        assert!(valid_unit("1/s"));
        assert!(valid_unit("%"));
        assert!(!valid_unit("ns per step"));
        assert!(!valid_unit(""));
    }

    #[test]
    fn failures_count_against_attempted() {
        assert_eq!(failure_counts(16, 0, true), (16, 0));
        assert_eq!(failure_counts(16, 3, true), (16, 3));
        // A failed output check fails every trial of the run.
        assert_eq!(failure_counts(16, 3, false), (16, 16));
        assert_eq!(failure_counts(4, 9, true), (4, 4));
    }

    #[test]
    fn dense_steps_are_bucketed_by_decoder() {
        let spans = vec![
            span("campaign", None, 0, 1_000),
            with(
                span("trials.dense", Some(0), 0, 100),
                &[("steps", 10), ("decoder", 0)],
            ),
            with(
                span("trials.dense", Some(0), 100, 400),
                &[("steps", 100), ("decoder", 1)],
            ),
            with(
                span("trials.dense", Some(0), 400, 500),
                &[("steps", 50), ("decoder", 1)],
            ),
            with(
                span("trials.dense", Some(0), 500, 900),
                &[("steps", 40), ("decoder", 2)],
            ),
            with(span("trials.lazy", Some(0), 900, 1_000), &[("steps", 20)]),
        ];
        let b = breakdown(&spans, 1, 1e-6, 1e-6);
        assert_eq!(b.metric("trials.dense.steps"), 200.0);
        assert_eq!(b.metric("trials.dense.ns_per_step"), 900.0 / 200.0);
        assert_eq!(b.metric("trials.dense.clique.ns_per_step"), 10.0);
        assert_eq!(b.metric("trials.dense.packed.ns_per_step"), 400.0 / 150.0);
        assert_eq!(b.metric("trials.dense.csr.ns_per_step"), 10.0);
        assert_eq!(b.metric("trials.lazy.ns_per_step"), 5.0);
        assert_eq!(b.metric("trials.count.ns_per_step"), 0.0);
    }

    #[test]
    fn coverage_and_overhead_leave_side_calls_out() {
        // 1000 ns campaign: 600 ns of layers, 100 ns of side calls,
        // 300 ns uncovered (in the shard span).
        let spans = vec![
            span("campaign", None, 0, 1_000),
            span("shard", Some(0), 0, 1_000),
            with(
                span("trials.dense", Some(1), 0, 500),
                &[("steps", 50), ("trials", 2), ("path", 1), ("decoder", 1)],
            ),
            span("faults.resolve", Some(1), 500, 600),
            with(span("journal.append", Some(1), 600, 700), &[("bytes", 40)]),
        ];
        let b = breakdown(&spans, 2, 0.5e-6, 1e-6);
        assert_eq!(b.traced_s, 900e-9);
        assert_eq!(b.metric("trace.coverage"), 600.0 / 900.0);
        assert_eq!(b.metric("trace.overhead"), 0.9);
        assert_eq!(b.metric("pool.busy_ratio"), 0.6);
        assert_eq!(b.metric("faults.resolves"), 1.0);
        assert_eq!(b.metric("trials.faults.us_per_trial"), 0.25);
        assert_eq!(b.metric("journal.bytes"), 40.0);
        assert_eq!(b.metrics.len(), PER_LAYER.len());
        for ((name, _), (expected, _)) in b.metrics.iter().zip(PER_LAYER) {
            assert_eq!(*name, expected);
        }
    }
}
