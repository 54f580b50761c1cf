//! Traced, single-threaded replay of a sweep campaign through the
//! library's public functions.
//!
//! The replay walks the shards of [`SweepSpec::shards`] in order and, for
//! each, makes the calls the campaign runner makes: build the graph
//! ([`Family::generate`]) when the (family, size) changes, prepare the
//! cell ([`EngineSelection::prepare`], [`prepare_stabilize_engine`] or
//! [`compile_for_count`]) when the cell changes, run the shard's trials,
//! append the shard to the journal and compact it into the checkpoint on
//! the runner's schedule. At the end it saves the checkpoint and writes
//! the summary. One span surrounds each call. Its `checkpoint.json` and
//! `summary.json` must equal `run_campaign`'s byte for byte, which the
//! benchmark checks on every traced run.

use crate::trace::{SpanId, Tracer};
use popele_core::params::{identifier_bits, FastParams};
use popele_core::{
    FastProtocol, IdentifierProtocol, LooseProtocol, MajorityProtocol, RingLooseProtocol,
    SpaceOptimalProtocol, StarProtocol, TimeOptimalRingProtocol, TokenProtocol,
};
use popele_engine::dense::DecoderKind;
use popele_engine::faults::{fault_seed, FaultPlan};
use popele_engine::monte_carlo::{
    run_trials_auto_with_faults_prepared, run_trials_count_prepared, Engine, EngineSelection,
    TrialOptions, TrialResult,
};
use popele_engine::stabilize::{
    prepare_stabilize_engine, run_trials_stabilize_auto_prepared, ArbitraryInit,
};
use popele_engine::{compile_for_count, CompiledProtocol, Protocol};
use popele_graph::Graph;
use popele_lab::sweep::{
    checkpoint_path, journal_path, summary, summary_path, CellMeta, CellSpec, Checkpoint, Journal,
    JournalEntry, ProtocolSpec, SweepSpec,
};
use popele_lab::workloads::{broadcast_guess, majority_split, Family};
use popele_math::rng::SeedSeq;
use std::io;
use std::path::Path;

/// How a shard's trials run: the trial path, which sets the per-trial
/// setup the engine performs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrialPath {
    /// Fault-free fixed-start trials.
    Plain,
    /// Fixed-start trials under a non-empty fault plan.
    Faults,
    /// Self-stabilization trials from arbitrary starts.
    Stabilize,
}

impl TrialPath {
    /// Stable code stored as the `path` span attribute.
    #[must_use]
    pub fn code(self) -> u64 {
        match self {
            TrialPath::Plain => 0,
            TrialPath::Faults => 1,
            TrialPath::Stabilize => 2,
        }
    }

    /// Inverse of [`Self::code`].
    #[must_use]
    pub fn from_code(code: u64) -> Self {
        match code {
            1 => TrialPath::Faults,
            2 => TrialPath::Stabilize,
            _ => TrialPath::Plain,
        }
    }
}

/// Stable code of a decoder family, stored as the `decoder` span
/// attribute of dense trial spans.
#[must_use]
pub fn decoder_code(kind: DecoderKind) -> u64 {
    match kind {
        DecoderKind::Clique => 0,
        DecoderKind::Packed => 1,
        DecoderKind::Csr => 2,
        DecoderKind::Scheduler => 3,
    }
}

/// Interactions a trial simulated: its stabilization step, the whole
/// budget when it timed out, and for a self-stabilization trial the
/// election step plus the hold until the first violation (the budget
/// when the hold reached it).
#[must_use]
pub fn simulated_steps(steps: Option<u64>, hold: Option<(Option<u64>, bool)>, budget: u64) -> u64 {
    match (steps, hold) {
        (None, _) | (Some(_), Some((None, _))) => budget,
        (Some(elect), Some((Some(held), _))) => (elect + held).min(budget),
        (Some(elect), None) => elect,
    }
}

/// [`simulated_steps`] of an engine trial result.
#[must_use]
pub fn result_steps(result: &TrialResult, budget: u64) -> u64 {
    simulated_steps(
        result.stabilization_step,
        result.holding.map(|h| (h.hold_steps, h.held_to_budget)),
        budget,
    )
}

/// A cell's prepared artifacts, as the runner's private cache holds
/// them.
trait Prepared {
    fn engine(&self) -> Engine;
    fn path(&self) -> TrialPath;
    /// The fault plan trials resolve, when it is non-empty.
    fn plan(&self) -> Option<&FaultPlan>;
    fn run(&self, graph: Option<&Graph>, seed: u64, options: TrialOptions) -> Vec<TrialResult>;
}

struct Fixed<P: Protocol> {
    protocol: P,
    plan: FaultPlan,
    selection: EngineSelection<P>,
}

impl<P: Protocol + Clone> Prepared for Fixed<P> {
    fn engine(&self) -> Engine {
        self.selection.engine()
    }

    fn path(&self) -> TrialPath {
        if self.plan.is_empty() {
            TrialPath::Plain
        } else {
            TrialPath::Faults
        }
    }

    fn plan(&self) -> Option<&FaultPlan> {
        (!self.plan.is_empty()).then_some(&self.plan)
    }

    fn run(&self, graph: Option<&Graph>, seed: u64, options: TrialOptions) -> Vec<TrialResult> {
        let graph = graph.expect("fixed-start cells run on a graph");
        run_trials_auto_with_faults_prepared(
            graph,
            &self.protocol,
            &self.selection,
            seed,
            options,
            &self.plan,
        )
    }
}

struct Stab<P: Protocol> {
    protocol: P,
    plan: FaultPlan,
    selection: EngineSelection<P>,
}

impl<P: ArbitraryInit + Clone> Prepared for Stab<P> {
    fn engine(&self) -> Engine {
        self.selection.engine()
    }

    fn path(&self) -> TrialPath {
        TrialPath::Stabilize
    }

    fn plan(&self) -> Option<&FaultPlan> {
        (!self.plan.is_empty()).then_some(&self.plan)
    }

    fn run(&self, graph: Option<&Graph>, seed: u64, options: TrialOptions) -> Vec<TrialResult> {
        let graph = graph.expect("stabilizing cells run on a graph");
        run_trials_stabilize_auto_prepared(
            graph,
            &self.protocol,
            &self.selection,
            seed,
            options,
            &self.plan,
        )
    }
}

struct Count<P: Protocol> {
    compiled: CompiledProtocol<P>,
    num_agents: u64,
}

impl<P: Protocol + Clone> Prepared for Count<P> {
    fn engine(&self) -> Engine {
        Engine::Count
    }

    fn path(&self) -> TrialPath {
        TrialPath::Plain
    }

    fn plan(&self) -> Option<&FaultPlan> {
        None
    }

    fn run(&self, _graph: Option<&Graph>, seed: u64, options: TrialOptions) -> Vec<TrialResult> {
        run_trials_count_prepared(&self.compiled, self.num_agents, seed, options)
    }
}

fn fixed<P: Protocol + Clone + 'static>(
    protocol: P,
    plan: FaultPlan,
    nodes: u32,
) -> Box<dyn Prepared> {
    let selection = EngineSelection::prepare(&protocol, nodes);
    Box::new(Fixed {
        protocol,
        plan,
        selection,
    })
}

fn stab<P: ArbitraryInit + Clone + 'static>(
    protocol: P,
    plan: FaultPlan,
    nodes: u32,
) -> Box<dyn Prepared> {
    let selection = prepare_stabilize_engine(&protocol, nodes);
    Box::new(Stab {
        protocol,
        plan,
        selection,
    })
}

fn count<P: Protocol + Clone + 'static>(protocol: P, num_agents: u64) -> Box<dyn Prepared> {
    let compiled = compile_for_count(&protocol, num_agents)
        .expect("count cells compile within the count-engine cap");
    Box::new(Count {
        compiled,
        num_agents,
    })
}

/// Instantiates a cell's protocol and selects its engine exactly as the
/// campaign runner does (same parameters, same node count, same entry
/// point), so the replay's trials are the runner's trials.
fn prepare_cell(spec: &SweepSpec, cell: &CellSpec, graph: Option<&Graph>) -> Box<dyn Prepared> {
    if spec.cell_is_count(cell) {
        let n = cell.size;
        let agents = u64::from(n);
        return match cell.protocol {
            ProtocolSpec::Token => count(TokenProtocol::all_candidates(), agents),
            ProtocolSpec::Fast => count(FastProtocol::new(FastParams::clique_tuned(n)), agents),
            ProtocolSpec::Majority => count(MajorityProtocol::new(majority_split(n), n), agents),
            ProtocolSpec::SpaceOpt => count(SpaceOptimalProtocol::practical(n), agents),
            other => unreachable!("{other} is not count-capable"),
        };
    }
    let graph = graph.expect("non-count cells carry a graph");
    let n = graph.num_nodes();
    let plan = cell.fault.plan(n);
    let nodes = n + plan.max_joins();
    match cell.protocol {
        ProtocolSpec::Token => fixed(TokenProtocol::all_candidates(), plan, nodes),
        ProtocolSpec::Identifier => fixed(
            IdentifierProtocol::new(identifier_bits(n, false)),
            plan,
            nodes,
        ),
        ProtocolSpec::Fast => {
            let params = FastParams::practical(
                broadcast_guess(graph),
                graph.max_degree(),
                graph.num_edges(),
                n,
            );
            fixed(FastProtocol::new(params), plan, nodes)
        }
        ProtocolSpec::Star => fixed(StarProtocol::new(), plan, nodes),
        ProtocolSpec::Majority => fixed(MajorityProtocol::new(majority_split(n), n), plan, nodes),
        ProtocolSpec::Loose => stab(LooseProtocol::practical(n), plan, nodes),
        ProtocolSpec::RingLoose => stab(RingLooseProtocol::for_ring(n), plan, nodes),
        ProtocolSpec::SpaceOpt => fixed(SpaceOptimalProtocol::practical(n), plan, nodes),
        ProtocolSpec::RingTimeOpt => stab(TimeOptimalRingProtocol::for_ring(n), plan, nodes),
    }
}

/// The runner's compaction rule: fold the journal into the checkpoint
/// once it holds at least `max(32, shards / 4)` entries.
fn compaction_due(journal_entries: usize, checkpoint_shards: usize) -> bool {
    journal_entries >= 32.max(checkpoint_shards / 4)
}

fn save_checkpoint(
    tracer: &mut Tracer,
    checkpoint: &Checkpoint,
    path: &Path,
    trace: u64,
    parent: SpanId,
) -> io::Result<()> {
    let span = tracer.begin("checkpoint.save", trace, Some(parent));
    checkpoint.save(path)?;
    tracer.end(span);
    tracer.attr(span, "bytes", std::fs::metadata(path)?.len());
    Ok(())
}

/// Replays `spec` into `out_dir/<name>/`, which must not hold an earlier
/// run's files, recording a `campaign` root span with one trace per
/// shard.
///
/// # Errors
///
/// Propagates I/O errors; a journal left by an earlier run is refused.
pub fn replay(spec: &SweepSpec, out_dir: &Path, tracer: &mut Tracer) -> io::Result<()> {
    let campaign = tracer.new_trace();
    let root = tracer.begin("campaign", campaign, None);

    let span = tracer.begin("spec.expand", campaign, Some(root));
    let dir = out_dir.join(&spec.name);
    std::fs::create_dir_all(&dir)?;
    let ckpt_path = checkpoint_path(&dir);
    let mut checkpoint = Checkpoint::new(spec);
    let fingerprint = checkpoint.fingerprint.clone();
    let shards = spec.shards();
    tracer.end(span);

    let span = tracer.begin("journal.open", campaign, Some(root));
    let (mut journal, leftover) = Journal::open(&journal_path(&dir), &fingerprint)?;
    tracer.end(span);
    if !leftover.is_empty() || ckpt_path.exists() {
        return Err(io::Error::new(
            io::ErrorKind::AlreadyExists,
            format!("{} holds an earlier run", dir.display()),
        ));
    }

    let mut graph: Option<((Family, u32), Graph)> = None;
    let mut cell: Option<(String, Box<dyn Prepared>)> = None;
    for shard in &shards {
        let trace = tracer.new_trace();
        let shard_span = tracer.begin("shard", trace, Some(root));
        let is_count = spec.cell_is_count(&shard.cell);
        let graph_key = (shard.cell.family, shard.cell.size);
        if !is_count && graph.as_ref().map(|(key, _)| *key) != Some(graph_key) {
            // Drop the previous graph first, as the runner's cache evicts
            // it after its last shard.
            drop(graph.take());
            let span = tracer.begin("graph.build", trace, Some(shard_span));
            let built = graph_key
                .0
                .generate(graph_key.1, spec.graph_seed(graph_key.0, graph_key.1));
            tracer.end(span);
            tracer.attr(span, "nodes", u64::from(built.num_nodes()));
            tracer.attr(span, "edges", built.num_edges() as u64);
            graph = Some((graph_key, built));
        }
        let graph_ref = if is_count {
            None
        } else {
            graph.as_ref().map(|(_, g)| g)
        };
        let cell_key = shard.cell.key();
        if cell.as_ref().map(|(key, _)| key) != Some(&cell_key) {
            drop(cell.take());
            let span = tracer.begin("select", trace, Some(shard_span));
            let prepared = prepare_cell(spec, &shard.cell, graph_ref);
            tracer.end(span);
            tracer.attr(span, "engine", engine_code(prepared.engine()));
            cell = Some((cell_key.clone(), prepared));
        }
        let prepared = &cell.as_ref().expect("prepared above").1;

        let seed = spec.cell_seed(&shard.cell);
        // Side measurement of per-trial fault resolution: the engine
        // resolves the plan inside each faulted trial; resolving it once
        // more here times that step alone. These spans are not part of
        // the campaign's work.
        if let (Some(plan), Some(g)) = (prepared.plan(), graph_ref) {
            let trial_seeds = SeedSeq::new(seed);
            for trial in shard.first_trial..shard.first_trial + shard.trials {
                let span = tracer.begin("faults.resolve", trace, Some(shard_span));
                let resolved = plan.resolve(g, fault_seed(trial_seeds.child(trial as u64)));
                tracer.end(span);
                drop(std::hint::black_box(resolved));
            }
        }

        let options = TrialOptions {
            trials: shard.trials,
            first_trial: shard.first_trial,
            max_steps: spec.max_steps,
            census: false,
            lanes: false,
            threads: spec.threads,
        };
        let engine = prepared.engine();
        let span = tracer.begin(
            format!("trials.{}", engine.label()),
            trace,
            Some(shard_span),
        );
        let results = prepared.run(graph_ref, seed, options);
        tracer.end(span);
        let meta = match graph_ref {
            Some(g) => CellMeta {
                n: g.num_nodes(),
                m: g.num_edges() as u64,
            },
            None => CellMeta {
                n: shard.cell.size,
                m: u64::from(shard.cell.size) * (u64::from(shard.cell.size) - 1) / 2,
            },
        };
        tracer.attr(span, "trials", results.len() as u64);
        tracer.attr(
            span,
            "steps",
            results
                .iter()
                .map(|r| result_steps(r, spec.max_steps))
                .sum(),
        );
        tracer.attr(
            span,
            "timeouts",
            results
                .iter()
                .filter(|r| r.stabilization_step.is_none())
                .count() as u64,
        );
        tracer.attr(span, "path", prepared.path().code());
        if engine == Engine::Dense {
            let kind = DecoderKind::select(u64::from(meta.n), meta.m);
            tracer.attr(span, "decoder", decoder_code(kind));
        }

        let entry = JournalEntry {
            shard_key: shard.key(),
            cell_key,
            meta,
            records: results.iter().map(Into::into).collect(),
        };
        checkpoint.apply_entry(&entry);
        let span = tracer.begin("journal.append", trace, Some(shard_span));
        journal.append(&entry)?;
        tracer.end(span);
        tracer.attr(span, "bytes", entry.render_line().len() as u64 + 1);
        if compaction_due(journal.len(), checkpoint.shards.len()) {
            save_checkpoint(tracer, &checkpoint, &ckpt_path, trace, shard_span)?;
            let span = tracer.begin("journal.clear", trace, Some(shard_span));
            journal.clear(&fingerprint)?;
            tracer.end(span);
        }
        tracer.end(shard_span);
    }
    drop((graph, cell));

    save_checkpoint(tracer, &checkpoint, &ckpt_path, campaign, root)?;
    let span = tracer.begin("journal.remove", campaign, Some(root));
    journal.remove()?;
    tracer.end(span);
    let span = tracer.begin("summary", campaign, Some(root));
    let tables = summary::tables(spec, &checkpoint);
    std::fs::write(summary_path(&dir), summary::render(spec, &checkpoint))?;
    for table in &tables {
        table.write_csv(&dir)?;
    }
    tracer.end(span);
    tracer.end(root);
    Ok(())
}

/// Stable code of an engine tier, stored as the `engine` attribute of
/// `select` spans.
#[must_use]
pub fn engine_code(engine: Engine) -> u64 {
    match engine {
        Engine::Generic => 0,
        Engine::Dense => 1,
        Engine::LazyDense => 2,
        Engine::Count => 3,
        Engine::Lanes => 4,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simulated_steps_counts_budget_for_timeouts_and_censored_holds() {
        let budget = 1_000;
        assert_eq!(simulated_steps(Some(120), None, budget), 120);
        assert_eq!(simulated_steps(None, None, budget), budget);
        // Elected at 100, hold broke after 300 more steps.
        assert_eq!(
            simulated_steps(Some(100), Some((Some(300), false)), budget),
            400
        );
        // Hold intact at the budget.
        assert_eq!(
            simulated_steps(Some(100), Some((None, true)), budget),
            budget
        );
        assert_eq!(simulated_steps(None, Some((None, false)), budget), budget);
    }

    fn out_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("campaignbench-{tag}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    /// The replay reproduces `run_campaign`'s outputs byte for byte, so
    /// their digests agree at every worker count, on a grid with fault
    /// profiles and a self-stabilizing protocol.
    #[test]
    fn replay_outputs_and_digests_match_run_campaign() {
        use crate::digest::fnv1a64;
        use popele_lab::sweep::{run_campaign, CampaignOptions, FaultSpec};
        let spec = SweepSpec {
            name: "tiny".into(),
            protocols: vec![
                ProtocolSpec::Token,
                ProtocolSpec::Loose,
                ProtocolSpec::Majority,
            ],
            families: vec![Family::Cycle, Family::Star],
            sizes: vec![16, 24],
            faults: vec![FaultSpec::None, FaultSpec::Corrupt],
            trials_per_cell: 2,
            shard_trials: 1,
            max_steps: 1 << 18,
            master_seed: 11,
            threads: 1,
            ..SweepSpec::default()
        };
        let read = |dir: &Path| {
            let campaign = dir.join(&spec.name);
            [checkpoint_path(&campaign), summary_path(&campaign)]
                .map(|path| fnv1a64(&std::fs::read(path).unwrap()))
        };
        let mut digests = Vec::new();
        for workers in [1, 2] {
            let dir = out_dir(&format!("run{workers}"));
            let options = CampaignOptions {
                out_dir: dir.clone(),
                workers,
                ..CampaignOptions::default()
            };
            assert!(run_campaign(&spec, &options).unwrap().completed);
            digests.push(read(&dir));
            std::fs::remove_dir_all(&dir).ok();
        }
        let dir = out_dir("replay");
        let mut tracer = Tracer::new();
        replay(&spec, &dir, &mut tracer).unwrap();
        digests.push(read(&dir));
        assert_eq!(digests[0], digests[1]);
        assert_eq!(digests[0], digests[2]);
        // A second replay into the same directory is refused rather than
        // mixed with the first.
        assert!(replay(&spec, &dir, &mut Tracer::new()).is_err());
        std::fs::remove_dir_all(&dir).ok();

        let spans = tracer.spans();
        let shards = spec.shards().len();
        let trials = spans
            .iter()
            .filter(|s| s.name.starts_with("trials."))
            .count();
        assert_eq!(trials, shards);
        // One trace per shard plus the campaign's own.
        let mut traces: Vec<u64> = spans.iter().map(|s| s.trace).collect();
        traces.sort_unstable();
        traces.dedup();
        assert_eq!(traces.len(), shards + 1);
        let faulted = spans.iter().filter(|s| s.name == "faults.resolve").count();
        assert!(faulted > 0);
    }

    #[test]
    fn path_codes_round_trip() {
        for path in [TrialPath::Plain, TrialPath::Faults, TrialPath::Stabilize] {
            assert_eq!(TrialPath::from_code(path.code()), path);
        }
    }
}
