//! Fault-injection benchmarks: what the fault layer costs.
//!
//! Three questions, one group each:
//!
//! * `faults/overhead` — does routing a **fault-free** election through
//!   [`popele_engine::faults::run_with_faults`] (empty plan) cost
//!   anything over calling `run_until_stable` directly? It must not:
//!   the session adds two function calls per run.
//! * `faults/resolve` — how expensive is resolving a plan against a
//!   graph (target sampling, connectivity checks, epoch
//!   materialization)? This happens once per trial and must stay far
//!   below the simulation it perturbs. The `rewire` and `churn` rows
//!   resolve the sweep's own profiles (`FaultSpec::plan`) on
//!   `clique(1000)`, the densest graph a sweep faults.
//! * `faults/election` — end-to-end faulted elections on the compiled
//!   engine (corruption bursts and churn on `clique(1000)`), the
//!   workload `popele-lab sweep --faults` runs per cell.
//!
//! Recorded baselines live in BENCH.md ("Fault-injection overhead").

use criterion::{black_box, Criterion};
use popele_core::TokenProtocol;
use popele_engine::faults::{fault_seed, run_with_faults, FaultKind, FaultPlan};
use popele_engine::{CompiledProtocol, DenseExecutor};
use popele_graph::families;
use popele_lab::sweep::FaultSpec;
use std::time::Duration;

const N: u32 = 1000;

/// Faulted elections need a *finite* budget: a corruption burst can
/// permanently kill every token-protocol candidate (the `leader_lost`
/// outcome), and such runs never restabilize — an unbounded budget
/// would spin forever. Clean clique(1000) elections take ~25M steps, so
/// 120M comfortably covers recovery while bounding lost-leader runs.
const MAX_STEPS: u64 = 120_000_000;

/// The sweep layer's corrupt profile, at bench scale.
fn corrupt_plan() -> FaultPlan {
    FaultPlan::periodic(FaultKind::CorruptNodes { count: 50 }, 40_000, 40_000, 3)
}

/// Churn plus rewiring: every topology path in one plan.
fn churn_plan() -> FaultPlan {
    FaultPlan::at(30_000, FaultKind::JoinNode { degree: 2 })
        .and(60_000, FaultKind::LeaveNode)
        .and(90_000, FaultKind::RewireEdge)
        .and(120_000, FaultKind::RemoveEdge)
}

fn bench_overhead(c: &mut Criterion) {
    let g = families::clique(N);
    let p = TokenProtocol::all_candidates();
    let compiled = CompiledProtocol::compile_default(&p, N).unwrap();
    let empty = FaultPlan::empty();
    let mut group = c.benchmark_group("faults/overhead");
    group.bench_function("plain_election", |b| {
        let mut exec = DenseExecutor::new(&g, &compiled, 0);
        let mut seed = 0u64;
        b.iter(|| {
            seed += 1;
            exec.reset(seed);
            black_box(exec.run_until_stable(MAX_STEPS).unwrap().stabilization_step)
        });
    });
    group.bench_function("empty_plan_session", |b| {
        let mut seed = 0u64;
        b.iter(|| {
            seed += 1;
            let resolved = empty.resolve(&g, fault_seed(seed));
            let mut exec = DenseExecutor::new(&g, &compiled, seed);
            let report = run_with_faults(&mut exec, &resolved, MAX_STEPS);
            black_box(report.result.unwrap().stabilization_step)
        });
    });
    group.finish();
}

fn bench_resolve(c: &mut Criterion) {
    let clique = families::clique(N);
    let cycle = families::cycle(10_000);
    let mut group = c.benchmark_group("faults/resolve");
    group.bench_function("corrupt_clique_1000", |b| {
        let plan = corrupt_plan();
        let mut seed = 0u64;
        b.iter(|| {
            seed += 1;
            black_box(plan.resolve(&clique, fault_seed(seed)).ops.len())
        });
    });
    group.bench_function("churn_cycle_10000", |b| {
        let plan = churn_plan();
        let mut seed = 0u64;
        b.iter(|| {
            seed += 1;
            black_box(plan.resolve(&cycle, fault_seed(seed)).ops.len())
        });
    });
    for (name, spec) in [
        ("rewire_clique_1000", FaultSpec::Rewire),
        ("churn_clique_1000", FaultSpec::Churn),
    ] {
        let plan = spec.plan(N);
        group.bench_function(name, |b| {
            let mut seed = 0u64;
            b.iter(|| {
                seed += 1;
                black_box(plan.resolve(&clique, fault_seed(seed)).ops.len())
            });
        });
    }
    group.finish();
}

fn bench_faulted_elections(c: &mut Criterion) {
    let g = families::clique(N);
    let p = TokenProtocol::all_candidates();
    let mut group = c.benchmark_group("faults/election");
    for (name, plan) in [
        ("corrupt_clique_1000", corrupt_plan()),
        ("churn_clique_1000", churn_plan()),
    ] {
        let compiled = CompiledProtocol::compile_default(&p, N + plan.max_joins()).unwrap();
        group.bench_function(name, |b| {
            let mut seed = 0u64;
            b.iter(|| {
                seed += 1;
                let resolved = plan.resolve(&g, fault_seed(seed));
                let mut exec = DenseExecutor::new(&g, &compiled, seed);
                let report = run_with_faults(&mut exec, &resolved, MAX_STEPS);
                black_box(report.recovery.reconvergence_steps)
            });
        });
    }
    group.finish();
}

fn main() {
    let mut c = Criterion::default()
        .warm_up_time(Duration::from_secs(1))
        .measurement_time(Duration::from_secs(5))
        .sample_size(20);
    bench_overhead(&mut c);
    bench_resolve(&mut c);
    bench_faulted_elections(&mut c);
}
