//! The dense executor, written once over its pair table.
//!
//! [`TableExecutor`] mirrors [`crate::Executor`] exactly — same
//! scheduler, same seed handling, same oracle semantics, same
//! [`Outcome`]s — and draws its interactions through the batched
//! machinery of [`super::decoder`]. The two dense engines differ only in
//! where successor pairs come from, which [`PairTable`] abstracts: a
//! precomputed `|Λ|²` table ([`DenseExecutor`], over a
//! [`CompiledProtocol`]) or the on-demand [`LazyTable`] cache
//! ([`LazyDenseExecutor`]). Differential tests in the workspace pin both
//! to identical traces with the generic engine.

use super::decoder::{clique_decode, orient, EdgeDecoder, PAIR_BATCH};
use super::lazy::LazyTable;
use super::table::CompiledProtocol;
use crate::executor::{NotStabilized, Outcome};
use crate::protocol::{Protocol, Role, StabilityOracle};
use crate::scheduler::EdgeScheduler;
use popele_graph::{Graph, NodeId};

/// The pair lookup a [`TableExecutor`] runs over: dense ids for typed
/// states, and the successor of an ordered id pair. Implemented by the
/// ahead-of-time [`CompiledProtocol`] (borrowed, shared across threads)
/// and the lazily-built [`LazyTable`] (owned, interning on first sight).
pub trait PairTable {
    /// The protocol the table lowers.
    type Protocol: Protocol;
    /// Dense state id ([`super::StateId`] or [`super::LazyId`]);
    /// `From<u8>` reads the byte-wide successors of [`PairTable::fused`].
    type Id: Copy + Eq + Into<u32> + From<u8>;
    /// Per-transition handle from which [`PairTable::leader_delta`] and
    /// [`PairTable::effect_inert`] read, fetched only for state-changing
    /// pairs.
    type Effect: Copy;
    /// Whether clique runs take the fused draw-decode-apply loop instead
    /// of the pair buffer. Only ahead-of-time tables do.
    const FUSED_CLIQUE: bool;

    /// The protocol instance.
    fn protocol(&self) -> &Self::Protocol;
    /// Id of node `v`'s initial state.
    fn initial_id(&mut self, v: NodeId) -> Self::Id;
    /// Successor pair of the ordered interaction `(a, b)` and its effect
    /// handle, or `None` when the interaction changes neither state. The
    /// oracle summarizes the transition on a lazy-cache miss.
    fn lookup(
        &mut self,
        a: Self::Id,
        b: Self::Id,
        oracle: &<Self::Protocol as Protocol>::Oracle,
    ) -> Option<(Self::Id, Self::Id, Self::Effect)>;
    /// Net change in the number of leader-output nodes of a transition.
    fn leader_delta(&self, effect: Self::Effect) -> i8;
    /// Whether the oracle vouches that applying the transition right now
    /// would change nothing (see [`StabilityOracle::effect_inert`]).
    fn effect_inert(
        &self,
        oracle: &<Self::Protocol as Protocol>::Oracle,
        effect: Self::Effect,
    ) -> bool;
    /// Output role of state `id`.
    fn role(&self, id: Self::Id) -> Role;
    /// Typed state of `id`.
    fn state(&self, id: Self::Id) -> &<Self::Protocol as Protocol>::State;
    /// Id of a typed state, for [`TableExecutor::set_configuration`].
    ///
    /// # Panics
    ///
    /// Ahead-of-time tables panic if the state was not enumerated.
    fn id_of(&mut self, state: &<Self::Protocol as Protocol>::State) -> Self::Id;
    /// Most nodes the table serves (`None`: no limit).
    fn max_nodes(&self) -> Option<u32>;
    /// Number of states with an id so far.
    fn num_states(&self) -> usize;
    /// The branchless fused table: entry `(a << 8) | b` packs
    /// `(delta + 2) << 16 | a' << 8 | b'`. Only small ahead-of-time
    /// tables have one.
    fn fused(&self) -> Option<&[u32]> {
        None
    }
}

type StateOf<T> = <<T as PairTable>::Protocol as Protocol>::State;
type OracleOf<T> = <<T as PairTable>::Protocol as Protocol>::Oracle;

/// When a batched run loop should stop early (beyond its step budget).
/// `Stable` serves `run_until_stable`, `Unstable` the holding-time loop
/// `run_while_stable`; both only need re-checking after a state-changing
/// interaction, which is what keeps the no-op fast path branch-free.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Stop {
    Never,
    Stable,
    Unstable,
}

/// Distinct-state census over dense ids (mirrors the generic executor's
/// `HashSet` census at O(1) per mark). Growable, because the lazy engine
/// interns new ids mid-run.
#[derive(Debug, Clone)]
struct DenseCensus {
    seen: Vec<bool>,
    count: usize,
}

impl DenseCensus {
    fn new(k: usize) -> Self {
        Self {
            seen: vec![false; k],
            count: 0,
        }
    }

    #[inline]
    fn mark(&mut self, id: u32) {
        let idx = id as usize;
        if idx >= self.seen.len() {
            self.seen.resize(idx + 1, false);
        }
        let slot = &mut self.seen[idx];
        if !*slot {
            *slot = true;
            self.count += 1;
        }
    }
}

/// The configuration and what observes it, split from the draw buffers
/// so the hot loops can borrow the table and the configuration at once.
struct Config<T: PairTable> {
    ids: Vec<T::Id>,
    oracle: OracleOf<T>,
    /// When the oracle declared
    /// [`StabilityOracle::stable_iff_unique_leader`], the engine tracks
    /// the leader count itself via the tables' per-pair deltas and the
    /// typed oracle is bypassed entirely (`leaders` is then
    /// authoritative; the substitution is behaviour-identical).
    linear: bool,
    leaders: i64,
    census: Option<DenseCensus>,
}

impl<T: PairTable> Config<T> {
    /// Applies the ordered interaction of nodes `iu` and `iv` — two id
    /// reads, one table lookup, two id writes, with oracle and census
    /// work only on the rare state-changing pairs — and returns whether
    /// `stop` holds afterwards. For non-linear oracles, an effect the
    /// oracle vouches inert skips the typed [`StabilityOracle::apply`]
    /// and the state reads feeding it: an inert application changes no
    /// counter, so stability cannot flip and the stop check is skipped
    /// along with it.
    #[inline(always)]
    fn apply(&mut self, table: &mut T, iu: usize, iv: usize, stop: Stop) -> bool {
        let (a, b) = (self.ids[iu], self.ids[iv]);
        let Some((na, nb, effect)) = table.lookup(a, b, &self.oracle) else {
            return false;
        };
        let mut check_stop = true;
        if self.linear {
            self.leaders += i64::from(table.leader_delta(effect));
        } else if table.effect_inert(&self.oracle, effect) {
            check_stop = false;
        } else {
            self.oracle.apply(
                table.protocol(),
                (table.state(a), table.state(b)),
                (table.state(na), table.state(nb)),
            );
        }
        if let Some(census) = &mut self.census {
            census.mark(na.into());
            census.mark(nb.into());
        }
        self.ids[iu] = na;
        self.ids[iv] = nb;
        check_stop && self.stop_now(stop)
    }

    #[inline]
    fn stable_now(&self) -> bool {
        if self.linear {
            self.leaders == 1
        } else {
            self.oracle.is_stable()
        }
    }

    /// Whether the `stop` condition holds right now (checked only after
    /// state-changing interactions).
    #[inline]
    fn stop_now(&self, stop: Stop) -> bool {
        match stop {
            Stop::Never => false,
            Stop::Stable => self.stable_now(),
            Stop::Unstable => !self.stable_now(),
        }
    }

    /// Recomputes the derived leader/oracle state after a perturbation
    /// (corruption, churn or a loaded configuration) that edited `ids`
    /// outside a transition.
    fn resync(&mut self, table: &T) {
        self.leaders = leaders_in(table, &self.ids) as i64;
        if !self.linear {
            self.oracle
                .recompute(table.protocol(), &typed_config(table, &self.ids));
        }
    }
}

/// Number of leader-output nodes among `ids` (O(n) scan of the role
/// table).
fn leaders_in<T: PairTable>(table: &T, ids: &[T::Id]) -> usize {
    ids.iter()
        .filter(|&&id| table.role(id) == Role::Leader)
        .count()
}

/// Materializes the typed configuration corresponding to `ids`.
fn typed_config<T: PairTable>(table: &T, ids: &[T::Id]) -> Vec<StateOf<T>> {
    ids.iter().map(|&id| table.state(id).clone()).collect()
}

/// Runs one execution of a protocol on a [`Graph`] through a
/// [`PairTable`] — the dense engine behind [`DenseExecutor`] and
/// [`LazyDenseExecutor`].
///
/// Drop-in counterpart of [`crate::Executor`]: identical scheduler and
/// seed semantics, identical oracle behaviour and [`Outcome`]s — only
/// the per-interaction cost differs. The stability oracle is the
/// protocol's own [`StabilityOracle`], driven with borrowed typed states
/// from the table's id ↔ state mapping, and is skipped entirely for the
/// (vastly most common, late in a run) no-op interactions — valid
/// because oracle updates are pure count deltas, so an identity
/// transition is always a no-op on the oracle too.
pub struct TableExecutor<'a, T: PairTable> {
    graph: &'a Graph,
    table: T,
    scheduler: EdgeScheduler<'a>,
    config: Config<T>,
    /// Pairs pre-drawn from the scheduler in a tight batch (see
    /// [`EdgeDecoder::fill_batch`]); `pairs[cursor..filled]` are drawn
    /// but not yet applied. `applied` — not the scheduler's draw count —
    /// is the execution's step counter. Refills never draw past the step
    /// budget of the run call they serve, so bounded runs
    /// ([`TableExecutor::run_steps`]) consume the scheduler stream
    /// exactly as far as the generic engine would — the property that
    /// lets [`crate::faults`] interleave graph changes with execution on
    /// all engines identically.
    pairs: Box<[(NodeId, NodeId)]>,
    raw: Box<[usize]>,
    cursor: usize,
    filled: usize,
    applied: u64,
    decoder: EdgeDecoder,
    /// Reset snapshot: the initial configuration is seed-independent,
    /// so the dense ids, the typed states feeding the oracle's
    /// `recompute`, and the initial leader count are captured once and
    /// replayed by [`Self::reset`] instead of rebuilt per reset
    /// (`initial_typed` stays empty for linear oracles, which need no
    /// recompute). Rebuilt lazily if node churn changed the population.
    initial_ids: Vec<T::Id>,
    initial_typed: Vec<StateOf<T>>,
    initial_leaders: i64,
}

/// Runs one execution of a [`CompiledProtocol`] on a [`Graph`]: the
/// [`TableExecutor`] over an ahead-of-time table.
///
/// The fastest engine: a hot loop of two id reads, one table load and
/// two id writes, and on cliques a fused draw-decode-apply loop (with a
/// branchless variant for unique-leader oracles over at most 256
/// states). The table is borrowed, so one compilation serves every
/// worker thread.
pub type DenseExecutor<'a, P> = TableExecutor<'a, &'a CompiledProtocol<P>>;

/// Runs one execution of a protocol through a [`LazyTable`] — the
/// lazily-compiling dense engine, a [`TableExecutor`] over an owned,
/// on-demand table.
///
/// Instead of requiring the full reachable state space up front, it
/// interns states on first sight into `u32` ids and memoizes pair
/// successors on demand, so protocols whose state spaces overflow the
/// ahead-of-time cap — the identifier protocol at realistic `k`,
/// full-scale fast-protocol instances — still run on a dense-id hot
/// loop. See [`super::lazy`] for the caching machinery and
/// [`crate::monte_carlo::run_trials_auto`] for the engine selection.
///
/// Unlike [`DenseExecutor`] the table is owned (the cache mutates during
/// the run), so executors are per-thread; [`TableExecutor::reset`]
/// deliberately keeps the warm cache, which is how Monte-Carlo workers
/// amortize it across trials.
///
/// # Examples
///
/// ```
/// use popele_engine::{Executor, LazyDenseExecutor, LeaderCountOracle, Protocol, Role};
/// use popele_graph::families;
///
/// // A protocol whose per-node grain counters give it far too many
/// // reachable states for ahead-of-time compilation at realistic
/// // parameters — the shape of the paper's identifier protocol. The
/// // lazy engine runs it on dense ids anyway, trace-identical to the
/// // generic reference.
/// #[derive(Clone, Copy)]
/// struct GrainAbsorb;
/// impl Protocol for GrainAbsorb {
///     type State = (bool, u32); // (leader bit, interaction counter)
///     type Oracle = LeaderCountOracle;
///     fn initial_state(&self, _node: u32) -> (bool, u32) { (true, 0) }
///     fn transition(&self, a: &(bool, u32), b: &(bool, u32)) -> ((bool, u32), (bool, u32)) {
///         ((a.0, (a.1 + 1).min(1_000_000)), (b.0 && !a.0, b.1))
///     }
///     fn output(&self, s: &(bool, u32)) -> Role {
///         if s.0 { Role::Leader } else { Role::Follower }
///     }
///     fn oracle(&self) -> LeaderCountOracle { LeaderCountOracle::new() }
/// }
///
/// let g = families::clique(16);
/// let generic = Executor::new(&g, &GrainAbsorb, 7).run_until_stable(1 << 22).unwrap();
/// let lazy = LazyDenseExecutor::new(&g, &GrainAbsorb, 7).run_until_stable(1 << 22).unwrap();
/// assert_eq!(generic, lazy);
/// ```
pub type LazyDenseExecutor<'a, P> = TableExecutor<'a, LazyTable<P>>;

impl<'a, P: Protocol> DenseExecutor<'a, P> {
    /// Creates an executor with every node in its initial state.
    ///
    /// The compiled node count may exceed the graph's: a compilation for
    /// `n + k` nodes serves any graph with at most `n + k` nodes, which
    /// is how fault plans with node churn ([`crate::faults`]) share one
    /// table across all epochs. (The state enumeration for more nodes is
    /// a superset, so the table still covers every reachable pair.)
    ///
    /// # Panics
    ///
    /// Panics if the graph has no edges or more nodes than the protocol
    /// was compiled for.
    #[must_use]
    pub fn new(graph: &'a Graph, compiled: &'a CompiledProtocol<P>, seed: u64) -> Self {
        Self::with_table(graph, compiled, seed)
    }
}

impl<'a, P: Protocol + Clone> LazyDenseExecutor<'a, P> {
    /// Creates an executor with every node in its initial state.
    ///
    /// # Panics
    ///
    /// Panics if the graph has no edges.
    #[must_use]
    pub fn new(graph: &'a Graph, protocol: &P, seed: u64) -> Self {
        Self::with_table(graph, LazyTable::new(protocol, graph.num_nodes()), seed)
    }
}

impl<'a, T: PairTable> TableExecutor<'a, T> {
    fn with_table(graph: &'a Graph, table: T, seed: u64) -> Self {
        if let Some(cap) = table.max_nodes() {
            assert!(
                graph.num_nodes() <= cap,
                "graph size does not match the compiled protocol"
            );
        }
        let oracle = table.protocol().oracle();
        let linear = oracle.stable_iff_unique_leader();
        let mut exec = Self {
            graph,
            table,
            scheduler: EdgeScheduler::new(graph, seed),
            config: Config {
                ids: Vec::new(),
                oracle,
                linear,
                leaders: 0,
                census: None,
            },
            pairs: vec![(0, 0); PAIR_BATCH].into_boxed_slice(),
            raw: vec![0usize; PAIR_BATCH].into_boxed_slice(),
            cursor: 0,
            filled: 0,
            applied: 0,
            decoder: EdgeDecoder::for_graph(graph),
            initial_ids: Vec::new(),
            initial_typed: Vec::new(),
            initial_leaders: 0,
        };
        exec.load_initial();
        exec
    }

    /// Loads the initial configuration from the reset snapshot, first
    /// rebuilding the snapshot if node churn changed the population since
    /// it was taken.
    fn load_initial(&mut self) {
        let n = self.graph.num_nodes();
        if self.initial_ids.len() != n as usize {
            self.initial_ids = (0..n).map(|v| self.table.initial_id(v)).collect();
            if !self.config.linear {
                self.initial_typed = typed_config(&self.table, &self.initial_ids);
            }
            self.initial_leaders = leaders_in(&self.table, &self.initial_ids) as i64;
        }
        let config = &mut self.config;
        config.ids.clone_from(&self.initial_ids);
        config.leaders = self.initial_leaders;
        if !config.linear {
            config
                .oracle
                .recompute(self.table.protocol(), &self.initial_typed);
        }
    }

    /// Refills the pair buffer with one batch of up to `limit ≤
    /// PAIR_BATCH` scheduler draws through the decoder.
    fn refill(&mut self, limit: usize) {
        self.decoder
            .fill_batch(&mut self.scheduler, &mut self.pairs[..limit], &mut self.raw);
        self.cursor = 0;
        self.filled = limit;
    }

    /// Enables the distinct-state census (O(1) per changed state).
    pub fn enable_state_census(&mut self) {
        let mut census = DenseCensus::new(self.table.num_states());
        for &id in &self.config.ids {
            census.mark(id.into());
        }
        self.config.census = Some(census);
    }

    /// The underlying graph.
    #[must_use]
    pub fn graph(&self) -> &Graph {
        self.graph
    }

    /// The pair table driving this execution — for a lazy executor the
    /// interner and pair cache, exposed for capacity reporting and tests.
    #[must_use]
    pub fn table(&self) -> &T {
        &self.table
    }

    /// Current configuration as dense ids.
    #[must_use]
    pub fn state_ids(&self) -> &[T::Id] {
        &self.config.ids
    }

    /// Typed state of node `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    #[must_use]
    pub fn state_of(&self, v: NodeId) -> &StateOf<T> {
        self.table.state(self.config.ids[v as usize])
    }

    /// Steps applied so far.
    ///
    /// The scheduler may have *drawn* up to one batch further ahead (the
    /// undrawn pairs are buffered and will be applied next), so this is
    /// the model's time step `t`, not the raw RNG draw count.
    #[must_use]
    pub fn steps(&self) -> u64 {
        self.applied
    }

    /// Applies one interaction and returns the sampled `(initiator,
    /// responder)` pair.
    #[inline]
    pub fn step(&mut self) -> (NodeId, NodeId) {
        if self.cursor == self.filled {
            self.refill(PAIR_BATCH);
        }
        let pair = self.pairs[self.cursor];
        self.apply_batch(1, Stop::Never);
        pair
    }

    /// Applies up to `budget` already-buffered interactions in one tight
    /// loop (the engine's hot path; see [`Config::apply`]).
    ///
    /// Returns right after the state change that satisfies `stop`. The
    /// caller guarantees `budget ≤` the number of buffered pairs.
    fn apply_batch(&mut self, budget: usize, stop: Stop) {
        let start = self.cursor;
        // Iterating the drawn pairs as a slice, with the table and the
        // configuration borrowed disjointly, keeps the loop free of
        // per-step bounds checks on the buffer.
        let Self {
            table,
            config,
            pairs,
            ..
        } = self;
        let mut done = 0usize;
        for &(u, v) in &pairs[start..start + budget] {
            done += 1;
            if config.apply(table, u as usize, v as usize, stop) {
                break;
            }
        }
        self.applied += done as u64;
        self.cursor = start + done;
    }

    /// Fused runner for the computed-edge (clique) decoder: RNG draw,
    /// arithmetic decode and table apply in one loop, with no pair
    /// buffer in between. The RNG state and the configuration are
    /// independent dependency chains, so the processor overlaps them;
    /// this is the engine's fastest path. Requires the pair buffer to
    /// be drained and applies at most `budget` interactions, returning
    /// early (right after the causing change) once the oracle satisfies
    /// `stop`.
    fn run_fused_clique(&mut self, budget: u64, stop: Stop) {
        debug_assert_eq!(self.cursor, self.filled, "pair buffer must be drained");
        let Self {
            table,
            scheduler,
            config,
            decoder,
            ..
        } = self;
        let EdgeDecoder::Clique { n, shift, row_hint } = decoder else {
            unreachable!("fused path requires the clique decoder")
        };
        let n = *n as u32;
        let shift = *shift;
        let mut done = 0u64;
        match table.fused() {
            Some(fused) if config.linear && config.census.is_none() => {
                // Branchless variant: writing back unchanged ids and
                // adding a zero leader delta are no-ops, so the
                // data-dependent "did this pair change state?" branch —
                // mispredicted constantly mid-election — disappears
                // entirely, and one load of the fused table serves
                // successors and delta alike.
                let ids = &mut config.ids;
                while done < budget {
                    let r = scheduler.next_raw();
                    done += 1;
                    let (u, v) = clique_decode((r >> 1) as u32, n, shift, row_hint);
                    let (iu, iv) = orient(u, v, r);
                    let (iu, iv) = (iu as usize, iv as usize);
                    let a: u32 = ids[iu].into();
                    let b: u32 = ids[iv].into();
                    let entry = fused[((a as usize) << 8) | b as usize];
                    ids[iu] = T::Id::from((entry >> 8) as u8);
                    ids[iv] = T::Id::from(entry as u8);
                    config.leaders += i64::from(entry >> 16) - 2;
                    match stop {
                        Stop::Stable if config.leaders == 1 => break,
                        Stop::Unstable if config.leaders != 1 => break,
                        _ => {}
                    }
                }
            }
            _ => {
                while done < budget {
                    let r = scheduler.next_raw();
                    done += 1;
                    let (u, v) = clique_decode((r >> 1) as u32, n, shift, row_hint);
                    let (iu, iv) = orient(u, v, r);
                    if config.apply(table, iu as usize, iv as usize, stop) {
                        break;
                    }
                }
            }
        }
        self.applied += done;
    }

    /// Applies up to `budget` interactions through buffered pairs (for
    /// already-drawn pairs and the gather decoders) or, on tables with
    /// [`PairTable::FUSED_CLIQUE`], the fused clique path.
    fn run_budget(&mut self, budget: u64, stop: Stop) {
        if self.cursor < self.filled {
            let avail = (self.filled - self.cursor) as u64;
            self.apply_batch(avail.min(budget) as usize, stop);
        } else if T::FUSED_CLIQUE && matches!(self.decoder, EdgeDecoder::Clique { .. }) {
            self.run_fused_clique(budget, stop);
        } else {
            let limit = budget.min(PAIR_BATCH as u64) as usize;
            self.refill(limit);
            self.apply_batch(limit, stop);
        }
    }

    /// Runs exactly `k` interactions, consuming the scheduler stream
    /// exactly `k` draws past the buffered pairs — never further — so
    /// after the buffer drains, the RNG position matches the generic
    /// engine's at the same step (the alignment [`crate::faults`] relies
    /// on to perturb all engines identically).
    pub fn run_steps(&mut self, k: u64) {
        let mut remaining = k;
        while remaining > 0 {
            let before = self.applied;
            self.run_budget(remaining, Stop::Never);
            remaining -= self.applied - before;
        }
    }

    /// Runs until the oracle reports a stable, correct configuration or
    /// the step budget is exhausted.
    ///
    /// # Errors
    ///
    /// Returns [`NotStabilized`] if `max_steps` interactions pass without
    /// stabilization.
    pub fn run_until_stable(&mut self, max_steps: u64) -> Result<Outcome, NotStabilized> {
        while !self.config.stable_now() {
            if self.applied >= max_steps {
                return Err(NotStabilized { max_steps });
            }
            self.run_budget(max_steps - self.applied, Stop::Stable);
        }
        Ok(self.outcome())
    }

    /// Runs while the oracle keeps reporting stability, stopping right
    /// after the first interaction that breaks it (same contract as
    /// [`crate::Executor::run_while_stable`], and trace-identical to
    /// it). Returns the violation step, or `None` if `max_steps` total
    /// interactions passed with stability intact.
    pub fn run_while_stable(&mut self, max_steps: u64) -> Option<u64> {
        while self.config.stable_now() {
            if self.applied >= max_steps {
                return None;
            }
            self.run_budget(max_steps - self.applied, Stop::Unstable);
        }
        Some(self.applied)
    }

    /// Whether the oracle currently reports stability.
    #[must_use]
    pub fn is_stable(&self) -> bool {
        self.config.stable_now()
    }

    /// Current number of leader-output nodes (O(n) scan of the role
    /// table).
    #[must_use]
    pub fn leader_count(&self) -> usize {
        leaders_in(&self.table, &self.config.ids)
    }

    /// The unique leader if exactly one node outputs leader.
    #[must_use]
    pub fn leader(&self) -> Option<NodeId> {
        let mut found = None;
        for (v, &id) in self.config.ids.iter().enumerate() {
            if self.table.role(id) == Role::Leader {
                if found.is_some() {
                    return None;
                }
                found = Some(v as NodeId);
            }
        }
        found
    }

    /// Snapshot of the current outcome (regardless of stability).
    #[must_use]
    pub fn outcome(&self) -> Outcome {
        Outcome {
            stabilization_step: self.steps(),
            leader_count: self.leader_count(),
            leader: self.leader(),
            distinct_states: self.config.census.as_ref().map(|c| c.count),
        }
    }

    /// Resets to the initial configuration with a new seed, keeping the
    /// table — for a lazy executor the interner and pair cache stay warm.
    /// A reset is behaviourally equivalent to fresh construction on the
    /// current graph (the cache only changes speed, never the trace), and
    /// cache reuse across trials is where the lazy engine's Monte-Carlo
    /// throughput comes from.
    ///
    /// The executor stays bound to whichever graph it currently borrows,
    /// so executors that ran a fault plan with topology changes should be
    /// rebuilt rather than reset (the Monte-Carlo harness does exactly
    /// that).
    pub fn reset(&mut self, seed: u64) {
        self.load_initial();
        self.scheduler.reset(seed);
        self.cursor = 0;
        self.filled = 0;
        self.applied = 0;
        if self.config.census.is_some() {
            self.enable_state_census();
        }
    }

    // ---- fault-injection primitives (see `crate::faults`) ------------
    //
    // Mirrors of the generic executor's primitives. Topology changes
    // invalidate the per-graph edge decoder, so every rebind rebuilds it
    // for the new graph; the scheduler keeps its RNG stream. Rebinds
    // require the pair buffer to be drained — which it always is after
    // a `run_steps` call, since bounded runs never draw past their
    // budget.

    /// Rebinds scheduler and decoder to `graph` (states untouched).
    fn rebind(&mut self, graph: &'a Graph) {
        assert_eq!(
            self.cursor, self.filled,
            "pair buffer must be drained before a graph change"
        );
        self.graph = graph;
        self.scheduler.set_graph(graph);
        self.decoder = EdgeDecoder::for_graph(graph);
    }

    /// Rebinds the execution to a graph with the **same node count**
    /// (edge additions/removals/rewirings), rebuilding the edge decoder.
    ///
    /// # Panics
    ///
    /// Panics if the node counts differ, the new graph has no edges, or
    /// the pair buffer still holds drawn-but-unapplied pairs.
    pub fn set_graph(&mut self, graph: &'a Graph) {
        assert_eq!(
            graph.num_nodes() as usize,
            self.config.ids.len(),
            "set_graph requires an equal node count (use join_node/leave_node)"
        );
        self.rebind(graph);
    }

    /// Rebinds to a graph with **one more node**: the new node is `n`
    /// (the old node count) and starts in its initial state (a lazy
    /// table interns it on demand, so only ahead-of-time tables have a
    /// size to outgrow).
    ///
    /// # Panics
    ///
    /// Panics if `graph` does not have exactly one extra node or the
    /// protocol was compiled for fewer nodes than the new graph has.
    pub fn join_node(&mut self, graph: &'a Graph) {
        assert_eq!(
            graph.num_nodes() as usize,
            self.config.ids.len() + 1,
            "join_node requires exactly one extra node"
        );
        if let Some(cap) = self.table.max_nodes() {
            assert!(
                graph.num_nodes() <= cap,
                "protocol was compiled for fewer nodes than the new graph has"
            );
        }
        let id = self.table.initial_id(self.config.ids.len() as NodeId);
        if let Some(census) = &mut self.config.census {
            census.mark(id.into());
        }
        self.config.ids.push(id);
        self.rebind(graph);
        self.config.resync(&self.table);
    }

    /// Rebinds to a graph with **one less node**: node `removed` leaves
    /// and the last node (`n − 1`) is relabelled to `removed` — `graph`
    /// must already use that relabelling.
    ///
    /// # Panics
    ///
    /// Panics if `graph` does not have exactly one node less or
    /// `removed` is out of range.
    pub fn leave_node(&mut self, graph: &'a Graph, removed: NodeId) {
        assert_eq!(
            graph.num_nodes() as usize,
            self.config.ids.len() - 1,
            "leave_node requires exactly one node less"
        );
        self.config.ids.swap_remove(removed as usize);
        self.rebind(graph);
        self.config.resync(&self.table);
    }

    /// State corruption: resets node `v` to its initial state (a crash
    /// followed by a clean rejoin), leaving all other nodes untouched.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn corrupt_to_initial(&mut self, v: NodeId) {
        let id = self.table.initial_id(v);
        if let Some(census) = &mut self.config.census {
            census.mark(id.into());
        }
        self.config.ids[v as usize] = id;
        self.config.resync(&self.table);
    }

    /// Overwrites the whole configuration (an *arbitrary* start, in the
    /// self-stabilization sense — see [`crate::stabilize`]); mirrors
    /// [`crate::Executor::set_configuration`]. A lazy table interns
    /// never-seen states on the spot — it needs no pre-computed closure
    /// over the sampler's support. The scheduler's RNG stream is
    /// untouched.
    ///
    /// # Panics
    ///
    /// Panics if `states.len()` differs from the node count, or, on an
    /// ahead-of-time table, if any state is not in the compiled table —
    /// arbitrary-start tables must be built with
    /// [`CompiledProtocol::compile_with_seeds`] over the sampler's
    /// support.
    pub fn set_configuration(&mut self, states: &[StateOf<T>]) {
        assert_eq!(
            states.len(),
            self.config.ids.len(),
            "configuration length must equal the node count"
        );
        for (slot, s) in self.config.ids.iter_mut().zip(states) {
            *slot = self.table.id_of(s);
        }
        if let Some(census) = &mut self.config.census {
            for &id in &self.config.ids {
                census.mark(id.into());
            }
        }
        self.config.resync(&self.table);
    }

    #[cfg(test)]
    pub(crate) fn scheduler_steps(&self) -> u64 {
        self.scheduler.steps()
    }

    #[cfg(test)]
    pub(crate) fn decoder(&self) -> &EdgeDecoder {
        &self.decoder
    }
}

#[cfg(test)]
mod tests {
    use super::super::decoder::DecoderKind;
    use super::*;
    use crate::executor::Executor;
    use crate::testkit::Absorb;
    use popele_graph::families;

    #[test]
    fn dense_matches_generic_trace() {
        let g = families::clique(16);
        let compiled = CompiledProtocol::compile_default(&Absorb, 16).unwrap();
        let mut generic = Executor::new(&g, &Absorb, 99);
        let mut dense = DenseExecutor::new(&g, &compiled, 99);
        let mut lazy = LazyDenseExecutor::new(&g, &Absorb, 99);
        for _ in 0..2000 {
            let step = generic.step();
            assert_eq!(step, dense.step());
            assert_eq!(step, lazy.step());
            for v in 0..16u32 {
                assert_eq!(generic.states()[v as usize], *dense.state_of(v));
                assert_eq!(generic.states()[v as usize], *lazy.state_of(v));
            }
            assert_eq!(generic.is_stable(), dense.is_stable());
            assert_eq!(generic.is_stable(), lazy.is_stable());
        }
    }

    #[test]
    fn dense_outcome_equals_generic() {
        for g in [families::clique(12), families::clique(30)] {
            let n = g.num_nodes();
            let compiled = CompiledProtocol::compile_default(&Absorb, n).unwrap();
            for seed in [1u64, 7, 42] {
                let a = Executor::new(&g, &Absorb, seed)
                    .run_until_stable(1 << 24)
                    .unwrap();
                let b = DenseExecutor::new(&g, &compiled, seed)
                    .run_until_stable(1 << 24)
                    .unwrap();
                let c = LazyDenseExecutor::new(&g, &Absorb, seed)
                    .run_until_stable(1 << 24)
                    .unwrap();
                assert_eq!(a, b, "seed {seed} on {g}");
                assert_eq!(a, c, "seed {seed} on {g} (lazy)");
            }
        }
    }

    #[test]
    fn clique_decoder_exact_for_many_sizes() {
        // The arithmetic clique decode must reproduce the scheduler's
        // edge-array pairs exactly for every size (row-boundary and
        // final-edge cases included).
        for n in [2u32, 3, 4, 5, 8, 13, 37, 100, 257] {
            let g = families::clique(n);
            let compiled = CompiledProtocol::compile_default(&Absorb, n).unwrap();
            let mut generic = Executor::new(&g, &Absorb, u64::from(n));
            let mut dense = DenseExecutor::new(&g, &compiled, u64::from(n));
            for _ in 0..1200 {
                assert_eq!(generic.step(), dense.step(), "clique({n})");
            }
        }
    }

    #[test]
    fn csr_decoder_matches_generic_trace_on_large_families() {
        // Star: every canonical edge sits in row 0 (all deltas zero);
        // cycle(300_000): m has 19 bits, so the bucket shift is 3 and
        // the per-edge deltas actually advance within buckets.
        for g in [
            families::cycle(70_000),
            families::star(70_000),
            families::cycle(300_000),
        ] {
            let n = g.num_nodes();
            let compiled = CompiledProtocol::compile_default(&Absorb, n).unwrap();
            let mut dense = DenseExecutor::new(&g, &compiled, 1234);
            assert_eq!(dense.decoder().kind(), DecoderKind::Csr);
            let mut generic = Executor::new(&g, &Absorb, 1234);
            for _ in 0..3000 {
                assert_eq!(generic.step(), dense.step(), "{g}");
            }
        }
    }

    #[test]
    fn csr_decoder_decodes_collapsed_buckets_exactly() {
        // Two edges whose rows are ~700k apart force the one-edge-per-
        // bucket fallback (see the decoder unit test); the executor must
        // still decode exactly.
        let g = Graph::from_edges(700_000, &[(0, 1), (699_998, 699_999)]).unwrap();
        let compiled = CompiledProtocol::compile_default(&Absorb, 700_000).unwrap();
        let mut dense = DenseExecutor::new(&g, &compiled, 9);
        let mut generic = Executor::new(&g, &Absorb, 9);
        for _ in 0..500 {
            assert_eq!(generic.step(), dense.step());
        }
    }

    #[test]
    fn census_matches_generic() {
        let g = families::clique(8);
        let compiled = CompiledProtocol::compile_default(&Absorb, 8).unwrap();
        let mut generic = Executor::new(&g, &Absorb, 5);
        generic.enable_state_census();
        let mut dense = DenseExecutor::new(&g, &compiled, 5);
        dense.enable_state_census();
        let mut lazy = LazyDenseExecutor::new(&g, &Absorb, 5);
        lazy.enable_state_census();
        let a = generic.run_until_stable(1 << 20).unwrap();
        let b = dense.run_until_stable(1 << 20).unwrap();
        let c = lazy.run_until_stable(1 << 20).unwrap();
        assert_eq!(a.distinct_states, Some(2));
        assert_eq!(a, b);
        assert_eq!(a, c);
    }

    #[test]
    fn reset_restores_initial_configuration() {
        let g = families::clique(8);
        let compiled = CompiledProtocol::compile_default(&Absorb, 8).unwrap();
        let mut exec = DenseExecutor::new(&g, &compiled, 1);
        exec.enable_state_census();
        exec.run_until_stable(1 << 20).unwrap();
        assert_eq!(exec.leader_count(), 1);
        exec.reset(2);
        assert_eq!(exec.steps(), 0);
        assert_eq!(exec.leader_count(), 8);
        assert_eq!(exec.outcome().distinct_states, Some(1));
        let out = exec.run_until_stable(1 << 20).unwrap();
        assert_eq!(out.leader_count, 1);
    }

    #[test]
    fn lazy_reset_keeps_cache_and_reproduces_fresh_runs() {
        let g = families::clique(10);
        let mut warm = LazyDenseExecutor::new(&g, &Absorb, 1);
        warm.run_until_stable(1 << 20).unwrap();
        let cached = warm.table().num_cached_pairs();
        assert!(cached > 0);
        warm.reset(2);
        assert_eq!(warm.steps(), 0);
        assert_eq!(warm.leader_count(), 10);
        // The cache survived the reset…
        assert_eq!(warm.table().num_cached_pairs(), cached);
        // …and the warm run is bit-identical to a cold one.
        let warm_out = warm.run_until_stable(1 << 20).unwrap();
        let cold_out = LazyDenseExecutor::new(&g, &Absorb, 2)
            .run_until_stable(1 << 20)
            .unwrap();
        assert_eq!(warm_out, cold_out);
    }

    #[test]
    fn budget_exhaustion_reported() {
        let g = families::clique(20);
        let compiled = CompiledProtocol::compile_default(&Absorb, 20).unwrap();
        let mut exec = DenseExecutor::new(&g, &compiled, 5);
        let err = exec.run_until_stable(1).unwrap_err();
        assert_eq!(err, NotStabilized { max_steps: 1 });
        let mut lazy = LazyDenseExecutor::new(&g, &Absorb, 5);
        assert_eq!(lazy.run_until_stable(1).unwrap_err(), err);
    }

    #[test]
    #[should_panic(expected = "does not match")]
    fn graph_larger_than_compilation_rejected() {
        let g = families::clique(6);
        let compiled = CompiledProtocol::compile_default(&Absorb, 5).unwrap();
        let _ = DenseExecutor::new(&g, &compiled, 0);
    }

    #[test]
    fn graph_smaller_than_compilation_accepted() {
        // A compilation for n + k nodes serves any graph with ≤ n + k
        // nodes (the churn path relies on this).
        let g = families::clique(4);
        let compiled = CompiledProtocol::compile_default(&Absorb, 7).unwrap();
        let mut exec = DenseExecutor::new(&g, &compiled, 3);
        assert_eq!(exec.state_ids().len(), 4);
        let out = exec.run_until_stable(1 << 20).unwrap();
        assert_eq!(out.leader_count, 1);
        exec.reset(4);
        assert_eq!(exec.state_ids().len(), 4);
        assert_eq!(exec.leader_count(), 4);
    }

    #[test]
    fn bounded_runs_consume_scheduler_exactly() {
        // run_steps must never draw past its budget: after any bounded
        // run the scheduler's draw count equals the applied step count
        // (for every decoder; the invariant fault injection rests on).
        for g in [families::clique(16), families::cycle(16)] {
            let n = g.num_nodes();
            let compiled = CompiledProtocol::compile_default(&Absorb, n).unwrap();
            let mut exec = DenseExecutor::new(&g, &compiled, 11);
            let mut lazy = LazyDenseExecutor::new(&g, &Absorb, 11);
            for k in [1u64, 7, 255, 256, 257, 1000] {
                exec.run_steps(k);
                lazy.run_steps(k);
            }
            assert_eq!(exec.steps(), 1 + 7 + 255 + 256 + 257 + 1000);
            assert_eq!(exec.scheduler_steps(), exec.steps(), "{g}");
            assert_eq!(lazy.steps(), exec.steps());
            assert_eq!(lazy.scheduler_steps(), lazy.steps(), "{g} (lazy)");
        }
    }

    #[test]
    fn corruption_matches_generic() {
        let g = families::clique(10);
        let compiled = CompiledProtocol::compile_default(&Absorb, 10).unwrap();
        let mut generic = Executor::new(&g, &Absorb, 21);
        let mut dense = DenseExecutor::new(&g, &compiled, 21);
        let mut lazy = LazyDenseExecutor::new(&g, &Absorb, 21);
        generic.run_steps(500);
        dense.run_steps(500);
        lazy.run_steps(500);
        for v in [0u32, 3, 9] {
            generic.corrupt_to_initial(v);
            dense.corrupt_to_initial(v);
            lazy.corrupt_to_initial(v);
        }
        assert_eq!(generic.leader_count(), dense.leader_count());
        assert_eq!(generic.leader_count(), lazy.leader_count());
        for _ in 0..2000 {
            let step = generic.step();
            assert_eq!(step, dense.step());
            assert_eq!(step, lazy.step());
            assert_eq!(generic.is_stable(), dense.is_stable());
            assert_eq!(generic.is_stable(), lazy.is_stable());
        }
        assert_eq!(generic.outcome(), dense.outcome());
        assert_eq!(generic.outcome(), lazy.outcome());
    }
}
