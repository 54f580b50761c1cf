//! The dense-state simulation core: compiled protocols over integer ids.
//!
//! Every protocol the paper analyses runs far faster when its typed
//! states are lowered to dense integer ids and its transition function
//! to table/cache lookups — the per-interaction hot path becomes two
//! array reads, one lookup and two array writes, with no cloning,
//! hashing of typed states, or per-step transition evaluation. This
//! module family implements that lowering twice, for two regimes:
//!
//! * [`table`] — **ahead-of-time** compilation ([`CompiledProtocol`]):
//!   the reachable state space is enumerated up front into `u16` ids and
//!   the full `|Λ|²` transition table precomputed. Fastest, shareable
//!   across threads, but only possible while the closure fits
//!   [`DEFAULT_MAX_COMPILED_STATES`].
//! * [`lazy`] — **lazy** compilation ([`LazyTable`]): states interned
//!   into `u32` ids on first sight, pair successors memoized in a
//!   growable open-addressed cache on first use. Covers the protocols
//!   whose state spaces overflow the ahead-of-time cap — the identifier
//!   protocol at realistic `k` (Theorem 21), full-scale fast-protocol
//!   instances (Theorem 24) — at a hot-loop cost of one extra hash.
//! * [`decoder`] — the edge decoders and batched draw machinery the
//!   per-agent dense engines share: raw scheduler indices are resolved into node pairs
//!   through shape-specialized decoders (arithmetic clique decode,
//!   16-bit packed lists, CSR split form) without ever deviating from
//!   the scheduler's interaction sequence.
//! * [`exec`] — the executor, written once: [`TableExecutor`] runs over
//!   the [`PairTable`] trait both tables implement, and
//!   [`DenseExecutor`] / [`LazyDenseExecutor`] are its two
//!   instantiations. It mirrors [`crate::Executor`] exactly: same
//!   scheduler, same seed handling, same oracle semantics, same
//!   [`crate::Outcome`]s.
//! * [`lanes`] — the **lane-parallel** executor
//!   ([`LaneDenseExecutor`]): 8–16 trials of one compiled cell stepped
//!   in lockstep over structure-of-arrays state, one RNG stream per
//!   lane, so independent per-trial dependency chains overlap in the
//!   pipeline. Per trial it is trace-identical to [`DenseExecutor`] —
//!   each lane consumes exactly the scheduler stream its seed would
//!   produce scalar.
//! * [`count`] — the **count-based batch engine** ([`CountEngine`]):
//!   clique-only, stores a `u64` count per compiled state instead of a
//!   per-agent configuration and draws interactions in collision-free
//!   `O(√n)` batches from the counts alone, reaching populations
//!   (`10⁷–10⁹`) no per-agent engine can represent. Exact in
//!   distribution rather than trace-identical — see its module docs.
//!
//! # Three engines, one contract
//!
//! For the same (protocol, graph, seed) all three engines — generic,
//! AOT-dense, lazy-dense — produce the identical interaction sequence
//! and outcome; differential tests across the workspace pin this, and
//! [`crate::monte_carlo::run_trials_auto`] exploits it to pick the
//! fastest applicable engine per workload without ever changing results.

pub mod count;
pub mod decoder;
pub mod exec;
pub mod lanes;
pub mod lazy;
pub mod table;

pub use count::{
    compile_for_count, count_supported, CountEngine, COUNT_MAX_COMPILED_STATES, COUNT_MIN_AGENTS,
};
pub use decoder::{DecoderKind, DECODER_MAX_EDGES, PACKED_MAX_NODES};
pub use exec::{DenseExecutor, LazyDenseExecutor, PairTable, TableExecutor};
pub use lanes::{LaneDenseExecutor, LaneOutcome, LANE_BLOCK, MAX_LANES};
pub use lazy::{LazyId, LazyTable};
pub use table::{
    probe_state_space, CompileError, CompiledProtocol, SpaceProbe, StateId,
    DEFAULT_MAX_COMPILED_STATES, MAX_STATE_IDS, PROBE_EVAL_BUDGET,
};
