//! Campaign benchmark for the popele workspace.
//!
//! Three workloads run sweep campaigns through
//! `popele_lab::sweep::run_campaign` (untraced, timed end to end) and
//! through a traced single-thread replay ([`replay`]) that records one
//! span per call into each layer, from which [`metrics::breakdown`]
//! derives the per-layer numbers. See `README.md` in this directory.

pub mod compare;
pub mod digest;
pub mod host;
pub mod metrics;
pub mod replay;
pub mod stats;
pub mod trace;
pub mod workloads;
