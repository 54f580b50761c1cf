//! The benchmark's workloads: each is a list of sweep campaigns (one
//! each today) whose time is dominated by a different layer of the program.

use popele_lab::sweep::{FaultSpec, ProtocolSpec, SweepSpec};
use popele_lab::workloads::Family;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Many tiny faulted cells: cell preparation and per-trial setup.
    SweepSetup,
    /// Cells whose state space only the lazy tier can hold.
    SweepLazy,
    /// Clique elections at n = 10⁶ on the count tier.
    CountElect,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 3] = [
        Workload::SweepSetup,
        Workload::SweepLazy,
        Workload::CountElect,
    ];

    /// The workload's name on the command line.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::SweepSetup => "sweep-setup",
            Workload::SweepLazy => "sweep-lazy",
            Workload::CountElect => "count-elect",
        }
    }

    /// Parses a [`Self::name`].
    #[must_use]
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether outputs are pinned by digests at recorded seeds. The
    /// count tier is exact in distribution only, so its outputs are
    /// checked by electing, not by bytes.
    #[must_use]
    pub fn digest_gated(self) -> bool {
        self != Workload::CountElect
    }

    /// Whether every trial must elect within the budget (a timeout is a
    /// failure). In the sweep workloads a timeout is a result that the
    /// digests pin.
    #[must_use]
    pub fn must_elect(self) -> bool {
        self == Workload::CountElect
    }

    /// The campaigns the workload runs, in order, for a master seed.
    #[must_use]
    pub fn campaigns(self, master_seed: u64) -> Vec<SweepSpec> {
        let base = SweepSpec {
            master_seed,
            threads: 1,
            ..SweepSpec::default()
        };
        match self {
            Workload::SweepSetup => vec![SweepSpec {
                name: "sweep-setup".into(),
                protocols: ProtocolSpec::ALL.to_vec(),
                families: vec![
                    Family::Cycle,
                    Family::Star,
                    Family::Torus,
                    Family::RandomRegular4,
                    Family::Clique,
                ],
                sizes: vec![64, 256, 1024],
                faults: FaultSpec::ALL.to_vec(),
                trials_per_cell: 4,
                shard_trials: 1,
                max_steps: 200_000,
                ..base
            }],
            Workload::SweepLazy => vec![SweepSpec {
                name: "sweep-lazy".into(),
                protocols: vec![ProtocolSpec::Identifier, ProtocolSpec::Fast],
                families: vec![
                    Family::Cycle,
                    Family::Star,
                    Family::Torus,
                    Family::RandomRegular4,
                ],
                sizes: vec![16_000, 80_000],
                trials_per_cell: 2,
                shard_trials: 1,
                max_steps: 10_000_000,
                ..base
            }],
            // n = 10⁶ rather than 10⁷: the fast protocol's election
            // length varies fourfold between seeds, so only many trials
            // keep the workload's length steady, and at 10⁷ only four fit
            // in a run.
            Workload::CountElect => vec![SweepSpec {
                name: "count-elect".into(),
                protocols: vec![ProtocolSpec::Fast, ProtocolSpec::Majority],
                families: vec![Family::Clique],
                sizes: vec![1_000_000],
                trials_per_cell: 12,
                shard_trials: 1,
                max_steps: 20_000_000_000,
                ..base
            }],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
    }

    #[test]
    fn grids_have_the_documented_shapes() {
        let setup = &Workload::SweepSetup.campaigns(1)[0];
        assert_eq!(setup.shards().len(), 1368);
        let count = &Workload::CountElect.campaigns(1)[0];
        assert!(count.cells().iter().all(|cell| count.cell_is_count(cell)));
        // Campaign names are distinct, so their outputs never collide.
        for w in Workload::ALL {
            let names: Vec<String> = w.campaigns(1).into_iter().map(|s| s.name).collect();
            let mut unique = names.clone();
            unique.dedup();
            assert_eq!(names, unique);
        }
    }
}
