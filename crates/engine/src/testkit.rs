//! Protocols shared by the engine's unit tests.

use crate::protocol::{LeaderCountOracle, Protocol, Role};
use popele_graph::NodeId;

/// Two-state leader absorption: the initiator absorbs the responder's
/// leadership, so executions stabilize on cliques (where all leaders
/// stay adjacent) and never on sparser graphs.
#[derive(Clone, Copy)]
pub(crate) struct Absorb;

impl Protocol for Absorb {
    type State = bool;
    type Oracle = LeaderCountOracle;

    fn initial_state(&self, _node: NodeId) -> bool {
        true
    }

    fn transition(&self, a: &bool, b: &bool) -> (bool, bool) {
        if *a && *b {
            (true, false)
        } else {
            (*a, *b)
        }
    }

    fn output(&self, s: &bool) -> Role {
        if *s {
            Role::Leader
        } else {
            Role::Follower
        }
    }

    fn oracle(&self) -> LeaderCountOracle {
        LeaderCountOracle::new()
    }

    fn state_space_bound(&self) -> Option<u64> {
        Some(2)
    }
}
