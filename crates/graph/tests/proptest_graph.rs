//! Property-based tests for graph construction and structure.

use popele_graph::properties::{diameter, diameter_double_sweep, is_connected};
use popele_graph::renitent::{cycle_cover, lemma38};
use popele_graph::traversal::{bfs_distances, connected_components, UNREACHABLE};
use popele_graph::{families, random, Graph, GraphBuilder};
use proptest::prelude::*;

fn arbitrary_graph() -> impl Strategy<Value = Graph> {
    (
        1u32..=30,
        prop::collection::vec((0u32..30, 0u32..30), 0..80),
    )
        .prop_map(|(n, pairs)| {
            let mut b = GraphBuilder::new(n);
            let mut seen = std::collections::HashSet::new();
            for (u, v) in pairs {
                let (u, v) = (u % n, v % n);
                if u != v && seen.insert((u.min(v), u.max(v))) {
                    b.add_edge(u, v).unwrap();
                }
            }
            b.build().unwrap()
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every CSR-patch constructor equals `Graph::from_edges` of the
    /// edited edge list — errors included, for arbitrary (possibly
    /// invalid) anchors and added edges.
    #[test]
    fn csr_patches_equal_rebuilds(
        g in arbitrary_graph(),
        anchors in prop::collection::vec(0u32..32, 0..6),
        pick in any::<u32>(),
        add in (0u32..31, 0u32..31),
    ) {
        let n = g.num_nodes();
        let mut joined = g.edges().to_vec();
        joined.extend(anchors.iter().map(|&a| (a, n)));
        prop_assert_eq!(g.with_node(&anchors), Graph::from_edges(n + 1, &joined));

        let extra = [add, (add.1 % n, add.0 % n)];
        let mut added = g.edges().to_vec();
        added.extend(extra);
        prop_assert_eq!(g.with_edges(&extra), Graph::from_edges(n, &added));

        let v = pick % n;
        let last = n - 1;
        let relabel = |w| if w == last { v } else { w };
        let left: Vec<_> = g
            .edges()
            .iter()
            .filter(|&&(a, b)| a != v && b != v)
            .map(|&(a, b)| (relabel(a), relabel(b)))
            .collect();
        prop_assert_eq!(g.without_node(v), Graph::from_edges(last, &left));

        if g.num_edges() > 0 {
            let e = pick as usize % g.num_edges();
            let mut moved = g.edges().to_vec();
            moved.remove(e);
            for add in [None, Some(add), Some((add.0 % n, add.1 % n))] {
                let mut edges = moved.clone();
                edges.extend(add);
                prop_assert_eq!(g.with_edge_moved(e, add), Graph::from_edges(n, &edges));
            }
        }
    }

    /// Handshake lemma and adjacency symmetry for arbitrary graphs.
    #[test]
    fn handshake_and_symmetry(g in arbitrary_graph()) {
        let degree_sum: u64 = g.nodes().map(|v| u64::from(g.degree(v))).sum();
        prop_assert_eq!(degree_sum, 2 * g.num_edges() as u64);
        for &(u, v) in g.edges() {
            prop_assert!(u < v);
            prop_assert!(g.has_edge(u, v) && g.has_edge(v, u));
        }
    }

    /// BFS distances satisfy the triangle property along edges:
    /// |d(u) − d(v)| ≤ 1 for every edge {u, v} in the source's component.
    #[test]
    fn bfs_lipschitz_along_edges(g in arbitrary_graph()) {
        let dist = bfs_distances(&g, 0);
        for &(u, v) in g.edges() {
            let (du, dv) = (dist[u as usize], dist[v as usize]);
            if du != UNREACHABLE && dv != UNREACHABLE {
                prop_assert!(du.abs_diff(dv) <= 1, "edge ({u},{v}): {du} vs {dv}");
            } else {
                prop_assert_eq!(du, dv, "one endpoint reachable, the other not");
            }
        }
    }

    /// Component labels partition the nodes consistently with edges.
    #[test]
    fn components_respect_edges(g in arbitrary_graph()) {
        let (count, labels) = connected_components(&g);
        prop_assert!(count >= 1);
        prop_assert!(labels.iter().all(|&l| (l as usize) < count));
        for &(u, v) in g.edges() {
            prop_assert_eq!(labels[u as usize], labels[v as usize]);
        }
        prop_assert_eq!(count == 1, is_connected(&g));
    }

    /// Double-sweep never exceeds the exact diameter (it is a lower
    /// bound realized by an actual shortest path).
    #[test]
    fn double_sweep_lower_bounds(n in 4u32..40, seed in any::<u64>()) {
        let g = random::erdos_renyi_connected(n, 0.3, seed, 400);
        prop_assert!(diameter_double_sweep(&g) <= diameter(&g));
    }

    /// G(n, m) produces exactly m distinct edges.
    #[test]
    fn gnm_edge_count_exact(n in 2u32..40, seed in any::<u64>()) {
        let max_m = u64::from(n) * u64::from(n - 1) / 2;
        let m = seed % (max_m + 1);
        let g = random::gnm(n, m, seed);
        prop_assert_eq!(g.num_edges() as u64, m);
    }

    /// Random regular graphs are simple and exactly d-regular.
    #[test]
    fn random_regular_valid(half_n in 3u32..15, d in 2u32..5, seed in any::<u64>()) {
        let n = 2 * half_n; // even so n·d is always even
        prop_assume!(d < n);
        let g = random::random_regular(n, d, seed);
        prop_assert!(g.is_regular());
        prop_assert_eq!(g.max_degree(), d);
        prop_assert_eq!(g.num_edges() as u64, u64::from(n) * u64::from(d) / 2);
    }

    /// Lemma 38 covers verify for arbitrary connected bases and radii.
    #[test]
    fn lemma38_cover_valid(base_n in 3u32..8, ell_extra in 0u32..6) {
        let base = families::clique(base_n); // diameter 1
        let ell = 1 + ell_extra;
        let (g, cover) = lemma38(&base, 0, ell);
        prop_assert!(is_connected(&g));
        prop_assert!(cover.verify(&g).is_empty(), "{:?}", cover.verify(&g));
        prop_assert!(cover.disjoint_pair(&g).is_some());
        // Size accounting: 4 copies + 4 paths of 2ℓ−1 internal nodes.
        prop_assert_eq!(g.num_nodes(), 4 * base_n + 4 * (2 * ell - 1));
    }

    /// Cycle covers verify for all admissible sizes.
    #[test]
    fn cycle_cover_valid(quarter in 2u32..40) {
        let n = 4 * quarter;
        let (g, cover) = cycle_cover(n);
        prop_assert!(cover.verify(&g).is_empty());
    }

    /// Torus family: always 4-regular with n = side² nodes, diameter
    /// side (two independent wrap distances of side/2 each).
    #[test]
    fn torus_structure(side in 3u32..12) {
        let g = families::torus(side, side);
        prop_assert!(g.is_regular());
        prop_assert_eq!(g.max_degree(), 4);
        prop_assert_eq!(g.num_nodes(), side * side);
        prop_assert_eq!(diameter(&g), 2 * (side / 2));
    }

    /// Hypercube diameter equals its dimension.
    #[test]
    fn hypercube_diameter(d in 1u32..8) {
        let g = families::hypercube(d);
        prop_assert_eq!(diameter(&g), d);
        prop_assert_eq!(g.num_nodes(), 1 << d);
    }

    /// Disjoint union preserves structure on both sides.
    #[test]
    fn disjoint_union_preserves(a in arbitrary_graph(), b in arbitrary_graph()) {
        let (u, offset) = a.disjoint_union(&b);
        prop_assert_eq!(u.num_nodes(), a.num_nodes() + b.num_nodes());
        prop_assert_eq!(u.num_edges(), a.num_edges() + b.num_edges());
        for &(x, y) in a.edges() {
            prop_assert!(u.has_edge(x, y));
        }
        for &(x, y) in b.edges() {
            prop_assert!(u.has_edge(x + offset, y + offset));
        }
        // No cross edges.
        for v in 0..a.num_nodes() {
            for &w in u.neighbors(v) {
                prop_assert!(w < a.num_nodes());
            }
        }
    }
}
