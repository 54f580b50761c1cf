//! The core immutable undirected graph type.

use std::fmt;

/// Identifier of a node; nodes of an `n`-node graph are `0..n`.
pub type NodeId = u32;

/// Errors raised while building a [`Graph`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphError {
    /// An edge endpoint is `>= num_nodes`.
    NodeOutOfRange {
        /// The offending endpoint.
        node: NodeId,
        /// Number of nodes the builder was created with.
        num_nodes: u32,
    },
    /// An edge connects a node to itself.
    SelfLoop(NodeId),
    /// The same undirected edge was added twice.
    DuplicateEdge(NodeId, NodeId),
    /// The graph has zero nodes.
    Empty,
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::NodeOutOfRange { node, num_nodes } => {
                write!(
                    f,
                    "node {node} out of range for graph with {num_nodes} nodes"
                )
            }
            GraphError::SelfLoop(v) => write!(f, "self-loop at node {v}"),
            GraphError::DuplicateEdge(u, v) => write!(f, "duplicate edge {{{u}, {v}}}"),
            GraphError::Empty => write!(f, "graph must have at least one node"),
        }
    }
}

impl std::error::Error for GraphError {}

/// Incremental builder for [`Graph`].
///
/// # Examples
///
/// ```
/// use popele_graph::GraphBuilder;
///
/// let mut b = GraphBuilder::new(3);
/// b.add_edge(0, 1)?;
/// b.add_edge(1, 2)?;
/// let g = b.build()?;
/// assert_eq!(g.num_edges(), 2);
/// # Ok::<(), popele_graph::GraphError>(())
/// ```
#[derive(Debug, Clone)]
pub struct GraphBuilder {
    num_nodes: u32,
    edges: Vec<(NodeId, NodeId)>,
}

impl GraphBuilder {
    /// Starts a builder for a graph on `num_nodes` nodes.
    #[must_use]
    pub fn new(num_nodes: u32) -> Self {
        Self {
            num_nodes,
            edges: Vec::new(),
        }
    }

    /// Adds the undirected edge `{u, v}`.
    ///
    /// # Errors
    ///
    /// Returns an error for out-of-range endpoints or self-loops.
    /// Duplicate edges are detected at [`Self::build`] time.
    pub fn add_edge(&mut self, u: NodeId, v: NodeId) -> Result<(), GraphError> {
        if u >= self.num_nodes {
            return Err(GraphError::NodeOutOfRange {
                node: u,
                num_nodes: self.num_nodes,
            });
        }
        if v >= self.num_nodes {
            return Err(GraphError::NodeOutOfRange {
                node: v,
                num_nodes: self.num_nodes,
            });
        }
        if u == v {
            return Err(GraphError::SelfLoop(u));
        }
        self.edges.push((u.min(v), u.max(v)));
        Ok(())
    }

    /// Number of edges added so far.
    #[must_use]
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Finalizes the graph.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::Empty`] for a zero-node graph and
    /// [`GraphError::DuplicateEdge`] if the same edge was added twice.
    pub fn build(mut self) -> Result<Graph, GraphError> {
        if self.num_nodes == 0 {
            return Err(GraphError::Empty);
        }
        self.edges.sort_unstable();
        for w in self.edges.windows(2) {
            if w[0] == w[1] {
                return Err(GraphError::DuplicateEdge(w[0].0, w[0].1));
            }
        }
        Ok(Graph::from_sorted_edges(self.num_nodes, self.edges))
    }
}

/// An immutable, simple, undirected graph in CSR form.
///
/// Invariants: no self-loops, no parallel edges, canonical edge order
/// (`u < v`, lexicographically sorted), adjacency lists sorted ascending.
///
/// # Examples
///
/// ```
/// use popele_graph::Graph;
///
/// let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)])?;
/// assert_eq!(g.degree(0), 2);
/// assert_eq!(g.neighbors(1), &[0, 2]);
/// assert!(g.has_edge(3, 0));
/// assert!(!g.has_edge(0, 2));
/// # Ok::<(), popele_graph::GraphError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Graph {
    num_nodes: u32,
    /// Canonical edge list: `u < v`, sorted.
    edges: Vec<(NodeId, NodeId)>,
    /// CSR offsets, length `num_nodes + 1`.
    offsets: Vec<u32>,
    /// Concatenated sorted adjacency lists, length `2m`.
    adjacency: Vec<NodeId>,
}

impl Graph {
    /// Builds a graph from an edge list.
    ///
    /// # Errors
    ///
    /// Propagates the same validation errors as [`GraphBuilder`].
    pub fn from_edges(num_nodes: u32, edges: &[(NodeId, NodeId)]) -> Result<Self, GraphError> {
        let mut b = GraphBuilder::new(num_nodes);
        for &(u, v) in edges {
            b.add_edge(u, v)?;
        }
        b.build()
    }

    /// Internal constructor from validated, canonically sorted edges.
    fn from_sorted_edges(num_nodes: u32, edges: Vec<(NodeId, NodeId)>) -> Self {
        let n = num_nodes as usize;
        let mut degree = vec![0u32; n];
        for &(u, v) in &edges {
            degree[u as usize] += 1;
            degree[v as usize] += 1;
        }
        let mut offsets = vec![0u32; n + 1];
        for i in 0..n {
            offsets[i + 1] = offsets[i] + degree[i];
        }
        let mut adjacency = vec![0u32; 2 * edges.len()];
        let mut cursor = offsets.clone();
        for &(u, v) in &edges {
            adjacency[cursor[u as usize] as usize] = v;
            cursor[u as usize] += 1;
            adjacency[cursor[v as usize] as usize] = u;
            cursor[v as usize] += 1;
        }
        for i in 0..n {
            adjacency[offsets[i] as usize..offsets[i + 1] as usize].sort_unstable();
        }
        Self {
            num_nodes,
            edges,
            offsets,
            adjacency,
        }
    }

    /// Number of nodes `n`.
    #[must_use]
    pub fn num_nodes(&self) -> u32 {
        self.num_nodes
    }

    /// Number of edges `m`.
    #[must_use]
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// The canonical (sorted, `u < v`) edge list.
    #[must_use]
    pub fn edges(&self) -> &[(NodeId, NodeId)] {
        &self.edges
    }

    /// Degree of node `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    #[must_use]
    pub fn degree(&self, v: NodeId) -> u32 {
        let v = v as usize;
        assert!(v < self.num_nodes as usize, "node out of range");
        self.offsets[v + 1] - self.offsets[v]
    }

    /// Sorted neighbours of node `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    #[must_use]
    pub fn neighbors(&self, v: NodeId) -> &[NodeId] {
        let v = v as usize;
        assert!(v < self.num_nodes as usize, "node out of range");
        &self.adjacency[self.offsets[v] as usize..self.offsets[v + 1] as usize]
    }

    /// Whether the undirected edge `{u, v}` is present.
    #[must_use]
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        if u >= self.num_nodes || v >= self.num_nodes || u == v {
            return false;
        }
        // Search the shorter adjacency list.
        let (a, b) = if self.degree(u) <= self.degree(v) {
            (u, v)
        } else {
            (v, u)
        };
        self.neighbors(a).binary_search(&b).is_ok()
    }

    /// Maximum degree `Δ`.
    #[must_use]
    pub fn max_degree(&self) -> u32 {
        (0..self.num_nodes)
            .map(|v| self.degree(v))
            .max()
            .unwrap_or(0)
    }

    /// Minimum degree `δ`.
    #[must_use]
    pub fn min_degree(&self) -> u32 {
        (0..self.num_nodes)
            .map(|v| self.degree(v))
            .min()
            .unwrap_or(0)
    }

    /// Average degree `2m/n`.
    #[must_use]
    pub fn avg_degree(&self) -> f64 {
        2.0 * self.num_edges() as f64 / self.num_nodes as f64
    }

    /// Whether every node has the same degree.
    #[must_use]
    pub fn is_regular(&self) -> bool {
        self.max_degree() == self.min_degree()
    }

    /// Iterator over all node ids `0..n`.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        0..self.num_nodes
    }

    /// Disjoint union with another graph: nodes of `other` are relabelled to
    /// `self.num_nodes()..`, and no edges connect the two parts.
    ///
    /// Returns the combined graph and the offset applied to `other`'s ids.
    #[must_use]
    pub fn disjoint_union(&self, other: &Graph) -> (Graph, u32) {
        let offset = self.num_nodes;
        let mut edges = self.edges.clone();
        edges.extend(other.edges.iter().map(|&(u, v)| (u + offset, v + offset)));
        edges.sort_unstable();
        (
            Graph::from_sorted_edges(self.num_nodes + other.num_nodes, edges),
            offset,
        )
    }

    /// Returns a new graph with the given extra edges added.
    ///
    /// Built by patching this graph's CSR rows, so the existing edges are
    /// neither re-validated nor re-sorted: `O(n + m)` for a few extra
    /// edges.
    ///
    /// # Errors
    ///
    /// Same validation as [`GraphBuilder`]; adding an existing edge is a
    /// [`GraphError::DuplicateEdge`].
    pub fn with_edges(&self, extra: &[(NodeId, NodeId)]) -> Result<Graph, GraphError> {
        self.edited(self.num_nodes, None, extra)
    }

    /// Returns a new graph with edge `edges()[e]` deleted and, if given,
    /// the edge `add` inserted — one rewiring, as a CSR patch in
    /// `O(n + m)`. Equal to [`Graph::from_edges`] of the edited edge list.
    ///
    /// # Errors
    ///
    /// Validates `add` like [`GraphBuilder`]; inserting an edge still
    /// present after the deletion is a [`GraphError::DuplicateEdge`].
    ///
    /// # Panics
    ///
    /// Panics if `e >= num_edges()`.
    pub fn with_edge_moved(
        &self,
        e: usize,
        add: Option<(NodeId, NodeId)>,
    ) -> Result<Graph, GraphError> {
        self.edited(self.num_nodes, Some(self.edges[e]), add.as_slice())
    }

    /// Returns a new graph with one extra node, id `n`, adjacent to each
    /// of `anchors` — a join, as a CSR patch in `O(n + m)` for a few
    /// anchors. Equal to [`Graph::from_edges`] on `n + 1` nodes of the
    /// edge list plus every `(a, n)`.
    ///
    /// # Errors
    ///
    /// Validates the new edges like [`GraphBuilder`]: an anchor above `n`
    /// is out of range, an anchor equal to `n` a self-loop, and a repeated
    /// anchor a duplicate edge.
    pub fn with_node(&self, anchors: &[NodeId]) -> Result<Graph, GraphError> {
        let n = self.num_nodes;
        let extra: Vec<(NodeId, NodeId)> = anchors.iter().map(|&a| (a, n)).collect();
        self.edited(n + 1, None, &extra)
    }

    /// Returns a new graph without node `v` and its edges; the last node
    /// `n − 1` takes the id `v` to close the gap. A leave, as a CSR patch
    /// in `O(n + m)`: equal to [`Graph::from_edges`] on `n − 1` nodes of
    /// the edge list with the edges at `v` dropped and `n − 1` relabelled
    /// to `v`.
    ///
    /// # Errors
    ///
    /// [`GraphError::NodeOutOfRange`] if `v >= n`, and
    /// [`GraphError::Empty`] when removing the only node.
    pub fn without_node(&self, v: NodeId) -> Result<Graph, GraphError> {
        let n = self.num_nodes;
        if v >= n {
            return Err(GraphError::NodeOutOfRange {
                node: v,
                num_nodes: n,
            });
        }
        let last = n - 1;
        if last == 0 {
            return Err(GraphError::Empty);
        }
        let m = self.num_edges() - self.degree(v) as usize;
        Ok(Self::from_rows(last, m, |w, adjacency| {
            let mut row = self.neighbors(if w == v { last } else { w });
            // `last` is the largest id, so it can only end a row; renamed
            // to `v`, it moves to `v`'s place in the order.
            let renamed = v != last && row.last() == Some(&last);
            if renamed {
                row = &row[..row.len() - 1];
            }
            push_row(adjacency, row, Some(v), renamed.then_some(v).as_slice());
        }))
    }

    /// The CSR patch behind [`Graph::with_edges`], [`Graph::with_edge_moved`]
    /// and [`Graph::with_node`]: the graph on `num_nodes ≥ n` nodes with
    /// `removed` (an edge of `self`) deleted and `extra` inserted. The
    /// extra edges are validated as [`GraphBuilder`] would validate them
    /// after the existing ones, so the errors match
    /// [`Graph::from_edges`] of the edited list.
    fn edited(
        &self,
        num_nodes: u32,
        removed: Option<(NodeId, NodeId)>,
        extra: &[(NodeId, NodeId)],
    ) -> Result<Graph, GraphError> {
        let mut check = GraphBuilder::new(num_nodes);
        for &(u, v) in extra {
            check.add_edge(u, v)?;
        }
        let mut added = check.edges;
        added.sort_unstable();
        for (i, &(u, v)) in added.iter().enumerate() {
            let present = self.has_edge(u, v) && removed != Some((u, v));
            if present || (i > 0 && added[i - 1] == (u, v)) {
                return Err(GraphError::DuplicateEdge(u, v));
            }
        }
        // Both directions of every new edge, grouped by row.
        let mut half: Vec<(NodeId, NodeId)> =
            added.iter().flat_map(|&(u, v)| [(u, v), (v, u)]).collect();
        half.sort_unstable();
        let m = self.num_edges() - usize::from(removed.is_some()) + added.len();
        let mut pending = &half[..];
        let mut insert = Vec::new();
        Ok(Self::from_rows(num_nodes, m, |w, adjacency| {
            let row = if w < self.num_nodes {
                self.neighbors(w)
            } else {
                &[]
            };
            let drop = match removed {
                Some((a, b)) if w == a => Some(b),
                Some((a, b)) if w == b => Some(a),
                _ => None,
            };
            let k = pending.partition_point(|&(x, _)| x == w);
            insert.clear();
            insert.extend(pending[..k].iter().map(|&(_, y)| y));
            pending = &pending[k..];
            push_row(adjacency, row, drop, &insert);
        }))
    }

    /// Builds the graph whose row `w` is what `fill(w, adjacency)` appends
    /// (ascending), reading the canonical edge list off each row as it is
    /// written: `O(n + m)`, no sort. `num_edges` sizes the buffers.
    fn from_rows(
        num_nodes: u32,
        num_edges: usize,
        mut fill: impl FnMut(NodeId, &mut Vec<NodeId>),
    ) -> Self {
        let mut offsets = Vec::with_capacity(num_nodes as usize + 1);
        let mut adjacency = Vec::with_capacity(2 * num_edges);
        let mut edges = Vec::with_capacity(num_edges);
        offsets.push(0);
        for u in 0..num_nodes {
            let start = adjacency.len();
            fill(u, &mut adjacency);
            let row = &adjacency[start..];
            debug_assert!(row.windows(2).all(|p| p[0] < p[1]), "row {u} not ascending");
            let above = row.partition_point(|&w| w < u);
            edges.extend(row[above..].iter().map(|&w| (u, w)));
            offsets.push(adjacency.len() as u32);
        }
        Self {
            num_nodes,
            edges,
            offsets,
            adjacency,
        }
    }
}

/// Appends `row` without `drop` to `adjacency`, then slots each of the
/// (few) `insert` ids into place — one or two slice copies per row.
fn push_row(adjacency: &mut Vec<NodeId>, row: &[NodeId], drop: Option<NodeId>, insert: &[NodeId]) {
    let start = adjacency.len();
    match drop.map(|x| row.binary_search(&x)) {
        Some(Ok(i)) => {
            adjacency.extend_from_slice(&row[..i]);
            adjacency.extend_from_slice(&row[i + 1..]);
        }
        _ => adjacency.extend_from_slice(row),
    }
    for &y in insert {
        let at = start + adjacency[start..].partition_point(|&w| w < y);
        adjacency.insert(at, y);
    }
}

impl fmt::Display for Graph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Graph(n={}, m={}, Δ={}, δ={})",
            self.num_nodes,
            self.num_edges(),
            self.max_degree(),
            self.min_degree()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn triangle_basics() {
        let g = Graph::from_edges(3, &[(0, 1), (1, 2), (0, 2)]).unwrap();
        assert_eq!(g.num_nodes(), 3);
        assert_eq!(g.num_edges(), 3);
        for v in 0..3 {
            assert_eq!(g.degree(v), 2);
        }
        assert!(g.is_regular());
        assert_eq!(g.avg_degree(), 2.0);
    }

    #[test]
    fn neighbors_sorted() {
        let g = Graph::from_edges(5, &[(3, 0), (0, 4), (1, 0), (0, 2)]).unwrap();
        assert_eq!(g.neighbors(0), &[1, 2, 3, 4]);
        assert_eq!(g.degree(0), 4);
        assert_eq!(g.degree(1), 1);
    }

    #[test]
    fn has_edge_both_orders() {
        let g = Graph::from_edges(4, &[(0, 1), (2, 3)]).unwrap();
        assert!(g.has_edge(0, 1));
        assert!(g.has_edge(1, 0));
        assert!(g.has_edge(3, 2));
        assert!(!g.has_edge(0, 2));
        assert!(!g.has_edge(0, 0));
        assert!(!g.has_edge(0, 99));
    }

    #[test]
    fn rejects_self_loop() {
        assert_eq!(
            Graph::from_edges(2, &[(1, 1)]),
            Err(GraphError::SelfLoop(1))
        );
    }

    #[test]
    fn rejects_out_of_range() {
        assert_eq!(
            Graph::from_edges(2, &[(0, 2)]),
            Err(GraphError::NodeOutOfRange {
                node: 2,
                num_nodes: 2
            })
        );
    }

    #[test]
    fn rejects_duplicate_even_reversed() {
        assert_eq!(
            Graph::from_edges(3, &[(0, 1), (1, 0)]),
            Err(GraphError::DuplicateEdge(0, 1))
        );
    }

    #[test]
    fn rejects_empty() {
        assert_eq!(Graph::from_edges(0, &[]), Err(GraphError::Empty));
    }

    #[test]
    fn single_node_graph_ok() {
        let g = Graph::from_edges(1, &[]).unwrap();
        assert_eq!(g.num_nodes(), 1);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.degree(0), 0);
        assert_eq!(g.neighbors(0), &[] as &[u32]);
    }

    #[test]
    fn canonical_edge_list() {
        let g = Graph::from_edges(4, &[(3, 2), (1, 0), (2, 0)]).unwrap();
        assert_eq!(g.edges(), &[(0, 1), (0, 2), (2, 3)]);
    }

    #[test]
    fn disjoint_union_relabels() {
        let a = Graph::from_edges(2, &[(0, 1)]).unwrap();
        let b = Graph::from_edges(3, &[(0, 1), (1, 2)]).unwrap();
        let (u, offset) = a.disjoint_union(&b);
        assert_eq!(offset, 2);
        assert_eq!(u.num_nodes(), 5);
        assert_eq!(u.num_edges(), 3);
        assert!(u.has_edge(0, 1));
        assert!(u.has_edge(2, 3));
        assert!(u.has_edge(3, 4));
        assert!(!u.has_edge(1, 2));
    }

    #[test]
    fn with_edges_adds() {
        let g = Graph::from_edges(3, &[(0, 1)]).unwrap();
        let g2 = g.with_edges(&[(1, 2)]).unwrap();
        assert_eq!(g2.num_edges(), 2);
        assert!(g.with_edges(&[(0, 1)]).is_err());
    }

    /// `g`'s edge list with edge `e` dropped and `add` appended, through
    /// the builder — what [`Graph::with_edge_moved`] must equal.
    fn moved_reference(g: &Graph, e: usize, add: Option<(NodeId, NodeId)>) -> Graph {
        let mut edges = g.edges().to_vec();
        edges.remove(e);
        edges.extend(add);
        Graph::from_edges(g.num_nodes(), &edges).unwrap()
    }

    /// `g` without node `v`, the last node relabelled to `v`, through
    /// the builder — what [`Graph::without_node`] must equal.
    fn without_reference(g: &Graph, v: NodeId) -> Graph {
        let last = g.num_nodes() - 1;
        let relabel = |w| if w == last { v } else { w };
        let edges: Vec<_> = g
            .edges()
            .iter()
            .filter(|&&(a, b)| a != v && b != v)
            .map(|&(a, b)| (relabel(a), relabel(b)))
            .collect();
        Graph::from_edges(last, &edges).unwrap()
    }

    #[test]
    fn with_node_anchors_at_both_ends() {
        let g = Graph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4)]).unwrap();
        for anchors in [&[0][..], &[4], &[4, 0], &[2, 4, 0, 1, 3], &[]] {
            let mut edges = g.edges().to_vec();
            edges.extend(anchors.iter().map(|&a| (a, 5)));
            assert_eq!(
                g.with_node(anchors),
                Graph::from_edges(6, &edges),
                "anchors {anchors:?}"
            );
        }
        assert_eq!(g.with_node(&[1, 1]), Err(GraphError::DuplicateEdge(1, 5)));
        assert_eq!(g.with_node(&[5]), Err(GraphError::SelfLoop(5)));
        assert_eq!(
            g.with_node(&[6]),
            Err(GraphError::NodeOutOfRange {
                node: 6,
                num_nodes: 6
            })
        );
    }

    #[test]
    fn without_node_relabels_the_last_node() {
        // Node 4 is adjacent to 0 and 2, so relabelling it to 1 moves it
        // into the middle of both rows.
        let g = Graph::from_edges(5, &[(0, 1), (0, 4), (1, 2), (2, 4), (2, 3), (3, 4)]).unwrap();
        for v in 0..5 {
            assert_eq!(
                g.without_node(v).unwrap(),
                without_reference(&g, v),
                "v = {v}"
            );
        }
        // Removing the last node itself relabels nothing.
        assert_eq!(g.without_node(4).unwrap().num_nodes(), 4);
        assert_eq!(
            Graph::from_edges(1, &[]).unwrap().without_node(0),
            Err(GraphError::Empty)
        );
        assert!(matches!(
            g.without_node(5),
            Err(GraphError::NodeOutOfRange { node: 5, .. })
        ));
    }

    #[test]
    fn with_edge_moved_lands_first_or_last() {
        let g = Graph::from_edges(5, &[(0, 2), (1, 2), (1, 3), (2, 3)]).unwrap();
        for e in 0..g.num_edges() {
            // (0, 1) sorts before every edge, (3, 4) after every edge, and
            // re-adding the removed edge is allowed.
            for add in [None, Some((0, 1)), Some((4, 3)), Some(g.edges()[e])] {
                assert_eq!(
                    g.with_edge_moved(e, add).unwrap(),
                    moved_reference(&g, e, add),
                    "e = {e}, add = {add:?}"
                );
            }
        }
        assert_eq!(
            g.with_edge_moved(0, Some((2, 1))),
            Err(GraphError::DuplicateEdge(1, 2))
        );
        assert_eq!(
            g.with_edge_moved(0, Some((3, 3))),
            Err(GraphError::SelfLoop(3))
        );
    }

    #[test]
    fn error_display_messages() {
        assert!(format!("{}", GraphError::SelfLoop(3)).contains("self-loop"));
        assert!(format!("{}", GraphError::DuplicateEdge(1, 2)).contains("duplicate"));
        assert!(format!("{}", GraphError::Empty).contains("at least one"));
        assert!(format!(
            "{}",
            GraphError::NodeOutOfRange {
                node: 9,
                num_nodes: 4
            }
        )
        .contains("out of range"));
    }

    #[test]
    fn display_summarizes() {
        let g = Graph::from_edges(3, &[(0, 1), (1, 2)]).unwrap();
        let s = format!("{g}");
        assert!(s.contains("n=3") && s.contains("m=2"));
    }
}
