//! The computation DAG.

use crate::node::Node;

/// Index of an operation inside a [`Graph`]'s node arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct OpId(pub u32);

impl OpId {
    /// The arena index as `usize`.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for OpId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "op{}", self.0)
    }
}

/// A dataflow edge: the output tensor of `src` feeds `dst`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Edge {
    /// Producer operation.
    pub src: OpId,
    /// Consumer operation.
    pub dst: OpId,
}

/// Errors returned by graph construction and validation.
#[derive(Debug, PartialEq, Eq)]
pub enum GraphError {
    /// An edge references a node index that does not exist.
    DanglingEdge(OpId, usize),
    /// The graph contains a directed cycle through the named node.
    Cycle(OpId),
    /// A self-loop edge was added.
    SelfLoop(OpId),
    /// Duplicate edge between the same pair of nodes.
    DuplicateEdge(OpId, OpId),
}

impl std::fmt::Display for GraphError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GraphError::DanglingEdge(id, n) => {
                write!(f, "edge endpoint {id} out of bounds (graph has {n} nodes)")
            }
            GraphError::Cycle(id) => write!(f, "graph contains a cycle through node {id}"),
            GraphError::SelfLoop(id) => write!(f, "self-loop on node {id}"),
            GraphError::DuplicateEdge(a, b) => write!(f, "duplicate edge {a} -> {b}"),
        }
    }
}

impl std::error::Error for GraphError {}

/// A directed acyclic computation graph.
///
/// Nodes live in an arena indexed by [`OpId`]; adjacency lists are kept in
/// both directions for O(1) predecessor/successor iteration, which the
/// scheduler and simulator rely on heavily.
#[derive(Debug, Clone, Default)]
pub struct Graph {
    /// Optional model name (e.g. `"vgg19"`).
    pub name: String,
    /// The global mini-batch size this graph was instantiated for.
    pub batch_size: u64,
    nodes: Vec<Node>,
    /// `succs[i]` = consumers of node `i`'s output.
    succs: Vec<Vec<OpId>>,
    /// `preds[i]` = producers feeding node `i`.
    preds: Vec<Vec<OpId>>,
}

impl Graph {
    /// Creates an empty graph.
    pub fn new(name: impl Into<String>, batch_size: u64) -> Self {
        Graph {
            name: name.into(),
            batch_size,
            nodes: Vec::new(),
            succs: Vec::new(),
            preds: Vec::new(),
        }
    }

    /// Number of operations.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when the graph holds no operations.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Number of edges.
    pub fn edge_count(&self) -> usize {
        self.succs.iter().map(Vec::len).sum()
    }

    /// Adds a node and returns its id.
    pub fn add_node(&mut self, node: Node) -> OpId {
        let id = OpId(self.nodes.len() as u32);
        self.nodes.push(node);
        self.succs.push(Vec::new());
        self.preds.push(Vec::new());
        id
    }

    /// Adds a dataflow edge `src -> dst`.
    ///
    /// Rejects self-loops, dangling endpoints and duplicates. Cycle
    /// detection is deferred to [`Graph::validate`] / topological sorting
    /// to keep edge insertion O(out-degree).
    pub fn add_edge(&mut self, src: OpId, dst: OpId) -> Result<(), GraphError> {
        let n = self.nodes.len();
        if src.index() >= n {
            return Err(GraphError::DanglingEdge(src, n));
        }
        if dst.index() >= n {
            return Err(GraphError::DanglingEdge(dst, n));
        }
        if src == dst {
            return Err(GraphError::SelfLoop(src));
        }
        if self.succs[src.index()].contains(&dst) {
            return Err(GraphError::DuplicateEdge(src, dst));
        }
        self.succs[src.index()].push(dst);
        self.preds[dst.index()].push(src);
        Ok(())
    }

    /// Immutable access to a node.
    pub fn node(&self, id: OpId) -> &Node {
        &self.nodes[id.index()]
    }

    /// All node ids in arena order.
    pub fn op_ids(&self) -> impl Iterator<Item = OpId> + '_ {
        (0..self.nodes.len() as u32).map(OpId)
    }

    /// Iterates `(id, node)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (OpId, &Node)> {
        self.nodes
            .iter()
            .enumerate()
            .map(|(i, n)| (OpId(i as u32), n))
    }

    /// Successors (consumers) of `id`.
    pub fn succs(&self, id: OpId) -> &[OpId] {
        &self.succs[id.index()]
    }

    /// Predecessors (producers) of `id`.
    pub fn preds(&self, id: OpId) -> &[OpId] {
        &self.preds[id.index()]
    }

    /// All edges, in producer order.
    pub fn edges(&self) -> impl Iterator<Item = Edge> + '_ {
        self.succs.iter().enumerate().flat_map(|(i, outs)| {
            outs.iter().map(move |&dst| Edge {
                src: OpId(i as u32),
                dst,
            })
        })
    }

    /// Nodes with no predecessors (graph inputs).
    pub fn sources(&self) -> Vec<OpId> {
        self.op_ids()
            .filter(|id| self.preds(*id).is_empty())
            .collect()
    }

    /// Nodes with no successors (graph outputs).
    pub fn sinks(&self) -> Vec<OpId> {
        self.op_ids()
            .filter(|id| self.succs(*id).is_empty())
            .collect()
    }

    /// Validates acyclicity (edge endpoint validity is enforced on
    /// insertion). Returns the first node found on a cycle otherwise.
    pub fn validate(&self) -> Result<(), GraphError> {
        crate::topo::topo_sort(self).map(|_| ())
    }

    /// Total trainable-parameter bytes across all nodes.
    pub fn total_param_bytes(&self) -> u64 {
        self.nodes.iter().map(|n| n.param_bytes).sum()
    }

    /// Total FLOPs for one iteration at this graph's batch size.
    pub fn total_flops(&self) -> f64 {
        self.nodes.iter().map(|n| n.flops(self.batch_size)).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::Phase;
    use crate::op::OpKind;

    fn n(name: &str) -> Node {
        Node::new(name, OpKind::NoOp, Phase::Forward)
    }

    #[test]
    fn add_nodes_and_edges() {
        let mut g = Graph::new("t", 1);
        let a = g.add_node(n("a"));
        let b = g.add_node(n("b"));
        let c = g.add_node(n("c"));
        g.add_edge(a, b).unwrap();
        g.add_edge(b, c).unwrap();
        assert_eq!(g.len(), 3);
        assert_eq!(g.edge_count(), 2);
        assert_eq!(g.succs(a), &[b]);
        assert_eq!(g.preds(c), &[b]);
        assert_eq!(g.sources(), vec![a]);
        assert_eq!(g.sinks(), vec![c]);
        g.validate().unwrap();
    }

    #[test]
    fn rejects_self_loop() {
        let mut g = Graph::new("t", 1);
        let a = g.add_node(n("a"));
        assert_eq!(g.add_edge(a, a), Err(GraphError::SelfLoop(a)));
    }

    #[test]
    fn rejects_dangling() {
        let mut g = Graph::new("t", 1);
        let a = g.add_node(n("a"));
        let bogus = OpId(99);
        assert!(matches!(
            g.add_edge(a, bogus),
            Err(GraphError::DanglingEdge(..))
        ));
        assert!(matches!(
            g.add_edge(bogus, a),
            Err(GraphError::DanglingEdge(..))
        ));
    }

    #[test]
    fn rejects_duplicate_edges() {
        let mut g = Graph::new("t", 1);
        let a = g.add_node(n("a"));
        let b = g.add_node(n("b"));
        g.add_edge(a, b).unwrap();
        assert_eq!(g.add_edge(a, b), Err(GraphError::DuplicateEdge(a, b)));
    }

    #[test]
    fn detects_cycle() {
        let mut g = Graph::new("t", 1);
        let a = g.add_node(n("a"));
        let b = g.add_node(n("b"));
        let c = g.add_node(n("c"));
        g.add_edge(a, b).unwrap();
        g.add_edge(b, c).unwrap();
        g.add_edge(c, a).unwrap();
        assert!(matches!(g.validate(), Err(GraphError::Cycle(_))));
    }

    #[test]
    fn totals() {
        let mut g = Graph::new("t", 4);
        g.add_node(n("a").with_params(100).with_flops(10.0, 2.0));
        g.add_node(n("b").with_params(50).with_flops(0.0, 8.0));
        assert_eq!(g.total_param_bytes(), 150);
        assert_eq!(g.total_flops(), 10.0 * 4.0 + 2.0 + 8.0);
    }

    #[test]
    fn edges_iterator_roundtrip() {
        let mut g = Graph::new("t", 1);
        let a = g.add_node(n("a"));
        let b = g.add_node(n("b"));
        let c = g.add_node(n("c"));
        g.add_edge(a, c).unwrap();
        g.add_edge(b, c).unwrap();
        let edges: Vec<Edge> = g.edges().collect();
        assert_eq!(edges.len(), 2);
        assert!(edges.contains(&Edge { src: a, dst: c }));
        assert!(edges.contains(&Edge { src: b, dst: c }));
    }
}
