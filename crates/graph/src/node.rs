//! Graph nodes (operations).

use crate::graph::OpId;
use crate::op::OpKind;
use crate::tensor::TensorMeta;

/// Which stage of a training iteration an operation belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Phase {
    /// Forward propagation.
    Forward,
    /// Backward propagation (gradient computation).
    Backward,
    /// Parameter update (ApplyGradient and gradient aggregation).
    Update,
}

/// One operation in the computation DAG.
///
/// Cost attributes are stored *per sample* plus a batch-independent part,
/// so that the profiler's linear-in-batch cost model (§3.3) and the graph
/// compiler's batch-splitting replication (§3.4) both fall out naturally:
/// a replica processing `B/k` samples simply evaluates the same node at a
/// smaller batch.
#[derive(Debug, Clone)]
pub struct Node {
    /// Human-readable, unique-ish name (e.g. `"block3/conv2d_7"`).
    pub name: String,
    /// Operation kind.
    pub kind: OpKind,
    /// Training phase this op belongs to.
    pub phase: Phase,
    /// Floating-point operations per mini-batch sample.
    pub flops_per_sample: f64,
    /// Batch-independent FLOPs (e.g. weight-gradient reductions have a
    /// significant fixed component).
    pub fixed_flops: f64,
    /// Bytes of trainable parameters *owned* by this op (0 for most ops;
    /// set on the forward op that reads the weight).
    pub param_bytes: u64,
    /// Metadata of this op's output tensor.
    pub output: TensorMeta,
    /// Whether this op can be replicated by splitting its input along the
    /// batch dimension (§3.4: ops whose output has no batch dimension are
    /// not replicated).
    pub batch_splittable: bool,
    /// For backward ops that produce a parameter gradient: the forward op
    /// whose parameters the gradient is for. Links BP ops to their
    /// ApplyGradient through the compiler.
    pub grad_of: Option<OpId>,
}

impl Node {
    /// Creates a node with zero costs; builders fill in the rest.
    pub fn new(name: impl Into<String>, kind: OpKind, phase: Phase) -> Self {
        Node {
            name: name.into(),
            kind,
            phase,
            flops_per_sample: 0.0,
            fixed_flops: 0.0,
            param_bytes: 0,
            output: TensorMeta::default(),
            batch_splittable: false,
            grad_of: None,
        }
    }

    /// Total FLOPs at mini-batch size `batch`.
    pub fn flops(&self, batch: u64) -> f64 {
        self.flops_per_sample * batch as f64 + self.fixed_flops
    }

    /// Output tensor size in bytes at mini-batch size `batch`.
    pub fn output_bytes(&self, batch: u64) -> u64 {
        self.output.bytes(batch)
    }

    /// True if this node holds trainable parameters.
    pub fn has_params(&self) -> bool {
        self.param_bytes > 0
    }

    // ---- builder-style setters --------------------------------------------

    /// Sets per-sample and fixed FLOPs.
    pub fn with_flops(mut self, per_sample: f64, fixed: f64) -> Self {
        self.flops_per_sample = per_sample;
        self.fixed_flops = fixed;
        self
    }

    /// Sets owned parameter bytes.
    pub fn with_params(mut self, bytes: u64) -> Self {
        self.param_bytes = bytes;
        self
    }

    /// Sets the output tensor metadata. Batch-splittability defaults to
    /// whether the output has a batch dimension.
    pub fn with_output(mut self, output: TensorMeta) -> Self {
        self.output = output;
        self.batch_splittable = output.has_batch_dim();
        self
    }

    /// Marks this node as producing the parameter gradient of `op`.
    pub fn with_grad_of(mut self, op: OpId) -> Self {
        self.grad_of = Some(op);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flops_linear_in_batch() {
        let n = Node::new("x", OpKind::Conv2D, Phase::Forward).with_flops(100.0, 50.0);
        assert_eq!(n.flops(0), 50.0);
        assert_eq!(n.flops(10), 1050.0);
    }

    #[test]
    fn with_output_sets_splittable() {
        let act =
            Node::new("a", OpKind::MatMul, Phase::Forward).with_output(TensorMeta::activation(64));
        assert!(act.batch_splittable);
        let fixed =
            Node::new("w", OpKind::Variable, Phase::Forward).with_output(TensorMeta::fixed(64));
        assert!(!fixed.batch_splittable);
    }

    #[test]
    fn param_ownership() {
        let n = Node::new("c", OpKind::Conv2D, Phase::Forward).with_params(1 << 20);
        assert!(n.has_params());
        assert_eq!(n.param_bytes, 1 << 20);
    }
}
