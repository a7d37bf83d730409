//! The placed task graph: the distributed training DAG after Part-I
//! decisions, with every task bound to a processor (GPU or link) and
//! priced by the cost model.
//!
//! Two representation choices keep the compile -> schedule -> simulate
//! reward path allocation-light:
//!
//! * **CSR adjacency, each edge once.** A graph is built by appending
//!   edges to an insertion-ordered list; the successor and predecessor
//!   rows are built together from it on first traversal (or by
//!   [`TaskGraph::build_index`]) and invalidated on mutation, and
//!   in-degrees are the predecessor rows' lengths. Every row keeps
//!   insertion order, so schedules match the old `Vec<Vec<TaskId>>`
//!   representation bit for bit. A finished graph is *sealed*
//!   ([`TaskGraph::seal`]): its rows are built and the list, build
//!   scratch by then, is freed or handed to the caller, so the rows are
//!   its only edges and it takes no more tasks or edges.
//! * **Index task names.** A [`TaskName`] is 16 bytes of plain data —
//!   op id, role [`Tag`], replica index and [`Pass`] — that indexes a
//!   per-graph [`NameTable`] held by one `Arc`; the device or link a
//!   name renders is read from the task's [`Proc`]. Copying a task
//!   copies no string and bumps no refcount, so two threads splicing
//!   task graphs from one shared base do not contend on a cache line;
//!   the human-readable string is rendered only when asked
//!   ([`TaskGraph::task_name`]).
//! * **Each fact once.** A [`Task`] is 56 bytes: its op comes from its
//!   name ([`Task::origin`]), and one field holds a GPU task's output
//!   bytes or a link task's payload.
//! * **Edges appended, checked once.** Builders add each edge once, so
//!   `add_dep` only appends. Building the index checks that no edge
//!   repeats, with a stamp per task rather than a hash, and panics
//!   naming both tasks if one does. The stamps borrow the predecessor
//!   offsets before those are filled, so the check needs no buffer of
//!   its own.
//! * **Rows written directly.** A graph spliced from a sealed base has
//!   no edge list: [`TaskGraph::seal_with_rows`] lets its builder write
//!   both directions' rows task by task ([`RowWriter`]), copying the
//!   base's rows for whole runs of tasks with their ids remapped and
//!   pushing the others entry by entry. Every pushed successor row is
//!   checked for a repeated entry as the index build checks its rows; a
//!   copied row is a base row, checked when the base was built, mapped
//!   one to one.

use std::sync::{Arc, OnceLock};

use heterog_graph::{OpId, OpKind};

/// Index of a task inside a [`TaskGraph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TaskId(pub u32);

impl TaskId {
    /// Arena index as `usize`.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for TaskId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// A processor in the scheduling problem: either a GPU (computation) or
/// a directed link (communication) — §4.2: "we further treat a link
/// between two GPUs as a device".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Proc {
    /// GPU index within the cluster.
    Gpu(u32),
    /// Directed-link index within the cluster.
    Link(u32),
}

impl Proc {
    /// True for link processors.
    pub fn is_link(self) -> bool {
        matches!(self, Proc::Link(_))
    }
}

impl std::fmt::Display for Proc {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Proc::Gpu(i) => write!(f, "G{i}"),
            Proc::Link(i) => write!(f, "L{i}"),
        }
    }
}

/// Role of a compiler-inserted task, rendered into its name.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Tag {
    /// Split structural task (`"split"`).
    Split,
    /// Concat structural task (`"concat"`).
    Concat,
    /// Activation transfer segment (`"xfer"`).
    Xfer,
    /// PS push segment (`"push/xfer"`).
    PushXfer,
    /// PS pull segment (`"pull/xfer"`).
    PullXfer,
    /// PS reduction (`"ps_agg"`).
    PsAgg,
    /// PS pull arrival marker (`"pull_done"`).
    PullDone,
    /// AllReduce completion marker (`"ar_done"`).
    ArDone,
    /// Single-device gradient join (`"local_join"`).
    LocalJoin,
    /// Broadcast arrival marker (`"bcast_done"`).
    BcastDone,
    /// Ring AllReduce link occupancy (`"ring"`).
    Ring,
    /// Hierarchical AllReduce link occupancy (`"hier"`).
    Hier,
    /// All-gather link occupancy (`"ag"`).
    AllGather,
    /// All-gather completion marker (`"ag_done"`).
    AgDone,
    /// Reduce-scatter link occupancy (`"rs"`).
    ReduceScatter,
    /// Reduce-scatter completion marker (`"rs_done"`).
    RsDone,
}

impl Tag {
    /// The tag as it appears in rendered names.
    pub fn as_str(self) -> &'static str {
        match self {
            Tag::Split => "split",
            Tag::Concat => "concat",
            Tag::Xfer => "xfer",
            Tag::PushXfer => "push/xfer",
            Tag::PullXfer => "pull/xfer",
            Tag::PsAgg => "ps_agg",
            Tag::PullDone => "pull_done",
            Tag::ArDone => "ar_done",
            Tag::LocalJoin => "local_join",
            Tag::BcastDone => "bcast_done",
            Tag::Ring => "ring",
            Tag::Hier => "hier",
            Tag::AllGather => "ag",
            Tag::AgDone => "ag_done",
            Tag::ReduceScatter => "rs",
            Tag::RsDone => "rs_done",
        }
    }
}

/// Which lowering pass emitted a replica task: the single pass of a
/// plain compile, one micro-batch of a pipelined compile, or one
/// iteration of a multi-iteration compile. Rendered as the name suffix
/// `""`, `"~u{n}"` or `"~i{n}"`. Packed into one `u32`, the kind in the
/// top two bits and `n` below them, so a [`TaskName`] stays 16 bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Pass(u32);

impl Pass {
    /// The kind's lowest bit: `n` takes the 30 bits below it.
    const KIND_SHIFT: u32 = 30;
    const MICRO: u32 = 1;
    const ITER: u32 = 2;

    /// A plain one-pass compile.
    pub const SINGLE: Pass = Pass(0);

    /// Micro-batch `n` of a pipelined compile.
    pub fn micro(n: u32) -> Pass {
        Pass::packed(Pass::MICRO, n)
    }

    /// Iteration `n` of a multi-iteration compile.
    pub fn iteration(n: u32) -> Pass {
        Pass::packed(Pass::ITER, n)
    }

    fn packed(kind: u32, n: u32) -> Pass {
        assert!(n < 1 << Pass::KIND_SHIFT, "pass index {n} out of range");
        Pass(kind << Pass::KIND_SHIFT | n)
    }
}

impl std::fmt::Display for Pass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let n = self.0 & ((1 << Pass::KIND_SHIFT) - 1);
        match self.0 >> Pass::KIND_SHIFT {
            Pass::MICRO => write!(f, "~u{n}"),
            Pass::ITER => write!(f, "~i{n}"),
            _ => Ok(()),
        }
    }
}

/// The strings a graph's [`TaskName`]s index: one name per op of the
/// source graph and one label per link of the cluster. A compiled graph
/// holds its table behind one `Arc`, shared by every graph spliced from
/// it.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NameTable {
    ops: Vec<Box<str>>,
    links: Vec<Arc<str>>,
}

impl NameTable {
    /// A table of op names (indexed by op id) and link labels (indexed
    /// by link id).
    pub fn new(ops: Vec<Box<str>>, links: Vec<Arc<str>>) -> Self {
        NameTable { ops, links }
    }

    /// `task`'s name, rendered from this table.
    pub(crate) fn name_of<'a>(&'a self, task: &'a Task) -> NameRef<'a> {
        NameRef {
            name: &task.name,
            proc: task.proc,
            table: self,
        }
    }
}

/// A task name as indices into its graph's [`NameTable`], rendered at
/// the task's processor.
///
/// The compiler emits millions of tasks across a planner search, so a
/// name is 16 bytes of `Copy`-sized data and holds no device or link
/// index; [`TaskGraph::task_name`] renders it, `{at}` being `G{gpu}` or
/// the link's label:
///
/// * [`TaskName::Replica`] -> `"{op}{pass}@{at}#{replica}"`
/// * [`TaskName::Tagged`]  -> `"{op}/{tag}@{at}"` (a GPU task)
/// * [`TaskName::OnLink`]  -> `"{op}/{tag}@{at}"` (a link task)
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TaskName {
    /// A fully materialized name (hand-built graphs and tests), behind a
    /// thin pointer so that the compiler's names stay 16 bytes.
    Full(Box<Box<str>>),
    /// A per-replica compute task.
    Replica {
        /// Originating op.
        op: OpId,
        /// The lowering pass that emitted it.
        pass: Pass,
        /// Replica index within the op's placement.
        replica: u32,
    },
    /// A structural/marker task on a GPU.
    Tagged {
        /// Originating op.
        op: OpId,
        /// Role tag.
        tag: Tag,
    },
    /// A communication task on a link.
    OnLink {
        /// Originating op.
        op: OpId,
        /// Role tag.
        tag: Tag,
    },
}

impl From<String> for TaskName {
    fn from(s: String) -> Self {
        TaskName::Full(Box::new(s.into_boxed_str()))
    }
}

impl From<&str> for TaskName {
    fn from(s: &str) -> Self {
        TaskName::Full(Box::new(s.into()))
    }
}

/// A [`TaskName`] with its task's processor and the table it indexes;
/// `Display` renders it.
#[derive(Debug, Clone, Copy)]
pub struct NameRef<'a> {
    name: &'a TaskName,
    proc: Proc,
    table: &'a NameTable,
}

impl NameRef<'_> {
    /// Writes where the task runs: `G{gpu}`, or its link's label.
    fn write_at(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.proc {
            Proc::Gpu(_) => write!(f, "{}", self.proc),
            Proc::Link(l) => f.write_str(&self.table.links[l as usize]),
        }
    }
}

impl std::fmt::Display for NameRef<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let op = |i: &OpId| &self.table.ops[i.index()];
        match self.name {
            TaskName::Full(s) => f.write_str(s),
            TaskName::Replica {
                op: o,
                pass,
                replica,
            } => {
                write!(f, "{}{pass}@", op(o))?;
                self.write_at(f)?;
                write!(f, "#{replica}")
            }
            TaskName::Tagged { op: o, tag } | TaskName::OnLink { op: o, tag } => {
                write!(f, "{}/{}@", op(o), tag.as_str())?;
                self.write_at(f)
            }
        }
    }
}

/// One schedulable task (computation op replica or communication op).
/// Each fact is stored once: 56 bytes, checked by a test.
#[derive(Debug, Clone)]
pub struct Task {
    /// Name, e.g. `"b3/conv2d_7@G2#0"` once rendered through
    /// [`TaskGraph::task_name`].
    pub name: TaskName,
    /// Op kind (communication kinds run on link processors).
    pub kind: OpKind,
    /// The processor this task is bound to.
    pub proc: Proc,
    /// Estimated execution/transfer time, seconds (the paper's `p_i`).
    pub duration: f64,
    /// On a GPU, the output (activation) bytes this task materializes,
    /// which the simulator's memory tracking charges to that GPU. On a
    /// link, the payload a transfer carries; collective link tasks carry
    /// none (their price-book entries hold the collective's bytes).
    pub bytes: u64,
    /// Persistent parameter bytes this task pins on its GPU (weights).
    pub param_bytes: u64,
    /// Samples processed by this replica (0 for non-batch tasks). With
    /// [`Task::origin`] and a transfer's payload it makes task durations
    /// re-derivable after a hardware perturbation without recompiling.
    /// A share never exceeds the batch, which is at most
    /// `heterog_graph::MAX_BATCH`.
    pub batch_share: u32,
}

impl Task {
    /// Minimal constructor; builder-style setters fill in the rest.
    pub fn new(name: impl Into<TaskName>, kind: OpKind, proc: Proc, duration: f64) -> Self {
        Task {
            name: name.into(),
            kind,
            proc,
            duration,
            bytes: 0,
            param_bytes: 0,
            batch_share: 0,
        }
    }

    /// Sets [`Task::bytes`]: a GPU task's output bytes or a link task's
    /// payload.
    pub fn with_bytes(mut self, bytes: u64) -> Self {
        self.bytes = bytes;
        self
    }

    /// Sets pinned parameter bytes.
    pub fn with_param_bytes(mut self, bytes: u64) -> Self {
        self.param_bytes = bytes;
        self
    }

    /// Records this replica's batch share.
    pub fn with_batch_share(mut self, share: u32) -> Self {
        self.batch_share = share;
        self
    }

    /// The single-GPU op a replica task derives from; `None` for
    /// compiler-inserted structural and communication tasks.
    pub fn origin(&self) -> Option<OpId> {
        match self.name {
            TaskName::Replica { op, .. } => Some(op),
            _ => None,
        }
    }
}

/// Compressed-sparse-row adjacency, built from the edge list: each
/// task's successors and its predecessors, every row in insertion
/// order. A task's in-degree is its predecessor row's length.
#[derive(Debug, Default)]
pub(crate) struct Csr {
    pub(crate) succs: Rows,
    pub(crate) preds: Rows,
}

/// One direction's rows: `idx[off[i]..off[i+1]]` are task `i`'s.
#[derive(Debug, Default)]
pub(crate) struct Rows {
    pub(crate) off: Vec<u32>,
    pub(crate) idx: Vec<TaskId>,
}

impl Rows {
    /// Fills the `n` rows of `edges` keyed by `key` (source or
    /// destination) with `value` (the other end), each row in edge
    /// insertion order: a stable counting sort. Reuses the buffers.
    fn fill(&mut self, n: usize, edges: &[(u32, u32)], key: impl Fn((u32, u32)) -> (u32, u32)) {
        let Rows { off, idx } = self;
        // Row lengths, then running sums: `off[i + 1]` ends row `i`.
        off.clear();
        off.resize(n + 1, 0);
        for &e in edges {
            off[key(e).0 as usize + 1] += 1;
        }
        for i in 0..n {
            off[i + 1] += off[i];
        }
        idx.clear();
        idx.resize(edges.len(), TaskId(0));
        // Fill back to front, decrementing each row's end cursor: the
        // cursors end up at the rows' starts and every row keeps
        // insertion order.
        for &e in edges.iter().rev() {
            let (k, v) = key(e);
            off[k as usize + 1] -= 1;
            idx[off[k as usize + 1] as usize] = TaskId(v);
        }
        // Each row start moved down to the previous row's start; shift
        // the offsets back up by one row.
        off.copy_within(1..n + 1, 0);
        off[n] = edges.len() as u32;
    }

    #[inline]
    pub(crate) fn row(&self, i: usize) -> &[TaskId] {
        &self.idx[self.off[i] as usize..self.off[i + 1] as usize]
    }

    /// Row lengths, in task order.
    pub(crate) fn lens(&self) -> impl Iterator<Item = u32> + '_ {
        self.off.windows(2).map(|w| w[1] - w[0])
    }

    /// Starts writing rows afresh, keeping the buffers: no row yet.
    fn restart(&mut self) {
        self.off.clear();
        self.off.push(0);
        self.idx.clear();
    }

    /// `src`'s rows, into this one's buffers.
    fn copy_from(&mut self, src: &Rows) {
        self.off.clone_from(&src.off);
        self.idx.clone_from(&src.idx);
    }
}

impl Csr {
    /// One direction's rows.
    #[inline]
    pub(crate) fn rows(&self, dir: Dir) -> &Rows {
        match dir {
            Dir::Succs => &self.succs,
            Dir::Preds => &self.preds,
        }
    }

    /// Builds both directions' rows of `n` tasks with a stable counting
    /// sort: per-source order equals edge insertion order, matching the
    /// former `Vec<Vec<TaskId>>` push order exactly. Reuses this index's
    /// buffers. Returns the first repeated edge (by source, then row
    /// order), if any.
    fn rebuild(&mut self, n: usize, edges: &[(u32, u32)]) -> Option<(u32, u32)> {
        let Csr { succs, preds } = self;
        succs.fill(n, edges, |e| e);
        // A repeated edge repeats a successor within its source's row.
        // Until the predecessor rows are filled, their offsets hold the
        // check's stamps: per task, one more than the last source whose
        // row named it.
        let stamp = &mut preds.off;
        stamp.clear();
        stamp.resize(n, 0);
        for s in 0..n {
            for &d in succs.row(s) {
                if stamp[d.index()] == s as u32 + 1 {
                    return Some((s as u32, d.0));
                }
                stamp[d.index()] = s as u32 + 1;
            }
        }
        preds.fill(n, edges, |(s, d)| (d, s));
        None
    }
}

/// Which of a task's rows: its successors or its predecessors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dir {
    /// The tasks that wait on it.
    Succs,
    /// The tasks it waits on.
    Preds,
}

/// Writes one direction's rows of a graph being sealed by
/// [`TaskGraph::seal_with_rows`], task by task in id order, or of a
/// [`crate::Patch`]'s own tasks ([`crate::Patch::write_rows`]): a run of
/// rows copied from a sealed graph ([`RowWriter::copy_rows`]), or one
/// row pushed entry by entry ([`RowWriter::push`], closed by
/// [`RowWriter::end_row`]). Pushed successor rows are checked for a
/// repeated entry, with a stamp per task.
#[derive(Debug)]
pub struct RowWriter<'a> {
    dir: Dir,
    rows: &'a mut Rows,
    /// Successor rows only: per task, the stamp of the last pushed row
    /// that named it. Row `r` (from 1) stamps `first_stamp + r`.
    stamps: Option<&'a mut Vec<u32>>,
    first_stamp: u32,
    /// The largest entry written so far.
    pub(crate) top: u32,
    /// The first repeated edge pushed, `(row, entry)`: the row's index
    /// among the rows written, and the entry it repeats.
    pub(crate) repeat: Option<(u32, u32)>,
}

impl<'a> RowWriter<'a> {
    /// A writer of `rows` from the first row on; `stamps`, when given,
    /// must hold no stamp above `first_stamp`.
    pub(crate) fn new(
        dir: Dir,
        rows: &'a mut Rows,
        stamps: Option<&'a mut Vec<u32>>,
        first_stamp: u32,
    ) -> Self {
        rows.restart();
        RowWriter {
            dir,
            rows,
            stamps,
            first_stamp,
            top: 0,
            repeat: None,
        }
    }

    /// The number of rows closed so far.
    pub(crate) fn rows_written(&self) -> usize {
        self.rows.off.len() - 1
    }

    /// The rows this writer writes.
    pub fn dir(&self) -> Dir {
        self.dir
    }

    /// Appends `base`'s rows (this writer's direction) of `tasks`, each
    /// entry mapped through `remap` (a `base` id to this graph's): the
    /// rows of the next `tasks.len()` tasks. `base` must be sealed, or
    /// at least indexed; its rows were checked when they were built, so
    /// a copy is not checked again, and `remap` must map the entries one
    /// to one.
    pub fn copy_rows(&mut self, base: &TaskGraph, tasks: std::ops::Range<u32>, remap: &[u32]) {
        let src = base.csr().rows(self.dir);
        let (t0, t1) = (tasks.start as usize, tasks.end as usize);
        let (o0, o1) = (src.off[t0], src.off[t1]);
        let at = self.rows.idx.len() as u32;
        self.rows
            .off
            .extend(src.off[t0 + 1..=t1].iter().map(|&o| o - o0 + at));
        let mut top = self.top;
        self.rows
            .idx
            .extend(src.idx[o0 as usize..o1 as usize].iter().map(|e| {
                let m = remap[e.index()];
                top = top.max(m);
                TaskId(m)
            }));
        self.top = top;
    }

    /// Appends `t` to the open row.
    pub fn push(&mut self, t: TaskId) {
        let row = self.rows.off.len() as u32;
        let mark = self.first_stamp + row;
        // An entry out of range has no stamp: sealing rejects it.
        if let Some(stamp) = (self.stamps.as_deref_mut()).and_then(|s| s.get_mut(t.index())) {
            if *stamp == mark && self.repeat.is_none() {
                self.repeat = Some((row - 1, t.0));
            }
            *stamp = mark;
        }
        self.top = self.top.max(t.0);
        self.rows.idx.push(t);
    }

    /// Closes the open row.
    pub fn end_row(&mut self) {
        self.rows.off.push(self.rows.idx.len() as u32);
    }
}

/// The placed task DAG.
#[derive(Debug, Default)]
pub struct TaskGraph {
    /// Label (usually `<model>@<strategy>`).
    pub name: String,
    /// Number of GPU processors (the paper's `M`).
    pub num_gpus: u32,
    /// Number of link processors.
    pub num_links: u32,
    /// The strings the tasks' [`TaskName`]s index.
    names: Arc<NameTable>,
    tasks: Vec<Task>,
    /// Build scratch: the `(src, dst)` precedence edges added so far, in
    /// insertion order, each once. Empty once sealed.
    edges: Vec<(u32, u32)>,
    /// Lazily-built CSR adjacency; cleared by any mutation. A sealed
    /// graph's edges live here alone.
    csr: OnceLock<Csr>,
    /// The buffers of the last cleared index, reused by the next
    /// [`TaskGraph::build_index`].
    spare: Csr,
    /// Set by [`TaskGraph::seal`]: the graph is finished and takes no
    /// more tasks or edges. Cleared by [`TaskGraph::reset_like`].
    sealed: bool,
}

impl Clone for TaskGraph {
    fn clone(&self) -> Self {
        let mut out = TaskGraph::default();
        out.clone_from(self);
        out
    }

    /// Reuses `self`'s buffers: re-pricing clones the base graph into
    /// one per-thread scratch graph per query. The clone of a sealed
    /// graph is sealed: its tasks and rows are copied, and it holds no
    /// edge list either.
    fn clone_from(&mut self, src: &Self) {
        self.reset_like(src);
        self.tasks.clone_from(&src.tasks);
        self.edges.clone_from(&src.edges);
        if let Some(c) = src.csr.get() {
            let spare = &mut self.spare;
            spare.succs.copy_from(&c.succs);
            spare.preds.copy_from(&c.preds);
            let _ = self.csr.set(std::mem::take(spare));
        }
        self.sealed = src.sealed;
    }
}

impl TaskGraph {
    /// Empty task graph over `num_gpus` GPUs and `num_links` links.
    pub fn new(name: impl Into<String>, num_gpus: u32, num_links: u32) -> Self {
        TaskGraph {
            name: name.into(),
            num_gpus,
            num_links,
            ..TaskGraph::default()
        }
    }

    /// Number of tasks.
    #[inline]
    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }

    fn invalidate(&mut self) {
        if let Some(c) = self.csr.take() {
            self.spare = c;
        }
    }

    /// Sets the table this graph's task names index.
    pub fn set_names(&mut self, names: Arc<NameTable>) {
        self.names = names;
    }

    /// Task `id`'s name, rendered by `Display`.
    pub fn task_name(&self, id: TaskId) -> NameRef<'_> {
        self.names.name_of(&self.tasks[id.index()])
    }

    /// The table this graph's task names index.
    pub(crate) fn names(&self) -> &NameTable {
        &self.names
    }

    /// Empties the graph into `like`'s label, processor counts and name
    /// table, keeping every buffer's capacity. The emptied graph is not
    /// sealed, whether `self` or `like` was.
    pub fn reset_like(&mut self, like: &TaskGraph) {
        self.name.clone_from(&like.name);
        self.num_gpus = like.num_gpus;
        self.num_links = like.num_links;
        if !Arc::ptr_eq(&self.names, &like.names) {
            self.names = like.names.clone();
        }
        self.tasks.clear();
        self.edges.clear();
        self.invalidate();
        self.sealed = false;
    }

    /// Finishes the graph: builds its index, after which the rows hold
    /// its edges, and frees the insertion-ordered edge list. A sealed
    /// graph takes no more tasks or edges ([`TaskGraph::add_task`] and
    /// [`TaskGraph::add_dep`] panic) until
    /// [`TaskGraph::reset_like`] empties it; its durations may still be
    /// changed. Panics on a repeated edge, as building the index does.
    pub fn seal(&mut self) {
        self.build_index();
        self.sealed = true;
        self.edges = Vec::new();
    }

    /// Seals the graph with rows its builder writes instead of an index
    /// built from added edges (none may have been added): `write` is
    /// called once with a [`RowWriter`] of the successor rows, then once
    /// with one of the predecessor rows, and must write one row per
    /// task, each in the order a builder would have added its edges.
    /// Reuses the buffers of the last cleared index. Panics naming both
    /// tasks when a pushed successor row repeats an entry, as building
    /// the index does for any row, and when the rows name a task out of
    /// range, miss a task or disagree on the number of edges.
    pub fn seal_with_rows(&mut self, mut write: impl FnMut(&mut RowWriter<'_>)) {
        self.assert_open("edge");
        assert!(
            self.edges.is_empty(),
            "rows written over added edges of {}",
            self.name
        );
        self.invalidate();
        let n = self.tasks.len();
        let mut c = std::mem::take(&mut self.spare);
        let Csr { succs, preds } = &mut c;
        // Until the predecessor rows are written, their offsets hold the
        // successor rows' stamps.
        let stamps = &mut preds.off;
        stamps.clear();
        stamps.resize(n, 0);
        let mut w = RowWriter::new(Dir::Succs, succs, Some(stamps), 0);
        write(&mut w);
        let (succ_top, repeat) = (w.top, w.repeat);
        let mut w = RowWriter::new(Dir::Preds, preds, None, 0);
        write(&mut w);
        let pred_top = w.top;
        for (dir, rows) in [("successor", &*succs), ("predecessor", &*preds)] {
            let written = rows.off.len() - 1;
            assert_eq!(
                written, n,
                "{written} {dir} rows written for a graph of {n} tasks"
            );
        }
        assert_eq!(
            succs.idx.len(),
            preds.idx.len(),
            "successor and predecessor rows hold different edge counts"
        );
        let top = succ_top.max(pred_top);
        assert!(
            succs.idx.is_empty() || (top as usize) < n,
            "row entry t{top} out of range"
        );
        self.check_no_repeat(repeat);
        let _ = self.csr.set(c);
        self.sealed = true;
    }

    /// Whether the graph is sealed ([`TaskGraph::seal`]).
    pub fn is_sealed(&self) -> bool {
        self.sealed
    }

    /// Panics when the graph is sealed: `what` may not be added to it.
    fn assert_open(&self, what: &str) {
        assert!(
            !self.sealed,
            "{what} added to sealed task graph {}: a finished graph's tasks and edges are fixed",
            self.name
        );
    }

    /// Adds a task, panicking if its processor is out of range (builder
    /// misuse is a bug, not a runtime condition) or the graph is sealed.
    pub fn add_task(&mut self, task: Task) -> TaskId {
        self.assert_open("task");
        match task.proc {
            Proc::Gpu(i) => assert!(i < self.num_gpus, "GPU {i} out of range"),
            Proc::Link(i) => assert!(i < self.num_links, "link {i} out of range"),
        }
        let id = TaskId(self.tasks.len() as u32);
        self.tasks.push(task);
        self.invalidate();
        id
    }

    /// Adds a precedence edge `src -> dst`. Each edge must be added
    /// once: building the index panics on a repeat (builder misuse, like
    /// an out-of-range processor). Panics when the graph is sealed.
    pub fn add_dep(&mut self, src: TaskId, dst: TaskId) {
        self.assert_open("edge");
        assert!(src.index() < self.tasks.len() && dst.index() < self.tasks.len());
        assert_ne!(src, dst, "self-dependency on {src}");
        self.edges.push((src.0, dst.0));
        self.invalidate();
    }

    /// Builds the adjacency index now, into the buffers of the last
    /// cleared one, so a graph rebuilt in place every query stops
    /// allocating once its buffers have grown.
    pub fn build_index(&mut self) {
        if self.csr.get().is_none() {
            let mut c = std::mem::take(&mut self.spare);
            self.check_no_repeat(c.rebuild(self.tasks.len(), &self.edges));
            let _ = self.csr.set(c);
        }
    }

    /// Panics naming both tasks of a repeated edge.
    fn check_no_repeat(&self, repeat: Option<(u32, u32)>) {
        if let Some((s, d)) = repeat {
            panic!(
                "duplicate edge {} -> {} (t{s} -> t{d})",
                self.task_name(TaskId(s)),
                self.task_name(TaskId(d))
            );
        }
    }

    /// Every task, in id order.
    pub(crate) fn tasks(&self) -> &[Task] {
        &self.tasks
    }

    /// Immutable task access.
    #[inline]
    pub fn task(&self, id: TaskId) -> &Task {
        &self.tasks[id.index()]
    }

    /// Mutable task access.
    pub fn task_mut(&mut self, id: TaskId) -> &mut Task {
        &mut self.tasks[id.index()]
    }

    /// All task ids.
    pub fn task_ids(&self) -> impl Iterator<Item = TaskId> + '_ {
        (0..self.tasks.len() as u32).map(TaskId)
    }

    /// Iterates `(id, task)`.
    pub fn iter(&self) -> impl Iterator<Item = (TaskId, &Task)> {
        self.tasks
            .iter()
            .enumerate()
            .map(|(i, t)| (TaskId(i as u32), t))
    }

    #[inline]
    pub(crate) fn csr(&self) -> &Csr {
        self.csr.get_or_init(|| {
            let mut c = Csr::default();
            self.check_no_repeat(c.rebuild(self.tasks.len(), &self.edges));
            c
        })
    }

    /// Successors of `id`.
    #[inline]
    pub fn succs(&self, id: TaskId) -> &[TaskId] {
        self.csr().succs.row(id.index())
    }

    /// Predecessors of `id`.
    #[inline]
    pub fn preds(&self, id: TaskId) -> &[TaskId] {
        self.csr().preds.row(id.index())
    }

    /// Number of successors of `id`.
    pub fn out_degree(&self, id: TaskId) -> usize {
        self.succs(id).len()
    }

    /// Number of predecessors of `id`.
    pub fn in_degree(&self, id: TaskId) -> usize {
        self.preds(id).len()
    }

    /// Every task's number of predecessors, in task order.
    pub fn in_degrees(&self) -> impl Iterator<Item = u32> + '_ {
        self.csr().preds.lens()
    }

    /// Every task's number of successors, in task order.
    pub fn out_degrees(&self) -> impl Iterator<Item = u32> + '_ {
        self.csr().succs.lens()
    }

    /// Number of precedence edges: the rows' when the index is built (as
    /// it always is once sealed), else the edges added so far.
    pub fn num_edges(&self) -> usize {
        match self.csr.get() {
            Some(c) => c.succs.idx.len(),
            None => self.edges.len(),
        }
    }

    /// Total processor count `M + #links` (the paper bounds #links by `M^2`).
    pub fn num_procs(&self) -> usize {
        (self.num_gpus + self.num_links) as usize
    }

    /// Dense processor index for array-based bookkeeping: GPUs first.
    #[inline]
    pub fn proc_index(&self, p: Proc) -> usize {
        match p {
            Proc::Gpu(i) => i as usize,
            Proc::Link(i) => self.num_gpus as usize + i as usize,
        }
    }

    /// Sum of all task durations (the upper-bound numerator in Theorem 1).
    pub fn total_work(&self) -> f64 {
        self.tasks.iter().map(|t| t.duration).sum()
    }

    /// Kahn topological order; panics on cyclic task graphs (the compiler
    /// can never legally produce one).
    pub fn topo_order(&self) -> Vec<TaskId> {
        let mut indeg = Vec::new();
        let mut order = Vec::new();
        crate::view::topo_order_into(self, &mut indeg, &mut order);
        order
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_and_query() {
        let mut tg = TaskGraph::new("t", 2, 2);
        let a = tg.add_task(Task::new("a", OpKind::MatMul, Proc::Gpu(0), 1.0));
        let b = tg.add_task(Task::new("b", OpKind::Transfer, Proc::Link(1), 0.5));
        tg.add_dep(a, b);
        assert_eq!(tg.len(), 2);
        assert_eq!(tg.succs(a), &[b]);
        assert_eq!(tg.preds(b), &[a]);
        assert_eq!(tg.total_work(), 1.5);
        assert_eq!(tg.out_degree(a), 1);
        assert_eq!(tg.in_degree(b), 1);
    }

    #[test]
    #[should_panic(expected = "duplicate edge a -> b (t0 -> t1)")]
    fn duplicate_edge_panics_when_indexed() {
        let mut tg = TaskGraph::new("t", 1, 0);
        let a = tg.add_task(Task::new("a", OpKind::NoOp, Proc::Gpu(0), 1.0));
        let b = tg.add_task(Task::new("b", OpKind::NoOp, Proc::Gpu(0), 1.0));
        tg.add_dep(a, b);
        tg.add_dep(a, b);
        tg.build_index();
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn proc_bounds_enforced() {
        let mut tg = TaskGraph::new("t", 1, 0);
        tg.add_task(Task::new("a", OpKind::NoOp, Proc::Gpu(5), 1.0));
    }

    #[test]
    fn proc_index_is_dense() {
        let tg = TaskGraph::new("t", 3, 4);
        assert_eq!(tg.proc_index(Proc::Gpu(2)), 2);
        assert_eq!(tg.proc_index(Proc::Link(0)), 3);
        assert_eq!(tg.proc_index(Proc::Link(3)), 6);
        assert_eq!(tg.num_procs(), 7);
    }

    #[test]
    fn topo_order_valid() {
        let mut tg = TaskGraph::new("t", 1, 0);
        let a = tg.add_task(Task::new("a", OpKind::NoOp, Proc::Gpu(0), 1.0));
        let b = tg.add_task(Task::new("b", OpKind::NoOp, Proc::Gpu(0), 1.0));
        let c = tg.add_task(Task::new("c", OpKind::NoOp, Proc::Gpu(0), 1.0));
        tg.add_dep(a, c);
        tg.add_dep(b, c);
        let order = tg.topo_order();
        assert_eq!(order.len(), 3);
        assert_eq!(order[2], c);
    }

    #[test]
    fn csr_invalidated_by_mutation_after_read() {
        let mut tg = TaskGraph::new("t", 1, 0);
        let a = tg.add_task(Task::new("a", OpKind::NoOp, Proc::Gpu(0), 1.0));
        let b = tg.add_task(Task::new("b", OpKind::NoOp, Proc::Gpu(0), 1.0));
        tg.add_dep(a, b);
        assert_eq!(tg.succs(a), &[b]); // forces the CSR build
        let c = tg.add_task(Task::new("c", OpKind::NoOp, Proc::Gpu(0), 1.0));
        tg.add_dep(a, c);
        assert_eq!(tg.succs(a), &[b, c]);
        assert_eq!(tg.preds(c), &[a]);
        assert_eq!(tg.topo_order().len(), 3);
    }

    #[test]
    fn csr_preserves_insertion_order() {
        let mut tg = TaskGraph::new("t", 1, 0);
        let ids: Vec<TaskId> = (0..5)
            .map(|i| tg.add_task(Task::new(format!("t{i}"), OpKind::NoOp, Proc::Gpu(0), 1.0)))
            .collect();
        // Successors of 0 added out of id order; CSR must keep that order.
        tg.add_dep(ids[0], ids[3]);
        tg.add_dep(ids[0], ids[1]);
        tg.add_dep(ids[0], ids[4]);
        tg.add_dep(ids[2], ids[4]);
        assert_eq!(tg.succs(ids[0]), &[ids[3], ids[1], ids[4]]);
        assert_eq!(tg.preds(ids[4]), &[ids[0], ids[2]]);
    }

    #[test]
    fn lazy_names_render_like_eager_formatting() {
        let mut tg = TaskGraph::new("t", 4, 2);
        tg.set_names(Arc::new(NameTable::new(
            vec!["input".into(), "b3/conv2d_7".into()],
            vec![Arc::from("G0->G1"), Arc::from("srv1.in")],
        )));
        let mut named =
            |name: TaskName, proc: Proc| tg.add_task(Task::new(name, OpKind::NoOp, proc, 0.0));
        let replica = named(
            TaskName::Replica {
                op: OpId(1),
                pass: Pass::micro(2),
                replica: 1,
            },
            Proc::Gpu(2),
        );
        let plain = named(
            TaskName::Replica {
                op: OpId(1),
                pass: Pass::SINGLE,
                replica: 0,
            },
            Proc::Gpu(0),
        );
        let tagged = named(
            TaskName::Tagged {
                op: OpId(1),
                tag: Tag::PsAgg,
            },
            Proc::Gpu(0),
        );
        let on_link = named(
            TaskName::OnLink {
                op: OpId(1),
                tag: Tag::PushXfer,
            },
            Proc::Link(1),
        );
        let full = named("free-form".into(), Proc::Gpu(3));
        let iteration = named(
            TaskName::Replica {
                op: OpId(0),
                pass: Pass::iteration(3),
                replica: 0,
            },
            Proc::Gpu(1),
        );
        assert_eq!(tg.task_name(replica).to_string(), "b3/conv2d_7~u2@G2#1");
        assert_eq!(tg.task_name(plain).to_string(), "b3/conv2d_7@G0#0");
        assert_eq!(tg.task_name(tagged).to_string(), "b3/conv2d_7/ps_agg@G0");
        assert_eq!(
            tg.task_name(on_link).to_string(),
            "b3/conv2d_7/push/xfer@srv1.in"
        );
        assert_eq!(tg.task_name(full).to_string(), "free-form");
        assert_eq!(tg.task_name(iteration).to_string(), "input~i3@G1#0");
    }

    /// Each fact is stored once: the name holds no device or link index
    /// (its task's processor does), the op is the name's, and output and
    /// payload bytes share one field.
    #[test]
    fn tasks_and_names_stay_compact() {
        assert!(
            std::mem::size_of::<Task>() <= 56,
            "{}",
            std::mem::size_of::<Task>()
        );
        assert!(std::mem::size_of::<TaskName>() <= 16);
        assert_eq!(std::mem::size_of::<Pass>(), 4);
    }

    #[test]
    fn only_replica_tasks_have_an_origin() {
        let replica = TaskName::Replica {
            op: OpId(4),
            pass: Pass::SINGLE,
            replica: 0,
        };
        let task = |name: TaskName| Task::new(name, OpKind::NoOp, Proc::Gpu(0), 0.0);
        assert_eq!(task(replica).origin(), Some(OpId(4)));
        let tagged = TaskName::Tagged {
            op: OpId(4),
            tag: Tag::Split,
        };
        assert_eq!(task(tagged).origin(), None);
        assert_eq!(task("a".into()).origin(), None);
    }

    #[test]
    fn predecessor_rows_follow_the_graph_they_were_cloned_from() {
        let chain = |n: u32, skip: bool| {
            let mut tg = TaskGraph::new("t", 1, 0);
            for i in 0..n {
                tg.add_task(Task::new(format!("t{i}"), OpKind::NoOp, Proc::Gpu(0), 1.0));
            }
            for i in 1..n {
                tg.add_dep(TaskId(i - 1), TaskId(i));
                if skip && i > 1 {
                    tg.add_dep(TaskId(i - 2), TaskId(i));
                }
            }
            tg
        };
        let (mut tg, mut other) = (chain(4, false), chain(5, true));
        tg.build_index();
        other.build_index();
        assert_eq!(tg.preds(TaskId(2)), &[TaskId(1)]);
        tg.clone_from(&other);
        for id in other.task_ids() {
            assert_eq!(tg.preds(id), other.preds(id));
            assert_eq!(tg.in_degree(id), other.preds(id).len());
        }
        assert_eq!(tg.preds(TaskId(2)), &[TaskId(1), TaskId(0)]);
    }

    /// Two tasks and an edge `a -> b`, sealed.
    fn sealed_pair() -> TaskGraph {
        let mut tg = TaskGraph::new("sealed", 1, 0);
        let a = tg.add_task(Task::new("a", OpKind::NoOp, Proc::Gpu(0), 1.0));
        let b = tg.add_task(Task::new("b", OpKind::NoOp, Proc::Gpu(0), 1.0));
        tg.add_dep(a, b);
        tg.seal();
        tg
    }

    #[test]
    #[should_panic(
        expected = "edge added to sealed task graph sealed: a finished graph's tasks and edges are fixed"
    )]
    fn add_dep_on_a_sealed_graph_panics() {
        let mut tg = sealed_pair();
        tg.add_dep(TaskId(1), TaskId(0));
    }

    #[test]
    #[should_panic(expected = "task added to sealed task graph sealed")]
    fn add_task_on_a_sealed_graph_panics() {
        sealed_pair().add_task(Task::new("c", OpKind::NoOp, Proc::Gpu(0), 1.0));
    }

    /// A sealed graph holds its edges in its rows alone; its clone is
    /// sealed with the same rows, and a reset graph takes edges again.
    #[test]
    fn sealed_graphs_keep_only_their_rows() {
        let mut tg = TaskGraph::new("t", 1, 0);
        let ids: Vec<TaskId> = (0..4)
            .map(|i| tg.add_task(Task::new(format!("t{i}"), OpKind::NoOp, Proc::Gpu(0), 1.0)))
            .collect();
        let added = [(2, 3), (0, 3), (0, 1), (1, 3)];
        for &(a, b) in &added {
            tg.add_dep(ids[a], ids[b]);
        }
        tg.seal();
        assert!(tg.is_sealed() && tg.edges.capacity() == 0);
        assert_eq!(tg.num_edges(), 4);
        // Each row in insertion order.
        assert_eq!(tg.succs(ids[0]), &[ids[3], ids[1]]);
        assert_eq!(tg.preds(ids[3]), &[ids[2], ids[0], ids[1]]);

        let mut copy = TaskGraph::default();
        copy.clone_from(&tg);
        assert!(copy.is_sealed() && copy.edges.is_empty());
        assert_eq!(copy.num_edges(), 4);
        for id in tg.task_ids() {
            assert_eq!(copy.succs(id), tg.succs(id));
            assert_eq!(copy.preds(id), tg.preds(id));
        }

        copy.reset_like(&tg);
        assert!(!copy.is_sealed() && copy.is_empty() && copy.num_edges() == 0);
        let a = copy.add_task(Task::new("a", OpKind::NoOp, Proc::Gpu(0), 1.0));
        let b = copy.add_task(Task::new("b", OpKind::NoOp, Proc::Gpu(0), 1.0));
        copy.add_dep(a, b);
        assert_eq!(copy.succs(a), &[b]);
    }

    #[test]
    fn index_rebuilt_in_place_matches_lazy_build() {
        let mut tg = TaskGraph::new("t", 1, 0);
        let ids: Vec<TaskId> = (0..6)
            .map(|i| tg.add_task(Task::new(format!("t{i}"), OpKind::NoOp, Proc::Gpu(0), 1.0)))
            .collect();
        for &(a, b) in &[(0, 3), (0, 1), (2, 4), (0, 4), (1, 5), (3, 5)] {
            tg.add_dep(ids[a], ids[b]);
        }
        let lazy = tg.clone();
        // Two rounds through the spare buffers: reset, refill, rebuild.
        for _ in 0..2 {
            let src = lazy.clone();
            tg.reset_like(&src);
            for (_, t) in src.iter() {
                tg.add_task(t.clone());
            }
            for &(a, b) in &[(0, 3), (0, 1), (2, 4), (0, 4), (1, 5), (3, 5)] {
                tg.add_dep(ids[a], ids[b]);
            }
            tg.build_index();
            for id in tg.task_ids() {
                assert_eq!(tg.succs(id), lazy.succs(id));
                assert_eq!(tg.preds(id), lazy.preds(id));
            }
        }
    }

    /// `n` tasks on one GPU, named `t0`, `t1`, ...
    fn tasks(n: u32) -> TaskGraph {
        let mut tg = TaskGraph::new("rows", 1, 0);
        for i in 0..n {
            tg.add_task(Task::new(format!("t{i}"), OpKind::NoOp, Proc::Gpu(0), 1.0));
        }
        tg
    }

    /// Rows written directly equal the index a graph with the same
    /// edges builds: runs copied from a sealed graph through a remap, and
    /// rows pushed entry by entry.
    #[test]
    fn written_rows_equal_built_ones() {
        let edges = [(0, 3), (0, 1), (2, 4), (0, 4), (1, 5), (3, 5)];
        let mut base = tasks(6);
        for &(a, b) in &edges {
            base.add_dep(TaskId(a), TaskId(b));
        }
        base.seal();
        // The same graph with tasks 1 and 2 swapped: 0 and 3..6 copied,
        // 1 and 2 pushed.
        let remap = [0, 2, 1, 3, 4, 5];
        let mut built = tasks(6);
        for &(a, b) in &edges {
            built.add_dep(TaskId(remap[a as usize]), TaskId(remap[b as usize]));
        }
        built.seal();
        let mut tg = tasks(6);
        tg.seal_with_rows(|w| {
            w.copy_rows(&base, 0..1, &remap);
            for b in [2, 1] {
                let row = match w.dir() {
                    Dir::Succs => base.succs(TaskId(b)),
                    Dir::Preds => base.preds(TaskId(b)),
                };
                for t in row {
                    w.push(TaskId(remap[t.index()]));
                }
                w.end_row();
            }
            w.copy_rows(&base, 3..6, &remap);
        });
        assert!(tg.is_sealed());
        assert_eq!(tg.num_edges(), edges.len());
        for id in tg.task_ids() {
            assert_eq!(tg.succs(id), built.succs(id), "successors of {id}");
            assert_eq!(tg.preds(id), built.preds(id), "predecessors of {id}");
        }
    }

    #[test]
    #[should_panic(expected = "duplicate edge t0 -> t2 (t0 -> t2)")]
    fn a_repeated_pushed_successor_panics() {
        tasks(3).seal_with_rows(|w| {
            let rows: [&[u32]; 3] = match w.dir() {
                Dir::Succs => [&[2, 1, 2], &[], &[]],
                Dir::Preds => [&[], &[0], &[0, 0]],
            };
            for row in rows {
                for &t in row {
                    w.push(TaskId(t));
                }
                w.end_row();
            }
        });
    }

    #[test]
    #[should_panic(expected = "row entry t7 out of range")]
    fn written_rows_stay_in_range() {
        tasks(2).seal_with_rows(|w| {
            w.push(TaskId(7));
            w.end_row();
            w.end_row();
        });
    }
}
