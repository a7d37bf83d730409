//! Reading a task graph without owning it whole.
//!
//! The scheduler, the rank sweeps and the simulator read a task graph
//! through [`GraphRead`]: task count, processor counts, each task's
//! fields, and its successor and predecessor rows. A sealed
//! [`TaskGraph`] implements it, and so does a [`PatchView`]: a sealed
//! base graph plus a [`Patch`], which is how a graph spliced from the
//! base is held without copying the base's clean part.
//!
//! A patch numbers its tasks as the materialized graph does. Most of
//! them are *copied*: base tasks whose fields and rows it reads from the
//! base in place, each row entry mapped through the patch's base→patch
//! id map. The others are its *own* tasks, whose fields and both rows it
//! stores: the tasks a splice re-lowered, and the copied tasks whose
//! rows a re-lowered segment rewrote. Writing a patch costs its own
//! tasks and rows plus the two id maps, not the graph.
//! [`PatchView::materialize`] builds the sealed graph the view reads.

use crate::task::{Csr, Dir, NameRef, Proc, RowWriter, Task, TaskGraph, TaskId};

/// Read access to a placed task graph, as the list scheduler, the rank
/// sweeps and the simulator need it.
pub trait GraphRead {
    /// A task's successor or predecessor row: its entries, in row order.
    type Row<'a>: ExactSizeIterator<Item = TaskId> + Clone
    where
        Self: 'a;

    /// Number of tasks.
    fn len(&self) -> usize;
    /// Number of GPU processors.
    fn num_gpus(&self) -> u32;
    /// Number of link processors.
    fn num_links(&self) -> u32;
    /// Task `id`.
    fn task(&self, id: TaskId) -> &Task;
    /// Task `id`'s successors, in row order.
    fn succs(&self, id: TaskId) -> Self::Row<'_>;
    /// Task `id`'s predecessors, in row order.
    fn preds(&self, id: TaskId) -> Self::Row<'_>;

    /// Task `id`'s row in direction `dir`.
    fn row(&self, id: TaskId, dir: Dir) -> Self::Row<'_> {
        match dir {
            Dir::Succs => self.succs(id),
            Dir::Preds => self.preds(id),
        }
    }

    /// Calls `f` on every task, in id order.
    fn for_each_task(&self, mut f: impl FnMut(&Task)) {
        for t in 0..self.len() as u32 {
            f(self.task(TaskId(t)));
        }
    }

    /// Every task's row length in direction `dir` (its out- or
    /// in-degree), in id order, into `out`.
    fn degrees_into(&self, dir: Dir, out: &mut Vec<u32>) {
        out.clear();
        out.extend((0..self.len() as u32).map(|t| self.row(TaskId(t), dir).len() as u32));
    }

    /// True when the graph has no task.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total processor count, GPUs and links.
    fn num_procs(&self) -> usize {
        (self.num_gpus() + self.num_links()) as usize
    }

    /// Dense processor index: GPUs first.
    fn proc_index(&self, p: Proc) -> usize {
        match p {
            Proc::Gpu(i) => i as usize,
            Proc::Link(i) => self.num_gpus() as usize + i as usize,
        }
    }
}

impl GraphRead for TaskGraph {
    type Row<'a> = std::iter::Copied<std::slice::Iter<'a, TaskId>>;

    #[inline]
    fn len(&self) -> usize {
        TaskGraph::len(self)
    }

    #[inline]
    fn num_gpus(&self) -> u32 {
        self.num_gpus
    }

    #[inline]
    fn num_links(&self) -> u32 {
        self.num_links
    }

    #[inline]
    fn task(&self, id: TaskId) -> &Task {
        TaskGraph::task(self, id)
    }

    #[inline]
    fn succs(&self, id: TaskId) -> Self::Row<'_> {
        TaskGraph::succs(self, id).iter().copied()
    }

    #[inline]
    fn preds(&self, id: TaskId) -> Self::Row<'_> {
        TaskGraph::preds(self, id).iter().copied()
    }

    #[inline]
    fn for_each_task(&self, f: impl FnMut(&Task)) {
        self.tasks().iter().for_each(f);
    }

    #[inline]
    fn degrees_into(&self, dir: Dir, out: &mut Vec<u32>) {
        out.clear();
        out.extend(self.csr().rows(dir).lens());
    }
}

/// A [`PatchView`] row: entries stored in the patch's ids, or a base
/// row's entries read through the base→patch id map.
#[derive(Debug, Clone)]
pub struct PatchRow<'a> {
    ids: std::slice::Iter<'a, TaskId>,
    remap: Option<&'a [u32]>,
}

/// Base row entry `t` read through `remap`, or an own entry as stored.
#[inline]
fn entry(t: TaskId, remap: Option<&[u32]>) -> TaskId {
    match remap {
        Some(m) => TaskId(m[t.index()]),
        None => t,
    }
}

impl Iterator for PatchRow<'_> {
    type Item = TaskId;

    #[inline]
    fn next(&mut self) -> Option<TaskId> {
        self.ids.next().map(|&t| entry(t, self.remap))
    }

    #[inline]
    fn nth(&mut self, n: usize) -> Option<TaskId> {
        self.ids.nth(n).map(|&t| entry(t, self.remap))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.ids.size_hint()
    }
}

impl ExactSizeIterator for PatchRow<'_> {}

/// Kahn topological order of `tg` into caller-owned buffers: `order`
/// doubles as the FIFO work queue, so the order equals a `VecDeque`
/// walk's. Panics on a cycle.
pub fn topo_order_into<G: GraphRead + ?Sized>(
    tg: &G,
    indeg: &mut Vec<u32>,
    order: &mut Vec<TaskId>,
) {
    let n = tg.len();
    tg.degrees_into(Dir::Preds, indeg);
    order.clear();
    order.reserve(n);
    order.extend(
        (0..n as u32)
            .filter(|&t| indeg[t as usize] == 0)
            .map(TaskId),
    );
    let mut head = 0;
    while head < order.len() {
        let t = order[head];
        head += 1;
        for s in tg.succs(t) {
            indeg[s.index()] -= 1;
            if indeg[s.index()] == 0 {
                order.push(s);
            }
        }
    }
    assert_eq!(order.len(), n, "task graph contains a cycle");
}

/// A run of consecutive base tasks that a [`Patch`] copies: base tasks
/// `base[0]..base[1]` are the patch's tasks from `at` on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CopiedRun {
    /// The base task range.
    pub base: [u32; 2],
    /// The patch id of the run's first task.
    pub at: u32,
}

/// Marks an own task in [`Patch`]'s per-task source map; the low bits
/// are its index among the patch's own tasks.
const OWN: u32 = 1 << 31;

/// A task graph written as the changes to a sealed base graph (see the
/// module docs): which base tasks it copies and where, its own tasks
/// and their rows. A splice fills one per candidate and reuses its
/// buffers, so writing one allocates nothing once they have grown.
/// Read it with the base through a [`PatchView`].
///
/// It is written in task order: [`Patch::start`], then runs of copied
/// base tasks ([`Patch::copy`]) and new tasks ([`Patch::add_task`]) in
/// the materialized graph's order, then the copied tasks whose rows
/// change ([`Patch::own`]), and last every own task's rows
/// ([`Patch::write_rows`]).
#[derive(Debug, Default)]
pub struct Patch {
    num_gpus: u32,
    num_links: u32,
    /// Per task: its base task's id, or [`OWN`] with its own index.
    src: Vec<u32>,
    /// Per base task: its id here when copied, `u32::MAX` when dropped
    /// (so that a row entry naming a dropped task is out of range).
    remap: Vec<u32>,
    /// The base task after the last copied run.
    next_base: u32,
    /// The copied runs, in order.
    runs: Vec<CopiedRun>,
    /// The own tasks, and each one's id: first the new tasks, in id
    /// order, then the copied ones whose rows change.
    tasks: Vec<Task>,
    ids: Vec<TaskId>,
    /// The number of new tasks.
    fresh: u32,
    /// The own tasks' rows, by own index.
    rows: Csr,
    /// The successor and predecessor entries of the copied tasks whose
    /// rows are the base's.
    copied_edges: [usize; 2],
    edges: usize,
    /// Per task, the stamp of the last written successor row naming it;
    /// every stamp is at most `stamp`.
    stamps: Vec<u32>,
    stamp: u32,
}

/// The id maps of a [`Patch`] whose rows are being written
/// ([`Patch::write_rows`]).
#[derive(Debug, Clone, Copy)]
pub struct PatchIds<'a> {
    src: &'a [u32],
    remap: &'a [u32],
    ids: &'a [TaskId],
}

impl<'a> PatchIds<'a> {
    /// The base→patch id map, valid for copied base tasks.
    pub fn remap(&self) -> &'a [u32] {
        self.remap
    }

    /// Task `t`'s own index, or `None` when its rows are the base's.
    #[inline]
    pub fn own_index(&self, t: TaskId) -> Option<u32> {
        let s = self.src[t.index()];
        (s & OWN != 0).then_some(s & !OWN)
    }

    /// The id of own task `k`.
    pub fn own_id(&self, k: u32) -> TaskId {
        self.ids[k as usize]
    }
}

impl Patch {
    /// Starts an empty patch over `base`, keeping every buffer.
    pub fn start(&mut self, base: &TaskGraph) {
        self.num_gpus = base.num_gpus;
        self.num_links = base.num_links;
        self.src.clear();
        self.remap.resize(base.len(), u32::MAX);
        self.next_base = 0;
        self.runs.clear();
        self.tasks.clear();
        self.ids.clear();
        self.fresh = 0;
        self.copied_edges = [0, 0];
        self.edges = 0;
    }

    /// Number of tasks so far.
    pub fn len(&self) -> usize {
        self.src.len()
    }

    /// True when the patch holds no task.
    pub fn is_empty(&self) -> bool {
        self.src.is_empty()
    }

    /// Appends base tasks `run` as copies, which must follow the last
    /// copied run in the base; returns the first one's id.
    pub fn copy(&mut self, base: &TaskGraph, run: std::ops::Range<u32>) -> TaskId {
        let at = self.src.len() as u32;
        let (b0, b1) = (run.start as usize, run.end as usize);
        assert!(
            b0 >= self.next_base as usize,
            "copied runs out of base order"
        );
        self.remap[self.next_base as usize..b0].fill(u32::MAX);
        self.next_base = run.end;
        self.runs.push(CopiedRun {
            base: [run.start, run.end],
            at,
        });
        self.src.extend(run);
        for (i, r) in self.remap[b0..b1].iter_mut().enumerate() {
            *r = at + i as u32;
        }
        let csr = base.csr();
        for (count, rows) in self.copied_edges.iter_mut().zip([&csr.succs, &csr.preds]) {
            *count += (rows.off[b1] - rows.off[b0]) as usize;
        }
        TaskId(at)
    }

    /// The id of copied base task `b`, whose run was copied last or
    /// earlier.
    #[inline]
    pub fn copied_id(&self, b: u32) -> TaskId {
        debug_assert!(
            b < self.next_base && self.remap[b as usize] != u32::MAX,
            "base task {b} is not copied"
        );
        TaskId(self.remap[b as usize])
    }

    /// Appends a new task; returns its id. Panics when its processor is
    /// out of range.
    pub fn add_task(&mut self, task: Task) -> TaskId {
        match task.proc {
            Proc::Gpu(i) => assert!(i < self.num_gpus, "GPU {i} out of range"),
            Proc::Link(i) => assert!(i < self.num_links, "link {i} out of range"),
        }
        assert_eq!(
            self.fresh as usize,
            self.tasks.len(),
            "a new task added after a copied one was owned"
        );
        let id = TaskId(self.src.len() as u32);
        self.src.push(OWN | self.tasks.len() as u32);
        self.tasks.push(task);
        self.ids.push(id);
        self.fresh += 1;
        id
    }

    /// Makes copied base task `b` an own task, whose rows
    /// [`Patch::write_rows`] writes; returns its own index.
    pub fn own(&mut self, base: &TaskGraph, b: u32) -> u32 {
        let id = TaskId(self.remap[b as usize]);
        debug_assert_eq!(self.src[id.index()], b, "base task {b} is not copied");
        let k = self.tasks.len() as u32;
        self.src[id.index()] = OWN | k;
        self.tasks.push(base.task(TaskId(b)).clone());
        self.ids.push(id);
        let csr = base.csr();
        for (count, rows) in self.copied_edges.iter_mut().zip([&csr.succs, &csr.preds]) {
            *count -= rows.row(b as usize).len();
        }
        k
    }

    /// The number of own tasks: new ones and copied ones whose rows the
    /// patch holds.
    pub fn own_len(&self) -> usize {
        self.tasks.len()
    }

    /// Writes the own tasks' rows: `write` is called once with a
    /// [`RowWriter`] of the successor rows, then once with one of the
    /// predecessor rows, with the patch's id maps, and must write one
    /// row per own task in own-index order, each entry a task id of
    /// this patch. Panics naming both tasks when a pushed successor row
    /// repeats an entry, and when the rows name a task out of range,
    /// miss an own task or disagree on the number of edges.
    pub fn write_rows(
        &mut self,
        base: &TaskGraph,
        mut write: impl FnMut(&mut RowWriter<'_>, PatchIds<'_>),
    ) {
        self.remap[self.next_base as usize..].fill(u32::MAX);
        self.next_base = base.len() as u32;
        let n = self.src.len();
        let own = self.tasks.len();
        if self.stamps.len() < n {
            self.stamps.resize(n, 0);
        }
        let Some(last) = self.stamp.checked_add(own as u32 + 1) else {
            self.stamps.fill(0);
            self.stamp = 0;
            return self.write_rows(base, write);
        };
        let ids = PatchIds {
            src: &self.src,
            remap: &self.remap,
            ids: &self.ids,
        };
        let Csr { succs, preds } = &mut self.rows;
        let mut w = RowWriter::new(Dir::Succs, succs, Some(&mut self.stamps), self.stamp);
        write(&mut w, ids);
        let (succ_rows, succ_top, repeat) = (w.rows_written(), w.top, w.repeat);
        let mut w = RowWriter::new(Dir::Preds, preds, None, 0);
        write(&mut w, ids);
        let (pred_rows, pred_top) = (w.rows_written(), w.top);
        self.stamp = last;
        for (dir, written) in [("successor", succ_rows), ("predecessor", pred_rows)] {
            assert_eq!(
                written, own,
                "{written} {dir} rows written for a patch of {own} own tasks"
            );
        }
        let [copied_succs, copied_preds] = self.copied_edges;
        let edges = copied_succs + succs.idx.len();
        assert_eq!(
            edges,
            copied_preds + preds.idx.len(),
            "successor and predecessor rows hold different edge counts"
        );
        self.edges = edges;
        let top = succ_top.max(pred_top);
        assert!(
            succs.idx.is_empty() && preds.idx.is_empty() || (top as usize) < n,
            "row entry t{top} out of range"
        );
        if let Some((k, d)) = repeat {
            let view = PatchView::new(base, self);
            let s = self.ids[k as usize];
            panic!(
                "duplicate edge {} -> {} ({s} -> t{d})",
                view.task_name(s),
                view.task_name(TaskId(d))
            );
        }
    }
}

/// A [`Patch`] read with its base graph: the spliced graph, held once.
#[derive(Debug, Clone, Copy)]
pub struct PatchView<'a> {
    base: &'a TaskGraph,
    base_rows: &'a Csr,
    patch: &'a Patch,
}

impl<'a> PatchView<'a> {
    /// `patch` read over `base`, the graph it was written against.
    pub fn new(base: &'a TaskGraph, patch: &'a Patch) -> Self {
        assert_eq!(
            patch.remap.len(),
            base.len(),
            "a patch read over another graph than its base"
        );
        PatchView {
            base,
            base_rows: base.csr(),
            patch,
        }
    }

    /// Task `id`'s name, rendered by `Display`.
    pub fn task_name(&self, id: TaskId) -> NameRef<'a> {
        self.base.names().name_of(self.task_ref(id))
    }

    /// Number of precedence edges.
    pub fn num_edges(&self) -> usize {
        self.patch.edges
    }

    /// The copied runs, in order; every other task is new, and every
    /// base task outside them was dropped.
    pub fn copied(&self) -> &'a [CopiedRun] {
        &self.patch.runs
    }

    #[inline]
    fn task_ref(&self, id: TaskId) -> &'a Task {
        let s = self.patch.src[id.index()];
        if s & OWN != 0 {
            &self.patch.tasks[(s & !OWN) as usize]
        } else {
            self.base.task(TaskId(s))
        }
    }

    /// The sealed task graph this view reads, into `out`: the same
    /// tasks, rows and name table. Reuses `out`'s buffers.
    pub fn materialize(&self, out: &mut TaskGraph) {
        out.reset_like(self.base);
        for t in 0..self.len() as u32 {
            out.add_task(self.task_ref(TaskId(t)).clone());
        }
        out.seal_with_rows(|w| {
            for t in 0..self.len() as u32 {
                for s in self.patch_row(TaskId(t), w.dir()) {
                    w.push(s);
                }
                w.end_row();
            }
        });
    }

    #[inline]
    fn patch_row(&self, id: TaskId, dir: Dir) -> PatchRow<'a> {
        let s = self.patch.src[id.index()];
        if s & OWN != 0 {
            PatchRow {
                ids: self.patch.rows.rows(dir).row((s & !OWN) as usize).iter(),
                remap: None,
            }
        } else {
            PatchRow {
                ids: self.base_rows.rows(dir).row(s as usize).iter(),
                remap: Some(&self.patch.remap),
            }
        }
    }

    /// Calls `f` on the new tasks' own indices and the copied runs'
    /// base ids, in id order.
    fn for_each_part(&self, mut f: impl FnMut(Part)) {
        let (mut next, mut k) = (0, 0);
        let end = CopiedRun {
            base: [0, 0],
            at: self.patch.src.len() as u32,
        };
        for run in self.patch.runs.iter().chain([&end]) {
            let fresh = (run.at - next) as usize;
            if fresh > 0 {
                f(Part::Own(k..k + fresh));
                k += fresh;
            }
            let [b0, b1] = run.base;
            if b0 < b1 {
                f(Part::Base(b0 as usize..b1 as usize));
            }
            next = run.at + (b1 - b0);
        }
    }
}

/// A stretch of consecutive [`PatchView`] tasks: new tasks, by own
/// index, or a copied run, by base id.
enum Part {
    Own(std::ops::Range<usize>),
    Base(std::ops::Range<usize>),
}

impl GraphRead for PatchView<'_> {
    type Row<'r>
        = PatchRow<'r>
    where
        Self: 'r;

    #[inline]
    fn len(&self) -> usize {
        self.patch.src.len()
    }

    #[inline]
    fn num_gpus(&self) -> u32 {
        self.patch.num_gpus
    }

    #[inline]
    fn num_links(&self) -> u32 {
        self.patch.num_links
    }

    #[inline]
    fn task(&self, id: TaskId) -> &Task {
        self.task_ref(id)
    }

    #[inline]
    fn succs(&self, id: TaskId) -> PatchRow<'_> {
        self.patch_row(id, Dir::Succs)
    }

    #[inline]
    fn preds(&self, id: TaskId) -> PatchRow<'_> {
        self.patch_row(id, Dir::Preds)
    }

    #[inline]
    fn row(&self, id: TaskId, dir: Dir) -> PatchRow<'_> {
        self.patch_row(id, dir)
    }

    /// Reads the copied runs' tasks from the base in place: an own
    /// copied task's fields are its base task's.
    fn for_each_task(&self, mut f: impl FnMut(&Task)) {
        let (own, base) = (&self.patch.tasks, self.base.tasks());
        self.for_each_part(|part| match part {
            Part::Own(ks) => own[ks].iter().for_each(&mut f),
            Part::Base(bs) => base[bs].iter().for_each(&mut f),
        });
    }

    /// The copied runs' degrees from the base's row offsets, then the
    /// own copied tasks' from their own rows.
    fn degrees_into(&self, dir: Dir, out: &mut Vec<u32>) {
        fn lens(off: &[u32]) -> impl Iterator<Item = u32> + '_ {
            off.windows(2).map(|w| w[1] - w[0])
        }
        out.clear();
        let (own, base) = (self.patch.rows.rows(dir), self.base_rows.rows(dir));
        self.for_each_part(|part| match part {
            Part::Own(ks) => out.extend(lens(&own.off[ks.start..=ks.end])),
            Part::Base(bs) => out.extend(lens(&base.off[bs.start..=bs.end])),
        });
        let patch = self.patch;
        for k in patch.fresh as usize..patch.tasks.len() {
            out[patch.ids[k].index()] = own.off[k + 1] - own.off[k];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::list::{list_schedule_observed, NoHook, OrderPolicy, Schedule, ScheduleScratch};
    use crate::rank::{upward_ranks, upward_ranks_into, RankScratch};
    use heterog_graph::OpKind;

    fn task(name: &str, gpu: u32, duration: f64) -> Task {
        Task::new(name, OpKind::NoOp, Proc::Gpu(gpu), duration)
    }

    /// A sealed graph of `tasks` and `edges`, in that order.
    fn graph(tasks: &[Task], edges: &[(u32, u32)]) -> TaskGraph {
        let mut tg = TaskGraph::new("g", 2, 0);
        for t in tasks {
            tg.add_task(t.clone());
        }
        for &(a, b) in edges {
            tg.add_dep(TaskId(a), TaskId(b));
        }
        tg.seal();
        tg
    }

    fn base() -> TaskGraph {
        let tasks = ["a", "b", "c", "d", "e"].map(|n| task(n, (n == "d") as u32, 1.0));
        graph(&tasks, &[(0, 1), (0, 2), (1, 3), (2, 3), (3, 4)])
    }

    /// Base `a b c d e` with `c` dropped and a new `x` in its place:
    /// `a b` and `d e` are copied runs. `a`, `b` and `d` lose or gain an
    /// edge of `c`'s or `x`'s, so the patch owns them; `e` is read from
    /// the base in place. `rows` gives the own tasks' rows in own order
    /// (`x`, then `a`, `b`, `d`).
    fn patch(base: &TaskGraph, out: &mut Patch, rows: impl Fn(Dir) -> [&'static [u32]; 4]) {
        out.start(base);
        out.copy(base, 0..2);
        assert_eq!(out.add_task(task("x", 1, 2.5)), TaskId(2));
        out.copy(base, 3..5);
        for b in [0, 1, 3] {
            out.own(base, b);
        }
        out.write_rows(base, |w, ids| {
            for row in rows(w.dir()) {
                for &t in row {
                    w.push(TaskId(t));
                }
                w.end_row();
            }
            assert_eq!(ids.own_index(TaskId(4)), None);
            assert_eq!(ids.own_index(TaskId(3)), Some(3));
        });
    }

    /// A view with a copied task whose rows the patch rewrote reads the
    /// graph it materializes, and the graph built from the same edges:
    /// tasks, rows, degrees, ranks and a bounded schedule, bit for bit.
    #[test]
    fn a_patch_view_reads_its_materialized_graph() {
        let base = base();
        let mut p = Patch::default();
        patch(&base, &mut p, |dir| match dir {
            Dir::Succs => [&[3], &[1], &[3, 2], &[4]],
            Dir::Preds => [&[1], &[], &[0], &[1, 2]],
        });
        let view = PatchView::new(&base, &p);
        let mut tg = TaskGraph::default();
        view.materialize(&mut tg);
        let tasks = [
            task("a", 0, 1.0),
            task("b", 0, 1.0),
            task("x", 1, 2.5),
            task("d", 1, 1.0),
            task("e", 0, 1.0),
        ];
        let built = graph(&tasks, &[(0, 1), (1, 3), (1, 2), (2, 3), (3, 4)]);
        assert_eq!((view.num_edges(), tg.num_edges()), (5, 5));
        for g in [&tg, &built] {
            assert_eq!(GraphRead::len(&view), g.len());
            for id in g.task_ids() {
                let t = GraphRead::task(&view, id);
                assert_eq!((t.proc, t.duration), (g.task(id).proc, g.task(id).duration));
                assert_eq!(view.task_name(id).to_string(), g.task_name(id).to_string());
                let row = |r: PatchRow<'_>| r.collect::<Vec<_>>();
                assert_eq!(row(GraphRead::succs(&view, id)), g.succs(id), "{id}");
                assert_eq!(row(GraphRead::preds(&view, id)), g.preds(id), "{id}");
            }
            for dir in [Dir::Succs, Dir::Preds] {
                let (mut a, mut b) = (Vec::new(), Vec::new());
                view.degrees_into(dir, &mut a);
                g.degrees_into(dir, &mut b);
                assert_eq!(a, b, "{dir:?} degrees");
            }
        }
        let (mut ranks, mut scratch) = (Vec::new(), RankScratch::default());
        upward_ranks_into(&view, &mut scratch, &mut ranks);
        assert_eq!(ranks, upward_ranks(&built));
        let schedule = |g: &dyn Fn(&mut ScheduleScratch, &mut Schedule) -> Result<(), f64>| {
            let mut out = Schedule::default();
            let stop = g(&mut ScheduleScratch::default(), &mut out);
            (stop, out.start, out.finish, out.makespan)
        };
        for limit in [f64::INFINITY, 4.0] {
            let policy = OrderPolicy::RankBased;
            let on_view = schedule(&|s, o| {
                list_schedule_observed(&view, None, &policy, limit, s, o, &mut NoHook)
            });
            let on_graph = schedule(&|s, o| {
                list_schedule_observed(&built, None, &policy, limit, s, o, &mut NoHook)
            });
            assert_eq!(
                format!("{on_view:?}"),
                format!("{on_graph:?}"),
                "limit {limit}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "duplicate edge x -> d (t2 -> t3)")]
    fn a_repeated_written_successor_panics() {
        patch(&base(), &mut Patch::default(), |dir| match dir {
            Dir::Succs => [&[3, 3], &[1], &[3, 2], &[4]],
            Dir::Preds => [&[1], &[], &[0], &[1, 2, 2]],
        });
    }

    /// A patch whose written rows close a cycle (`x -> b -> x`): the
    /// view's rank sweep panics as a graph's does.
    #[test]
    #[should_panic(expected = "task graph contains a cycle")]
    fn a_cycle_through_written_rows_panics() {
        let (base, mut p) = (base(), Patch::default());
        patch(&base, &mut p, |dir| match dir {
            Dir::Succs => [&[1], &[1], &[3, 2], &[4]],
            Dir::Preds => [&[1], &[], &[0, 2], &[1]],
        });
        upward_ranks_into(
            &PatchView::new(&base, &p),
            &mut RankScratch::default(),
            &mut Vec::new(),
        );
    }
}
