//! Execution-path bookkeeping for multipath (and single-path) execution.
//!
//! Paths form a tree: forking at a low-confidence branch creates a child
//! path whose `fork_seq` is the forking branch's fetch sequence number.
//! Two questions drive all squash and rename logic, both answered here:
//!
//! * **lineage** — is micro-op *U* part of the continuation of path *P*
//!   after sequence *S*? (Those are the micro-ops a misprediction at
//!   `(P, S)` must squash.)
//! * **visibility** — can path *P* observe micro-op *U*'s result? (*U*
//!   must be on *P* itself, or on an ancestor *before* the fork point
//!   leading toward *P*.)
//!
//! # Cost contract
//!
//! Path identifiers are never recycled, so the table holds every path a
//! simulation ever forked; nothing on the squash path may scan it. Each
//! path carries intrusive child links (its newest child, and its next
//! older sibling), so:
//!
//! * a kill ([`PathTable::kill_subtree_into`],
//!   [`PathTable::kill_lineage_into`]) costs O(paths in the killed
//!   subtree), and a core's squash costs O(window + killed subtree);
//! * [`PathTable::children_after`] stops at the first child forked at or
//!   before the squash point, because forks on a path are made in
//!   increasing sequence order.
//!
//! [`PathTable::on_lineage`] and [`PathTable::in_subtree`] answer the
//! same questions by walking parent chains. They are the reference
//! predicates the tests check the links against, not hot-path code.
//!
//! A snapshot carries no links: it stores each path's parent, fork
//! sequence and alive flag, and restoring re-derives the links from the
//! parent column.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Identifies one execution path within a simulation.
#[derive(
    Debug, Default, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize,
)]
pub struct PathId(u32);

impl PathId {
    /// The initial (architectural) path.
    pub const ROOT: PathId = PathId(0);

    /// Index form, for dense per-path tables.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// The inverse of [`PathId::index`], for iterating dense tables.
    pub(crate) fn from_index(i: usize) -> PathId {
        PathId(i as u32)
    }
}

impl fmt::Display for PathId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "path{}", self.0)
    }
}

/// Identifies one hardware thread (hart) within a core.
///
/// Hart identity flows from the [`crate::System`] scheduler through
/// fetch, prediction and commit so shared structures (the RAS unit
/// under [`crate::RasSharing`]) can attribute every operation to the
/// stream that performed it. A single-stream core is hart 0 throughout.
#[derive(
    Debug, Default, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize,
)]
pub struct HartId(u8);

impl HartId {
    /// The first (and, on a single-threaded core, only) hart.
    pub const H0: HartId = HartId(0);

    /// Creates a hart id from its index on the core.
    pub fn new(index: u8) -> HartId {
        HartId(index)
    }

    /// Index form, for dense per-hart tables.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for HartId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "hart{}", self.0)
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct PathInfo {
    parent: Option<PathId>,
    fork_seq: u64,
    alive: bool,
    /// The newest child: the last path forked from this one.
    first_child: Option<PathId>,
    /// The next older child of `parent` (forked before this one).
    next_sibling: Option<PathId>,
}

/// The path tree: creation, death, lineage and visibility queries.
///
/// Paths are never recycled within a simulation (identifiers are dense
/// and monotone), but only up to `max_live` may be alive at once.
///
/// # Examples
///
/// ```
/// use hydra_pipeline::{PathId, PathTable};
///
/// let mut t = PathTable::new(2);
/// let child = t.fork(PathId::ROOT, 10).expect("context free");
/// assert!(t.is_alive(child));
/// assert_eq!(t.fork(child, 11), None); // both contexts in use
/// t.kill_subtree(child);
/// assert!(!t.is_alive(child));
/// assert_eq!(t.live_count(), 1);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PathTable {
    paths: Vec<PathInfo>,
    max_live: usize,
    /// Live paths in creation order, maintained incrementally so the
    /// per-cycle fetch loop never scans every path ever created.
    alive_ids: Vec<PathId>,
}

impl PathTable {
    /// Creates a table with the root path alive and room for `max_live`
    /// simultaneous paths.
    ///
    /// # Panics
    ///
    /// Panics if `max_live` is zero.
    pub fn new(max_live: usize) -> Self {
        assert!(max_live > 0, "need at least one live path");
        let mut table = PathTable {
            paths: Vec::new(),
            max_live,
            alive_ids: vec![PathId::ROOT],
        };
        table.push_path(None, 0, true);
        table
    }

    /// Number of currently live paths.
    pub fn live_count(&self) -> usize {
        self.alive_ids.len()
    }

    /// Number of paths ever created (dense identifier space).
    pub fn path_count(&self) -> usize {
        self.paths.len()
    }

    /// Whether `path` is alive (may fetch and fork).
    pub fn is_alive(&self, path: PathId) -> bool {
        self.paths[path.index()].alive
    }

    /// Live paths in creation order.
    pub fn alive_ids(&self) -> &[PathId] {
        &self.alive_ids
    }

    /// Removes `path` from the live list, keeping creation order.
    fn alive_ids_remove(&mut self, path: PathId) {
        if let Some(pos) = self.alive_ids.iter().position(|&p| p == path) {
            self.alive_ids.remove(pos);
        }
    }

    /// The parent of `path`, if it has one.
    pub fn parent(&self, path: PathId) -> Option<PathId> {
        self.paths[path.index()].parent
    }

    /// The fetch sequence of the branch that forked `path` (0 for root).
    pub fn fork_seq(&self, path: PathId) -> u64 {
        self.paths[path.index()].fork_seq
    }

    /// Forks a child of `parent` at branch sequence `seq`. Returns `None`
    /// when all path contexts are in use or the parent is dead.
    ///
    /// Forks from one parent must come in increasing `seq` order, as
    /// fetch makes them; [`PathTable::children_after`] relies on it.
    pub fn fork(&mut self, parent: PathId, seq: u64) -> Option<PathId> {
        if !self.is_alive(parent) || self.live_count() >= self.max_live {
            return None;
        }
        let id = PathId(self.paths.len() as u32);
        let ordered = self.push_path(Some(parent), seq, true);
        debug_assert!(ordered, "fork from {parent} at seq {seq} is out of order");
        self.alive_ids.push(id); // new ids are largest: order preserved
        Some(id)
    }

    /// Appends a path row and links it in as its parent's newest child.
    /// Returns `false` when `fork_seq` is not above the fork sequence of
    /// the parent's previous newest child (the row is pushed anyway).
    fn push_path(&mut self, parent: Option<PathId>, fork_seq: u64, alive: bool) -> bool {
        let id = PathId(self.paths.len() as u32);
        let mut next_sibling = None;
        if let Some(p) = parent {
            next_sibling = self.paths[p.index()].first_child.replace(id);
        }
        self.paths.push(PathInfo {
            parent,
            fork_seq,
            alive,
            first_child: None,
            next_sibling,
        });
        next_sibling.is_none_or(|s| self.fork_seq(s) < fork_seq)
    }

    /// Whether `descendant` is `ancestor` or transitively forked from it
    /// (a parent-chain walk: the reference predicate for the subtree
    /// walks below).
    pub fn in_subtree(&self, descendant: PathId, ancestor: PathId) -> bool {
        let mut cur = Some(descendant);
        while let Some(p) = cur {
            if p == ancestor {
                return true;
            }
            cur = self.parent(p);
        }
        false
    }

    /// The children of `base` forked strictly after `min_seq`, newest
    /// first. Together with their subtrees these are exactly the paths
    /// other than `base` on the lineage of `(base, min_seq)` (see
    /// [`PathTable::on_lineage`]). Costs O(children yielded): the walk
    /// stops at the first child forked at or before `min_seq`.
    pub fn children_after(&self, base: PathId, min_seq: u64) -> impl Iterator<Item = PathId> + '_ {
        let mut next = self.paths[base.index()].first_child;
        std::iter::from_fn(move || {
            let child = next.filter(|c| self.fork_seq(*c) > min_seq)?;
            next = self.paths[child.index()].next_sibling;
            Some(child)
        })
    }

    /// Kills `root` and every path forked from it (transitively).
    /// Returns **all** subtree members, including paths that were already
    /// dead (e.g. retired parents whose fork lost): a squash triggered at
    /// the subtree root must discard their in-flight micro-ops too.
    pub fn kill_subtree(&mut self, root: PathId) -> Vec<PathId> {
        let mut ids = Vec::new();
        self.kill_subtree_into(root, &mut ids);
        ids
    }

    /// [`PathTable::kill_subtree`] appending into a caller-provided
    /// buffer instead of allocating (the hot-path form). Walks the child
    /// links, so it costs O(subtree size).
    pub fn kill_subtree_into(&mut self, root: PathId, out: &mut Vec<PathId>) {
        let start = out.len();
        out.push(root);
        self.kill_worklist(out, start);
    }

    /// Kills the lineage of `(base, min_seq)` other than `base` itself:
    /// the subtree of every child in [`PathTable::children_after`].
    /// Appends every member, dead ones included, to `out`. Costs
    /// O(killed subtree).
    pub fn kill_lineage_into(&mut self, base: PathId, min_seq: u64, out: &mut Vec<PathId>) {
        let start = out.len();
        out.extend(self.children_after(base, min_seq));
        self.kill_worklist(out, start);
    }

    /// Treats `out[next..]` as a breadth-first worklist of subtree roots:
    /// kills each entry and appends its children until none are left.
    /// Sibling subtrees are disjoint, so nothing is visited twice.
    fn kill_worklist(&mut self, out: &mut Vec<PathId>, mut next: usize) {
        while let Some(&p) = out.get(next) {
            next += 1;
            self.retire_path(p);
            let mut child = self.paths[p.index()].first_child;
            while let Some(c) = child {
                out.push(c);
                child = self.paths[c.index()].next_sibling;
            }
        }
    }

    /// Marks a single path dead without touching its descendants (used
    /// when a forked branch resolves *against* the parent: the parent's
    /// fetch stops but the surviving child subtree lives on).
    pub fn retire_path(&mut self, path: PathId) {
        if self.paths[path.index()].alive {
            self.paths[path.index()].alive = false;
            self.alive_ids_remove(path);
        }
    }

    /// Brings a retired path back to life. Needed when a branch *older*
    /// than the fork that retired the path mispredicts: the squash kills
    /// the subtree that had taken over, and the retired path is the
    /// correct continuation again.
    pub fn revive(&mut self, path: PathId) {
        if !self.paths[path.index()].alive {
            self.paths[path.index()].alive = true;
            let pos = self.alive_ids.partition_point(|&p| p < path);
            self.alive_ids.insert(pos, path);
        }
    }

    /// **Lineage**: is a micro-op at `(uop_path, uop_seq)` part of the
    /// continuation of `base` after sequence `min_seq`?
    ///
    /// True when the micro-op is on `base` itself with `uop_seq >
    /// min_seq`, or on a path whose chain of forks leaves `base` strictly
    /// after `min_seq`. A child forked *exactly at* `min_seq` is the
    /// alternate arm of the resolving branch itself and is **not**
    /// lineage (it survives when the branch resolves against `base`).
    pub fn on_lineage(&self, uop_path: PathId, uop_seq: u64, base: PathId, min_seq: u64) -> bool {
        if uop_path == base {
            return uop_seq > min_seq;
        }
        // Walk up from uop_path to find the link that leaves `base`.
        let mut cur = uop_path;
        loop {
            match self.parent(cur) {
                Some(p) if p == base => return self.fork_seq(cur) > min_seq,
                Some(p) => cur = p,
                None => return false,
            }
        }
    }

    /// **Visibility**: the ancestor horizons of `path` — pairs
    /// `(ancestor, horizon)` meaning micro-ops on `ancestor` with
    /// `seq <= horizon` are visible to `path`. The path itself appears
    /// with horizon `u64::MAX`.
    pub fn visibility(&self, path: PathId) -> Vec<(PathId, u64)> {
        let mut out = vec![(path, u64::MAX)];
        let mut cur = path;
        let mut horizon = u64::MAX;
        while let Some(parent) = self.parent(cur) {
            horizon = horizon.min(self.fork_seq(cur));
            out.push((parent, horizon));
            cur = parent;
        }
        out
    }

    /// Raw rows for the snapshot serializer: one
    /// `(parent, fork_seq, alive)` triple per path ever created, in
    /// creation order.
    pub(crate) fn snapshot_rows(&self) -> impl Iterator<Item = (Option<PathId>, u64, bool)> + '_ {
        self.paths.iter().map(|p| (p.parent, p.fork_seq, p.alive))
    }

    /// The `max_live` bound this table was created with.
    pub(crate) fn max_live(&self) -> usize {
        self.max_live
    }

    /// Rebuilds a table from [`PathTable::snapshot_rows`] output.
    /// Returns `None` when the rows are inconsistent: no root, a root
    /// with a parent, a parent reference that is not an earlier path, a
    /// fork sequence not above that of the parent's previous child, or
    /// more live paths than `max_live` allows. The live list is
    /// reconstructed from the alive flags — it is always sorted by id,
    /// which is exactly the order the incremental maintenance preserves.
    /// The child links are re-derived from the parent column in id
    /// order, which is the order the forks made them.
    pub(crate) fn from_snapshot_rows(
        rows: Vec<(Option<PathId>, u64, bool)>,
        max_live: usize,
    ) -> Option<Self> {
        if max_live == 0 || rows.is_empty() {
            return None;
        }
        if rows[0].0.is_some() {
            return None;
        }
        let mut table = PathTable {
            paths: Vec::with_capacity(rows.len()),
            max_live,
            alive_ids: Vec::new(),
        };
        for (i, (parent, fork_seq, alive)) in rows.into_iter().enumerate() {
            match parent {
                Some(p) if p.index() >= i => return None,
                None if i > 0 => return None,
                _ => {}
            }
            if alive {
                table.alive_ids.push(PathId(i as u32));
            }
            if !table.push_path(parent, fork_seq, alive) {
                return None;
            }
        }
        if table.alive_ids.len() > max_live {
            return None;
        }
        Some(table)
    }

    /// Whether a micro-op at `(uop_path, uop_seq)` is visible to `path`.
    ///
    /// Equivalent to scanning [`PathTable::visibility`], but walks the
    /// ancestor chain directly — this runs per LSQ entry per load in the
    /// core's hot loop and must not allocate.
    pub fn visible(&self, uop_path: PathId, uop_seq: u64, path: PathId) -> bool {
        if uop_path == path {
            return true;
        }
        let mut cur = path;
        let mut horizon = u64::MAX;
        while let Some(parent) = self.parent(cur) {
            horizon = horizon.min(self.fork_seq(cur));
            if parent == uop_path {
                return uop_seq <= horizon;
            }
            cur = parent;
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn root_is_alive() {
        let t = PathTable::new(4);
        assert!(t.is_alive(PathId::ROOT));
        assert_eq!(t.live_count(), 1);
        assert_eq!(t.parent(PathId::ROOT), None);
        assert_eq!(t.alive_ids(), [PathId::ROOT]);
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn zero_live_panics() {
        let _ = PathTable::new(0);
    }

    #[test]
    fn fork_respects_capacity() {
        let mut t = PathTable::new(2);
        let a = t.fork(PathId::ROOT, 5).unwrap();
        assert_eq!(t.fork(PathId::ROOT, 6), None);
        t.kill_subtree(a);
        assert!(t.fork(PathId::ROOT, 7).is_some());
    }

    #[test]
    fn fork_from_dead_parent_fails() {
        let mut t = PathTable::new(4);
        let a = t.fork(PathId::ROOT, 5).unwrap();
        t.kill_subtree(a);
        assert_eq!(t.fork(a, 9), None);
    }

    #[test]
    fn kill_subtree_is_transitive() {
        let mut t = PathTable::new(8);
        let a = t.fork(PathId::ROOT, 1).unwrap();
        let b = t.fork(a, 2).unwrap();
        let c = t.fork(PathId::ROOT, 3).unwrap();
        let killed = t.kill_subtree(a);
        assert!(killed.contains(&a) && killed.contains(&b));
        assert!(!killed.contains(&c));
        assert!(t.is_alive(c));
        assert!(t.is_alive(PathId::ROOT));
    }

    #[test]
    fn lineage_same_path_uses_seq() {
        let t = PathTable::new(2);
        assert!(t.on_lineage(PathId::ROOT, 11, PathId::ROOT, 10));
        assert!(!t.on_lineage(PathId::ROOT, 10, PathId::ROOT, 10));
        assert!(!t.on_lineage(PathId::ROOT, 9, PathId::ROOT, 10));
    }

    #[test]
    fn lineage_excludes_fork_at_exact_seq() {
        // A branch at seq 10 forks child c. A misprediction resolution of
        // that very branch against ROOT must squash ROOT's younger uops
        // but NOT the child (which becomes the correct continuation).
        let mut t = PathTable::new(4);
        let c = t.fork(PathId::ROOT, 10).unwrap();
        assert!(!t.on_lineage(c, 12, PathId::ROOT, 10));
        // But an older misprediction (seq 5) squashes the child too.
        assert!(t.on_lineage(c, 12, PathId::ROOT, 5));
    }

    #[test]
    fn lineage_transitive_chain() {
        let mut t = PathTable::new(8);
        let a = t.fork(PathId::ROOT, 20).unwrap();
        let b = t.fork(a, 30).unwrap();
        // b hangs off ROOT through a fork at 20.
        assert!(t.on_lineage(b, 35, PathId::ROOT, 10));
        assert!(!t.on_lineage(b, 35, PathId::ROOT, 20));
        // Relative to a, b forked at 30.
        assert!(t.on_lineage(b, 35, a, 25));
        assert!(!t.on_lineage(b, 35, a, 30));
    }

    #[test]
    fn visibility_horizons() {
        let mut t = PathTable::new(8);
        let a = t.fork(PathId::ROOT, 20).unwrap();
        let b = t.fork(a, 30).unwrap();
        // b sees: itself fully, a up to 30, root up to 20.
        assert!(t.visible(b, 999, b));
        assert!(t.visible(a, 30, b));
        assert!(!t.visible(a, 31, b));
        assert!(t.visible(PathId::ROOT, 20, b));
        assert!(!t.visible(PathId::ROOT, 21, b));
        // a does not see b at all.
        assert!(!t.visible(b, 1, a));
        // Root doesn't see children.
        assert!(!t.visible(a, 1, PathId::ROOT));
    }

    #[test]
    fn children_after_is_newest_first_and_stops_at_the_squash_point() {
        let mut t = PathTable::new(8);
        let a = t.fork(PathId::ROOT, 10).unwrap();
        let b = t.fork(PathId::ROOT, 20).unwrap();
        let c = t.fork(PathId::ROOT, 30).unwrap();
        let _grandchild = t.fork(b, 25).unwrap();
        let after = |s| t.children_after(PathId::ROOT, s).collect::<Vec<_>>();
        assert_eq!(after(0), [c, b, a]);
        assert_eq!(
            after(20),
            [c],
            "the child forked at the squash point survives"
        );
        assert_eq!(after(30), []);
    }

    #[test]
    fn kill_lineage_takes_whole_subtrees_of_younger_children() {
        let mut t = PathTable::new(8);
        let a = t.fork(PathId::ROOT, 10).unwrap();
        let b = t.fork(PathId::ROOT, 20).unwrap();
        let g = t.fork(b, 25).unwrap();
        let mut killed = Vec::new();
        t.kill_lineage_into(PathId::ROOT, 15, &mut killed);
        assert_eq!(killed, [b, g]);
        assert!(t.is_alive(a) && t.is_alive(PathId::ROOT));
        assert!(!t.is_alive(b) && !t.is_alive(g));
    }

    #[test]
    fn snapshot_rows_rebuild_the_child_links() {
        let mut t = PathTable::new(4);
        let a = t.fork(PathId::ROOT, 10).unwrap();
        let b = t.fork(a, 12).unwrap();
        t.kill_subtree(b);
        let c = t.fork(PathId::ROOT, 14).unwrap();
        t.retire_path(PathId::ROOT);
        let _ = t.fork(c, 15).unwrap();
        let rebuilt = PathTable::from_snapshot_rows(t.snapshot_rows().collect(), 4);
        assert_eq!(rebuilt.as_ref(), Some(&t));
    }

    #[test]
    fn snapshot_rows_reject_out_of_order_forks() {
        let rows = vec![
            (None, 0, true),
            (Some(PathId::ROOT), 20, true),
            (Some(PathId::ROOT), 20, true),
        ];
        assert_eq!(PathTable::from_snapshot_rows(rows, 4), None);
    }

    #[test]
    fn retire_path_keeps_descendants() {
        let mut t = PathTable::new(4);
        let a = t.fork(PathId::ROOT, 1).unwrap();
        t.retire_path(PathId::ROOT);
        assert!(!t.is_alive(PathId::ROOT));
        assert!(t.is_alive(a));
    }

    #[test]
    fn display_and_index() {
        assert_eq!(PathId::ROOT.to_string(), "path0");
        assert_eq!(PathId::ROOT.index(), 0);
    }

    #[test]
    fn hart_display_and_index() {
        assert_eq!(HartId::H0, HartId::new(0));
        assert_eq!(HartId::new(1).to_string(), "hart1");
        assert_eq!(HartId::new(1).index(), 1);
    }
}
