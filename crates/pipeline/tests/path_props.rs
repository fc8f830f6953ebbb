//! Property-based tests for the path tree: lineage and visibility are
//! the load-bearing predicates of multipath squashing and renaming, and
//! the child-link walks the core squashes with must select exactly what
//! the parent-chain predicates select over every path.

use hydra_pipeline::{PathId, PathTable};
use proptest::prelude::*;

/// A random fork/kill/retire/revive schedule.
#[derive(Debug, Clone, Copy)]
enum Action {
    /// Fork from the path with this index (mod paths) this many
    /// sequence numbers after the previous fork.
    Fork(usize, u64),
    /// Kill the subtree of the path with this index (mod paths).
    Kill(usize),
    /// Retire the path with this index (mod paths) alone, as a fork
    /// resolved against it does.
    Retire(usize),
    /// Revive the path with this index (mod paths) if a context is free:
    /// the core revives a path only after the squash that freed one.
    Revive(usize),
}

fn actions() -> impl Strategy<Value = Vec<Action>> {
    prop::collection::vec(
        // Fork is listed twice so trees grow despite the three ways
        // to end a path.
        prop_oneof![
            (0usize..8, 1u64..10_000).prop_map(|(p, s)| Action::Fork(p, s)),
            (0usize..8, 1u64..10_000).prop_map(|(p, s)| Action::Fork(p, s)),
            (0usize..8).prop_map(Action::Kill),
            (0usize..8).prop_map(Action::Retire),
            (0usize..8).prop_map(Action::Revive),
        ],
        0..40,
    )
}

/// Applies one action; `seq` is the running fetch sequence, so forks
/// come in increasing sequence order as they do in the core.
fn apply(t: &mut PathTable, all: &mut Vec<PathId>, seq: &mut u64, max_live: usize, a: Action) {
    match a {
        Action::Fork(idx, step) => {
            *seq += step;
            let parent = all[idx % all.len()];
            if let Some(child) = t.fork(parent, *seq) {
                all.push(child);
            }
        }
        Action::Kill(idx) => {
            let victim = all[idx % all.len()];
            if victim != PathId::ROOT {
                t.kill_subtree(victim);
            }
        }
        Action::Retire(idx) => t.retire_path(all[idx % all.len()]),
        Action::Revive(idx) => {
            if t.live_count() < max_live {
                t.revive(all[idx % all.len()]);
            }
        }
    }
}

fn build(max_live: usize, schedule: &[Action]) -> (PathTable, Vec<PathId>) {
    let mut t = PathTable::new(max_live);
    let mut all = vec![PathId::ROOT];
    let mut seq = 0u64;
    for &a in schedule {
        apply(&mut t, &mut all, &mut seq, max_live, a);
    }
    (t, all)
}

/// Squash points worth probing on `base`: every child's fork sequence
/// and its neighbours, plus both extremes.
fn probe_seqs(t: &PathTable, all: &[PathId], base: PathId) -> Vec<u64> {
    let mut seqs = vec![0, u64::MAX];
    for &c in all {
        if t.parent(c) == Some(base) {
            let f = t.fork_seq(c);
            seqs.extend([f - 1, f, f + 1]);
        }
    }
    seqs
}

fn sorted(mut v: Vec<PathId>) -> Vec<PathId> {
    v.sort_unstable();
    v
}

proptest! {
    /// Live count never exceeds the context limit.
    #[test]
    fn live_count_bounded(max_live in 1usize..6, schedule in actions()) {
        let mut t = PathTable::new(max_live);
        let mut all = vec![PathId::ROOT];
        let mut seq = 0u64;
        for &a in &schedule {
            apply(&mut t, &mut all, &mut seq, max_live, a);
            prop_assert!(t.live_count() <= max_live);
        }
    }

    /// Kill is transitive and idempotent: after killing a subtree, no
    /// path in it is alive, and killing again changes nothing.
    #[test]
    fn kill_subtree_transitive(schedule in actions()) {
        let (mut t, all) = build(8, &schedule);
        for &victim in &all {
            if victim == PathId::ROOT {
                continue;
            }
            let killed = t.kill_subtree(victim);
            for &k in &killed {
                prop_assert!(!t.is_alive(k));
                prop_assert!(t.in_subtree(k, victim));
            }
            let again = t.kill_subtree(victim);
            prop_assert_eq!(killed, again, "subtree membership is stable");
        }
    }

    /// Visibility is downward-only: a child sees ancestors' early uops;
    /// an ancestor never sees a descendant's uops.
    #[test]
    fn visibility_is_downward(schedule in actions()) {
        let (t, all) = build(8, &schedule);
        for &a in &all {
            for &b in &all {
                if a == b {
                    prop_assert!(t.visible(a, u64::MAX, a), "self always visible");
                    continue;
                }
                if t.in_subtree(b, a) {
                    // a is an ancestor of b: b sees a's uops up to the
                    // fork horizon, never beyond; a never sees b.
                    prop_assert!(!t.visible(b, 0, a), "{a} must not see descendant {b}");
                    let horizon = t
                        .visibility(b)
                        .iter()
                        .find(|&&(p, _)| p == a)
                        .map(|&(_, h)| h)
                        .expect("ancestor appears in visibility");
                    prop_assert!(t.visible(a, horizon, b));
                    if horizon < u64::MAX {
                        prop_assert!(!t.visible(a, horizon + 1, b));
                    }
                } else if !t.in_subtree(a, b) {
                    // Unrelated paths see nothing of each other beyond
                    // common ancestors (which are separate entries).
                    prop_assert!(!t.visible(b, u64::MAX, a) || b == a);
                }
            }
        }
    }

    /// Lineage and visibility interlock: a uop on the post-fork lineage
    /// of (base, s) is exactly one that base's *pre-s* state cannot keep:
    /// it is never visible to any path that forked off base at or before s.
    #[test]
    fn lineage_excludes_prior_forks(schedule in actions()) {
        let (t, all) = build(8, &schedule);
        for &child in &all {
            let Some(parent) = t.parent(child) else { continue };
            let fork = t.fork_seq(child);
            // The child itself is never on the parent's lineage at the
            // fork branch (it is the surviving alternate arm)...
            prop_assert!(!t.on_lineage(child, u64::MAX, parent, fork));
            // ...but is on the lineage of any strictly older point.
            if fork > 0 {
                prop_assert!(t.on_lineage(child, u64::MAX, parent, fork - 1));
            }
        }
    }

    /// Revive restores exactly the one path.
    #[test]
    fn revive_restores_single_path(schedule in actions()) {
        let (mut t, all) = build(8, &schedule);
        for &p in &all {
            if !t.is_alive(p) {
                t.revive(p);
                prop_assert!(t.is_alive(p));
                t.retire_path(p);
                prop_assert!(!t.is_alive(p));
            }
        }
    }

    /// The subtree walk selects exactly what the parent-chain predicate
    /// selects over every path, and kills exactly those paths.
    #[test]
    fn kill_subtree_matches_the_all_paths_scan(schedule in actions()) {
        let (t, all) = build(8, &schedule);
        for &victim in &all {
            let mut killed_t = t.clone();
            let killed = sorted(killed_t.kill_subtree(victim));
            let scan: Vec<PathId> =
                all.iter().copied().filter(|&p| t.in_subtree(p, victim)).collect();
            prop_assert_eq!(&killed, &scan);
            for &p in &all {
                let expect = t.is_alive(p) && !scan.contains(&p);
                prop_assert_eq!(killed_t.is_alive(p), expect, "{} after killing {}", p, victim);
            }
        }
    }

    /// `children_after` and its subtrees are exactly the all-paths
    /// `on_lineage` scan, at every interesting squash point.
    #[test]
    fn children_after_matches_the_lineage_scan(schedule in actions()) {
        let (t, all) = build(8, &schedule);
        for &base in &all {
            for min_seq in probe_seqs(&t, &all, base) {
                let children = sorted(t.children_after(base, min_seq).collect());
                let direct: Vec<PathId> = all
                    .iter()
                    .copied()
                    .filter(|&c| t.parent(c) == Some(base) && t.fork_seq(c) > min_seq)
                    .collect();
                prop_assert_eq!(&children, &direct);

                let mut killed_t = t.clone();
                let mut killed = Vec::new();
                killed_t.kill_lineage_into(base, min_seq, &mut killed);
                let scan: Vec<PathId> = all
                    .iter()
                    .copied()
                    .filter(|&q| q != base && t.on_lineage(q, u64::MAX, base, min_seq))
                    .collect();
                prop_assert_eq!(sorted(killed), scan, "lineage of ({}, {})", base, min_seq);
            }
        }
    }
}
