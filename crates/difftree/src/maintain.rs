//! Incremental maintenance of the initial difftree under log appends and retractions.
//!
//! The paper's interactive loop is a user streaming queries while the interface
//! re-synthesizes under a latency budget. Deriving the session's difftree from the full
//! log on every change costs O(log); [`MaintainedTree`] instead maintains the exact tree
//! [`initial_difftree`](crate::builder::initial_difftree) would build — bit-identical at
//! every step — by grafting or removing a single leaf under the root `ANY`, in the spirit
//! of FO+MOD query maintenance under updates (Berkholz et al.): cost proportional to the
//! *change*, not the *log*.
//!
//! Three invariants hold after every edit:
//!
//! 1. **Tree identity** — `self.tree()` is bit-identical (same fingerprints, same
//!    canonical form) to `initial_difftree(&healthy_queries(self.entries()))`. Everything
//!    off the edited spine is `Arc`-shared with the previous tree, so fingerprint-keyed
//!    caches ([`ActionIndex`](crate::index::ActionIndex) binding summaries, expressibility
//!    memos, eval plans) keep their entries for the untouched subtrees.
//! 2. **Assignment identity** — [`MaintainedTree::assignments`] equals
//!    [`express_entries`](crate::derive::express_entries) over the maintained tree: the
//!    per-entry expressibility memo is updated in O(change) rather than re-matched. (For
//!    duplicated queries the matcher picks the *first* alternative that expresses the
//!    query; the maintained occurrence index reproduces that tie-break exactly.)
//! 3. **Quarantine transparency** — `Opaque` slots from a
//!    [`TriagedLog`](../../mctsui_core/struct.TriagedLog.html) occupy log positions but
//!    never touch the tree; retracting one is a pure bookkeeping edit.

use std::sync::Arc;

use rustc_hash::FxHashMap;

use mctsui_sql::Ast;

use crate::derive::{ChoiceAssignment, LogEntry};
use crate::node::{DiffNode, DiffTree};

/// Per-healthy-entry maintenance state: where the entry's leaf sits under the root `ANY`
/// and the (concrete) assignment that expresses the entry against its own leaf.
#[derive(Clone, Debug)]
struct EntrySlot {
    /// This entry's own alternative index under the root `ANY` (its healthy position).
    pick: usize,
    /// Structural fingerprint of the entry's leaf, used to locate duplicate alternatives.
    leaf_fingerprint: u64,
    /// Assignment expressing the query against its own leaf — fully concrete because
    /// `from_ast` leaves contain no choice nodes.
    inner: ChoiceAssignment,
}

/// A session log plus the incrementally maintained initial difftree over its healthy
/// queries.
///
/// Appending a parsed query grafts one new leaf under the root `ANY` (promoting the root
/// through the 0 → 1 → many shapes exactly as
/// [`initial_difftree`](crate::builder::initial_difftree) does); retracting removes one
/// leaf and re-demotes the root. Both edits clone only the root spine — all sibling
/// subtrees stay `Arc`-shared with the previous tree — and patch the per-entry
/// expressibility memo in place instead of re-matching the whole log.
#[derive(Clone, Debug)]
pub struct MaintainedTree {
    /// The full log in arrival order, quarantined slots included.
    entries: Vec<LogEntry>,
    /// Maintenance state per entry (`None` for quarantined slots).
    slots: Vec<Option<EntrySlot>>,
    /// The maintained tree; bit-identical to `initial_difftree` of the healthy queries.
    tree: DiffTree,
    /// Leaf fingerprint → sorted healthy positions carrying that exact leaf. The head of
    /// each list is the alternative the matcher would pick for any duplicate of that
    /// query (the matcher scans alternatives in order and takes the first hit).
    occurrences: FxHashMap<u64, Vec<usize>>,
    /// Number of healthy (non-quarantined) entries.
    healthy_len: usize,
}

impl MaintainedTree {
    /// An empty log: the maintained tree is the empty alternative, exactly like
    /// `initial_difftree(&[])`.
    pub fn new() -> Self {
        Self {
            entries: Vec::new(),
            slots: Vec::new(),
            tree: DiffTree::new(DiffNode::empty()),
            occurrences: FxHashMap::default(),
            healthy_len: 0,
        }
    }
}

impl Default for MaintainedTree {
    fn default() -> Self {
        Self::new()
    }
}

impl MaintainedTree {
    /// Build a maintained tree by appending every entry in order.
    pub fn from_entries(entries: Vec<LogEntry>) -> Self {
        let mut maintained = Self::new();
        for entry in entries {
            maintained.append_entry(entry);
        }
        maintained
    }

    /// Append a parsed query to the log, grafting its leaf into the tree in O(change).
    pub fn append_query(&mut self, ast: Ast) {
        self.append_entry(LogEntry::Parsed(ast));
    }

    /// Append a log entry; quarantined slots occupy a position but leave the tree alone.
    pub fn append_entry(&mut self, entry: LogEntry) {
        let Some(ast) = entry.ast().cloned() else {
            self.entries.push(entry);
            self.slots.push(None);
            return;
        };
        let leaf = DiffNode::from_ast(&ast);
        let fingerprint = leaf.fingerprint();
        let inner = ChoiceAssignment::concrete(&leaf);
        let pick = self.healthy_len;
        // Graft the leaf, promoting the root through the same shapes `initial_difftree`
        // uses: empty alt -> plain leaf -> ANY of leaves. Existing alternatives are
        // Arc-cloned, never rebuilt, so their fingerprints (and every fingerprint-keyed
        // cache entry) survive the edit.
        let root = match self.healthy_len {
            0 => leaf,
            1 => DiffNode::any(vec![self.tree.root().clone(), leaf]),
            _ => {
                let mut children = self.tree.root().children().to_vec();
                children.push(leaf);
                DiffNode::any(children)
            }
        };
        self.tree = DiffTree::new(root);
        self.occurrences.entry(fingerprint).or_default().push(pick);
        self.entries.push(entry);
        self.slots.push(Some(EntrySlot {
            pick,
            leaf_fingerprint: fingerprint,
            inner,
        }));
        self.healthy_len += 1;
    }

    /// Retract the entry at `index` (a position in the full log, quarantined slots
    /// included), un-grafting its leaf from the tree in O(change).
    ///
    /// Returns the removed entry, or an error if `index` is out of bounds.
    pub fn retract_query(&mut self, index: usize) -> Result<LogEntry, String> {
        if index >= self.entries.len() {
            return Err(format!(
                "retract index {index} out of bounds for log of length {}",
                self.entries.len()
            ));
        }
        let entry = self.entries.remove(index);
        let slot = self.slots.remove(index);
        let Some(slot) = slot else {
            // Quarantined slot: the tree never contained it.
            return Ok(entry);
        };
        let pick = slot.pick;
        // Drop the retracted position from the occurrence index and shift the positions
        // above it down by one (their alternatives slide left under the root ANY).
        self.occurrences.retain(|_, picks| {
            picks.retain(|&p| p != pick);
            for p in picks.iter_mut() {
                if *p > pick {
                    *p -= 1;
                }
            }
            !picks.is_empty()
        });
        for slot in self.slots.iter_mut().flatten() {
            if slot.pick > pick {
                slot.pick -= 1;
            }
        }
        // Un-graft the leaf, demoting the root through the same shapes in reverse:
        // ANY of leaves -> plain leaf -> empty alt. Surviving alternatives are
        // Arc-cloned from the old tree.
        let root = match self.healthy_len {
            0 => unreachable!("healthy slot existed, so healthy_len >= 1"),
            1 => DiffNode::empty(),
            2 => self.tree.root().children()[1 - pick].clone(),
            _ => {
                let mut children = self.tree.root().children().to_vec();
                children.remove(pick);
                DiffNode::any(children)
            }
        };
        self.tree = DiffTree::new(root);
        self.healthy_len -= 1;
        Ok(entry)
    }

    /// The maintained tree — bit-identical to
    /// [`initial_difftree`](crate::builder::initial_difftree) over the healthy queries.
    pub fn tree(&self) -> &DiffTree {
        &self.tree
    }

    /// The full log in arrival order, quarantined slots included.
    pub fn entries(&self) -> &[LogEntry] {
        &self.entries
    }

    /// Number of entries in the log, quarantined slots included.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when the log holds no entries at all.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Number of healthy (non-quarantined) entries — the alternatives under the root.
    pub fn healthy_len(&self) -> usize {
        self.healthy_len
    }

    /// Number of quarantined (`Opaque`) slots in the log.
    pub fn quarantined_len(&self) -> usize {
        self.entries.len() - self.healthy_len
    }

    /// The healthy query ASTs in log order (what the maintained tree is built over).
    pub fn healthy(&self) -> Vec<Ast> {
        self.entries
            .iter()
            .filter_map(|entry| entry.ast().cloned())
            .collect()
    }

    /// The incrementally maintained expressibility memo: per entry, the assignment over
    /// the maintained tree that expresses it (`None` for quarantined slots). Equal to
    /// [`express_entries`](crate::derive::express_entries)`(self.tree().root(),
    /// self.entries())` — but produced from O(change)-maintained state instead of a full
    /// re-match of the log.
    pub fn assignments(&self) -> Vec<Option<ChoiceAssignment>> {
        self.slots
            .iter()
            .map(|slot| {
                let slot = slot.as_ref()?;
                if self.healthy_len == 1 {
                    // No root ANY: the tree is the single leaf itself.
                    return Some(slot.inner.clone());
                }
                // The matcher scans alternatives left to right and returns the first
                // one that expresses the query; for duplicated queries that is the
                // earliest alternative carrying the same leaf.
                let pick = self.occurrences[&slot.leaf_fingerprint][0];
                Some(ChoiceAssignment::Any {
                    pick,
                    inner: Arc::new(slot.inner.clone()),
                })
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::initial_difftree;
    use crate::derive::{express_entries, healthy_queries};
    use crate::node::DiffKind;
    use mctsui_sql::parse_query;

    fn q(sql: &str) -> Ast {
        parse_query(sql).unwrap()
    }

    fn opaque(source: &str) -> LogEntry {
        LogEntry::Opaque {
            source: source.to_string(),
            errors: Vec::new(),
        }
    }

    /// The full equivalence contract: tree bit-identity against a from-scratch
    /// `initial_difftree`, and assignment identity against a full `express_entries`.
    fn assert_equivalent(maintained: &MaintainedTree) {
        let healthy = healthy_queries(maintained.entries());
        let reference = initial_difftree(&healthy);
        assert_eq!(
            maintained.tree().fingerprint(),
            reference.fingerprint(),
            "maintained tree diverged from initial_difftree"
        );
        assert_eq!(
            maintained.tree().root().canonical(),
            reference.root().canonical(),
            "maintained tree canonical form diverged"
        );
        assert_eq!(
            maintained.assignments(),
            express_entries(maintained.tree().root(), maintained.entries()),
            "maintained assignments diverged from express_entries"
        );
        assert_eq!(maintained.healthy_len(), healthy.len());
    }

    #[test]
    fn append_walks_the_initial_difftree_shapes() {
        let mut maintained = MaintainedTree::new();
        assert!(maintained.tree().root().is_empty_alt());
        assert_equivalent(&maintained);

        maintained.append_query(q("select x from t"));
        assert_eq!(maintained.tree().root().kind(), DiffKind::All);
        assert_equivalent(&maintained);

        maintained.append_query(q("select y from t"));
        assert_eq!(maintained.tree().root().kind(), DiffKind::Any);
        assert_equivalent(&maintained);

        maintained.append_query(q("select x from t where a = 1"));
        assert_eq!(maintained.tree().root().children().len(), 3);
        assert_equivalent(&maintained);
    }

    #[test]
    fn retract_walks_the_shapes_in_reverse() {
        let mut maintained = MaintainedTree::from_entries(vec![
            LogEntry::Parsed(q("select x from t")),
            LogEntry::Parsed(q("select y from t")),
            LogEntry::Parsed(q("select z from t")),
        ]);
        assert_equivalent(&maintained);

        let removed = maintained.retract_query(1).unwrap();
        assert_eq!(removed.ast().unwrap(), &q("select y from t"));
        assert_eq!(maintained.tree().root().children().len(), 2);
        assert_equivalent(&maintained);

        maintained.retract_query(0).unwrap();
        assert_eq!(maintained.tree().root().kind(), DiffKind::All);
        assert_equivalent(&maintained);

        maintained.retract_query(0).unwrap();
        assert!(maintained.tree().root().is_empty_alt());
        assert_equivalent(&maintained);
    }

    #[test]
    fn retract_out_of_bounds_is_an_error() {
        let mut maintained = MaintainedTree::new();
        assert!(maintained.retract_query(0).is_err());
        maintained.append_query(q("select x from t"));
        assert!(maintained.retract_query(1).is_err());
        assert!(maintained.retract_query(0).is_ok());
    }

    #[test]
    fn opaque_slots_never_touch_the_tree() {
        let mut maintained = MaintainedTree::new();
        maintained.append_entry(opaque("SELEC x FRM t"));
        assert!(maintained.tree().root().is_empty_alt());
        assert_equivalent(&maintained);

        maintained.append_query(q("select x from t"));
        let fingerprint_before = maintained.tree().fingerprint();
        maintained.append_entry(opaque("WITH ("));
        assert_eq!(maintained.tree().fingerprint(), fingerprint_before);
        assert_eq!(maintained.len(), 3);
        assert_eq!(maintained.quarantined_len(), 2);
        assert_equivalent(&maintained);

        // Retracting an opaque slot is pure bookkeeping.
        maintained.retract_query(0).unwrap();
        assert_eq!(maintained.tree().fingerprint(), fingerprint_before);
        assert_equivalent(&maintained);
    }

    #[test]
    fn append_shares_every_existing_alternative() {
        let mut maintained = MaintainedTree::from_entries(vec![
            LogEntry::Parsed(q("select x from t")),
            LogEntry::Parsed(q("select y from t")),
        ]);
        let before: Vec<DiffNode> = maintained.tree().root().children().to_vec();
        maintained.append_query(q("select z from t"));
        let after = maintained.tree().root().children();
        assert_eq!(after.len(), 3);
        // Off-spine sharing: the pre-existing alternatives are the same Arc allocations,
        // so every fingerprint-keyed cache entry for them survives the edit.
        for (old, new) in before.iter().zip(after.iter()) {
            assert!(DiffNode::ptr_eq(old, new));
        }
    }

    #[test]
    fn retract_shares_every_surviving_alternative() {
        let mut maintained = MaintainedTree::from_entries(vec![
            LogEntry::Parsed(q("select x from t")),
            LogEntry::Parsed(q("select y from t")),
            LogEntry::Parsed(q("select z from t")),
        ]);
        let before: Vec<DiffNode> = maintained.tree().root().children().to_vec();
        maintained.retract_query(1).unwrap();
        let after = maintained.tree().root().children();
        assert!(DiffNode::ptr_eq(&before[0], &after[0]));
        assert!(DiffNode::ptr_eq(&before[2], &after[1]));

        // Down to one alternative the surviving leaf *becomes* the root, still shared.
        maintained.retract_query(0).unwrap();
        assert!(DiffNode::ptr_eq(&before[2], maintained.tree().root()));
    }

    #[test]
    fn duplicate_queries_reproduce_the_matchers_first_pick() {
        let mut maintained = MaintainedTree::from_entries(vec![
            LogEntry::Parsed(q("select x from t")),
            LogEntry::Parsed(q("select y from t")),
            LogEntry::Parsed(q("select x from t")),
        ]);
        assert_equivalent(&maintained);
        // Both duplicates express through alternative 0 (first match wins).
        let assignments = maintained.assignments();
        let pick_of = |a: &Option<ChoiceAssignment>| match a {
            Some(ChoiceAssignment::Any { pick, .. }) => *pick,
            other => panic!("expected Any assignment, got {other:?}"),
        };
        assert_eq!(pick_of(&assignments[0]), 0);
        assert_eq!(pick_of(&assignments[2]), 0);

        // Retracting the first occurrence re-points the survivor at its own leaf.
        maintained.retract_query(0).unwrap();
        assert_equivalent(&maintained);
        let assignments = maintained.assignments();
        assert_eq!(pick_of(&assignments[1]), 1);
    }

    #[test]
    fn random_interleavings_stay_equivalent() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let pool = [
            "select x from t",
            "select y from t",
            "select x from t where a = 1",
            "select sum(v) from t group by k",
            "select x from t",
        ];
        for seed in 0..8u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut maintained = MaintainedTree::new();
            for step in 0..24 {
                if !maintained.is_empty() && rng.gen_range(0..3) == 0 {
                    let index = rng.gen_range(0..maintained.len());
                    maintained.retract_query(index).unwrap();
                } else if rng.gen_range(0..4) == 0 {
                    maintained.append_entry(opaque("SELEC broken"));
                } else {
                    let sql = pool[rng.gen_range(0..pool.len())];
                    maintained.append_query(q(sql));
                }
                assert_equivalent(&maintained);
                let _ = step;
            }
        }
    }
}
