//! Interactive sessions over a generated interface.
//!
//! The paper models a widget as a function `w(q, u) → q'`: the user picks a value `u` from
//! the widget's domain and the widget splices the corresponding subtree into the current
//! query at a fixed location. [`InterfaceSession`] implements exactly that semantics on top
//! of a generated interface: it tracks the current choice assignment, lets callers change the
//! selection of any widget, and re-derives the current SQL query after every interaction —
//! what the visualization panel would re-execute.

use std::sync::Arc;

use mctsui_difftree::derive::{derive_query, express};
use mctsui_difftree::{ChoiceAssignment, DiffKind, DiffNode, DiffPath, DiffTree};
use mctsui_sql::{print_query, Ast};

/// A live session: the difftree of a generated interface plus the user's current selections.
#[derive(Debug, Clone)]
pub struct InterfaceSession {
    difftree: DiffTree,
    current: ChoiceAssignment,
}

/// Errors raised by widget interactions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SessionError {
    /// The given path does not identify a choice node of the interface's difftree.
    NoSuchChoice(DiffPath),
    /// The selected option index is outside the widget's domain.
    OptionOutOfRange {
        /// The widget's choice node.
        path: DiffPath,
        /// The rejected option index.
        pick: usize,
        /// Number of options the widget offers.
        available: usize,
    },
    /// The requested initial query is not expressible by the interface.
    Inexpressible,
}

impl std::fmt::Display for SessionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SessionError::NoSuchChoice(p) => write!(f, "no choice node at {p}"),
            SessionError::OptionOutOfRange {
                path,
                pick,
                available,
            } => {
                write!(
                    f,
                    "option {pick} out of range for {path} ({available} available)"
                )
            }
            SessionError::Inexpressible => write!(f, "query not expressible by this interface"),
        }
    }
}

impl std::error::Error for SessionError {}

impl InterfaceSession {
    /// Start a session positioned at `initial_query`.
    ///
    /// Fails if the interface cannot express that query (use one of the log's queries, or any
    /// query in the difftree's language).
    pub fn start(difftree: DiffTree, initial_query: &Ast) -> Result<Self, SessionError> {
        let current = express(difftree.root(), initial_query).ok_or(SessionError::Inexpressible)?;
        Ok(Self { difftree, current })
    }

    /// The difftree driving this session.
    pub fn difftree(&self) -> &DiffTree {
        &self.difftree
    }

    /// The current choice assignment.
    pub fn assignment(&self) -> &ChoiceAssignment {
        &self.current
    }

    /// The current query.
    pub fn current_query(&self) -> Ast {
        derive_query(self.difftree.root(), &self.current)
            .expect("session assignment always derives a query")
    }

    /// The current query as SQL text (what the visualization would execute).
    pub fn current_sql(&self) -> String {
        print_query(&self.current_query())
    }

    /// Interact with the widget bound to the `Any` choice node at `path`: select option
    /// `pick`. Nested selections inside the newly picked alternative default to that
    /// alternative's first derivable configuration.
    pub fn select_option(&mut self, path: &DiffPath, pick: usize) -> Result<Ast, SessionError> {
        let node = self
            .difftree
            .node_at(path)
            .filter(|n| n.kind() == DiffKind::Any)
            .ok_or_else(|| SessionError::NoSuchChoice(path.clone()))?;
        if pick >= node.children().len() {
            return Err(SessionError::OptionOutOfRange {
                path: path.clone(),
                pick,
                available: node.children().len(),
            });
        }
        let inner = default_assignment_for(&node.children()[pick]);
        let new_choice = ChoiceAssignment::Any {
            pick,
            inner: Arc::new(inner),
        };
        self.current = replace_at_path(&self.difftree, &self.current, path, new_choice)
            .ok_or_else(|| SessionError::NoSuchChoice(path.clone()))?;
        Ok(self.current_query())
    }

    /// Interact with the toggle bound to the `Opt` choice node at `path`.
    pub fn set_included(&mut self, path: &DiffPath, included: bool) -> Result<Ast, SessionError> {
        let node = self
            .difftree
            .node_at(path)
            .filter(|n| n.kind() == DiffKind::Opt)
            .ok_or_else(|| SessionError::NoSuchChoice(path.clone()))?;
        let new_choice = if included {
            let child = node
                .children()
                .first()
                .ok_or_else(|| SessionError::NoSuchChoice(path.clone()))?;
            ChoiceAssignment::Opt {
                included: Some(Arc::new(default_assignment_for(child))),
            }
        } else {
            ChoiceAssignment::Opt { included: None }
        };
        self.current = replace_at_path(&self.difftree, &self.current, path, new_choice)
            .ok_or_else(|| SessionError::NoSuchChoice(path.clone()))?;
        Ok(self.current_query())
    }

    /// Interact with the adder bound to the `Multi` choice node at `path`: set the number of
    /// repetitions.
    pub fn set_repetitions(&mut self, path: &DiffPath, count: usize) -> Result<Ast, SessionError> {
        let node = self
            .difftree
            .node_at(path)
            .filter(|n| n.kind() == DiffKind::Multi)
            .ok_or_else(|| SessionError::NoSuchChoice(path.clone()))?;
        let child = node
            .children()
            .first()
            .ok_or_else(|| SessionError::NoSuchChoice(path.clone()))?;
        let reps = (0..count).map(|_| default_assignment_for(child)).collect();
        let new_choice = ChoiceAssignment::Multi { reps };
        self.current = replace_at_path(&self.difftree, &self.current, path, new_choice)
            .ok_or_else(|| SessionError::NoSuchChoice(path.clone()))?;
        Ok(self.current_query())
    }

    /// Jump directly to a query (as clicking a "whole query" button would do).
    pub fn jump_to(&mut self, query: &Ast) -> Result<(), SessionError> {
        self.current = express(self.difftree.root(), query).ok_or(SessionError::Inexpressible)?;
        Ok(())
    }
}

/// The default (first derivable) assignment of a difftree node: pick the first alternative of
/// every `Any`, include every `Opt`, derive `Multi` once.
fn default_assignment_for(node: &DiffNode) -> ChoiceAssignment {
    match node.kind() {
        DiffKind::All => {
            ChoiceAssignment::All(node.children().iter().map(default_assignment_for).collect())
        }
        DiffKind::Any => ChoiceAssignment::Any {
            pick: 0,
            inner: Arc::new(
                node.children()
                    .first()
                    .map(default_assignment_for)
                    .unwrap_or(ChoiceAssignment::All(Arc::new([]))),
            ),
        },
        DiffKind::Opt => ChoiceAssignment::Opt {
            included: node
                .children()
                .first()
                .map(|c| Arc::new(default_assignment_for(c))),
        },
        DiffKind::Multi => ChoiceAssignment::Multi {
            reps: node
                .children()
                .first()
                .map(default_assignment_for)
                .into_iter()
                .collect(),
        },
    }
}

/// Replace the choice recorded at `path` inside `assignment`, leaving everything else as is.
fn replace_at_path(
    tree: &DiffTree,
    assignment: &ChoiceAssignment,
    path: &DiffPath,
    replacement: ChoiceAssignment,
) -> Option<ChoiceAssignment> {
    fn rec(
        node: &DiffNode,
        assignment: &ChoiceAssignment,
        steps: &[usize],
        replacement: &ChoiceAssignment,
    ) -> Option<ChoiceAssignment> {
        if steps.is_empty() {
            return Some(replacement.clone());
        }
        let idx = steps[0];
        let rest = &steps[1..];
        match (node.kind(), assignment) {
            (DiffKind::All, ChoiceAssignment::All(children)) => {
                let child_node = node.children().get(idx)?;
                let child_assignment = children.get(idx)?;
                let new_child = rec(child_node, child_assignment, rest, replacement)?;
                let mut out = children.to_vec();
                out[idx] = new_child;
                Some(ChoiceAssignment::All(out.into()))
            }
            (DiffKind::Any, ChoiceAssignment::Any { pick, inner }) => {
                // Descending into an alternative that is not currently selected would not be
                // visible in the derived query; switch the pick to the targeted alternative.
                let child_node = node.children().get(idx)?;
                let base = if *pick == idx {
                    (**inner).clone()
                } else {
                    default_assignment_for(child_node)
                };
                let new_inner = rec(child_node, &base, rest, replacement)?;
                Some(ChoiceAssignment::Any {
                    pick: idx,
                    inner: Arc::new(new_inner),
                })
            }
            (DiffKind::Opt, ChoiceAssignment::Opt { included }) => {
                let child_node = node.children().get(idx)?;
                let base = match included {
                    Some(inner) => (**inner).clone(),
                    None => default_assignment_for(child_node),
                };
                let new_inner = rec(child_node, &base, rest, replacement)?;
                Some(ChoiceAssignment::Opt {
                    included: Some(Arc::new(new_inner)),
                })
            }
            (DiffKind::Multi, ChoiceAssignment::Multi { reps }) => {
                let child_node = node.children().get(idx)?;
                let mut out = reps.to_vec();
                if out.is_empty() {
                    out.push(default_assignment_for(child_node));
                }
                let first = out
                    .first()
                    .cloned()
                    .unwrap_or_else(|| default_assignment_for(child_node));
                out[0] = rec(child_node, &first, rest, replacement)?;
                Some(ChoiceAssignment::Multi { reps: out.into() })
            }
            _ => None,
        }
    }
    rec(tree.root(), assignment, &path.0, &replacement)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mctsui_difftree::{initial_difftree, RuleEngine};
    use mctsui_sql::parse_query;

    fn figure1_queries() -> Vec<Ast> {
        vec![
            parse_query("SELECT Sales FROM sales WHERE cty = 'USA'").unwrap(),
            parse_query("SELECT Costs FROM sales WHERE cty = 'EUR'").unwrap(),
            parse_query("SELECT Costs FROM sales").unwrap(),
        ]
    }

    fn factored_tree(queries: &[Ast]) -> DiffTree {
        RuleEngine::default().saturate_forward(&initial_difftree(queries), 100)
    }

    #[test]
    fn session_starts_at_an_input_query() {
        let queries = figure1_queries();
        let tree = factored_tree(&queries);
        let session = InterfaceSession::start(tree, &queries[0]).unwrap();
        assert_eq!(session.current_query(), queries[0]);
        assert!(session.current_sql().contains("WHERE"));
    }

    #[test]
    fn start_rejects_inexpressible_queries() {
        let queries = figure1_queries();
        let tree = factored_tree(&queries);
        let foreign = parse_query("select nothing from elsewhere").unwrap();
        assert_eq!(
            InterfaceSession::start(tree, &foreign).unwrap_err(),
            SessionError::Inexpressible
        );
    }

    #[test]
    fn selecting_an_any_option_changes_the_query() {
        let queries = figure1_queries();
        let tree = factored_tree(&queries);
        let mut session = InterfaceSession::start(tree.clone(), &queries[0]).unwrap();

        // Find an ANY node and flip through all of its options; each selection must yield a
        // derivable query and at least one selection must change the SQL.
        let any_path = tree
            .choice_paths()
            .into_iter()
            .find(|p| tree.node_at(p).unwrap().kind() == DiffKind::Any)
            .expect("factored Figure-1 tree has an ANY node");
        let options = tree.node_at(&any_path).unwrap().children().len();
        let before = session.current_sql();
        let mut changed = false;
        for pick in 0..options {
            let q = session.select_option(&any_path, pick).unwrap();
            assert_eq!(q, session.current_query());
            if session.current_sql() != before {
                changed = true;
            }
        }
        assert!(changed, "cycling through options should change the query");
    }

    #[test]
    fn toggling_the_where_clause_adds_and_removes_it() {
        let queries = figure1_queries();
        let tree = factored_tree(&queries);
        let mut session = InterfaceSession::start(tree.clone(), &queries[1]).unwrap();

        let opt_path = tree
            .choice_paths()
            .into_iter()
            .find(|p| tree.node_at(p).unwrap().kind() == DiffKind::Opt)
            .expect("factored Figure-1 tree has an OPT node for the WHERE clause");

        let without = session.set_included(&opt_path, false).unwrap();
        assert!(!print_query(&without).contains("WHERE"));
        let with = session.set_included(&opt_path, true).unwrap();
        assert!(print_query(&with).contains("WHERE"));
    }

    #[test]
    fn out_of_range_and_bad_paths_are_rejected() {
        let queries = figure1_queries();
        let tree = factored_tree(&queries);
        let mut session = InterfaceSession::start(tree.clone(), &queries[0]).unwrap();
        let any_path = tree
            .choice_paths()
            .into_iter()
            .find(|p| tree.node_at(p).unwrap().kind() == DiffKind::Any)
            .unwrap();
        let options = tree.node_at(&any_path).unwrap().children().len();
        assert!(matches!(
            session.select_option(&any_path, options + 5),
            Err(SessionError::OptionOutOfRange { .. })
        ));
        assert!(matches!(
            session.select_option(&DiffPath(vec![9, 9, 9]), 0),
            Err(SessionError::NoSuchChoice(_))
        ));
        // Using an ANY interaction on an OPT node is also a path error.
        let opt_path = tree
            .choice_paths()
            .into_iter()
            .find(|p| tree.node_at(p).unwrap().kind() == DiffKind::Opt)
            .unwrap();
        assert!(matches!(
            session.select_option(&opt_path, 0),
            Err(SessionError::NoSuchChoice(_))
        ));
    }

    #[test]
    fn jump_to_replays_the_whole_log() {
        let queries = figure1_queries();
        let tree = factored_tree(&queries);
        let mut session = InterfaceSession::start(tree, &queries[0]).unwrap();
        for q in &queries {
            session.jump_to(q).unwrap();
            assert_eq!(&session.current_query(), q);
        }
    }

    #[test]
    fn multi_repetitions_can_be_set() {
        // Build a difftree with a MULTI node over FROM tables and drive it via the session.
        let one = parse_query("select x from a").unwrap();
        let three = parse_query("select x from a, a, a").unwrap();
        let tree = RuleEngine::default()
            .saturate_forward(&initial_difftree(&[one.clone(), three.clone()]), 100);
        let multi_path = tree
            .choice_paths()
            .into_iter()
            .find(|p| tree.node_at(p).unwrap().kind() == DiffKind::Multi);
        let Some(multi_path) = multi_path else {
            // The rule schedule may have expressed the repetition differently; that is fine —
            // the session API is still exercised by the other tests.
            return;
        };
        let mut session = InterfaceSession::start(tree, &one).unwrap();
        let before = print_query(&session.current_query()).matches('a').count();
        let q2 = session.set_repetitions(&multi_path, 2).unwrap();
        let after = print_query(&q2).matches('a').count();
        assert!(
            after > before,
            "adding repetitions must add table references ({before} -> {after})"
        );
        // Removing all repetitions shrinks the FROM clause again.
        let q0 = session.set_repetitions(&multi_path, 0).unwrap();
        assert!(print_query(&q0).matches('a').count() < after);
    }
}
