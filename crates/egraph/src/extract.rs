//! Extraction: turning a saturated e-graph back into one concrete MIG.
//!
//! The fast path is a greedy bottom-up extractor: a per-e-class cost table
//! relaxed to a fixpoint, choosing for every class the cheapest canonical
//! node under a per-node weight. One [`Extractor`] holds the canonical
//! node table for every objective. Several [`ExtractObjective`]s produce
//! structurally different candidates; the compiling cost function in
//! [`crate::optimize`] then scores each candidate by actually compiling it
//! and keeps the cheapest *artifact*, so the per-node weights only have to
//! be good candidate generators, not perfect cost models.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use mig::{Mig, Signal};

use crate::graph::{ClassNode, ClassSignal, EGraph, NodeTable};

/// Per-node weighting used by the greedy extractor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExtractObjective {
    /// Minimize majority-node count (tree-cost approximation).
    Nodes,
    /// Minimize an RM3 instruction estimate: majority nodes with two or
    /// three complemented non-constant children need extra instructions
    /// and RRAMs, so they weigh almost twice as much.
    Rm3,
    /// Minimize depth (longest root-to-leaf chain), breaking the tie
    /// toward fewer nodes only implicitly. Produces shallow, wide
    /// candidates the other two objectives never propose.
    Depth,
}

impl ExtractObjective {
    /// Every objective, in the deterministic candidate-generation order.
    pub const ALL: [ExtractObjective; 3] = [
        ExtractObjective::Nodes,
        ExtractObjective::Rm3,
        ExtractObjective::Depth,
    ];

    fn weight(self, key: [ClassSignal; 3]) -> u64 {
        match self {
            ExtractObjective::Nodes | ExtractObjective::Depth => 4,
            ExtractObjective::Rm3 => {
                let complemented = key
                    .iter()
                    .filter(|c| c.is_complemented() && c.class() != 0)
                    .count();
                if complemented >= 2 {
                    7
                } else {
                    4
                }
            }
        }
    }

    fn combine(self, weight: u64, children: [u64; 3]) -> u64 {
        match self {
            ExtractObjective::Depth => {
                weight.saturating_add(children.into_iter().max().unwrap_or(0))
            }
            _ => children
                .into_iter()
                .fold(weight, |acc, c| acc.saturating_add(c)),
        }
    }
}

/// Greedily extracts one MIG from the e-graph under the given objective.
/// [`crate::candidates`] extracts under every objective from one shared
/// node table instead.
///
/// Returns `None` when a class the outputs reach has no node whose
/// children all have finite costs: costs saturate at `u64::MAX`, and the
/// summing objectives' tree costs overflow on deep, heavily shared graphs
/// (the reduced `sin` and five full-scale circuits). Callers fall back to
/// their baseline graph.
pub fn extract(g: &EGraph, objective: ExtractObjective) -> Option<Mig> {
    Extractor::new(g).extract(objective)
}

/// Extraction state for one (saturated, rebuilt) e-graph: every root
/// class's canonical nodes in one flat table, plus the reverse index from
/// each class to the table nodes that use it as a child. Built once and
/// shared by every [`ExtractObjective`].
#[derive(Debug)]
pub(crate) struct Extractor<'g> {
    g: &'g EGraph,
    table: NodeTable,
    /// The class of each table node.
    owner: Vec<u32>,
    /// Class `c`'s users — table nodes with `c` as a child, once per
    /// occurrence — are `users[users_start[c]..users_start[c + 1]]`.
    users_start: Vec<u32>,
    users: Vec<u32>,
}

impl<'g> Extractor<'g> {
    /// Builds the node table and user index of `g`.
    pub(crate) fn new(g: &'g EGraph) -> Extractor<'g> {
        let table = g.node_table();
        let n = table.num_ids();
        let mut owner = Vec::with_capacity(table.all().len());
        for class in 0..n {
            owner.extend(std::iter::repeat_n(class as u32, table.nodes(class).len()));
        }
        let keys = || {
            table
                .all()
                .iter()
                .enumerate()
                .filter_map(|(index, node)| match *node {
                    ClassNode::Maj(key, _) => Some((index as u32, key)),
                    _ => None,
                })
        };
        // Counting sort of (child, user) edges into one flat array.
        let mut users_start = vec![0u32; n + 1];
        for (_, key) in keys() {
            for child in key {
                users_start[child.class() + 1] += 1;
            }
        }
        for class in 0..n {
            users_start[class + 1] += users_start[class];
        }
        let mut fill = users_start.clone();
        let mut users = vec![0u32; users_start[n] as usize];
        for (index, key) in keys() {
            for child in key {
                users[fill[child.class()] as usize] = index;
                fill[child.class()] += 1;
            }
        }
        Extractor {
            g,
            table,
            owner,
            users_start,
            users,
        }
    }

    /// Extracts one MIG under `objective`: relaxes the per-class cost table
    /// (the table *is* the memo — each class's cheapest cost is computed
    /// once and reused by every parent), chooses per class the first node
    /// achieving its minimum, and materializes the choice — `None` as for
    /// [`extract`]. (A cyclic choice would also give `None`, but a node
    /// never costs less than its children, so none arises.)
    pub(crate) fn extract(&self, objective: ExtractObjective) -> Option<Mig> {
        let cost = self.costs(objective);
        // Chosen on demand, for the classes the outputs reach. Deterministic:
        // node lists are in insertion order, and the first node achieving
        // the minimum wins.
        let choose = |class: usize| {
            let mut best: Option<(u64, ClassNode)> = None;
            for node in self.table.nodes(class) {
                let Some(value) = node_cost(node, &cost, objective) else {
                    continue;
                };
                if best.is_none_or(|(b, _)| value < b) {
                    best = Some((value, *node));
                }
            }
            best.map(|(_, node)| node)
        };
        materialize(self.g, self.table.num_ids(), choose)
    }

    /// The per-class cost fixpoint under `objective`, by a cheapest-first
    /// worklist (Knuth's generalization of Dijkstra's algorithm): leaf
    /// classes settle at 0; a node is priced once, when its last child
    /// settles, lowering its class's tentative cost; the class with the
    /// lowest tentative cost settles next. A node never costs less than a
    /// child, so a settled cost is final and every node is priced once.
    /// Every update is a monotone `min` from `u64::MAX`, so this reaches the
    /// same fixpoint as relaxing the whole table in sweeps.
    fn costs(&self, objective: ExtractObjective) -> Vec<u64> {
        let nodes = self.table.all();
        let mut cost = vec![u64::MAX; self.table.num_ids()];
        let mut settled = vec![false; cost.len()];
        let mut pending: Vec<u8> = nodes
            .iter()
            .map(|node| {
                if matches!(node, ClassNode::Maj(..)) {
                    3
                } else {
                    0
                }
            })
            .collect();
        // Entries pack `cost << 32 | class` into one key: the min-heap
        // pops the lowest cost first (ties by lowest class).
        let entry = |value: u64, class: usize| Reverse(u128::from(value) << 32 | class as u128);
        let mut queue = BinaryHeap::new();
        for (index, _) in pending.iter().enumerate().filter(|(_, &p)| p == 0) {
            let class = self.owner[index] as usize;
            if cost[class] != 0 {
                cost[class] = 0;
                queue.push(entry(0, class));
            }
        }
        while let Some(Reverse(key)) = queue.pop() {
            let class = key as u32 as usize;
            if settled[class] {
                continue;
            }
            settled[class] = true;
            let from = self.users_start[class] as usize;
            let to = self.users_start[class + 1] as usize;
            for &user in &self.users[from..to] {
                let user = user as usize;
                pending[user] -= 1;
                let parent = self.owner[user] as usize;
                if pending[user] > 0 || settled[parent] {
                    continue;
                }
                if let Some(value) = node_cost(&nodes[user], &cost, objective) {
                    if value < cost[parent] {
                        cost[parent] = value;
                        queue.push(entry(value, parent));
                    }
                }
            }
        }
        cost
    }
}

/// The cost of `node` given its children's class costs, or `None` while a
/// child has no finite cost yet.
fn node_cost(node: &ClassNode, cost: &[u64], objective: ExtractObjective) -> Option<u64> {
    match node {
        ClassNode::Const(_) | ClassNode::Input(_, _) => Some(0),
        ClassNode::Maj(key, _) => {
            let children = key.map(|c| cost[c.class()]);
            if children.contains(&u64::MAX) {
                return None;
            }
            Some(objective.combine(objective.weight(*key), children))
        }
    }
}

/// Builds the concrete MIG for a per-class node choice over `n` class ids
/// (`choose` is asked only for classes the outputs reach).
fn materialize(g: &EGraph, n: usize, choose: impl Fn(usize) -> Option<ClassNode>) -> Option<Mig> {
    let mut mig = Mig::with_capacity(g.num_enodes());
    let inputs: Vec<Signal> = g
        .input_names()
        .iter()
        .map(|name| mig.add_input(name))
        .collect();

    // built[c] = signal of class c's representative; awaiting = on the DFS
    // stack with children pending (used as the cycle guard).
    let mut built: Vec<Option<Signal>> = vec![None; n];
    let mut awaiting: Vec<bool> = vec![false; n];
    let mut resolved: Vec<(String, Signal)> = Vec::with_capacity(g.outputs().len());

    for (name, out) in g.outputs() {
        let out = g.canonical(*out);
        let root = out.class();
        let mut stack: Vec<usize> = vec![root];
        while let Some(&class) = stack.last() {
            if built[class].is_some() {
                awaiting[class] = false;
                stack.pop();
                continue;
            }
            match choose(class)? {
                ClassNode::Const(par) => {
                    built[class] = Some(Signal::constant(par));
                }
                ClassNode::Input(index, par) => {
                    built[class] = Some(inputs[index as usize].complement_if(par));
                }
                ClassNode::Maj(key, par) => {
                    let mut pending = false;
                    for child in key {
                        let cc = child.class();
                        if built[cc].is_none() {
                            if awaiting[cc] {
                                // A cycle in the chosen nodes: bail out,
                                // the caller falls back to its baseline.
                                return None;
                            }
                            stack.push(cc);
                            pending = true;
                        }
                    }
                    if pending {
                        awaiting[class] = true;
                        continue;
                    }
                    let sigs =
                        key.map(|c| built[c.class()].unwrap().complement_if(c.is_complemented()));
                    let m = mig.maj(sigs[0], sigs[1], sigs[2]);
                    built[class] = Some(m.complement_if(par));
                }
            }
        }
        resolved.push((
            name.clone(),
            built[root].unwrap().complement_if(out.is_complemented()),
        ));
    }
    for (name, signal) in resolved {
        mig.add_output(&name, signal);
    }
    Some(mig)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::{saturate, EgraphBudget};
    use plim_benchmarks::random::{random_logic, RandomLogicSpec};
    use plim_benchmarks::suite::{self, Scale};
    use proptest::prelude::*;

    /// The oracle: the cost fixpoint by whole-table in-order sweeps, the
    /// extractor's original relaxation. Ids are allocated bottom-up, so
    /// each sweep settles roughly one more level of the graph.
    fn sweep_costs(extractor: &Extractor<'_>, objective: ExtractObjective) -> Vec<u64> {
        let n = extractor.table.num_ids();
        let mut cost: Vec<u64> = vec![u64::MAX; n];
        for _pass in 0..n.max(8) {
            let mut changed = false;
            for id in 0..n {
                for node in extractor.table.nodes(id) {
                    let Some(candidate) = node_cost(node, &cost, objective) else {
                        continue;
                    };
                    if candidate < cost[id] {
                        cost[id] = candidate;
                        changed = true;
                    }
                }
            }
            if !changed {
                break;
            }
        }
        cost
    }

    /// The worklist table equals the sweep oracle's under every objective.
    fn assert_costs_match_the_sweep(g: &EGraph, context: &str) {
        let extractor = Extractor::new(g);
        for objective in ExtractObjective::ALL {
            assert_eq!(
                extractor.costs(objective),
                sweep_costs(&extractor, objective),
                "{context}: {objective:?} cost tables differ"
            );
        }
    }

    fn saturated(raw: &Mig, effort: usize) -> EGraph {
        let baseline = mig::rewrite::rewrite(raw, effort);
        let mut g = crate::seed(raw, &baseline);
        let budget = EgraphBudget::for_effort(effort).scaled_to(g.num_enodes());
        saturate(&mut g, &budget);
        g
    }

    #[test]
    fn worklist_costs_match_the_sweep_oracle_on_the_reduced_suite() {
        for &name in suite::ALL.iter() {
            let raw = suite::build(name, Scale::Reduced).expect("known benchmark");
            assert_costs_match_the_sweep(&saturated(&raw, 4), name);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn worklist_costs_match_the_sweep_oracle_on_random_logic(
            seed: u64,
            inputs in 2usize..7,
            outputs in 1usize..4,
            nodes in 8usize..80,
            effort in 1usize..4,
        ) {
            let raw = random_logic(&RandomLogicSpec::new(inputs, outputs, nodes, seed));
            assert_costs_match_the_sweep(&saturated(&raw, effort), "random logic");
        }
    }

    /// A class whose cheapest node has a child with a *higher* id than the
    /// class itself: one in-order sweep prices the class through its
    /// expensive node only, so the sweep needs a second pass, and the
    /// worklist must price the cheap node once that later child settles.
    /// (The equality is asserted structurally; extraction never looks at
    /// semantics.)
    #[test]
    fn a_cheapest_node_with_a_later_child_is_found() {
        let mut mig = Mig::new();
        let a = mig.add_input("a");
        let b = mig.add_input("b");
        let c = mig.add_input("c");
        let t1 = mig.maj(a, b, c);
        let t2 = mig.maj(t1, a, !b);
        let expensive = mig.maj(t2, !a, c);
        let y = mig.and(a, c);
        let cheap = mig.and(y, b);
        mig.add_output("f", expensive);
        mig.add_output("g", cheap);
        let mut g = EGraph::from_mig(&mig);
        let (f, h) = (g.outputs()[0].1, g.outputs()[1].1);
        let child = g.canonical_nodes(h.class() as u32);
        let ClassNode::Maj(key, _) = child[0] else {
            panic!("the cheap output is a majority node")
        };
        assert!(
            key.iter().any(|s| s.class() > f.class()),
            "the cheap node needs a child allocated after the expensive class"
        );
        g.union(f, h);
        g.rebuild();

        assert_costs_match_the_sweep(&g, "hand-built");
        let extractor = Extractor::new(&g);
        let cost = extractor.costs(ExtractObjective::Nodes);
        assert_eq!(
            cost[g.canonical(f).class()],
            8,
            "priced through the cheap node"
        );
        let out = extractor.extract(ExtractObjective::Nodes).expect("acyclic");
        assert_eq!(out.num_majority_nodes(), 2);
    }

    fn check_equiv(a: &Mig, b: &Mig) {
        assert!(mig::equiv::check_equivalence(a, b, 64, 7)
            .expect("interfaces match")
            .holds());
    }

    #[test]
    fn extraction_round_trips_a_plain_graph() {
        let mut mig = Mig::new();
        let a = mig.add_input("a");
        let b = mig.add_input("b");
        let c = mig.add_input("c");
        let m = mig.maj(a, !b, c);
        let m2 = mig.maj(m, b, !c);
        mig.add_output("f", m2);
        mig.add_output("g", !m);
        let g = EGraph::from_mig(&mig);
        for objective in ExtractObjective::ALL {
            let out = extract(&g, objective).expect("extraction succeeds");
            assert_eq!(out.num_inputs(), 3);
            assert_eq!(out.num_outputs(), 2);
            check_equiv(&mig, &out);
            assert!(out.num_majority_nodes() <= mig.num_majority_nodes());
        }
    }

    #[test]
    fn extraction_after_saturation_stays_equivalent_and_never_grows() {
        let mut mig = Mig::new();
        let xs = mig.add_inputs("x", 5);
        let m1 = mig.maj(xs[0], xs[1], xs[2]);
        let m2 = mig.maj(m1, xs[3], xs[4]);
        let m3 = mig.maj(m1, !m2, xs[0]);
        let m4 = mig.maj(m2, m3, xs[1]);
        mig.add_output("f", m4);
        let mut g = EGraph::from_mig(&mig);
        saturate(&mut g, &EgraphBudget::for_effort(2));
        for objective in ExtractObjective::ALL {
            let out = extract(&g, objective).expect("extraction succeeds");
            check_equiv(&mig, &out);
        }
    }

    #[test]
    fn extraction_is_deterministic() {
        let build = || {
            let mut mig = Mig::new();
            let xs = mig.add_inputs("x", 6);
            let mut acc = xs[0];
            for &x in &xs[1..] {
                acc = mig.xor(acc, x);
            }
            mig.add_output("f", acc);
            mig
        };
        let one = {
            let mut g = EGraph::from_mig(&build());
            saturate(&mut g, &EgraphBudget::for_effort(2));
            extract(&g, ExtractObjective::Rm3).unwrap()
        };
        let two = {
            let mut g = EGraph::from_mig(&build());
            saturate(&mut g, &EgraphBudget::for_effort(2));
            extract(&g, ExtractObjective::Rm3).unwrap()
        };
        assert_eq!(mig::io::write_mig(&one), mig::io::write_mig(&two));
    }
}
