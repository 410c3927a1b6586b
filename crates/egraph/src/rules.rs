//! Bounded saturation of the MIG axiom set.
//!
//! Each iteration walks every e-class in id order, matches the axioms
//! against the canonical majority nodes, and applies every match
//! immediately (hashconsing makes re-derivations free). The walk order,
//! the match order inside a node, and the min-id union policy are all
//! deterministic, so a given (graph, budget) pair always produces the same
//! e-graph — and therefore the same extraction, byte for byte.
//!
//! The rule set (Ω names per Amarù et al. / the DAC'16 paper):
//!
//! | rule | shape | direction |
//! |------|-------|-----------|
//! | Ω.C  | `⟨a b c⟩ = ⟨σ(a b c)⟩` | baked into sorted children |
//! | Ω.I  | `!⟨a b c⟩ = ⟨ā b̄ c̄⟩` | baked into polarity normalization |
//! | Ω.M  | `⟨x x y⟩ = x`, `⟨x x̄ y⟩ = y` | applied at insertion |
//! | Ω.A  | `⟨x u ⟨y u z⟩⟩ = ⟨z u ⟨y u x⟩⟩` | both (self-inverse) |
//! | Ω.D  | `⟨x y ⟨u v z⟩⟩ = ⟨⟨x y u⟩ ⟨x y v⟩ z⟩` | both |
//! | Ω.R  | `⟨x y z⟩ = ⟨x y z_{x/ȳ}⟩` | one level deep |
//!
//! Growth is held in check by [`EgraphBudget`]: an e-node ceiling, an
//! iteration ceiling, and a *work* ceiling counted in deterministic graph
//! operations rather than wall-clock time, so budget stops are
//! reproducible across machines.

use crate::graph::{ClassNode, ClassSignal, EGraph, NodeTable};

/// Maximum majority spellings considered per child class when matching a
/// nested rule — bounds the quadratic blowup on classes that accumulate
/// many equivalent spellings.
const VIEW_LIMIT: usize = 4;

/// Growth limits for one saturation run.
///
/// All three axes are deterministic: e-nodes and iterations are structural
/// counts, and *work* is the e-graph's operation counter (adds, unions,
/// canonicalizations, match probes) — a machine-independent stand-in for a
/// time budget, so the same budget stops at the same point everywhere.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EgraphBudget {
    /// Stop once the memo holds this many e-nodes.
    pub max_enodes: usize,
    /// Stop after this many full rule iterations.
    pub max_iterations: usize,
    /// Stop once the work counter exceeds this many graph operations.
    pub max_work: u64,
}

impl Default for EgraphBudget {
    fn default() -> Self {
        EgraphBudget::for_effort(4)
    }
}

impl EgraphBudget {
    /// Budget scaled to a rewrite effort level (the `--effort` knob):
    /// iterations grow linearly, the node and work ceilings generously —
    /// effort 4, the paper's default, saturates every reduced-suite
    /// circuit and budget-stops gracefully on mem_ctrl-scale graphs.
    pub fn for_effort(effort: usize) -> Self {
        let effort = effort.clamp(1, 16);
        EgraphBudget {
            max_enodes: 20_000 + 10_000 * effort,
            max_iterations: 1 + effort,
            max_work: 1_500_000 * effort as u64,
        }
    }

    /// Caps the node and work ceilings relative to the seed graph's
    /// e-node count. The MIG axioms are explosive enough that a 30-node
    /// circuit would happily fill an effort-4 budget sized for mem_ctrl;
    /// capping proportionally keeps `--rewrite egraph` wall-clock
    /// commensurate with the input everywhere, while large graphs still
    /// get the full effort-scaled ceiling. Purely a function of its
    /// arguments, so determinism is unaffected.
    #[must_use]
    pub fn scaled_to(self, seed_enodes: usize) -> EgraphBudget {
        EgraphBudget {
            max_enodes: self.max_enodes.min(seed_enodes * 30 + 1_000),
            max_iterations: self.max_iterations,
            max_work: self.max_work.min(seed_enodes as u64 * 15_000 + 30_000),
        }
    }
}

/// Why a saturation run stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// A full iteration produced no new e-nodes and no new unions.
    Saturated,
    /// The e-node ceiling was hit mid-iteration.
    EnodeLimit,
    /// The iteration ceiling was reached.
    IterationLimit,
    /// The work ceiling was hit mid-iteration.
    WorkLimit,
}

impl StopReason {
    /// Short stable name for reports (`saturated`, `enodes`, `iterations`,
    /// `work`).
    pub fn name(self) -> &'static str {
        match self {
            StopReason::Saturated => "saturated",
            StopReason::EnodeLimit => "enodes",
            StopReason::IterationLimit => "iterations",
            StopReason::WorkLimit => "work",
        }
    }
}

/// Runs rule iterations until saturation or a budget stop, returning the
/// iteration count and the stop reason. The graph is rebuilt (congruence
/// restored) before returning, whatever the stop reason.
pub fn saturate(g: &mut EGraph, budget: &EgraphBudget) -> (usize, StopReason) {
    let mut iterations = 0;
    loop {
        if iterations >= budget.max_iterations {
            return (iterations, StopReason::IterationLimit);
        }
        let enodes_before = g.num_enodes();
        let unions_before = g.union_count();
        let stop = run_rules_once(g, budget);
        g.rebuild();
        iterations += 1;
        if let Some(reason) = stop {
            return (iterations, reason);
        }
        if g.num_enodes() == enodes_before && g.union_count() == unions_before {
            return (iterations, StopReason::Saturated);
        }
    }
}

/// One iteration's matching snapshot: every root class's canonical
/// spellings, collected once up front into one flat [`NodeTable`].
///
/// Rules probe child classes for their spellings constantly; reading them
/// through [`EGraph::canonical_nodes`] per probe re-canonicalizes the
/// (growing, stale-entry-laden) class node lists every time, which makes
/// an iteration quadratic in the class sizes — matching effort the work
/// counter never saw, so the budget could not bind (the original symptom:
/// a four-input graph saturating for minutes). The snapshot makes one
/// iteration's matching cost linear in the snapshot size, every probe
/// O(`VIEW_LIMIT`), and charges the collection cost to the work counter.
/// Rules firing mid-iteration do not see each other's new nodes until the
/// next iteration — the same staleness egg accepts for the same reason.
struct Spellings {
    /// Indexed by snapshot class id; merged ids hold an empty range.
    table: NodeTable,
}

impl Spellings {
    /// Snapshots every class id allocated so far, charging one tick per
    /// spelling plus one per root class.
    fn collect(g: &mut EGraph) -> Spellings {
        let table = g.node_table();
        let cost = table.all().len() + g.num_classes();
        g.charge(cost as u64);
        Spellings { table }
    }

    /// The majority spellings of class `id` as `(canonical key, parity)`,
    /// where the class representative is `Maj(key)` complemented by the
    /// parity.
    fn of(&self, id: usize) -> impl Iterator<Item = ([ClassSignal; 3], bool)> + '_ {
        self.table.nodes(id).iter().filter_map(|node| match *node {
            ClassNode::Maj(key, par) => Some((key, par)),
            _ => None,
        })
    }

    /// Majority spellings of `s`: up to `limit` triples, each computing
    /// exactly `s` (the class parity is pushed onto the children, as in
    /// [`EGraph::maj_views`]). Classes outside the snapshot have no views.
    fn views(&self, s: ClassSignal, limit: usize) -> impl Iterator<Item = [ClassSignal; 3]> + '_ {
        self.of(s.class()).take(limit).map(move |(key, par)| {
            let flip = par ^ s.is_complemented();
            key.map(|c| c.complement_if(flip))
        })
    }
}

fn over_budget(g: &EGraph, budget: &EgraphBudget) -> Option<StopReason> {
    if g.num_enodes() >= budget.max_enodes {
        Some(StopReason::EnodeLimit)
    } else if g.work() >= budget.max_work {
        Some(StopReason::WorkLimit)
    } else {
        None
    }
}

/// One pass of every rule over a snapshot of the classes. Returns the
/// budget stop that interrupted the pass, if any.
fn run_rules_once(g: &mut EGraph, budget: &EgraphBudget) -> Option<StopReason> {
    // Snapshot the id range and every class's spellings: nodes created by
    // this very pass are matched in the *next* iteration, keeping each
    // iteration's match set a function of the iteration-start graph.
    let spellings = Spellings::collect(g);
    for id in 0..spellings.table.num_ids() {
        for (key, par) in spellings.of(id) {
            // The matched node's value, as a signal to union rewrites with.
            let target = ClassSignal::new(id, par);
            if let Some(stop) = over_budget(g, budget) {
                return Some(stop);
            }
            apply_associativity(g, &spellings, key, target);
            apply_distributivity_lr(g, &spellings, key, target);
            apply_distributivity_rl(g, &spellings, key, target);
            apply_relevance(g, &spellings, key, target);
        }
    }
    over_budget(g, budget)
}

/// The two children of `key` other than position `skip`.
fn others(key: [ClassSignal; 3], skip: usize) -> [ClassSignal; 2] {
    match skip {
        0 => [key[1], key[2]],
        1 => [key[0], key[2]],
        _ => [key[0], key[1]],
    }
}

/// Ω.A: `⟨x u ⟨y u z⟩⟩ = ⟨z u ⟨y u x⟩⟩` — swap a child of the outer node
/// with a child of the inner node across a shared `u`.
fn apply_associativity(g: &mut EGraph, sp: &Spellings, key: [ClassSignal; 3], target: ClassSignal) {
    for inner_pos in 0..3 {
        let outer = others(key, inner_pos);
        for view in sp.views(key[inner_pos], VIEW_LIMIT) {
            g.charge(1);
            for (u_idx, x_idx) in [(0usize, 1usize), (1, 0)] {
                let (u, x) = (outer[u_idx], outer[x_idx]);
                for m in 0..3 {
                    if view[m] != u {
                        continue;
                    }
                    let rem = others(view, m);
                    for (y, z) in [(rem[0], rem[1]), (rem[1], rem[0])] {
                        let inner = g.add([y, u, x]);
                        let rewritten = g.add([z, u, inner]);
                        g.union(rewritten, target);
                    }
                }
            }
        }
    }
}

/// Ω.D left-to-right: `⟨x y ⟨u v z⟩⟩ → ⟨⟨x y u⟩ ⟨x y v⟩ z⟩`. Grows the
/// graph — this is the direction greedy rewriting cannot afford, and the
/// one that unlocks cross-node sharing for the shrinking direction.
fn apply_distributivity_lr(
    g: &mut EGraph,
    sp: &Spellings,
    key: [ClassSignal; 3],
    target: ClassSignal,
) {
    for inner_pos in 0..3 {
        let [x, y] = others(key, inner_pos);
        for view in sp.views(key[inner_pos], VIEW_LIMIT) {
            g.charge(1);
            for z_pos in 0..3 {
                let z = view[z_pos];
                let [u, v] = others(view, z_pos);
                let left = g.add([x, y, u]);
                let right = g.add([x, y, v]);
                let rewritten = g.add([left, right, z]);
                g.union(rewritten, target);
            }
        }
    }
}

/// Ω.D right-to-left: `⟨⟨x y u⟩ ⟨x y v⟩ z⟩ → ⟨x y ⟨u v z⟩⟩` — the
/// shrinking direction, fired when two children share a pair.
fn apply_distributivity_rl(
    g: &mut EGraph,
    sp: &Spellings,
    key: [ClassSignal; 3],
    target: ClassSignal,
) {
    for (i, j) in [(0usize, 1usize), (0, 2), (1, 2)] {
        let z_outer = key[3 - i - j];
        for vi in sp.views(key[i], VIEW_LIMIT) {
            for vj in sp.views(key[j], VIEW_LIMIT) {
                g.charge(1);
                for u_pos in 0..3 {
                    let u = vi[u_pos];
                    let [x, y] = others(vi, u_pos);
                    // Does {x, y} appear in vj (as a multiset)? The
                    // leftover child is v.
                    let Some(v) = remove_pair(vj, x, y) else {
                        continue;
                    };
                    let inner = g.add([u, v, z_outer]);
                    let rewritten = g.add([x, y, inner]);
                    g.union(rewritten, target);
                }
            }
        }
    }
}

/// Removes one occurrence each of `x` and `y` from the triple, returning
/// the remaining child — or `None` if either is missing.
fn remove_pair(triple: [ClassSignal; 3], x: ClassSignal, y: ClassSignal) -> Option<ClassSignal> {
    let xi = triple.iter().position(|&c| c == x)?;
    let rest = others(triple, xi);
    let yi = rest.iter().position(|&c| c == y)?;
    Some(rest[1 - yi])
}

/// Ω.R (relevance, one level): in `⟨x y z⟩`, occurrences of `x` inside `z`
/// may be replaced by `ȳ` (if `x` breaks the tie, `x` and `y` disagree).
fn apply_relevance(g: &mut EGraph, sp: &Spellings, key: [ClassSignal; 3], target: ClassSignal) {
    for z_pos in 0..3 {
        let outer = others(key, z_pos);
        for view in sp.views(key[z_pos], VIEW_LIMIT) {
            g.charge(1);
            for (x, y) in [(outer[0], outer[1]), (outer[1], outer[0])] {
                for m in 0..3 {
                    if view[m] != x {
                        continue;
                    }
                    let mut replaced = view;
                    replaced[m] = !y;
                    let inner = g.add(replaced);
                    let rewritten = g.add([x, y, inner]);
                    g.union(rewritten, target);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mig::Mig;

    fn saturated_graph(build: impl Fn(&mut Mig)) -> (EGraph, usize, StopReason) {
        let mut mig = Mig::new();
        build(&mut mig);
        let mut g = EGraph::from_mig(&mig);
        let (iterations, stop) = saturate(&mut g, &EgraphBudget::for_effort(2));
        (g, iterations, stop)
    }

    #[test]
    fn associativity_identifies_the_rotated_form() {
        // ⟨x u ⟨y u z⟩⟩ and ⟨z u ⟨y u x⟩⟩ must land in one class.
        let mut mig = Mig::new();
        let x = mig.add_input("x");
        let u = mig.add_input("u");
        let y = mig.add_input("y");
        let z = mig.add_input("z");
        let lhs_inner = mig.maj(y, u, z);
        let lhs = mig.maj(x, u, lhs_inner);
        let rhs_inner = mig.maj(y, u, x);
        let rhs = mig.maj(z, u, rhs_inner);
        mig.add_output("l", lhs);
        mig.add_output("r", rhs);
        let mut g = EGraph::from_mig(&mig);
        let l = g.outputs()[0].1;
        let r = g.outputs()[1].1;
        assert_ne!(g.canonical(l), g.canonical(r), "distinct before saturation");
        saturate(&mut g, &EgraphBudget::for_effort(2));
        assert_eq!(g.canonical(l), g.canonical(r));
    }

    #[test]
    fn distributivity_identifies_both_sides() {
        // ⟨x y ⟨u v z⟩⟩ = ⟨⟨x y u⟩ ⟨x y v⟩ z⟩.
        let mut mig = Mig::new();
        let x = mig.add_input("x");
        let y = mig.add_input("y");
        let u = mig.add_input("u");
        let v = mig.add_input("v");
        let z = mig.add_input("z");
        let inner = mig.maj(u, v, z);
        let lhs = mig.maj(x, y, inner);
        let a = mig.maj(x, y, u);
        let b = mig.maj(x, y, v);
        let rhs = mig.maj(a, b, z);
        mig.add_output("l", lhs);
        mig.add_output("r", rhs);
        let mut g = EGraph::from_mig(&mig);
        let l = g.outputs()[0].1;
        let r = g.outputs()[1].1;
        saturate(&mut g, &EgraphBudget::for_effort(2));
        assert_eq!(g.canonical(l), g.canonical(r));
    }

    #[test]
    fn relevance_identifies_the_substituted_form() {
        // ⟨x y ⟨x u v⟩⟩ = ⟨x y ⟨ȳ u v⟩⟩.
        let mut mig = Mig::new();
        let x = mig.add_input("x");
        let y = mig.add_input("y");
        let u = mig.add_input("u");
        let v = mig.add_input("v");
        let inner1 = mig.maj(x, u, v);
        let lhs = mig.maj(x, y, inner1);
        let inner2 = mig.maj(!y, u, v);
        let rhs = mig.maj(x, y, inner2);
        mig.add_output("l", lhs);
        mig.add_output("r", rhs);
        let mut g = EGraph::from_mig(&mig);
        let l = g.outputs()[0].1;
        let r = g.outputs()[1].1;
        saturate(&mut g, &EgraphBudget::for_effort(2));
        assert_eq!(g.canonical(l), g.canonical(r));
    }

    #[test]
    fn saturation_is_deterministic_and_budget_bounded() {
        let build = |mig: &mut Mig| {
            let xs = mig.add_inputs("x", 6);
            let mut acc = xs[0];
            for &x in &xs[1..] {
                acc = mig.xor(acc, x);
            }
            mig.add_output("parity", acc);
        };
        let (g1, i1, s1) = saturated_graph(build);
        let (g2, i2, s2) = saturated_graph(build);
        assert_eq!(i1, i2);
        assert_eq!(s1, s2);
        assert_eq!(g1.num_enodes(), g2.num_enodes());
        assert_eq!(g1.union_count(), g2.union_count());
        assert_eq!(g1.work(), g2.work());
    }

    #[test]
    fn tight_budgets_stop_early_with_the_right_reason() {
        let build = |mig: &mut Mig| {
            let xs = mig.add_inputs("x", 5);
            let mut acc = xs[0];
            for &x in &xs[1..] {
                acc = mig.xor(acc, x);
            }
            mig.add_output("f", acc);
        };
        let mut mig = Mig::new();
        build(&mut mig);

        let mut g = EGraph::from_mig(&mig);
        let tiny_nodes = EgraphBudget {
            max_enodes: g.num_enodes() + 1,
            max_iterations: 100,
            max_work: u64::MAX,
        };
        let (_, stop) = saturate(&mut g, &tiny_nodes);
        assert_eq!(stop, StopReason::EnodeLimit);

        let mut g = EGraph::from_mig(&mig);
        let tiny_work = EgraphBudget {
            max_enodes: usize::MAX,
            max_iterations: 100,
            max_work: 10,
        };
        let (_, stop) = saturate(&mut g, &tiny_work);
        assert_eq!(stop, StopReason::WorkLimit);

        let mut g = EGraph::from_mig(&mig);
        let no_iterations = EgraphBudget {
            max_enodes: usize::MAX,
            max_iterations: 0,
            max_work: u64::MAX,
        };
        let (iterations, stop) = saturate(&mut g, &no_iterations);
        assert_eq!((iterations, stop), (0, StopReason::IterationLimit));
    }

    #[test]
    fn stop_reasons_have_stable_names() {
        assert_eq!(StopReason::Saturated.name(), "saturated");
        assert_eq!(StopReason::EnodeLimit.name(), "enodes");
        assert_eq!(StopReason::IterationLimit.name(), "iterations");
        assert_eq!(StopReason::WorkLimit.name(), "work");
    }
}
