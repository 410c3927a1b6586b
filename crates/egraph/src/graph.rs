//! The hashconsed e-graph over MIG nodes.
//!
//! Structure follows egg (Willsey et al., POPL 2021): a union-find over
//! e-class ids, a hashcons memo from canonical e-nodes to e-classes, and a
//! parent-congruence worklist that restores the congruence invariant after
//! merges. Two MIG-specific twists:
//!
//! * **Complement edges.** MIG edges carry inverters, so class references
//!   are [`ClassSignal`]s (class id + complement bit) and the union-find
//!   tracks a *parity* per entry — `x` and `!x` share one e-class, which
//!   bakes the inverter-propagation axiom Ω.I into the representation the
//!   same way [`mig::Signal`] bakes it into the graph.
//! * **Canonical majority nodes.** Children are stored sorted (Ω.C) and
//!   triples are polarity-normalized: of the pair `⟨a b c⟩` /
//!   `⟨ā b̄ c̄⟩ = !⟨a b c⟩` only the lexicographically smaller spelling is
//!   memoized, with the complement pushed onto the returned signal. The
//!   trivial-majority simplifications Ω.M (`⟨x x y⟩ = x`, `⟨x x̄ y⟩ = y`)
//!   are applied at insertion, so no e-class ever holds a reducible node.

use std::collections::HashMap;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::Not;

use mig::{Mig, MigNode};

/// A reference to an e-class with an optional complement attribute — the
/// e-graph's analogue of [`mig::Signal`]. Packs `class << 1 | complement`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ClassSignal(u32);

impl ClassSignal {
    /// Creates a signal referencing `class`, complemented if `complement`.
    #[inline]
    pub fn new(class: usize, complement: bool) -> Self {
        debug_assert!(class <= (u32::MAX >> 1) as usize);
        ClassSignal((class as u32) << 1 | complement as u32)
    }

    /// The e-class this signal refers to.
    #[inline]
    pub fn class(self) -> usize {
        (self.0 >> 1) as usize
    }

    /// Whether the reference carries a complement attribute.
    #[inline]
    pub fn is_complemented(self) -> bool {
        self.0 & 1 != 0
    }

    /// XORs the complement attribute with `flip`.
    #[inline]
    pub fn complement_if(self, flip: bool) -> Self {
        ClassSignal(self.0 ^ flip as u32)
    }
}

impl Not for ClassSignal {
    type Output = ClassSignal;

    #[inline]
    fn not(self) -> ClassSignal {
        ClassSignal(self.0 ^ 1)
    }
}

impl fmt::Debug for ClassSignal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_complemented() {
            write!(f, "!c{}", self.class())
        } else {
            write!(f, "c{}", self.class())
        }
    }
}

/// An e-node: one operator applied to e-class references.
///
/// `Maj` children are canonical — sorted, referencing e-class
/// representatives, polarity-normalized — whenever the node sits in the
/// hashcons memo. Nodes listed inside an e-class may go stale after merges;
/// [`EGraph::canonical_nodes`] re-canonicalizes on read.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum ENode {
    /// The constant-zero leaf.
    Const,
    /// Primary input `i` (index into [`EGraph::input_names`]).
    Input(u32),
    /// Majority-of-three over e-class signals.
    Maj([ClassSignal; 3]),
}

/// One packed write per node — the three children in one `u128`, a leaf
/// in one `u64` — instead of the derived discriminant-plus-field writes.
/// The memo hashes a node on every add and every repair, and it stays on
/// std's keyed `RandomState`: plimd fills it from request bytes, so a
/// fixed-key hasher would be a hash-flooding path.
impl Hash for ENode {
    fn hash<H: Hasher>(&self, state: &mut H) {
        match *self {
            ENode::Const => state.write_u64(u64::MAX),
            ENode::Input(i) => state.write_u64(u64::from(i)),
            ENode::Maj([a, b, c]) => {
                state.write_u128(u128::from(a.0) | u128::from(b.0) << 32 | u128::from(c.0) << 64);
            }
        }
    }
}

/// Result of canonicalizing a majority triple: either the node collapsed
/// via Ω.M to an existing signal, or a canonical key plus the complement
/// the polarity normalization pushed onto the output.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Canon {
    /// The triple was trivial; its value is this existing signal.
    Simplified(ClassSignal),
    /// A canonical memo key; the node's value is `Maj(key)` complemented
    /// by the flag.
    Node([ClassSignal; 3], bool),
}

/// An e-node as read back out of a class: the canonical spelling plus the
/// parity of its value relative to the class representative.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClassNode {
    /// The constant-zero leaf (`true` ⇒ the representative is constant one).
    Const(bool),
    /// Primary input (`true` ⇒ the representative is its complement).
    Input(u32, bool),
    /// Canonical majority key; the representative is `Maj(key)`
    /// complemented by the flag.
    Maj([ClassSignal; 3], bool),
}

#[derive(Debug, Default)]
struct EClass {
    /// E-nodes whose value equals the class representative complemented by
    /// the stored parity. Entries may be stale (non-canonical) after
    /// merges; reads go through [`EGraph::canonical_nodes`].
    nodes: Vec<(ENode, bool)>,
    /// Memoized `Maj` keys that reference this class as a child — the
    /// congruence-repair worklist fodder.
    parents: Vec<ENode>,
}

/// Every root class's canonical nodes (see [`EGraph::canonical_nodes`]) in
/// one flat pool: one allocation for the whole graph instead of one per
/// class. Class `c`'s nodes are `nodes[start[c]..start[c + 1]]`; merged
/// ids get an empty range.
#[derive(Debug)]
pub(crate) struct NodeTable {
    nodes: Vec<ClassNode>,
    start: Vec<u32>,
}

impl NodeTable {
    /// Number of class ids the table covers.
    pub(crate) fn num_ids(&self) -> usize {
        self.start.len() - 1
    }

    /// Every class's nodes, concatenated in id order.
    pub(crate) fn all(&self) -> &[ClassNode] {
        &self.nodes
    }

    /// The canonical nodes of `class`, in class order; empty for merged
    /// ids and for ids outside the table.
    pub(crate) fn nodes(&self, class: usize) -> &[ClassNode] {
        match (self.start.get(class), self.start.get(class + 1)) {
            (Some(&from), Some(&to)) => &self.nodes[from as usize..to as usize],
            _ => &[],
        }
    }
}

/// The e-graph: union-find + hashcons + congruence worklist.
#[derive(Debug)]
pub struct EGraph {
    /// Union-find parent per class id (self-parent at roots).
    parent: Vec<u32>,
    /// Complement of this id's representative relative to its parent's.
    parity: Vec<bool>,
    classes: Vec<EClass>,
    memo: HashMap<ENode, ClassSignal>,
    /// Root ids whose parents need congruence repair.
    dirty: Vec<u32>,
    /// Primary input names, in the order of the source MIG.
    input_names: Vec<String>,
    input_classes: Vec<ClassSignal>,
    const_class: ClassSignal,
    outputs: Vec<(String, ClassSignal)>,
    /// Deterministic work counter: every add/union/canonicalization ticks
    /// it once, giving the saturation budget a wall-clock-free notion of
    /// effort.
    work: u64,
    unions: u64,
}

impl EGraph {
    /// Builds an e-graph holding exactly the nodes of `mig` (reachable or
    /// not), with one e-class per structurally distinct node.
    pub fn from_mig(mig: &Mig) -> EGraph {
        let mut g = EGraph {
            parent: Vec::new(),
            parity: Vec::new(),
            classes: Vec::new(),
            memo: HashMap::new(),
            dirty: Vec::new(),
            input_names: (0..mig.num_inputs())
                .map(|i| mig.input_name(i).to_string())
                .collect(),
            input_classes: Vec::new(),
            const_class: ClassSignal::new(0, false),
            outputs: Vec::new(),
            work: 0,
            unions: 0,
        };
        g.const_class = g.new_class(ENode::Const);
        g.memo.insert(ENode::Const, g.const_class);
        for i in 0..mig.num_inputs() {
            let node = ENode::Input(i as u32);
            let class = g.new_class(node);
            g.memo.insert(node, class);
            g.input_classes.push(class);
        }
        let map = g.insert_nodes(mig);
        g.outputs = mig
            .outputs()
            .iter()
            .map(|(name, s)| {
                (
                    name.clone(),
                    map[s.node().index()].complement_if(s.is_complemented()),
                )
            })
            .collect();
        g
    }

    /// Inserts every majority node of `other` (which must have the same
    /// inputs, in the same order) and unions its outputs pairwise with the
    /// existing ones — asserting, structurally, that the two graphs compute
    /// the same functions. Returns `false` (changing nothing) when the
    /// interfaces don't line up.
    pub fn absorb_equivalent(&mut self, other: &Mig) -> bool {
        if other.num_inputs() != self.input_names.len() || other.num_outputs() != self.outputs.len()
        {
            return false;
        }
        let map = self.insert_nodes(other);
        for (index, (_, s)) in other.outputs().iter().enumerate() {
            let theirs = map[s.node().index()].complement_if(s.is_complemented());
            let ours = self.outputs[index].1;
            self.union(ours, theirs);
        }
        self.rebuild();
        true
    }

    /// Maps every node of `mig` into the e-graph, returning the signal per
    /// arena index.
    fn insert_nodes(&mut self, mig: &Mig) -> Vec<ClassSignal> {
        let mut map: Vec<ClassSignal> = Vec::with_capacity(mig.len());
        for id in mig.node_ids() {
            let sig = match mig.node(id) {
                MigNode::Constant => self.const_class,
                MigNode::Input(i) => self.input_classes[*i as usize],
                MigNode::Majority(children) => {
                    let cs =
                        children.map(|c| map[c.node().index()].complement_if(c.is_complemented()));
                    self.add(cs)
                }
            };
            map.push(sig);
        }
        map
    }

    fn new_class(&mut self, node: ENode) -> ClassSignal {
        let id = self.parent.len() as u32;
        self.parent.push(id);
        self.parity.push(false);
        self.classes.push(EClass {
            nodes: vec![(node, false)],
            parents: Vec::new(),
        });
        ClassSignal::new(id as usize, false)
    }

    /// Number of class ids ever allocated (merged ids included).
    pub fn num_ids(&self) -> usize {
        self.parent.len()
    }

    /// Number of live (root) e-classes.
    pub fn num_classes(&self) -> usize {
        (0..self.parent.len() as u32)
            .filter(|&id| self.find(id).0 == id)
            .count()
    }

    /// Number of memoized e-nodes.
    pub fn num_enodes(&self) -> usize {
        self.memo.len()
    }

    /// Total unions performed so far (saturation convergence signal).
    pub fn union_count(&self) -> u64 {
        self.unions
    }

    /// The deterministic work counter (see [`crate::EgraphBudget`]).
    pub fn work(&self) -> u64 {
        self.work
    }

    /// Primary input names, in source order.
    pub fn input_names(&self) -> &[String] {
        &self.input_names
    }

    /// The primary outputs as (name, signal) pairs.
    pub fn outputs(&self) -> &[(String, ClassSignal)] {
        &self.outputs
    }

    /// Union-find root and accumulated parity of `id` (no path mutation,
    /// usable from `&self` contexts).
    pub fn find(&self, id: u32) -> (u32, bool) {
        let mut cur = id;
        let mut flip = false;
        while self.parent[cur as usize] != cur {
            flip ^= self.parity[cur as usize];
            cur = self.parent[cur as usize];
        }
        (cur, flip)
    }

    /// Path-compressing variant of [`EGraph::find`].
    fn find_mut(&mut self, id: u32) -> (u32, bool) {
        let (root, total) = self.find(id);
        // Second pass: point every entry straight at the root with its
        // cumulative parity.
        let mut cur = id;
        let mut flip = total;
        while self.parent[cur as usize] != root && self.parent[cur as usize] != cur {
            let next = self.parent[cur as usize];
            let next_flip = flip ^ self.parity[cur as usize];
            self.parent[cur as usize] = root;
            self.parity[cur as usize] = flip;
            cur = next;
            flip = next_flip;
        }
        (root, total)
    }

    /// The canonical spelling of `s`: representative class, folded parity.
    pub fn canonical(&self, s: ClassSignal) -> ClassSignal {
        let (root, flip) = self.find(s.class() as u32);
        ClassSignal::new(root as usize, s.is_complemented() ^ flip)
    }

    fn canonical_mut(&mut self, s: ClassSignal) -> ClassSignal {
        let (root, flip) = self.find_mut(s.class() as u32);
        ClassSignal::new(root as usize, s.is_complemented() ^ flip)
    }

    /// Canonicalizes a majority triple: canonicalizes and sorts the
    /// children, applies the Ω.M trivial-majority rules, and
    /// polarity-normalizes the result.
    pub fn canonicalize(&self, children: [ClassSignal; 3]) -> Canon {
        let mut cs = children.map(|c| self.canonical(c));
        cs.sort_unstable();
        let [a, b, c] = cs;
        // Ω.M: ⟨x x y⟩ = x. Sorted order puts equal signals adjacent.
        if a == b {
            return Canon::Simplified(a);
        }
        if b == c {
            return Canon::Simplified(b);
        }
        // Ω.M: ⟨x x̄ y⟩ = y. Complement pairs are adjacent after sorting
        // (the complement bit is the LSB of the packed representation).
        if a == !b {
            return Canon::Simplified(c);
        }
        if b == !c {
            return Canon::Simplified(a);
        }
        // Constant folding beyond the pair rules: ⟨0 1 x⟩ = x is already
        // covered (0 = !1 shares the constant class). Nothing else folds.
        // Polarity normalization (Ω.I): of ⟨a b c⟩ and ⟨ā b̄ c̄⟩ keep the
        // lexicographically smaller key and push the complement outward.
        let mut flipped = [!a, !b, !c];
        flipped.sort_unstable();
        if flipped < cs {
            Canon::Node(flipped, true)
        } else {
            Canon::Node(cs, false)
        }
    }

    /// Adds (or finds) the majority of three signals, returning its value.
    pub fn add(&mut self, children: [ClassSignal; 3]) -> ClassSignal {
        self.work += 1;
        match self.canonicalize(children) {
            Canon::Simplified(s) => s,
            Canon::Node(key, flip) => {
                let node = ENode::Maj(key);
                let fresh = ClassSignal::new(self.parent.len(), false);
                // One hash per add: the vacant entry takes the id the new
                // class is about to get.
                let found = *self.memo.entry(node).or_insert(fresh);
                if found != fresh {
                    return self.canonical_mut(found).complement_if(flip);
                }
                let sig = self.new_class(node);
                debug_assert_eq!(sig, fresh);
                for child in key {
                    let root = child.class();
                    self.classes[root].parents.push(node);
                }
                sig.complement_if(flip)
            }
        }
    }

    /// Asserts that two signals denote the same Boolean function, merging
    /// their e-classes. Returns `true` if the merge changed anything.
    ///
    /// The lower class id becomes the representative, which keeps merge
    /// results (and everything downstream: iteration order, extraction,
    /// byte-identical output) deterministic.
    pub fn union(&mut self, a: ClassSignal, b: ClassSignal) -> bool {
        self.work += 1;
        let ca = self.canonical_mut(a);
        let cb = self.canonical_mut(b);
        if ca.class() == cb.class() {
            // Same class: either already equal, or an (impossible, for
            // sound rules) x = x̄ contradiction we refuse to record.
            debug_assert_eq!(
                ca.is_complemented(),
                cb.is_complemented(),
                "union would merge a class with its own complement"
            );
            return false;
        }
        let relative = ca.is_complemented() ^ cb.is_complemented();
        let (root, other) = if ca.class() < cb.class() {
            (ca.class(), cb.class())
        } else {
            (cb.class(), ca.class())
        };
        self.parent[other] = root as u32;
        self.parity[other] = relative;
        let moved = std::mem::take(&mut self.classes[other]);
        for (node, par) in moved.nodes {
            self.classes[root].nodes.push((node, par ^ relative));
        }
        self.classes[root].parents.extend(moved.parents);
        self.dirty.push(root as u32);
        self.unions += 1;
        true
    }

    /// Restores the congruence invariant after a batch of unions: parents
    /// of merged classes whose keys went stale are re-canonicalized and
    /// re-memoized, merging any classes that collide. Loops until no class
    /// is dirty.
    pub fn rebuild(&mut self) {
        while !self.dirty.is_empty() {
            let mut todo = std::mem::take(&mut self.dirty);
            todo.sort_unstable();
            todo.dedup();
            for id in todo {
                let (root, _) = self.find_mut(id);
                self.repair(root);
            }
        }
    }

    fn repair(&mut self, root: u32) {
        let mut parents = std::mem::take(&mut self.classes[root as usize].parents);
        // Adds and repairs register parents without deduplication (cheap
        // writes); the worklist is deduplicated here, once per repair —
        // without this, union-heavy rebuilds go quadratic in the
        // accumulated duplicates.
        parents.sort_unstable();
        parents.dedup();
        let mut kept: Vec<ENode> = Vec::with_capacity(parents.len());
        for node in parents {
            self.work += 1;
            let ENode::Maj(children) = node else {
                unreachable!("leaves are never parents")
            };
            let canonical = self.canonicalize(children);
            if canonical == Canon::Node(children, false) {
                // Still canonical: its memo entry and its children's parent
                // lists are already right, and re-inserting it would only
                // write them back unchanged.
                debug_assert!(
                    self.memo.contains_key(&node),
                    "canonical parents stay memoized"
                );
                kept.push(node);
                continue;
            }
            let Some(old_sig) = self.memo.remove(&node) else {
                // Already re-canonicalized through another merged child.
                continue;
            };
            let old_sig = self.canonical_mut(old_sig);
            match canonical {
                Canon::Simplified(s) => {
                    // The node collapsed under the new equalities: its
                    // class *is* the simplified signal.
                    self.union(old_sig, s);
                }
                Canon::Node(key, flip) => {
                    let canon = ENode::Maj(key);
                    // Maj(key) = old value of the node, complemented by
                    // the normalization flip.
                    let value = old_sig.complement_if(flip);
                    if let Some(&existing) = self.memo.get(&canon) {
                        let existing = self.canonical_mut(existing);
                        self.union(existing, value);
                    } else {
                        self.memo.insert(canon, value);
                        for child in key {
                            let (croot, _) = self.find_mut(child.class() as u32);
                            self.classes[croot as usize].parents.push(canon);
                        }
                    }
                    kept.push(canon);
                }
            }
        }
        let (new_root, _) = self.find_mut(root);
        self.classes[new_root as usize].parents.extend(kept);
    }

    /// The e-nodes of class `id` (must be a root), re-canonicalized and
    /// deduplicated, each paired with its parity relative to the class
    /// representative. Stale entries that collapsed into an alias of the
    /// class itself are dropped.
    pub fn canonical_nodes(&self, id: u32) -> Vec<ClassNode> {
        debug_assert_eq!(self.find(id).0, id, "canonical_nodes needs a root");
        let mut out: Vec<ClassNode> = Vec::new();
        self.push_canonical_nodes(id, &mut out);
        out
    }

    /// [`EGraph::canonical_nodes`] of every root class, in id order, as one
    /// flat [`NodeTable`].
    pub(crate) fn node_table(&self) -> NodeTable {
        let n = self.num_ids();
        let mut table = NodeTable {
            nodes: Vec::with_capacity(self.memo.len()),
            start: Vec::with_capacity(n + 1),
        };
        table.start.push(0);
        for id in 0..n as u32 {
            if self.find(id).0 == id {
                self.push_canonical_nodes(id, &mut table.nodes);
            }
            table.start.push(table.nodes.len() as u32);
        }
        table
    }

    /// Appends the canonical nodes of root class `id` to `out`,
    /// deduplicated against what this call appended.
    fn push_canonical_nodes(&self, id: u32, out: &mut Vec<ClassNode>) {
        let first = out.len();
        for &(node, par) in &self.classes[id as usize].nodes {
            let canon = match node {
                ENode::Const => ClassNode::Const(par),
                ENode::Input(i) => ClassNode::Input(i, par),
                ENode::Maj(children) => match self.canonicalize(children) {
                    // A stale entry that collapsed under later equalities.
                    // After a rebuild the collapse target is this very
                    // class (repair unions them), so the alias carries no
                    // information for extraction or matching.
                    Canon::Simplified(_) => continue,
                    Canon::Node(key, flip) => ClassNode::Maj(key, par ^ flip),
                },
            };
            if !out[first..].contains(&canon) {
                out.push(canon);
            }
        }
    }

    /// Every value of `s` spelled as a majority triple: for each majority
    /// e-node in the class, the canonical children complemented so the
    /// triple computes exactly `s` (Ω.I pushes the class parity inward).
    /// At most `limit` views are returned, in deterministic class order.
    pub fn maj_views(&self, s: ClassSignal, limit: usize) -> Vec<[ClassSignal; 3]> {
        let s = self.canonical(s);
        let mut views = Vec::new();
        for node in self.canonical_nodes(s.class() as u32) {
            if let ClassNode::Maj(key, par) = node {
                // rep = Maj(key) ^ par, s = rep ^ s.par
                // ⇒ s = Maj(key each ^ (par ^ s.par)).
                let flip = par ^ s.is_complemented();
                views.push(key.map(|c| c.complement_if(flip)));
                if views.len() >= limit {
                    break;
                }
            }
        }
        views
    }

    /// Ticks the work counter (rule matching charges its traversals here
    /// so the budget reflects matching effort, not just graph mutation).
    pub fn charge(&mut self, ticks: u64) {
        self.work += ticks;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn three_input_graph() -> (EGraph, [ClassSignal; 3]) {
        let mut mig = Mig::new();
        let a = mig.add_input("a");
        let b = mig.add_input("b");
        let c = mig.add_input("c");
        let m = mig.maj(a, b, c);
        mig.add_output("f", m);
        let g = EGraph::from_mig(&mig);
        let inputs = [
            ClassSignal::new(1, false),
            ClassSignal::new(2, false),
            ClassSignal::new(3, false),
        ];
        (g, inputs)
    }

    #[test]
    fn hashconsing_deduplicates_and_is_commutative() {
        let (mut g, [a, b, c]) = three_input_graph();
        let before = g.num_enodes();
        let m1 = g.add([a, b, c]);
        let m2 = g.add([c, a, b]);
        let m3 = g.add([b, c, a]);
        assert_eq!(m1, m2);
        assert_eq!(m2, m3);
        assert_eq!(g.num_enodes(), before, "existing node was reused");
    }

    #[test]
    fn polarity_normalization_shares_a_class_between_a_node_and_its_complement() {
        let (mut g, [a, b, c]) = three_input_graph();
        let m = g.add([a, b, c]);
        let n = g.add([!a, !b, !c]);
        assert_eq!(n, !m, "Ω.I: ⟨ā b̄ c̄⟩ = !⟨a b c⟩ shares one e-class");
    }

    #[test]
    fn trivial_majorities_simplify_at_insertion() {
        let (mut g, [a, b, c]) = three_input_graph();
        assert_eq!(g.add([a, a, b]), a, "⟨x x y⟩ = x");
        assert_eq!(g.add([a, !a, c]), c, "⟨x x̄ y⟩ = y");
        let zero = ClassSignal::new(0, false);
        assert_eq!(g.add([zero, !zero, b]), b, "⟨0 1 x⟩ = x");
    }

    #[test]
    fn union_find_tracks_parity() {
        let (mut g, [a, b, c]) = three_input_graph();
        let m = g.add([a, b, c]);
        // Assert m = !c (nonsense semantically, fine structurally).
        assert!(g.union(m, !c));
        assert!(!g.union(m, !c), "second union is a no-op");
        assert_eq!(g.canonical(m), g.canonical(!c));
        assert_eq!(g.canonical(!m), g.canonical(c));
        // The lower id (c's class) is the representative.
        assert_eq!(g.canonical(m).class(), c.class());
    }

    #[test]
    fn congruence_closes_through_parents() {
        let (mut g, [a, b, c]) = three_input_graph();
        let m1 = g.add([a, b, c]);
        let zero = ClassSignal::new(0, false);
        let d = g.add([a, b, zero]); // some distinct class
        let p1 = g.add([m1, c, zero]);
        let p2 = g.add([d, c, zero]);
        assert_ne!(g.canonical(p1), g.canonical(p2));
        // Asserting m1 = d must, after rebuild, identify the parents too.
        g.union(m1, d);
        g.rebuild();
        assert_eq!(g.canonical(p1), g.canonical(p2));
    }

    #[test]
    fn congruence_closes_with_complement_parity() {
        let (mut g, [a, b, c]) = three_input_graph();
        let zero = ClassSignal::new(0, false);
        let m = g.add([a, b, c]);
        let d = g.add([a, b, zero]);
        let p1 = g.add([m, c, zero]);
        let p2 = g.add([!d, c, zero]);
        // m = !d ⇒ ⟨m c 0⟩ = ⟨d̄ c 0⟩.
        g.union(m, !d);
        g.rebuild();
        assert_eq!(g.canonical(p1), g.canonical(p2));
    }

    #[test]
    fn repair_collapses_parents_that_become_trivial() {
        let (mut g, [a, b, c]) = three_input_graph();
        let zero = ClassSignal::new(0, false);
        let d = g.add([a, b, zero]);
        let p = g.add([d, c, zero]); // ⟨d c 0⟩ = AND(d, c)

        // Assert d = c: the parent becomes ⟨c c 0⟩ = c.
        g.union(d, c);
        g.rebuild();
        assert_eq!(g.canonical(p), g.canonical(c));
    }

    #[test]
    fn maj_views_push_parity_inward() {
        let (mut g, [a, b, c]) = three_input_graph();
        let m = g.add([a, b, c]);
        let views = g.maj_views(!m, 8);
        assert_eq!(views.len(), 1);
        let mut expected = [!a, !b, !c];
        expected.sort_unstable();
        let mut got = views[0];
        got.sort_unstable();
        assert_eq!(got, expected);
    }

    #[test]
    fn from_mig_maps_outputs_and_inputs() {
        let mut mig = Mig::new();
        let a = mig.add_input("x");
        let b = mig.add_input("y");
        let f = mig.and(a, b);
        mig.add_output("f", !f);
        let g = EGraph::from_mig(&mig);
        assert_eq!(g.input_names(), &["x".to_string(), "y".to_string()]);
        assert_eq!(g.outputs().len(), 1);
        assert!(g.outputs()[0].1.is_complemented());
        // const + 2 inputs + 1 majority
        assert_eq!(g.num_enodes(), 4);
    }

    #[test]
    fn absorb_equivalent_unions_outputs() {
        let mut m1 = Mig::new();
        let a = m1.add_input("a");
        let b = m1.add_input("b");
        let c = m1.add_input("c");
        let f = m1.maj(a, b, c);
        m1.add_output("f", f);
        // Same function, different structure (double complement).
        let mut m2 = Mig::new();
        let a2 = m2.add_input("a");
        let b2 = m2.add_input("b");
        let c2 = m2.add_input("c");
        let f2 = m2.maj(!a2, !b2, !c2);
        m2.add_output("f", !f2);
        let mut g = EGraph::from_mig(&m1);
        let enodes = g.num_enodes();
        assert!(g.absorb_equivalent(&m2));
        // Polarity normalization already identified the two spellings.
        assert_eq!(g.num_enodes(), enodes);
        // Interface mismatch is refused.
        let empty = Mig::new();
        assert!(!g.absorb_equivalent(&empty));
    }
}
