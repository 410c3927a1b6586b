//! # plim-egraph — equality saturation for the MIG → PLiM flow
//!
//! The arena rewriter (Algorithm 1) applies the MIG axioms greedily and
//! destructively: every step must pay for itself immediately, so rewrites
//! that only pay off two or three steps later are never found. This crate
//! is the non-greedy counterpart, an offline equality-saturation engine in
//! the spirit of egg (Willsey et al., POPL 2021):
//!
//! 1. the rewritten MIG is loaded into a hashconsed [`EGraph`] whose
//!    union-find tracks complement parity (Ω.I is free) and whose node
//!    canonicalization bakes in Ω.C and Ω.M;
//! 2. the remaining axioms — associativity Ω.A, distributivity Ω.D in
//!    *both* directions, one-level relevance Ω.R — are saturated under a
//!    deterministic [`EgraphBudget`] (e-node / iteration / work ceilings,
//!    no wall-clock anywhere);
//! 3. greedy bottom-up extraction (cost table memoized per e-class)
//!    proposes one candidate MIG per [`ExtractObjective`];
//! 4. a compiling cost function scores every candidate by *actually
//!    compiling it* — [`plim_compiler::compile_full`] plus the active
//!    backend's [`plim_compiler::Cost`] — in parallel across the
//!    `plim-parallel` pool, and keeps the lexicographically cheapest
//!    (#I, #R, wear) artifact that is admissible (no axis worse than the
//!    arena baseline's).
//!
//! Because the arena baseline is always in the candidate set (it is the
//! fallback), [`optimize`] is **never worse than the arena engine** on any
//! cost axis, by construction.
//!
//! The engine is wired into the toolchain as the third
//! [`plim_compiler::RewriteMode`]: call [`install`] once at startup
//! (mirroring `plim_backends::install()`) and `--rewrite egraph` works
//! everywhere — `plimc`, `plimd`, the batch driver, and the benches.

mod extract;
mod graph;
mod rules;

use std::collections::HashSet;

pub use extract::{extract, ExtractObjective};
pub use graph::{Canon, ClassNode, ClassSignal, EGraph, ENode};
pub use rules::{saturate, EgraphBudget, StopReason};

use extract::Extractor;
use mig::Mig;
use plim_compiler::batch::{BenchRun, Circuit, PAPER_EFFORT};
use plim_compiler::{compile, compile_full, CompilerOptions, OptLevel, RewriteMode};
use plim_parallel::{par_map, Parallelism};

/// Raw (pre-rewrite) graphs up to this many nodes are also absorbed into
/// the e-graph, giving saturation the original structure alongside the
/// greedily rewritten one. Larger graphs skip this: the rewritten form
/// alone keeps the budget productive.
const RAW_ABSORB_LIMIT: usize = 3_000;

/// What one [`optimize_with_stats`] run did, for bench reports and the
/// `--rewrite egraph` saturation-stats lines.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SaturationStats {
    /// E-nodes after loading the input graph(s), before any rule fired.
    pub initial_enodes: usize,
    /// E-nodes when saturation stopped.
    pub final_enodes: usize,
    /// Live e-classes when saturation stopped.
    pub classes: usize,
    /// Rule iterations run.
    pub iterations: usize,
    /// Why saturation stopped.
    pub stop: StopReason,
    /// Distinct extraction candidates scored by compilation.
    pub candidates_scored: usize,
    /// Whether a candidate beat the arena baseline's compiled cost.
    pub improved: bool,
}

impl SaturationStats {
    /// One-line human-readable summary
    /// (`enodes 120→340, classes 95, 3 iters, stop=saturated, 2 candidates, improved`).
    pub fn summary(&self) -> String {
        format!(
            "enodes {}→{}, classes {}, {} iters, stop={}, {} candidates, {}",
            self.initial_enodes,
            self.final_enodes,
            self.classes,
            self.iterations,
            self.stop.name(),
            self.candidates_scored,
            if self.improved {
                "improved"
            } else {
                "kept arena"
            }
        )
    }
}

/// Lexicographic compiled cost of a candidate under the active backend:
/// (#I, #R/footprint, wear).
fn compiled_cost(mig: &Mig, options: CompilerOptions) -> (u64, u64, u64) {
    let compilation = compile_full(mig, options);
    let cost = options.target.backend().cost(&compilation.ir);
    (
        cost.instructions as u64,
        u64::from(cost.footprint),
        cost.wear,
    )
}

/// Post-extraction cleanup: polarity normalization moved complements
/// around freely, so push them back into the RM3-friendly ≤1-complement
/// form the translator's cost model expects, then drop dangling nodes.
fn polish(mig: &Mig) -> Mig {
    let (once, _) = mig::rewrite::pass_inverter_reduce(mig);
    let (twice, _) = mig::rewrite::pass_inverter_reduce(&once);
    twice.cleaned()
}

/// Loads the e-graph that [`optimize_with_stats`] saturates: `baseline`
/// (the arena-rewritten graph), plus `raw` (the pre-rewrite input) when it
/// is small enough to be worth the extra structural seed.
pub fn seed(raw: &Mig, baseline: &Mig) -> EGraph {
    let mut g = EGraph::from_mig(baseline);
    if raw.len() <= RAW_ABSORB_LIMIT {
        g.absorb_equivalent(raw);
    }
    g
}

/// The distinct candidates [`optimize_with_stats`] scores: one greedy
/// extraction of the saturated `g` per [`ExtractObjective`], all from one
/// canonical node table, each polished and dropped when it repeats
/// `baseline` or an earlier candidate byte for byte.
pub fn candidates(g: &EGraph, baseline: &Mig) -> Vec<Mig> {
    let extractor = Extractor::new(g);
    let mut seen: HashSet<String> = HashSet::new();
    seen.insert(mig::io::write_mig(baseline));
    let mut candidates: Vec<Mig> = Vec::new();
    for objective in ExtractObjective::ALL {
        if let Some(extracted) = extractor.extract(objective) {
            let polished = polish(&extracted);
            if seen.insert(mig::io::write_mig(&polished)) {
                candidates.push(polished);
            }
        }
    }
    candidates
}

/// Equality-saturation optimization of `baseline` (the arena-rewritten
/// graph), returning the chosen MIG and the run's [`SaturationStats`]:
/// [`seed`], [`saturate`] under the effort-scaled [`EgraphBudget`],
/// [`candidates`], then compiled-cost scoring.
///
/// `raw` is the pre-rewrite input graph; small raw graphs are absorbed
/// into the e-graph as an extra structural seed. `effort` scales the
/// saturation budget (see [`EgraphBudget::for_effort`]); `options` selects
/// the backend whose compiled [`plim_compiler::Cost`] judges candidates.
///
/// Deterministic end to end: same inputs, effort, and options ⇒
/// byte-identical output graph.
pub fn optimize_with_stats(
    raw: &Mig,
    baseline: &Mig,
    effort: usize,
    options: CompilerOptions,
) -> (Mig, SaturationStats) {
    let mut g = seed(raw, baseline);
    let initial_enodes = g.num_enodes();
    let budget = EgraphBudget::for_effort(effort.max(1)).scaled_to(initial_enodes);
    let (iterations, stop) = saturate(&mut g, &budget);
    let mut candidates = candidates(&g, baseline);

    // Compiling cost function: score every candidate by replaying it
    // through the full lower → optimize pipeline, fanned out across the
    // worker pool. The baseline is scored alongside; a candidate wins only
    // if *no* axis regresses and the lexicographic (#I, #R, wear) triple
    // strictly improves.
    let base_cost = compiled_cost(baseline, options);
    let scored = par_map(&candidates, Parallelism::Auto, |_, candidate| {
        compiled_cost(candidate, options)
    });
    let mut best: Option<(usize, (u64, u64, u64))> = None;
    for (index, &cost) in scored.iter().enumerate() {
        let admissible = cost.0 <= base_cost.0 && cost.1 <= base_cost.1 && cost.2 <= base_cost.2;
        if admissible && cost < base_cost && best.is_none_or(|(_, b)| cost < b) {
            best = Some((index, cost));
        }
    }

    let stats = SaturationStats {
        initial_enodes,
        final_enodes: g.num_enodes(),
        classes: g.num_classes(),
        iterations,
        stop,
        candidates_scored: candidates.len(),
        improved: best.is_some(),
    };
    let chosen = match best {
        Some((index, _)) => candidates.swap_remove(index),
        None => baseline.clone(),
    };
    (chosen, stats)
}

/// [`optimize_with_stats`] without the stats — the exact signature of the
/// [`plim_compiler::EgraphOptimizer`] hook.
pub fn optimize(raw: &Mig, baseline: &Mig, effort: usize, options: CompilerOptions) -> Mig {
    optimize_with_stats(raw, baseline, effort, options).0
}

/// Registers [`optimize`] as the engine behind
/// [`plim_compiler::RewriteMode::Egraph`]. Idempotent; `plimc`, `plimd`
/// and the bench harnesses call it at startup, mirroring
/// `plim_backends::install()`.
pub fn install() {
    plim_compiler::install_egraph_optimizer(optimize);
}

/// Fills the `egraph_instructions` / `egraph_rams` columns of every record
/// of a bench run: each circuit is re-optimized through the e-graph at the
/// paper's rewrite effort and compiled at `-O2` for the default RM3
/// target, fanned out across `parallelism`. `circuits` must be the same
/// slice the run was produced from (mismatches leave the records on their
/// "skipped" sentinel 0).
pub fn annotate_bench(run: &mut BenchRun, circuits: &[Circuit], parallelism: Parallelism) {
    if run.records.is_empty() || circuits.len() != run.records.len() {
        return;
    }
    let options = CompilerOptions::new()
        .opt(OptLevel::O2)
        .rewrite(RewriteMode::Egraph);
    let results = par_map(circuits, parallelism, |_, circuit| {
        let baseline = mig::rewrite::rewrite(&circuit.mig, PAPER_EFFORT);
        let chosen = optimize(&circuit.mig, &baseline, PAPER_EFFORT, options);
        let compiled = compile(&chosen, options);
        (
            compiled.stats.instructions as u64,
            u64::from(compiled.stats.rams),
        )
    });
    for (record, (instructions, rams)) in run.records.iter_mut().zip(results) {
        record.egraph_instructions = instructions;
        record.egraph_rams = rams;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mig::Signal;

    fn fig3b() -> Mig {
        let mut mig = Mig::new();
        let i1 = mig.add_input("i1");
        let i2 = mig.add_input("i2");
        let i3 = mig.add_input("i3");
        let n1 = mig.maj(Signal::FALSE, i1, i2);
        let n2 = mig.maj(Signal::TRUE, !i2, i3);
        let n3 = mig.maj(i1, i2, i3);
        let n4 = mig.maj(Signal::TRUE, n1, i3);
        let n5 = mig.maj(n1, !n2, n3);
        let n6 = mig.maj(n4, !n5, n1);
        mig.add_output("f", n6);
        mig
    }

    #[test]
    fn optimize_is_equivalent_and_never_worse_than_the_baseline() {
        let raw = fig3b();
        let baseline = mig::rewrite::rewrite(&raw, 4);
        let options = CompilerOptions::new().opt(OptLevel::O2);
        let (chosen, stats) = optimize_with_stats(&raw, &baseline, 4, options);
        assert!(mig::equiv::check_equivalence(&raw, &chosen, 64, 3)
            .expect("interfaces match")
            .holds());
        let base = compiled_cost(&baseline, options);
        let ours = compiled_cost(&chosen, options);
        assert!(
            ours <= base,
            "egraph result must not regress: {ours:?} vs {base:?}"
        );
        assert!(stats.iterations >= 1);
        assert!(stats.final_enodes >= stats.initial_enodes);
        assert!(!stats.summary().is_empty());
    }

    #[test]
    fn optimize_is_deterministic() {
        let raw = fig3b();
        let baseline = mig::rewrite::rewrite(&raw, 2);
        let options = CompilerOptions::new().opt(OptLevel::O2);
        let one = optimize(&raw, &baseline, 2, options);
        let two = optimize(&raw, &baseline, 2, options);
        assert_eq!(mig::io::write_mig(&one), mig::io::write_mig(&two));
    }

    #[test]
    fn install_registers_the_hook() {
        install();
        install(); // idempotent
        let hook = plim_compiler::egraph_optimizer().expect("hook registered");
        let raw = fig3b();
        let baseline = mig::rewrite::rewrite(&raw, 2);
        let out = hook(&raw, &baseline, 2, CompilerOptions::new());
        assert!(mig::equiv::check_equivalence(&raw, &out, 64, 5)
            .expect("interfaces match")
            .holds());
    }
}
