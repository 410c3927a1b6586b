//! The static analyzer's contract, from both directions.
//!
//! Soundness on good artifacts: every compilation the pipeline produces —
//! the whole reduced suite swept across schedule × allocator × `-O`, plus
//! random MIGs — analyzes clean, and the certification replay re-derives
//! `#I`/`#R`/wear exactly. Sensitivity on bad ones: each lint `PA0001` …
//! `PA0008` has a hand-doctored stream that trips it (positive) and a
//! minimal variation that does not (negative).

use proptest::prelude::*;

use mig::NodeId;
use plim::RamAddr;
use plim_analysis::{
    analyze_artifact, analyze_events, certify, cross_check, AnalysisConfig, Diagnostic, Lint,
};
use plim_benchmarks::random::{random_logic, RandomLogicSpec};
use plim_benchmarks::suite::{self, Scale};
use plim_compiler::ir::{CellId, Event, IrCell, IrOp, IrOutput, IrProgram, Rhs, Value};
use plim_compiler::{
    compile_full, AllocatorStrategy, CompilerOptions, LifetimeClass, OptLevel, ScheduleOrder,
};

const SCHEDULES: [ScheduleOrder; 3] = [
    ScheduleOrder::Index,
    ScheduleOrder::Priority,
    ScheduleOrder::Lookahead,
];
const ALLOCATORS: [AllocatorStrategy; 5] = AllocatorStrategy::ALL;
const LEVELS: [OptLevel; 3] = [OptLevel::O0, OptLevel::O1, OptLevel::O2];

/// Asserts the full battery comes back clean and the certificate agrees
/// with the recorded stats on its own (not just through
/// `analyze_artifact`'s PA0008 path).
fn assert_artifact_clean(mig: &mig::Mig, options: CompilerOptions, context: &str) {
    let compilation = compile_full(mig, options);
    let diags = analyze_artifact(&compilation, options.opt);
    assert!(
        diags.is_empty(),
        "{context}: expected a clean artifact, got:\n{}",
        diags
            .iter()
            .map(|d| format!("  {d}"))
            .collect::<Vec<_>>()
            .join("\n")
    );
    let certificate = certify(&compilation.ir).expect("clean stream certifies");
    let stats = &compilation.compiled.stats;
    assert_eq!(
        certificate.instructions, stats.instructions,
        "{context}: #I"
    );
    assert_eq!(certificate.rams, stats.rams, "{context}: #R");
    assert_eq!(
        certificate.max_cell_writes, stats.max_cell_writes,
        "{context}: max cell writes"
    );
}

/// Acceptance criterion: zero diagnostics and exact resource certification
/// on every reduced-suite circuit across the full schedule × allocator ×
/// `-O` sweep.
#[test]
fn reduced_suite_sweep_is_lint_clean() {
    for name in suite::ALL {
        let mig = suite::build(name, Scale::Reduced).expect("known circuit");
        let rewritten = mig::rewrite::rewrite(&mig, 2);
        for schedule in SCHEDULES {
            for alloc in ALLOCATORS {
                for opt in LEVELS {
                    let options = CompilerOptions::new()
                        .schedule(schedule)
                        .allocator(alloc)
                        .opt(opt);
                    let context = format!("{name} {schedule:?}/{alloc:?}/{opt:?}");
                    assert_artifact_clean(&rewritten, options, &context);
                }
            }
        }
    }
}

/// The naive (Table 1 baseline) translator's artifacts are clean too.
#[test]
fn naive_translation_is_lint_clean() {
    for name in suite::ALL {
        let mig = suite::build(name, Scale::Reduced).expect("known circuit");
        assert_artifact_clean(&mig, CompilerOptions::naive(), &format!("{name} naive"));
    }
}

fn spec_strategy() -> impl Strategy<Value = RandomLogicSpec> {
    (2usize..10, 1usize..6, 10usize..90, any::<u64>()).prop_map(|(inputs, outputs, nodes, seed)| {
        RandomLogicSpec::new(inputs, outputs, nodes, seed)
    })
}

fn options_strategy() -> impl Strategy<Value = CompilerOptions> {
    (0usize..3, 0usize..5, 0usize..3).prop_map(|(schedule, alloc, opt)| {
        CompilerOptions::new()
            .schedule(SCHEDULES[schedule])
            .allocator(ALLOCATORS[alloc])
            .opt(LEVELS[opt])
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Random MIGs under random option combinations always produce clean
    /// artifacts — the analyzer never cries wolf on the compiler's own
    /// output.
    #[test]
    fn random_artifacts_are_lint_clean(
        spec in spec_strategy(),
        options in options_strategy(),
    ) {
        let mig = random_logic(&spec);
        let compilation = compile_full(&mig, options);
        let diags = analyze_artifact(&compilation, options.opt);
        prop_assert!(diags.is_empty(), "diagnostics on a random artifact: {diags:?}");
    }
}

// ---------------------------------------------------------------------------
// Hand-doctored streams: one positive and one negative case per lint.
// ---------------------------------------------------------------------------

const C0: CellId = CellId(0);
const C1: CellId = CellId(1);

fn cell(pinned: u32) -> IrCell {
    IrCell {
        pinned: RamAddr(pinned),
        hint: LifetimeClass::Short,
    }
}

fn reset(z: CellId) -> IrOp {
    IrOp {
        a: Value::Const(false),
        b: Value::Const(true),
        z,
        rhs: Rhs::Const(false),
        node: None,
    }
}

fn main_op(z: CellId, node: u32) -> IrOp {
    IrOp {
        a: Value::Input(0),
        b: Value::Input(1),
        z,
        rhs: Rhs::Node {
            node: NodeId::from_index(node as usize),
            complemented: false,
        },
        node: Some(NodeId::from_index(node as usize)),
    }
}

/// A minimal well-formed program: request %0, reset it, compute into it,
/// output it. Clean under every configuration.
fn base_program() -> IrProgram {
    IrProgram {
        num_inputs: 2,
        ops: vec![reset(C0), main_op(C0, 3)],
        cells: vec![cell(0)],
        events: vec![Event::Request(C0), Event::Op(0), Event::Op(1)],
        outputs: vec![("f".to_string(), IrOutput::Cell(C0))],
        mig_nodes: 1,
        allocator: AllocatorStrategy::Fifo,
    }
}

fn lints_of(ir: &IrProgram, config: &AnalysisConfig) -> Vec<Lint> {
    analyze_events(ir, config)
        .into_iter()
        .map(|d| d.lint)
        .collect()
}

fn structural() -> AnalysisConfig {
    AnalysisConfig::structural()
}

#[test]
fn base_program_is_clean_under_every_config() {
    let ir = base_program();
    assert!(ir.check().is_ok());
    for config in [
        structural(),
        AnalysisConfig::for_level(OptLevel::O0),
        AnalysisConfig::for_level(OptLevel::O1),
        AnalysisConfig::for_level(OptLevel::O2),
    ] {
        assert_eq!(lints_of(&ir, &config), vec![], "config {config:?}");
    }
}

#[test]
fn pa0001_use_before_init_fires_on_unreset_read() {
    let mut ir = base_program();
    // Drop the reset: the main op's non-masking destination read observes
    // a cell that holds no value yet.
    ir.events.remove(1);
    assert!(lints_of(&ir, &structural()).contains(&Lint::UseBeforeInit));
}

#[test]
fn pa0001_negative_masking_write_needs_no_init() {
    // A masking write IS the initialization; reset-then-compute is clean.
    assert_eq!(lints_of(&base_program(), &structural()), vec![]);
}

#[test]
fn pa0002_use_after_release_fires_on_released_write() {
    let mut ir = base_program();
    // Release %0 between the reset and the main op.
    ir.events.insert(2, Event::Release(C0));
    let lints = lints_of(&ir, &structural());
    assert!(lints.contains(&Lint::UseAfterRelease), "got {lints:?}");
}

#[test]
fn pa0002_negative_release_after_last_use_is_clean() {
    let mut ir = base_program();
    // Releasing after the last op is fine — but the output then reads a
    // non-live cell, so route the output to an input instead.
    ir.events.push(Event::Release(C0));
    ir.outputs = vec![(
        "f".to_string(),
        IrOutput::Input {
            index: 0,
            complemented: false,
        },
    )];
    assert_eq!(lints_of(&ir, &structural()), vec![]);
}

#[test]
fn pa0003_double_release_fires() {
    let mut ir = base_program();
    ir.events.push(Event::Release(C0));
    ir.events.push(Event::Release(C0));
    ir.outputs.clear();
    let lints = lints_of(&ir, &structural());
    assert_eq!(lints, vec![Lint::DoubleRelease]);
}

#[test]
fn pa0003_negative_single_release_is_clean() {
    let mut ir = base_program();
    ir.events.push(Event::Release(C0));
    ir.outputs.clear();
    assert_eq!(lints_of(&ir, &structural()), vec![]);
}

#[test]
fn pa0004_pinned_aliasing_fires_on_overlapping_lifetimes() {
    let mut ir = base_program();
    // A second virtual cell pinned to the same physical address, live
    // while %0 still is.
    ir.cells.push(cell(0));
    ir.ops.push(reset(C1));
    ir.events.push(Event::Request(C1));
    ir.events.push(Event::Op(2));
    let config = AnalysisConfig::for_level(OptLevel::O0);
    assert!(config.pinned_faithful);
    let lints = lints_of(&ir, &config);
    assert_eq!(lints, vec![Lint::PinnedAliasing]);
}

#[test]
fn pa0004_negative_aliasing_is_ignored_when_addresses_are_stale() {
    let mut ir = base_program();
    ir.cells.push(cell(0));
    ir.ops.push(reset(C1));
    ir.events.push(Event::Request(C1));
    ir.events.push(Event::Op(2));
    // `-O2` re-derives addresses at emission, so pinned overlap means
    // nothing there — and the structural config never checks it.
    assert!(
        !lints_of(&ir, &AnalysisConfig::for_level(OptLevel::O2)).contains(&Lint::PinnedAliasing)
    );
    assert_eq!(lints_of(&ir, &structural()), vec![]);
}

/// A program with the complement-materialization idiom: %0 holds node 3,
/// %1 caches ¬%0 (reset, then `⟨1 %0 0⟩` under node 3's provenance).
fn complement_program() -> IrProgram {
    let compl = IrOp {
        a: Value::Const(true),
        b: Value::Cell(C0),
        z: C1,
        rhs: Rhs::Node {
            node: NodeId::from_index(3),
            complemented: true,
        },
        node: Some(NodeId::from_index(3)),
    };
    let consume = IrOp {
        a: Value::Cell(C1),
        b: Value::Input(0),
        z: C0,
        rhs: Rhs::Node {
            node: NodeId::from_index(4),
            complemented: false,
        },
        node: Some(NodeId::from_index(4)),
    };
    IrProgram {
        num_inputs: 2,
        ops: vec![reset(C0), main_op(C0, 3), reset(C1), compl, consume],
        cells: vec![cell(0), cell(1)],
        events: vec![
            Event::Request(C0),
            Event::Op(0),
            Event::Op(1),
            Event::Request(C1),
            Event::Op(2),
            Event::Op(3),
            Event::Op(4),
        ],
        outputs: vec![("f".to_string(), IrOutput::Cell(C0))],
        mig_nodes: 2,
        allocator: AllocatorStrategy::Fifo,
    }
}

#[test]
fn pa0005_stale_complement_fires_on_recompute_before_use() {
    let mut ir = complement_program();
    // Recompute node 3 into %0 *between* materializing ¬%0 and consuming
    // it: the cached complement no longer matches.
    ir.events.insert(6, Event::Op(1));
    let lints = lints_of(&ir, &structural());
    assert!(lints.contains(&Lint::StaleComplement), "got {lints:?}");
}

#[test]
fn pa0005_negative_fresh_complement_is_clean() {
    assert_eq!(lints_of(&complement_program(), &structural()), vec![]);
}

#[test]
fn pa0006_dead_write_fires_in_optimized_streams() {
    let mut ir = base_program();
    // Nothing reads %0 once the output moves off it.
    ir.outputs = vec![("f".to_string(), IrOutput::Const(false))];
    let config = AnalysisConfig::for_level(OptLevel::O1);
    assert!(config.expect_optimized);
    let lints = lints_of(&ir, &config);
    assert_eq!(lints, vec![Lint::DeadWrite, Lint::DeadWrite]);
}

#[test]
fn pa0006_negative_unoptimized_streams_tolerate_dead_writes() {
    let mut ir = base_program();
    ir.outputs = vec![("f".to_string(), IrOutput::Const(false))];
    // `-O0` made no dead-write promise.
    assert_eq!(
        lints_of(&ir, &AnalysisConfig::for_level(OptLevel::O0)),
        vec![]
    );
}

#[test]
fn pa0007_release_never_requested_fires() {
    let mut ir = base_program();
    ir.events.insert(0, Event::Release(C0));
    let lints = lints_of(&ir, &structural());
    assert!(
        lints.contains(&Lint::ReleaseNeverRequested),
        "got {lints:?}"
    );
}

#[test]
fn pa0007_negative_release_of_requested_cell_is_clean() {
    let mut ir = base_program();
    ir.events.push(Event::Release(C0));
    ir.outputs.clear();
    assert!(!lints_of(&ir, &structural()).contains(&Lint::ReleaseNeverRequested));
}

#[test]
fn pa0008_stats_mismatch_fires_on_tampered_stats() {
    let mig = suite::build("adder4", Scale::Reduced)
        .or_else(|| suite::build(suite::ALL[0], Scale::Reduced))
        .expect("known circuit");
    let mut compilation = compile_full(&mig, CompilerOptions::new());
    compilation.compiled.stats.instructions += 1;
    compilation.compiled.stats.max_cell_writes += 1;
    let diags = analyze_artifact(&compilation, OptLevel::O0);
    let mismatches = diags
        .iter()
        .filter(|d| d.lint == Lint::StatsMismatch)
        .count();
    assert!(
        mismatches >= 2,
        "expected #I and wear mismatches, got {diags:?}"
    );
}

#[test]
fn pa0008_negative_honest_stats_certify() {
    let mig = suite::build(suite::ALL[0], Scale::Reduced).expect("known circuit");
    let compilation = compile_full(&mig, CompilerOptions::new().opt(OptLevel::O2));
    let certificate = certify(&compilation.ir).expect("clean stream certifies");
    assert_eq!(cross_check(&certificate, &compilation.compiled), vec![]);
}

/// The doctor's injection must be caught end to end through the full
/// artifact battery — the CI dry-run's in-process twin.
#[test]
fn doctored_write_after_release_fails_the_battery() {
    let mig = suite::build(suite::ALL[0], Scale::Reduced).expect("known circuit");
    let mut compilation = compile_full(&mig, CompilerOptions::new());
    assert!(analyze_artifact(&compilation, OptLevel::O0).is_empty());
    plim_analysis::doctor::inject_write_after_release(&mut compilation.ir).expect("stream has ops");
    let diags = analyze_artifact(&compilation, OptLevel::O0);
    assert!(
        diags.iter().any(|d| d.lint == Lint::UseAfterRelease),
        "expected PA0002, got {diags:?}"
    );
}

// ---------------------------------------------------------------------------
// Differential: the analyzer's reverse complement index against the
// all-cells staleness sweep it replaced.
// ---------------------------------------------------------------------------

/// The `PA0005` findings of the original analyzer, which on every
/// value-changing write swept *every* cell's cached-complement record for
/// ones built from the destination — O(ops × cells), kept here only as
/// the oracle. The cell-state tracking mirrors the analyzer's exactly.
/// Records are stored column-wise so the sweep vectorizes.
fn stale_complement_oracle(ir: &IrProgram) -> Vec<Diagnostic> {
    const NONE: u32 = u32::MAX;
    let cells = ir.cells.len();
    let mut live = vec![false; cells];
    // Per cell: the complement record's source (`NONE` without a record),
    // its node, and whether it went stale.
    let mut source = vec![NONE; cells];
    let mut node_of = vec![0u32; cells];
    let mut stale = vec![false; cells];
    let mut known: Vec<Option<bool>> = vec![None; cells];
    let mut diags = Vec::new();
    for (pos, &event) in ir.events.iter().enumerate() {
        match event {
            Event::Request(c) if c.index() < cells => {
                live[c.index()] = false;
                source[c.index()] = NONE;
                known[c.index()] = None;
            }
            Event::Release(c) if c.index() < cells => live[c.index()] = false,
            Event::Op(i) => {
                let Some(op) = ir.ops.get(i as usize) else {
                    continue;
                };
                for c in op.reads() {
                    let i = c.index();
                    if i < cells && live[i] && source[i] != NONE && stale[i] {
                        diags.push(Diagnostic {
                            lint: Lint::StaleComplement,
                            event: Some(pos),
                            cell: Some(c),
                            node: op.node,
                            message: format!(
                                "event {pos}: op reads %{} caching ¬%{}, \
                                 but %{} was recomputed since",
                                c.0, source[i], source[i]
                            ),
                        });
                    }
                }
                let z = op.z.index();
                if z >= cells {
                    continue;
                }
                live[z] = true;
                if matches!((op.a, op.b), (Value::Const(x), Value::Const(y)) if x == y) {
                    continue;
                }
                let was_zero = known[z] == Some(false);
                source[z] = NONE;
                if let (Value::Const(true), Value::Cell(s), Some(node)) = (op.a, op.b, op.node) {
                    if was_zero {
                        source[z] = s.0;
                        node_of[z] = node.index() as u32;
                        stale[z] = false;
                    }
                }
                known[z] = match (op.a, op.b) {
                    (Value::Const(x), Value::Const(y)) if x != y => Some(x),
                    _ => None,
                };
                if let Some(node) = op.node {
                    let (z32, node) = (op.z.0, node.index() as u32);
                    let own = std::mem::replace(&mut stale[z], false);
                    for ((stale, &s), &n) in stale.iter_mut().zip(&source).zip(&node_of) {
                        *stale |= (s == z32) & (n == node);
                    }
                    stale[z] = own;
                }
            }
            _ => {}
        }
    }
    diags
}

/// Asserts `analyze_events` returns exactly the diagnostic vector it would
/// with the oracle's `PA0005` findings, under `config`; returns the
/// number of `PA0005` findings.
fn assert_matches_oracle(ir: &IrProgram, config: &AnalysisConfig, context: &str) -> usize {
    let actual = analyze_events(ir, config);
    let oracle = stale_complement_oracle(ir);
    let stale = oracle.len();
    let mut expected: Vec<Diagnostic> = actual
        .iter()
        .filter(|d| d.lint != Lint::StaleComplement)
        .cloned()
        .chain(oracle)
        .collect();
    expected.sort_by_key(|d| (d.event.unwrap_or(usize::MAX), d.lint.ordinal()));
    assert_eq!(actual, expected, "{context} under {config:?}");
    stale
}

/// Every configuration a caller runs the analyzer under.
fn all_configs() -> [AnalysisConfig; 4] {
    [
        structural(),
        AnalysisConfig::for_level(OptLevel::O0),
        AnalysisConfig::for_level(OptLevel::O1),
        AnalysisConfig::for_level(OptLevel::O2),
    ]
}

#[test]
fn analyzer_matches_the_sweep_oracle_on_the_reduced_suite() {
    for name in suite::ALL {
        let mig = suite::build(name, Scale::Reduced).expect("known circuit");
        let rewritten = mig::rewrite::rewrite(&mig, 2);
        for opt in LEVELS {
            let compilation = compile_full(&rewritten, CompilerOptions::new().opt(opt));
            for config in [structural(), AnalysisConfig::for_level(opt)] {
                assert_matches_oracle(&compilation.ir, &config, &format!("{name} {opt:?}"));
            }
        }
    }
}

#[test]
fn analyzer_matches_the_sweep_oracle_at_full_scale() {
    for name in ["div", "mem_ctrl"] {
        let mig = suite::build(name, Scale::Full).expect("known circuit");
        let ir = plim_compiler::ir::lower(&mig, CompilerOptions::new());
        assert_matches_oracle(&ir, &structural(), name);
    }
}

/// One step of a hand-written stream.
enum Step {
    Request(CellId),
    Release(CellId),
    Op(IrOp),
}

/// Builds a program over `cells` cells (pinned to distinct addresses) from
/// `steps`, numbering ops in stream order.
fn stream(cells: u32, steps: Vec<Step>) -> IrProgram {
    let mut ops = Vec::new();
    let mut events = Vec::new();
    for step in steps {
        events.push(match step {
            Step::Request(c) => Event::Request(c),
            Step::Release(c) => Event::Release(c),
            Step::Op(op) => {
                ops.push(op);
                Event::Op(ops.len() as u32 - 1)
            }
        });
    }
    IrProgram {
        num_inputs: 2,
        ops,
        cells: (0..cells).map(cell).collect(),
        events,
        outputs: Vec::new(),
        mig_nodes: 0,
        allocator: AllocatorStrategy::Fifo,
    }
}

/// `z ← ⟨1 s̄ z⟩`: materializes ¬`source` into a reset `z` for `node`.
fn complement_op(source: CellId, z: CellId, node: u32) -> Step {
    Step::Op(IrOp {
        a: Value::Const(true),
        b: Value::Cell(source),
        z,
        rhs: Rhs::Node {
            node: NodeId::from_index(node as usize),
            complemented: true,
        },
        node: Some(NodeId::from_index(node as usize)),
    })
}

/// `sink ← ⟨c i2̄ sink⟩` under node 9: reads `c` (and the sink).
fn read(c: CellId, sink: CellId) -> Step {
    Step::Op(IrOp {
        a: Value::Cell(c),
        b: Value::Input(1),
        z: sink,
        rhs: Rhs::Node {
            node: NodeId::from_index(9),
            complemented: false,
        },
        node: Some(NodeId::from_index(9)),
    })
}

/// Requests `c`, resets it and computes `node` into it.
fn define(c: CellId, node: u32) -> [Step; 3] {
    [
        Step::Request(c),
        Step::Op(reset(c)),
        Step::Op(main_op(c, node)),
    ]
}

/// Requests `c` and resets it.
fn fresh(c: CellId) -> [Step; 2] {
    [Step::Request(c), Step::Op(reset(c))]
}

/// Checks a doctored stream against the oracle under every configuration,
/// returning its `PA0005` count (equal under all of them).
fn doctored_stale_count(ir: &IrProgram, context: &str) -> usize {
    let counts = all_configs().map(|config| assert_matches_oracle(ir, &config, context));
    assert!(
        counts.iter().all(|&n| n == counts[0]),
        "{context}: {counts:?}"
    );
    let reported = lints_of(ir, &structural())
        .into_iter()
        .filter(|&l| l == Lint::StaleComplement)
        .count();
    assert_eq!(reported, counts[0], "{context}");
    counts[0]
}

const C2: CellId = CellId(2);
const C3: CellId = CellId(3);
const SINK: CellId = CellId(4);

#[test]
fn oracle_agrees_on_several_complements_of_one_source() {
    let mut steps: Vec<Step> = fresh(SINK).into_iter().chain(define(C0, 3)).collect();
    for (c, node) in [(C1, 3), (C2, 3), (C3, 5)] {
        steps.extend(fresh(c));
        steps.push(complement_op(C0, c, node));
    }
    // The same complement rebuilt into %1: two index entries, one record.
    steps.push(Step::Op(reset(C1)));
    steps.push(complement_op(C0, C1, 3));
    steps.push(Step::Op(main_op(C0, 3)));
    steps.extend([read(C1, SINK), read(C2, SINK), read(C3, SINK)]);
    // ¬N3 in %1 and %2 went stale, ¬N5 in %3 did not.
    assert_eq!(doctored_stale_count(&stream(5, steps), "several"), 2);
}

#[test]
fn oracle_agrees_when_the_source_is_requested_again() {
    let mut steps: Vec<Step> = fresh(SINK).into_iter().chain(define(C0, 3)).collect();
    steps.extend(fresh(C1));
    steps.push(complement_op(C0, C1, 3));
    steps.push(Step::Release(C0));
    steps.extend(define(C0, 3));
    steps.push(read(C1, SINK));
    assert_eq!(doctored_stale_count(&stream(5, steps), "source"), 1);
}

#[test]
fn oracle_agrees_when_a_complement_cell_is_rebound() {
    let mut steps: Vec<Step> = fresh(SINK)
        .into_iter()
        .chain(define(C0, 3))
        .chain(define(C2, 7))
        .chain(fresh(C1))
        .collect();
    steps.push(complement_op(C0, C1, 3));
    steps.push(Step::Release(C1));
    steps.extend(fresh(C1));
    steps.push(complement_op(C2, C1, 7));
    // %1 no longer caches ¬%0: recomputing N3 leaves it fresh…
    steps.push(Step::Op(main_op(C0, 3)));
    steps.push(read(C1, SINK));
    // …while recomputing N7 into its new source does not.
    steps.push(Step::Op(main_op(C2, 7)));
    steps.push(read(C1, SINK));
    let ir = stream(5, steps);
    assert_eq!(doctored_stale_count(&ir, "rebound"), 1);
    let stale = analyze_events(&ir, &structural())
        .into_iter()
        .find(|d| d.lint == Lint::StaleComplement)
        .expect("one finding");
    assert_eq!(stale.event, Some(ir.events.len() - 1));
}

#[test]
fn oracle_agrees_on_recomputes_with_the_same_and_another_node() {
    let mut steps: Vec<Step> = fresh(SINK).into_iter().chain(define(C0, 3)).collect();
    steps.extend(fresh(C1));
    steps.push(complement_op(C0, C1, 3));
    // Another node's value overwrites %0: not a recompute of N3.
    steps.push(Step::Op(main_op(C0, 4)));
    steps.push(read(C1, SINK));
    steps.push(Step::Op(main_op(C0, 3)));
    steps.push(read(C1, SINK));
    steps.push(read(C1, SINK));
    assert_eq!(doctored_stale_count(&stream(5, steps), "recompute"), 2);
}

#[test]
fn oracle_agrees_on_unknown_and_self_sources_without_panicking() {
    const UNKNOWN: CellId = CellId(99);
    let mut steps: Vec<Step> = fresh(SINK).into_iter().chain(fresh(C1)).collect();
    steps.push(complement_op(UNKNOWN, C1, 3));
    steps.push(Step::Request(UNKNOWN));
    steps.push(Step::Op(main_op(UNKNOWN, 3)));
    steps.push(read(C1, SINK));
    steps.push(Step::Release(UNKNOWN));
    // %0 caching its own complement: the write replaces the record.
    steps.extend(fresh(C0));
    steps.push(complement_op(C0, C0, 3));
    steps.push(Step::Op(main_op(C0, 3)));
    steps.push(read(C0, SINK));
    let ir = stream(5, steps);
    assert_eq!(doctored_stale_count(&ir, "unknown"), 0);
    assert!(lints_of(&ir, &structural()).contains(&Lint::UseBeforeInit));
}
