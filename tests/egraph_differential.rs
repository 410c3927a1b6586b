//! Differential properties of the equality-saturation engine against the
//! arena and rebuild rewriters: functional equivalence (checked both at
//! the graph level and through the PLiM machine simulator), compiled cost
//! never worse than the arena result, and byte-identical determinism for
//! a fixed seed and budget.
//!
//! The fingerprint goldens at the end pin the engine's output byte for
//! byte: every objective's extraction after saturation, the saturation
//! counters (including the deterministic work counter), and the chosen
//! graph with its `-O2` listing, for each reduced suite circuit at the
//! default effort — plus an ignored full-scale variant of saturation and
//! extraction that CI runs in release.

use proptest::prelude::*;

use mig::equiv::check_equivalence;
use mig::rewrite::{rewrite, rewrite_rebuild};
use mig::Mig;
use plim_benchmarks::random::{random_logic, RandomLogicSpec};
use plim_benchmarks::suite::{self, Scale};
use plim_compiler::verify::verify;
use plim_compiler::{compile, CompilerOptions, OptLevel};
use plim_egraph::{
    extract, optimize, optimize_with_stats, saturate, seed, EgraphBudget, ExtractObjective,
    StopReason,
};

/// The options every compiled-cost comparison here runs under: the full
/// pass pipeline for the default RM3 target, exactly what the e-graph's
/// compiling cost function judges candidates with in `plimc bench`.
fn o2() -> CompilerOptions {
    CompilerOptions::new().opt(OptLevel::O2)
}

/// Lexicographic compiled cost (#I, #R, max cell writes) of `mig`.
fn compiled_cost(mig: &Mig) -> (u64, u64, u64) {
    let compiled = compile(mig, o2());
    (
        compiled.stats.instructions as u64,
        compiled.stats.rams as u64,
        compiled.stats.max_cell_writes as u64,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// On random MIGs the e-graph engine preserves the function and its
    /// compiled cost is admissible: no axis worse than the arena result.
    #[test]
    fn egraph_agrees_with_arena_and_rebuild_on_random_logic(
        seed: u64,
        inputs in 2usize..7,
        outputs in 1usize..4,
        nodes in 8usize..60,
        effort in 1usize..3,
    ) {
        let spec = RandomLogicSpec::new(inputs, outputs, nodes, seed);
        let raw = random_logic(&spec);
        let arena = rewrite(&raw, effort);
        let rebuild = rewrite_rebuild(&raw, effort);
        let chosen = optimize(&raw, &arena, effort, o2());

        prop_assert!(check_equivalence(&raw, &chosen, 16, seed).unwrap().holds(),
            "e-graph extraction changed the function");
        prop_assert!(check_equivalence(&rebuild, &chosen, 16, seed).unwrap().holds(),
            "engines disagree");

        let base = compiled_cost(&arena);
        let ours = compiled_cost(&chosen);
        prop_assert!(ours.0 <= base.0, "#I regressed: {ours:?} vs {base:?}");
        prop_assert!(ours.1 <= base.1, "#R regressed: {ours:?} vs {base:?}");
        prop_assert!(ours.2 <= base.2, "max writes regressed: {ours:?} vs {base:?}");
    }
}

/// Every reduced-suite circuit: equivalent to the source, admissible
/// against arena on all three cost axes, never more majority nodes, and
/// the compiled artifact simulates correctly on the machine model.
#[test]
fn egraph_is_equivalent_and_admissible_on_the_reduced_suite() {
    for &name in suite::ALL.iter() {
        let raw = suite::build(name, Scale::Reduced).expect("known benchmark");
        let arena = rewrite(&raw, 2);
        let (chosen, stats) = optimize_with_stats(&raw, &arena, 2, o2());

        assert!(
            check_equivalence(&raw, &chosen, 8, 0xDAC2016)
                .unwrap()
                .holds(),
            "{name}: function changed"
        );
        assert!(
            chosen.num_majority_nodes() <= arena.num_majority_nodes(),
            "{name}: more nodes than arena ({} > {})",
            chosen.num_majority_nodes(),
            arena.num_majority_nodes()
        );
        let base = compiled_cost(&arena);
        let ours = compiled_cost(&chosen);
        assert!(
            ours <= base,
            "{name}: compiled cost regressed {ours:?} vs {base:?}"
        );

        // The machine-level anchor: the compiled RM3 program for the
        // chosen graph must agree with direct MIG simulation.
        let compilation = plim_compiler::compile_full(&chosen, o2());
        verify(&chosen, &compilation.compiled, 4, 0xDAC2016)
            .unwrap_or_else(|e| panic!("{name}: machine simulation diverged: {e}"));

        // Saturation always reports a defined stop reason and real work.
        assert!(!stats.stop.name().is_empty(), "{name}");
        assert!(stats.final_enodes >= stats.initial_enodes, "{name}");
    }
}

/// Same seed, same budget ⇒ byte-identical extraction, across repeated
/// runs and across the stats/non-stats entry points.
#[test]
fn saturation_budget_determinism_is_byte_exact() {
    let raw = suite::build("router", Scale::Reduced).expect("known benchmark");
    let arena = rewrite(&raw, 2);
    let (first, first_stats) = optimize_with_stats(&raw, &arena, 2, o2());
    let (second, second_stats) = optimize_with_stats(&raw, &arena, 2, o2());
    let third = optimize(&raw, &arena, 2, o2());
    assert_eq!(
        mig::io::write_mig(&first),
        mig::io::write_mig(&second),
        "two runs under one budget diverged"
    );
    assert_eq!(mig::io::write_mig(&first), mig::io::write_mig(&third));
    assert_eq!(first_stats.final_enodes, second_stats.final_enodes);
    assert_eq!(first_stats.iterations, second_stats.iterations);
    assert_eq!(first_stats.stop, second_stats.stop);
}

/// Tight budgets stop saturation early but never change the safety
/// story: the result is still equivalent and admissible.
#[test]
fn starved_budgets_still_produce_admissible_results() {
    let raw = suite::build("dec", Scale::Reduced).expect("known benchmark");
    let arena = rewrite(&raw, 2);
    let budget = EgraphBudget {
        max_enodes: 64,
        max_iterations: 1,
        max_work: 2_000,
    };
    let mut g = plim_egraph::EGraph::from_mig(&arena);
    let (_, stop) = plim_egraph::saturate(&mut g, &budget);
    assert!(
        matches!(
            stop,
            StopReason::EnodeLimit | StopReason::WorkLimit | StopReason::IterationLimit
        ),
        "a starved budget must bind: {stop:?}"
    );
    // The full engine under effort 1 (the smallest budget) keeps every
    // guarantee.
    let chosen = optimize(&raw, &arena, 1, o2());
    assert!(check_equivalence(&raw, &chosen, 8, 7).unwrap().holds());
    assert!(compiled_cost(&chosen) <= compiled_cost(&arena));
}

/// FNV-1a (64-bit) of `bytes`: a stable fingerprint for the goldens below.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// The rewrite effort `plimc` defaults to, and the goldens' budget.
const GOLDEN_EFFORT: usize = 4;

/// Saturation counters of one run: initial e-nodes, final e-nodes, live
/// classes, iterations, stop reason, work.
type Saturation = (usize, usize, usize, usize, &'static str, u64);

/// One saturation golden row: circuit, the `write_mig` fingerprint of the
/// extraction under each [`ExtractObjective::ALL`] objective (0 when
/// extraction fails), and the saturation counters.
type SaturationRow = (&'static str, [u64; 3], Saturation);

/// One chosen-graph golden row: circuit, then the fingerprints of the
/// graph `optimize_with_stats` chose and of its `-O2` RM3 listing.
type ChosenRow = (&'static str, u64, u64);

/// The circuit as `plimc` sees a `plimc dump` file (round-tripped through
/// the MIG text format) and its arena baseline at the golden effort.
fn golden_inputs(name: &str, scale: Scale) -> (Mig, Mig) {
    let built = suite::build(name, scale).expect("known benchmark");
    let raw = mig::io::parse_mig(&mig::io::write_mig(&built)).expect("dump parses");
    let baseline = rewrite(&raw, GOLDEN_EFFORT);
    (raw, baseline)
}

/// Seeds and saturates an e-graph exactly as `optimize_with_stats` does,
/// then extracts one candidate per objective.
fn saturation_row(name: &'static str, raw: &Mig, baseline: &Mig) -> SaturationRow {
    let mut g = seed(raw, baseline);
    let initial = g.num_enodes();
    let budget = EgraphBudget::for_effort(GOLDEN_EFFORT).scaled_to(initial);
    let (iterations, stop) = saturate(&mut g, &budget);
    let extractions = ExtractObjective::ALL.map(|objective| {
        extract(&g, objective).map_or(0, |m| fnv1a(mig::io::write_mig(&m).as_bytes()))
    });
    let counters = (
        initial,
        g.num_enodes(),
        g.num_classes(),
        iterations,
        stop.name(),
        g.work(),
    );
    (name, extractions, counters)
}

/// Asserts `actual` equals the committed `golden` table; on a mismatch the
/// message lists every differing row and then the whole actual table in
/// source form (`render` prints one row), so a deliberate output change
/// can be re-blessed by pasting.
fn assert_golden<T: PartialEq + std::fmt::Debug>(
    golden: &[T],
    actual: &[T],
    render: impl Fn(&T) -> String,
) {
    if golden == actual {
        return;
    }
    let mut message = String::from("e-graph output diverged from the committed fingerprints:\n");
    for (index, row) in actual.iter().enumerate() {
        if golden.get(index) != Some(row) {
            message += &format!("  expected {:?}\n  actual   {row:?}\n", golden.get(index));
        }
    }
    message += "actual table:\n";
    for row in actual {
        message += &format!("    {},\n", render(row));
    }
    panic!("{message}");
}

fn render_saturation(row: &SaturationRow) -> String {
    let (name, [nodes, rm3, depth], (initial, last, classes, iterations, stop, work)) = row;
    format!(
        "({name:?}, [{nodes:#018x}, {rm3:#018x}, {depth:#018x}], \
         ({initial}, {last}, {classes}, {iterations}, {stop:?}, {work}))"
    )
}

fn render_chosen(row: &ChosenRow) -> String {
    let (name, chosen, listing) = row;
    format!("({name:?}, {chosen:#018x}, {listing:#018x})")
}

/// Byte-identity goldens of the e-graph engine on the reduced suite:
/// saturation counters, every objective's extraction, and the chosen graph
/// with its `-O2` listing. Any change to union order, class node-list
/// order, the work counter, or extraction tie-breaking changes a row.
#[test]
fn egraph_output_matches_the_fingerprint_goldens() {
    let mut saturation = Vec::new();
    let mut chosen_rows = Vec::new();
    for &name in suite::ALL.iter() {
        let (raw, baseline) = golden_inputs(name, Scale::Reduced);
        let row = saturation_row(name, &raw, &baseline);
        let (chosen, stats) = optimize_with_stats(&raw, &baseline, GOLDEN_EFFORT, o2());
        let (initial, last, classes, iterations, stop, _) = row.2;
        assert_eq!(
            (initial, last, classes, iterations, stop),
            (
                stats.initial_enodes,
                stats.final_enodes,
                stats.classes,
                stats.iterations,
                stats.stop.name()
            ),
            "{name}: the mirrored saturation drifted from optimize_with_stats"
        );
        saturation.push(row);
        chosen_rows.push((
            name,
            fnv1a(mig::io::write_mig(&chosen).as_bytes()),
            fnv1a(compile(&chosen, o2()).program.to_string().as_bytes()),
        ));
    }
    assert_golden(REDUCED_SATURATION, &saturation, render_saturation);
    assert_golden(REDUCED_CHOSEN, &chosen_rows, render_chosen);
}

/// The full-scale variant: saturation and extraction only (scoring would
/// compile every candidate at `-O2`, seconds per large circuit). Ignored
/// by default; CI runs it in release with
/// `cargo test --release -p plim-egraph --test egraph_differential -- --ignored`.
#[test]
#[ignore = "full-scale saturation; run in release with --ignored"]
fn full_scale_saturation_matches_the_fingerprint_goldens() {
    let actual: Vec<SaturationRow> = suite::ALL
        .iter()
        .map(|&name| {
            let (raw, baseline) = golden_inputs(name, Scale::Full);
            saturation_row(name, &raw, &baseline)
        })
        .collect();
    assert_golden(FULL_SATURATION, &actual, render_saturation);
}

#[rustfmt::skip]
const REDUCED_SATURATION: &[SaturationRow] = &[
    ("adder", [0x5de210b35834f52b, 0xf02d03b03d6fe9ff, 0x8bb593519db7961a], (69, 3078, 1159, 2, "enodes", 15177)),
    ("bar", [0xf7a57ce4311e2fa4, 0x7e072204b6c21422, 0xf7a57ce4311e2fa4], (213, 7393, 2825, 2, "enodes", 35591)),
    ("div", [0x7f043e69b42979df, 0x737ebb72dbb49e67, 0x1d9b8202b325975d], (335, 10999, 4366, 2, "enodes", 81119)),
    ("log2", [0x97026f3518c8aa2a, 0x309a4cead94b8fc2, 0x64a32f3b4787f8ed], (233, 7967, 3097, 2, "enodes", 48264)),
    ("max", [0x9025a303ea07585c, 0x4e4a7504eedb5e38, 0xa36fcec22298fe2b], (225, 7719, 3002, 2, "enodes", 39761)),
    ("multiplier", [0xbbdbd3ef79576b69, 0x29887b511722d3f1, 0xc8be3a3f24d8beaa], (330, 10909, 4356, 2, "enodes", 56994)),
    ("sin", [0x0000000000000000, 0x0000000000000000, 0x10368014aa35f42e], (958, 29784, 11873, 2, "enodes", 160160)),
    ("sqrt", [0xd818718030e887a0, 0xdca50464f1212c2d, 0xae83d85e5e6245a0], (311, 8418, 3096, 2, "enodes", 129319)),
    ("square", [0x414fb3bb400bf7d5, 0x448e2962ca36c1ae, 0x779a67a2cc734e01], (394, 12834, 5097, 2, "enodes", 67796)),
    ("cavlc", [0xaaeef02a3079b822, 0xffc80146ba6b4d68, 0x2d9f4458710fc28d], (41, 2221, 867, 2, "enodes", 12776)),
    ("ctrl", [0xf5165b05a1771973, 0x0849fb1ad0223740, 0xf5165b05a1771973], (26, 1777, 580, 4, "enodes", 17150)),
    ("dec", [0x9fa66580ea0b6616, 0x1164573b7fa010ec, 0xaa4ab0e74932668c], (33, 1997, 578, 3, "enodes", 15259)),
    ("i2c", [0xa590aada3867cff9, 0x217bd2e4cd554094, 0x2611b258bdb5139e], (265, 8974, 3519, 3, "enodes", 48693)),
    ("int2float", [0x146190875ba933e7, 0x3a3a8d6bd99d928e, 0x5214bc9de9bb6d69], (147, 5428, 2050, 2, "enodes", 32649)),
    ("mem_ctrl", [0xcc3d596e708ad638, 0xb5fcb9c927662c1a, 0xa26c3af8b33e20e0], (3279, 59981, 26198, 2, "enodes", 400270)),
    ("priority", [0x5b78716fcac62108, 0x0e7bc09b16491796, 0x3a611344e930bddb], (65, 2921, 1057, 2, "enodes", 18465)),
    ("router", [0x3782bbbdbb74006f, 0x3782bbbdbb74006f, 0x3782bbbdbb74006f], (78, 2932, 790, 4, "enodes", 29565)),
    ("voter", [0x7a8f38a56adf8e0e, 0x2567bcfaae000500, 0x685478d981e61ea6], (287, 9615, 3794, 2, "enodes", 50764)),
];

#[rustfmt::skip]
const REDUCED_CHOSEN: &[ChosenRow] = &[
    ("adder", 0x7b58fb9aeb591577, 0xc810a22542a67f91),
    ("bar", 0x12c0d9d4266a02e6, 0x3d68a39ea51df147),
    ("div", 0x0fffe385ccb94cc7, 0x4cf02c65c35112ba),
    ("log2", 0x540fd104bf0d7c1f, 0x7e8d08f38740cbcc),
    ("max", 0x99a2cfe73ab8dfc3, 0xd14be9bb69330203),
    ("multiplier", 0x9ef9f33bac910ce0, 0x7ad7138b8688a14d),
    ("sin", 0x469a794a7f5c7e75, 0xfc3ee671ac106edd),
    ("sqrt", 0x68def18f3c64e0a8, 0x56877817a0d360d8),
    ("square", 0x9ebe240f4b5d244c, 0x2b47c976851f914b),
    ("cavlc", 0xfb8b70868e24b6af, 0xc47ba5520e523655),
    ("ctrl", 0xfa2a938a83d13417, 0x4a7eaffea9b380b7),
    ("dec", 0x2904fe6a7ad870c6, 0x3572052d0ec31057),
    ("i2c", 0xd1491d1df2a099c0, 0x3666a1a8fe0e1726),
    ("int2float", 0x03889fe1d02662c9, 0x29dbc11e241d3b63),
    ("mem_ctrl", 0x35d7d3d8f8c6a228, 0xb5c938dd89876617),
    ("priority", 0x51f63015bafe77ec, 0x0582da3af876eb41),
    ("router", 0xbeee0682678d34e3, 0x653387ffeb9a202e),
    ("voter", 0xd8e3d1d1bd09ad6b, 0xc01dc445d4491abf),
];

#[rustfmt::skip]
const FULL_SATURATION: &[SaturationRow] = &[
    ("adder", [0x35b594fdfd0dd99e, 0x8a38d08eac0c08d2, 0x86b4293d801d0cf7], (1149, 35495, 13633, 2, "enodes", 177923)),
    ("bar", [0x4d394061fa494238, 0xf2bf25a830b6ccad, 0x4d394061fa494238], (2824, 60006, 23955, 2, "enodes", 298698)),
    ("div", [0x0000000000000000, 0x0000000000000000, 0xcda8908924647ee5], (40640, 60002, 48562, 1, "enodes", 214165)),
    ("log2", [0xe2cf27dbb76b6312, 0xa6e83416deb3ca98, 0xf63354417d0bdfaa], (585, 18488, 7286, 2, "enodes", 111456)),
    ("max", [0x44dc41b0ba91fb1a, 0x5dbf6bee10444dea, 0xf34eb69a703f8766], (3585, 60009, 25347, 2, "enodes", 310806)),
    ("multiplier", [0x0000000000000000, 0x0000000000000000, 0x10a1867f20f11316], (32193, 60005, 43607, 1, "enodes", 224045)),
    ("sin", [0x0000000000000000, 0x0000000000000000, 0x553aa50e76f8784f], (11014, 60008, 31131, 1, "enodes", 260987)),
    ("sqrt", [0x0000000000000000, 0x0000000000000000, 0xa06260a9fbd97af0], (27459, 59905, 40547, 1, "enodes", 303388)),
    ("square", [0x0000000000000000, 0x0000000000000000, 0xb282d286bde4de9a], (30046, 60007, 42339, 1, "enodes", 227701)),
    ("cavlc", [0x0fcfeb8da139f566, 0x88e8db06de78a31e, 0xf6ed3f4bb6aac41a], (756, 23674, 9412, 2, "enodes", 141583)),
    ("ctrl", [0x8bb18e419298ed4f, 0xa7cab46a4bb3be95, 0x4df40f863e5d45df], (64, 2900, 1070, 2, "enodes", 17106)),
    ("dec", [0x9d36c2012441bab5, 0x65fc7931e829b9d3, 0x8e52e8f68526006c], (517, 16526, 4434, 2, "enodes", 104632)),
    ("i2c", [0x9c8458262d8648cc, 0x306a2b7edef3777c, 0x5e3d77271ed77e6a], (1106, 34156, 14487, 2, "enodes", 198994)),
    ("int2float", [0x146190875ba933e7, 0x3a3a8d6bd99d928e, 0x5214bc9de9bb6d69], (147, 5428, 2050, 2, "enodes", 32649)),
    ("mem_ctrl", [0x20bc5f91a50ed630, 0x33c9e2bd1f248908, 0x0a451f8d8dfe4962], (33080, 59968, 44883, 1, "enodes", 386621)),
    ("priority", [0x8d7c90bd057a1927, 0x59275912a94b97c3, 0xb369df679986facc], (616, 19368, 7487, 2, "enodes", 118748)),
    ("router", [0xcd1e954a4e2bc477, 0x061ea785e84869e2, 0x410e1bd7b54aa194], (138, 5102, 2010, 2, "enodes", 27580)),
    ("voter", [0xed9fcd4207bf1c2e, 0xbdbf8ef4b6267fab, 0xdff07f8b8528d098], (10879, 60001, 31019, 1, "enodes", 261747)),
];
