//! RM3 through the backend trait is the pre-refactor compiler, byte for
//! byte.
//!
//! The emit layer was redesigned around the `Backend` trait; this suite is
//! the refactor's no-regression proof. The committed goldens in
//! `tests/golden/` were captured from the single-step translator before
//! the IR split and have pinned `-O0` output ever since — here they pin
//! the trait path too — and a full schedule × allocator × opt-level matrix
//! checks the trait emission against the direct compiler on every
//! combination.
//!
//! The fingerprint goldens at the end pin the optimizing levels the same
//! way on every target: FNV-1a hashes of the `-O1`/`-O2` IR dump and
//! listing of each reduced suite circuit, plus an ignored full-scale `rm3`
//! `-O2` variant that CI runs in release.

use plim_backends::install;
use plim_benchmarks::suite::{self, Scale};
use plim_compiler::{
    compile_full, AllocatorStrategy, CompilerOptions, OperandSelection, OptLevel, ScheduleOrder,
    Target,
};

/// `Target::RM3` emission reproduces the committed pre-refactor goldens.
#[test]
fn rm3_through_the_trait_matches_the_pre_refactor_goldens() {
    let golden = concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/golden");
    for circuit in ["dec", "int2float"] {
        let mig = suite::build(circuit, Scale::Reduced).expect("suite circuit");
        let optimized = mig::rewrite::rewrite(&mig, 4);
        let compilation = compile_full(&optimized, CompilerOptions::new());
        let artifact = Target::RM3.backend().emit(&compilation.ir);
        let listing = std::fs::read_to_string(format!("{golden}/{circuit}.O0.listing"))
            .expect("committed golden listing");
        assert_eq!(
            artifact.listing(),
            listing,
            "{circuit}: trait emission diverged from the pre-refactor compiler"
        );
    }
}

/// Trait emission equals direct compilation at every schedule × allocator
/// × `-O` level — same listing, same stats, registered backends present.
#[test]
fn rm3_trait_emission_equals_direct_compilation_on_the_full_matrix() {
    install(); // extra registered backends must not disturb the RM3 path
    for circuit in ["ctrl", "dec", "router"] {
        let mig = suite::build(circuit, Scale::Reduced).expect("suite circuit");
        let optimized = mig::rewrite::rewrite(&mig, 2);
        for schedule in ScheduleOrder::ALL {
            for allocator in AllocatorStrategy::ALL {
                for opt in [OptLevel::O0, OptLevel::O1, OptLevel::O2] {
                    let options = CompilerOptions::new()
                        .schedule(schedule)
                        .operands(OperandSelection::Smart)
                        .allocator(allocator)
                        .opt(opt);
                    let compilation = compile_full(&optimized, options);
                    let artifact = options.target.backend().emit(&compilation.ir);
                    let context = format!("{circuit} @ {}", options.spec());
                    assert_eq!(
                        artifact.listing(),
                        compilation.compiled.program.to_string(),
                        "{context}: trait listing diverged"
                    );
                    let cost = artifact.cost();
                    let stats = &compilation.compiled.stats;
                    assert_eq!(cost.instructions, stats.instructions, "{context}");
                    assert_eq!(cost.footprint, stats.rams, "{context}");
                    assert_eq!(cost.wear, stats.max_cell_writes, "{context}");
                }
            }
        }
    }
}

/// At `-O0` no pass consults the cost model, so the target cannot perturb
/// lowering: an `ambit`-targeted compilation carries the exact IR — and
/// therefore the exact RM3 reference program — of the default one. (At
/// `-O1`+ the pipeline deliberately scores edits with the active backend's
/// model, so divergence there is a feature, not a bug.)
#[test]
fn target_choice_does_not_perturb_lowering() {
    install();
    let ambit = Target::parse("ambit").expect("registered");
    let mig = suite::build("int2float", Scale::Reduced).expect("suite circuit");
    let rm3 = compile_full(&mig, CompilerOptions::new());
    let other = compile_full(&mig, CompilerOptions::new().target(ambit));
    assert_eq!(
        rm3.ir.dump(),
        other.ir.dump(),
        "target choice leaked into lowering"
    );
    assert_eq!(
        rm3.compiled.program.to_string(),
        other.compiled.program.to_string()
    );
}

/// FNV-1a (64-bit) of `bytes`: a stable fingerprint for the goldens below.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// One golden row: circuit, `-O` level, target, then the fingerprints of
/// the optimized IR's `dump()` and of the target's emitted listing.
type Fingerprint = (&'static str, &'static str, &'static str, u64, u64);

/// Compiles every `circuits` × `levels` × `targets` combination the way
/// `plimc` compiles a `plimc dump` file (the circuit round-tripped through
/// the MIG text format, arena rewrite at effort 4, default options
/// otherwise) and returns the table rows, in iteration order.
fn fingerprint_table(
    scale: Scale,
    circuits: &[&'static str],
    levels: &[OptLevel],
    targets: &[&'static str],
) -> Vec<Fingerprint> {
    install();
    let mut rows = Vec::new();
    for &circuit in circuits {
        let built = suite::build(circuit, scale).expect("suite circuit");
        let mig = mig::io::parse_mig(&mig::io::write_mig(&built)).expect("dump parses");
        let optimized = mig::rewrite::rewrite(&mig, 4);
        for &opt in levels {
            for &target in targets {
                let target_id = Target::parse(target).expect("registered target");
                let options = CompilerOptions::new().opt(opt).target(target_id);
                let compilation = compile_full(&optimized, options);
                let listing = target_id.backend().emit(&compilation.ir).listing();
                rows.push((
                    circuit,
                    opt.name(),
                    target,
                    fnv1a(compilation.ir.dump().as_bytes()),
                    fnv1a(listing.as_bytes()),
                ));
            }
        }
    }
    rows
}

/// Asserts `actual` equals the committed `golden` table; on a mismatch the
/// message lists every differing row and then the whole actual table, in
/// source form, so a deliberate output change can be re-blessed by pasting.
fn assert_fingerprints(golden: &[Fingerprint], actual: &[Fingerprint]) {
    if golden == actual {
        return;
    }
    let mut message = String::from("optimized output diverged from the committed fingerprints:\n");
    for (index, row) in actual.iter().enumerate() {
        if golden.get(index) != Some(row) {
            message += &format!("  expected {:?}\n  actual   {row:?}\n", golden.get(index));
        }
    }
    message += "actual table:\n";
    for (circuit, opt, target, ir, listing) in actual {
        message +=
            &format!("    ({circuit:?}, {opt:?}, {target:?}, {ir:#018x}, {listing:#018x}),\n");
    }
    panic!("{message}");
}

/// Byte-identity goldens of the optimizing pipeline: the `-O1`/`-O2` IR
/// dump and emitted listing of every reduced suite circuit on every
/// registered target. Any change to a pass decision — which candidate is
/// tried, in which order, or how it is scored — changes a fingerprint.
#[test]
fn optimized_output_matches_the_fingerprint_goldens() {
    let actual = fingerprint_table(
        Scale::Reduced,
        &suite::ALL,
        &[OptLevel::O1, OptLevel::O2],
        &["rm3", "ambit", "magic"],
    );
    assert_fingerprints(REDUCED_FINGERPRINTS, &actual);
}

/// The full-scale `rm3` `-O2` variant of the fingerprint goldens. Ignored
/// by default (minutes in a debug build); CI runs it in release with
/// `cargo test --release -p plim-backends --test backend_differential -- --ignored`.
#[test]
#[ignore = "full-scale -O2 compiles; run in release with --ignored"]
fn full_scale_o2_output_matches_the_fingerprint_goldens() {
    let actual = fingerprint_table(Scale::Full, &suite::ALL, &[OptLevel::O2], &["rm3"]);
    assert_fingerprints(FULL_FINGERPRINTS, &actual);
}

/// Captured from the compiler before forwarding became incremental.
#[rustfmt::skip]
const REDUCED_FINGERPRINTS: &[Fingerprint] = &[
    ("adder", "o1", "rm3", 0x2da8d8c2f8023188, 0xc810a22542a67f91),
    ("adder", "o1", "ambit", 0x2da8d8c2f8023188, 0x90315ee361c453ce),
    ("adder", "o1", "magic", 0x2da8d8c2f8023188, 0xe74d361c72e0cdbb),
    ("adder", "o2", "rm3", 0x2da8d8c2f8023188, 0xc810a22542a67f91),
    ("adder", "o2", "ambit", 0x2da8d8c2f8023188, 0x90315ee361c453ce),
    ("adder", "o2", "magic", 0x2da8d8c2f8023188, 0xe74d361c72e0cdbb),
    ("bar", "o1", "rm3", 0x7dacc91887809a6a, 0x3d68a39ea51df147),
    ("bar", "o1", "ambit", 0x7dacc91887809a6a, 0x4734494ba6f072ed),
    ("bar", "o1", "magic", 0x7dacc91887809a6a, 0x1a5237d44b3dcede),
    ("bar", "o2", "rm3", 0x7dacc91887809a6a, 0x3d68a39ea51df147),
    ("bar", "o2", "ambit", 0x7dacc91887809a6a, 0x4734494ba6f072ed),
    ("bar", "o2", "magic", 0x7dacc91887809a6a, 0x1a5237d44b3dcede),
    ("div", "o1", "rm3", 0xe7825205410e8158, 0xf72be269cf37a9ff),
    ("div", "o1", "ambit", 0xe7825205410e8158, 0xed7fa61ddbed5c42),
    ("div", "o1", "magic", 0xe7825205410e8158, 0x829ac62f3642d791),
    ("div", "o2", "rm3", 0x03dac9d991e5718e, 0x4cf02c65c35112ba),
    ("div", "o2", "ambit", 0x03dac9d991e5718e, 0x6e7012ad2f6ee329),
    ("div", "o2", "magic", 0x03dac9d991e5718e, 0x19ed50ee4c044f6a),
    ("log2", "o1", "rm3", 0x4011da0340adcbe2, 0x7e8d08f38740cbcc),
    ("log2", "o1", "ambit", 0x4011da0340adcbe2, 0xc7dec85e5ff15b5b),
    ("log2", "o1", "magic", 0x4011da0340adcbe2, 0x21a60f24063bd796),
    ("log2", "o2", "rm3", 0x4011da0340adcbe2, 0x7e8d08f38740cbcc),
    ("log2", "o2", "ambit", 0x4011da0340adcbe2, 0xc7dec85e5ff15b5b),
    ("log2", "o2", "magic", 0x4011da0340adcbe2, 0x21a60f24063bd796),
    ("max", "o1", "rm3", 0xc02bb0b2e25442c2, 0xd14be9bb69330203),
    ("max", "o1", "ambit", 0xc02bb0b2e25442c2, 0x6ad09be1d927db54),
    ("max", "o1", "magic", 0xc02bb0b2e25442c2, 0x017bcf9952cd8fe4),
    ("max", "o2", "rm3", 0xc02bb0b2e25442c2, 0xd14be9bb69330203),
    ("max", "o2", "ambit", 0xc02bb0b2e25442c2, 0x6ad09be1d927db54),
    ("max", "o2", "magic", 0xc02bb0b2e25442c2, 0x017bcf9952cd8fe4),
    ("multiplier", "o1", "rm3", 0x7546a3a61eef5d1d, 0x7ad7138b8688a14d),
    ("multiplier", "o1", "ambit", 0x7546a3a61eef5d1d, 0xb3191668c49a4994),
    ("multiplier", "o1", "magic", 0x7546a3a61eef5d1d, 0x58fbc9de1f8b6529),
    ("multiplier", "o2", "rm3", 0x7546a3a61eef5d1d, 0x7ad7138b8688a14d),
    ("multiplier", "o2", "ambit", 0x7546a3a61eef5d1d, 0xb3191668c49a4994),
    ("multiplier", "o2", "magic", 0x7546a3a61eef5d1d, 0x58fbc9de1f8b6529),
    ("sin", "o1", "rm3", 0x1d7076cfc079b481, 0xfc3ee671ac106edd),
    ("sin", "o1", "ambit", 0x1d7076cfc079b481, 0xc50f3b34298668d3),
    ("sin", "o1", "magic", 0x1d7076cfc079b481, 0x49b23a2cc42cc5f6),
    ("sin", "o2", "rm3", 0x1d7076cfc079b481, 0xfc3ee671ac106edd),
    ("sin", "o2", "ambit", 0x1d7076cfc079b481, 0xc50f3b34298668d3),
    ("sin", "o2", "magic", 0x1d7076cfc079b481, 0x49b23a2cc42cc5f6),
    ("sqrt", "o1", "rm3", 0xdfc32af5af7f1e68, 0x861c0baf8588c6f5),
    ("sqrt", "o1", "ambit", 0xdfc32af5af7f1e68, 0x8ed5aadeded680f7),
    ("sqrt", "o1", "magic", 0xdfc32af5af7f1e68, 0x075c1a3a4ca9650d),
    ("sqrt", "o2", "rm3", 0xdfc32af5af7f1e68, 0x861c0baf8588c6f5),
    ("sqrt", "o2", "ambit", 0xdfc32af5af7f1e68, 0x8ed5aadeded680f7),
    ("sqrt", "o2", "magic", 0xdfc32af5af7f1e68, 0x075c1a3a4ca9650d),
    ("square", "o1", "rm3", 0xe928d721ae3b8ae1, 0x2b47c976851f914b),
    ("square", "o1", "ambit", 0xe928d721ae3b8ae1, 0xbbec5235b44834f0),
    ("square", "o1", "magic", 0xe928d721ae3b8ae1, 0xdaeaeb77fdf784c4),
    ("square", "o2", "rm3", 0xe928d721ae3b8ae1, 0x2b47c976851f914b),
    ("square", "o2", "ambit", 0xe928d721ae3b8ae1, 0xbbec5235b44834f0),
    ("square", "o2", "magic", 0xe928d721ae3b8ae1, 0xdaeaeb77fdf784c4),
    ("cavlc", "o1", "rm3", 0xae48665d39055e83, 0xa3180e4e6ff2c2ff),
    ("cavlc", "o1", "ambit", 0xae48665d39055e83, 0xc9f95f59eff96920),
    ("cavlc", "o1", "magic", 0xae48665d39055e83, 0x0de394acedb84667),
    ("cavlc", "o2", "rm3", 0xae48665d39055e83, 0xa3180e4e6ff2c2ff),
    ("cavlc", "o2", "ambit", 0xae48665d39055e83, 0xc9f95f59eff96920),
    ("cavlc", "o2", "magic", 0xae48665d39055e83, 0x0de394acedb84667),
    ("ctrl", "o1", "rm3", 0x6fae4789493ca86c, 0x0cd1d7d644cdaf24),
    ("ctrl", "o1", "ambit", 0x6fae4789493ca86c, 0xe9017b7764621a15),
    ("ctrl", "o1", "magic", 0x6fae4789493ca86c, 0x832ac812b72bff23),
    ("ctrl", "o2", "rm3", 0x6fae4789493ca86c, 0x0cd1d7d644cdaf24),
    ("ctrl", "o2", "ambit", 0x6fae4789493ca86c, 0xe9017b7764621a15),
    ("ctrl", "o2", "magic", 0x6fae4789493ca86c, 0x832ac812b72bff23),
    ("dec", "o1", "rm3", 0x9b09e7c6745ddeea, 0x225e51066c826dcc),
    ("dec", "o1", "ambit", 0x9b09e7c6745ddeea, 0x64874374cdb3c952),
    ("dec", "o1", "magic", 0x9b09e7c6745ddeea, 0x3c16b5ade3ef5510),
    ("dec", "o2", "rm3", 0x6dd3cca125132af4, 0x3572052d0ec31057),
    ("dec", "o2", "ambit", 0x6dd3cca125132af4, 0xefe25c61cfbb9c51),
    ("dec", "o2", "magic", 0x6dd3cca125132af4, 0x8ace8d001869e8ad),
    ("i2c", "o1", "rm3", 0xbf5d40a993d4091a, 0xe1b08ec412ec0c05),
    ("i2c", "o1", "ambit", 0xbf5d40a993d4091a, 0x67258dcc03a877b2),
    ("i2c", "o1", "magic", 0xbf5d40a993d4091a, 0x42d71a7f31e42d73),
    ("i2c", "o2", "rm3", 0xf1d231091f08fcf9, 0x3666a1a8fe0e1726),
    ("i2c", "o2", "ambit", 0xf1d231091f08fcf9, 0xff0440c221a391a2),
    ("i2c", "o2", "magic", 0xf1d231091f08fcf9, 0xbb8a0663654f463d),
    ("int2float", "o1", "rm3", 0x8b2a16b611b3bc32, 0x28e48de29812f659),
    ("int2float", "o1", "ambit", 0x8b2a16b611b3bc32, 0xe4bc78e9d63d3696),
    ("int2float", "o1", "magic", 0x8b2a16b611b3bc32, 0x229d46e7e3d97cf5),
    ("int2float", "o2", "rm3", 0x8b2a16b611b3bc32, 0x28e48de29812f659),
    ("int2float", "o2", "ambit", 0x8b2a16b611b3bc32, 0xe4bc78e9d63d3696),
    ("int2float", "o2", "magic", 0x8b2a16b611b3bc32, 0x229d46e7e3d97cf5),
    ("mem_ctrl", "o1", "rm3", 0x12a3f1214f680cd3, 0x26217d7804628c86),
    ("mem_ctrl", "o1", "ambit", 0x12a3f1214f680cd3, 0x13a38916c3f4b428),
    ("mem_ctrl", "o1", "magic", 0x12a3f1214f680cd3, 0x4f55323abd83185f),
    ("mem_ctrl", "o2", "rm3", 0xd9a501a73a776247, 0xb5c938dd89876617),
    ("mem_ctrl", "o2", "ambit", 0xd9a501a73a776247, 0x6f709278dd017ca9),
    ("mem_ctrl", "o2", "magic", 0xd9a501a73a776247, 0x4d24f8231f0fa809),
    ("priority", "o1", "rm3", 0x7b0385f41e5543ff, 0xb652060f8427506e),
    ("priority", "o1", "ambit", 0x7b0385f41e5543ff, 0xcde1266be60dd4dc),
    ("priority", "o1", "magic", 0x7b0385f41e5543ff, 0x355b1ae007b79dd4),
    ("priority", "o2", "rm3", 0x7b0385f41e5543ff, 0xb652060f8427506e),
    ("priority", "o2", "ambit", 0x7b0385f41e5543ff, 0xcde1266be60dd4dc),
    ("priority", "o2", "magic", 0x7b0385f41e5543ff, 0x355b1ae007b79dd4),
    ("router", "o1", "rm3", 0x8aa0185eec86d49b, 0x653387ffeb9a202e),
    ("router", "o1", "ambit", 0x8aa0185eec86d49b, 0x0481941153bac377),
    ("router", "o1", "magic", 0x8aa0185eec86d49b, 0x8536d495a405adb3),
    ("router", "o2", "rm3", 0x8aa0185eec86d49b, 0x653387ffeb9a202e),
    ("router", "o2", "ambit", 0x8aa0185eec86d49b, 0x0481941153bac377),
    ("router", "o2", "magic", 0x8aa0185eec86d49b, 0x8536d495a405adb3),
    ("voter", "o1", "rm3", 0x652459e5beb58523, 0x733e14bfc788e03a),
    ("voter", "o1", "ambit", 0x652459e5beb58523, 0x745478b77f69a970),
    ("voter", "o1", "magic", 0x652459e5beb58523, 0x1c5ee690243c6e62),
    ("voter", "o2", "rm3", 0xe78e198cb7489551, 0xc01dc445d4491abf),
    ("voter", "o2", "ambit", 0x6b8c01b3aaa1f763, 0xc1c5d0422001a0a6),
    ("voter", "o2", "magic", 0x6b8c01b3aaa1f763, 0xf4237b057c08111c),
];

/// Captured from the compiler before forwarding became incremental.
#[rustfmt::skip]
const FULL_FINGERPRINTS: &[Fingerprint] = &[
    ("adder", "o2", "rm3", 0xb56e30e66f71c320, 0x20cf5f314b278810),
    ("bar", "o2", "rm3", 0x60981f42674426dc, 0xfe357886dc4927e8),
    ("div", "o2", "rm3", 0xe2aa94acaa0e85b5, 0xf74b3e85aae5fe93),
    ("log2", "o2", "rm3", 0x8d78255481946073, 0x21df3f0da114051d),
    ("max", "o2", "rm3", 0xdd0c80cd56fb8a51, 0x16936e3cdb876f52),
    ("multiplier", "o2", "rm3", 0x77fe8a56ec66130b, 0x60f901b4beb41962),
    ("sin", "o2", "rm3", 0xd33b18f40b703f85, 0x52a304ea152dd374),
    ("sqrt", "o2", "rm3", 0xf09463291962e69c, 0xb0b8d5a562bbe823),
    ("square", "o2", "rm3", 0x694fe68cdf309080, 0x9e2142a64ec262d6),
    ("cavlc", "o2", "rm3", 0x76fc6bde6a70eec4, 0xa7f012f532208ef0),
    ("ctrl", "o2", "rm3", 0xa9b5f9ebc39eafc5, 0x2f85bbb96b1034c1),
    ("dec", "o2", "rm3", 0x374e6f21baf5302f, 0x9db59f49f5f531c8),
    ("i2c", "o2", "rm3", 0xb9867a141bf053be, 0x5ce4f9ea055cf138),
    ("int2float", "o2", "rm3", 0x8b2a16b611b3bc32, 0x28e48de29812f659),
    ("mem_ctrl", "o2", "rm3", 0x8714734a25889b4b, 0xd88d62aca7a920ed),
    ("priority", "o2", "rm3", 0x75b95a038bab9665, 0xa13772d64f93923b),
    ("router", "o2", "rm3", 0x6fdf622f66b89fc3, 0xc8256a8ef8cd4298),
    ("voter", "o2", "rm3", 0x653cc85ef27e8cdf, 0xf0fc5e62239138a9),
];
