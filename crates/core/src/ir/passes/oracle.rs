//! The restart-from-zero forwarding driver, kept as a test oracle.
//!
//! This is the forwarding loop [`super::Forward`] replaced: every call of
//! [`forward_one`] rebuilds a per-cell index from scratch, rescans the
//! stream from event 0, derives each move block by repeated window sweeps
//! and undoes a rejected trial from a clone of the whole event vector. It
//! is quadratic, but it is the plain reading of the forwarding rules, so
//! the one-sweep driver must reproduce its decisions exactly: the same
//! trials in the same order, the same commits, the same final IR.

use std::collections::HashSet;

use super::{gc_cells, masked_const, Decisions, Pass, Touch, MOVE_CAP};
use crate::backend::{Backend, Cost};
use crate::ir::{CellId, Event, IrOutput, IrProgram, Value};

/// [`super::Forward`]'s reference implementation; reports under the same
/// pass name so whole pipeline reports compare equal.
#[derive(Debug)]
pub(super) struct Forward;

impl Pass for Forward {
    fn name(&self) -> &'static str {
        "forward"
    }

    fn run(
        &self,
        ir: &mut IrProgram,
        backend: &dyn Backend,
        cost: &mut Option<Cost>,
        decisions: &mut Decisions,
    ) -> usize {
        let mut edits = 0;
        let mut rejected: HashSet<(u32, u32)> = HashSet::new();
        let mut baseline = None;
        while forward_one(ir, backend, &mut rejected, &mut baseline, cost, decisions) {
            edits += 1;
        }
        if edits > 0 {
            gc_cells(ir);
        }
        edits
    }
}

/// Per-cell event-position index for one forwarding attempt.
struct CellIndex {
    touches: Vec<Vec<(usize, Touch)>>,
    release: Vec<Option<usize>>,
    request: Vec<Option<usize>>,
    is_output: Vec<bool>,
}

impl CellIndex {
    fn build(ir: &IrProgram) -> Self {
        let mut index = CellIndex {
            touches: vec![Vec::new(); ir.cells.len()],
            release: vec![None; ir.cells.len()],
            request: vec![None; ir.cells.len()],
            is_output: vec![false; ir.cells.len()],
        };
        for (pos, &event) in ir.events.iter().enumerate() {
            match event {
                Event::Request(c) => index.request[c.index()] = Some(pos),
                Event::Release(c) => index.release[c.index()] = Some(pos),
                Event::Op(i) => {
                    let op = &ir.ops[i as usize];
                    for value in [op.a, op.b] {
                        if let Value::Cell(c) = value {
                            index.touches[c.index()].push((pos, Touch::Read));
                        }
                    }
                    if op.masking() {
                        index.touches[op.z.index()].push((pos, Touch::DefMask));
                    } else {
                        index.touches[op.z.index()].push((pos, Touch::Read));
                        index.touches[op.z.index()].push((pos, Touch::DefPlain));
                    }
                }
            }
        }
        for (_, output) in &ir.outputs {
            if let IrOutput::Cell(c) = output {
                index.is_output[c.index()] = true;
            }
        }
        index
    }

    fn unused_slot_last_read(&self, cell: CellId, pos: usize) -> Option<usize> {
        let mut last = pos;
        for &(p, touch) in &self.touches[cell.index()] {
            if p <= pos {
                continue;
            }
            match touch {
                Touch::Read => last = p,
                Touch::DefMask | Touch::DefPlain => return None,
            }
        }
        if self.is_output[cell.index()] {
            None
        } else {
            Some(last)
        }
    }

    fn defined_in(&self, cell: CellId, window: (usize, usize)) -> bool {
        self.touches[cell.index()]
            .iter()
            .any(|&(p, t)| p >= window.0 && p <= window.1 && t != Touch::Read)
    }
}

/// The materialization chain feeding a destination's old value.
enum Chain {
    Const {
        init: usize,
        value: bool,
    },
    Copy {
        init: usize,
        copy: usize,
        source: Value,
    },
}

/// Finds and applies one forwarding edit, scanning from event 0; `false`
/// when none applies.
fn forward_one(
    ir: &mut IrProgram,
    backend: &dyn Backend,
    rejected: &mut HashSet<(u32, u32)>,
    baseline: &mut Option<Cost>,
    entry: &mut Option<Cost>,
    decisions: &mut Decisions,
) -> bool {
    let index = CellIndex::build(ir);
    for pos in 0..ir.events.len() {
        let Event::Op(ki) = ir.events[pos] else {
            continue;
        };
        let op = &ir.ops[ki as usize];
        if op.masking() {
            continue;
        }
        let (op_a, op_b, x) = (op.a, op.b, op.z);
        let mut chain_positions: Vec<usize> = Vec::new();
        for &(p, _) in &index.touches[x.index()] {
            if p >= pos {
                break;
            }
            if chain_positions.last() != Some(&p) {
                chain_positions.push(p);
            }
        }
        let chain = match chain_positions.as_slice() {
            [init] => {
                let init_op = ir.op_of(ir.events[*init]).expect("touch is an op");
                match masked_const(init_op) {
                    Some(value) if init_op.z == x => Chain::Const { init: *init, value },
                    _ => continue,
                }
            }
            [init, copy] => {
                let init_op = ir.op_of(ir.events[*init]).expect("touch is an op");
                let copy_op = ir.op_of(ir.events[*copy]).expect("touch is an op");
                let is_set = masked_const(init_op) == Some(true) && init_op.z == x;
                let is_copy = copy_op.z == x
                    && copy_op.b == Value::Const(true)
                    && !matches!(copy_op.a, Value::Const(_));
                if is_set && is_copy {
                    Chain::Copy {
                        init: *init,
                        copy: *copy,
                        source: copy_op.a,
                    }
                } else {
                    continue;
                }
            }
            _ => continue,
        };
        let (z_value, chain_ops): (Value, Vec<usize>) = match &chain {
            Chain::Const { init, value } => (Value::Const(*value), vec![*init]),
            Chain::Copy { init, copy, source } => (*source, vec![*init, *copy]),
        };
        let chain_start = *chain_ops.first().expect("chains are non-empty");
        let source_gap_def = matches!(z_value, Value::Cell(s)
            if index.defined_in(s, (chain_start + 1, pos)));
        let source_gap_release = matches!(z_value, Value::Cell(s)
            if index.release[s.index()].is_some_and(|r| r > chain_start && r < pos));
        let mut candidates: Vec<(CellId, Value)> = Vec::new();
        if let Value::Cell(s) = z_value {
            if !source_gap_def {
                candidates.push((s, op_a));
            }
        }
        if let Value::Cell(w) = op_a {
            let source_ok = match z_value {
                Value::Cell(_) => !source_gap_def && !source_gap_release,
                _ => true,
            };
            if source_ok {
                candidates.push((w, z_value));
            }
        }
        for (d, new_a) in candidates {
            if d == x
                || Some(d) == op_b.cell()
                || new_a.cell() == Some(d)
                || index.is_output[d.index()]
            {
                continue;
            }
            if rejected.contains(&(ki, d.0)) {
                decisions.memo_hits += 1;
                continue;
            }
            let Some(last_read) = index.unused_slot_last_read(d, pos) else {
                continue;
            };
            let Some(moved) = move_set(ir, pos, x, d, new_a, op_b, last_read) else {
                decisions.blocked += 1;
                rejected.insert((ki, d.0));
                continue;
            };
            let before =
                *baseline.get_or_insert_with(|| *entry.get_or_insert_with(|| backend.cost(ir)));
            let undo = apply_forward(ir, &index, ki, pos, &chain_ops, d, new_a, last_read, &moved);
            decisions.trials += 1;
            let after = backend.cost(ir);
            if after.improves_on(before) {
                decisions.accepted += 1;
                *baseline = Some(after);
                return true;
            }
            decisions.rejected += 1;
            undo.revert(ir);
            rejected.insert((ki, d.0));
        }
    }
    false
}

/// Reverts one [`apply_forward`] edit.
struct ForwardUndo {
    events: Vec<Event>,
    op: (u32, Value, CellId),
    renamed: Vec<(u32, Value, Value, CellId)>,
    outputs: Vec<usize>,
    x: CellId,
}

impl ForwardUndo {
    fn revert(self, ir: &mut IrProgram) {
        ir.events = self.events;
        let (ki, a, z) = self.op;
        ir.ops[ki as usize].a = a;
        ir.ops[ki as usize].z = z;
        for (i, a, b, z) in self.renamed {
            let op = &mut ir.ops[i as usize];
            op.a = a;
            op.b = b;
            op.z = z;
        }
        for i in self.outputs {
            ir.outputs[i].1 = IrOutput::Cell(self.x);
        }
    }
}

/// The dependence closure by repeated window sweeps.
fn move_set(
    ir: &IrProgram,
    pos: usize,
    x: CellId,
    d: CellId,
    new_a: Value,
    b: Value,
    last_read: usize,
) -> Option<Vec<usize>> {
    let mut defined: Vec<CellId> = vec![x];
    let mut read: Vec<CellId> = [new_a.cell(), b.cell(), Some(d)]
        .into_iter()
        .flatten()
        .collect();
    let mut moved: Vec<usize> = Vec::new();
    loop {
        let mut grew = false;
        for p in pos + 1..=last_read {
            if moved.contains(&p) {
                continue;
            }
            let Some(op) = ir.op_of(ir.events[p]) else {
                continue;
            };
            let op_reads: Vec<CellId> = op.reads().collect();
            let op_defines = op.z;
            let joins = op_reads.iter().any(|c| defined.contains(c))
                || defined.contains(&op_defines)
                || read.contains(&op_defines);
            if !joins {
                continue;
            }
            if op_reads.contains(&d) {
                return None;
            }
            moved.push(p);
            if moved.len() > MOVE_CAP {
                return None;
            }
            if !defined.contains(&op_defines) {
                defined.push(op_defines);
            }
            for c in op_reads {
                if !read.contains(&c) {
                    read.push(c);
                }
            }
            grew = true;
        }
        if !grew {
            moved.sort_unstable();
            return Some(moved);
        }
    }
}

/// Applies one forwarding edit, returning the undo log.
#[allow(clippy::too_many_arguments)]
fn apply_forward(
    ir: &mut IrProgram,
    index: &CellIndex,
    ki: u32,
    pos: usize,
    chain_ops: &[usize],
    d: CellId,
    new_a: Value,
    last_read: usize,
    moved: &[usize],
) -> ForwardUndo {
    let x = ir.ops[ki as usize].z;
    let mut undo = ForwardUndo {
        events: ir.events.clone(),
        op: (ki, ir.ops[ki as usize].a, x),
        renamed: Vec::new(),
        outputs: Vec::new(),
        x,
    };
    ir.ops[ki as usize].a = new_a;
    ir.ops[ki as usize].z = d;

    for &(p, _) in &index.touches[x.index()] {
        if p <= pos {
            continue;
        }
        if let Event::Op(i) = ir.events[p] {
            if i == ki || undo.renamed.iter().any(|&(j, ..)| j == i) {
                continue;
            }
            let op = &mut ir.ops[i as usize];
            undo.renamed.push((i, op.a, op.b, op.z));
            if op.a == Value::Cell(x) {
                op.a = Value::Cell(d);
            }
            if op.b == Value::Cell(x) {
                op.b = Value::Cell(d);
            }
            if op.z == x {
                op.z = d;
            }
        }
    }
    for (i, (_, output)) in ir.outputs.iter_mut().enumerate() {
        if *output == IrOutput::Cell(x) {
            undo.outputs.push(i);
            *output = IrOutput::Cell(d);
        }
    }

    let mut drop = vec![false; ir.events.len()];
    for &p in chain_ops {
        drop[p] = true;
    }
    if let Some(p) = index.request[x.index()] {
        drop[p] = true;
    }
    let mut replace: Option<(usize, Event)> = None;
    match (index.release[x.index()], index.release[d.index()]) {
        (Some(rx), Some(rd)) => {
            drop[rd] = true;
            replace = Some((rx, Event::Release(d)));
        }
        (Some(rx), None) => drop[rx] = true,
        (None, Some(rd)) => drop[rd] = true,
        (None, None) => {}
    }
    let block: Vec<usize> = std::iter::once(pos).chain(moved.iter().copied()).collect();
    let touches_cell = |p: usize, c: CellId| -> bool {
        match ir.op_of(ir.events[p]) {
            Some(op) => op.z == c || op.reads().any(|r| r == c),
            None => false,
        }
    };
    let mut relocated: Vec<(usize, usize)> = Vec::new();
    for (p, &event) in ir
        .events
        .iter()
        .enumerate()
        .take(last_read + 1)
        .skip(pos + 1)
    {
        if let Event::Release(c) = event {
            if drop[p] {
                continue;
            }
            let cell = if c == x { d } else { c };
            if let Some(entry) = block.iter().rposition(|&q| touches_cell(q, cell)) {
                relocated.push((entry, p));
            }
        }
    }

    let resolve = |p: usize, event: Event| match replace {
        Some((rp, rep)) if rp == p => rep,
        _ => event,
    };
    let mut events = Vec::with_capacity(ir.events.len());
    for (p, &event) in ir.events.iter().enumerate() {
        let in_block = p == pos || moved.contains(&p) || relocated.iter().any(|&(_, q)| q == p);
        if !in_block && !drop[p] {
            events.push(resolve(p, event));
        }
        if p == last_read {
            for (entry, &q) in block.iter().enumerate() {
                events.push(resolve(q, ir.events[q]));
                for &(after, rel) in &relocated {
                    if after == entry {
                        events.push(resolve(rel, ir.events[rel]));
                    }
                }
            }
        }
    }
    ir.events = events;
    undo
}

#[cfg(test)]
mod tests {
    use mig::Mig;
    use plim::RamAddr;
    use plim_benchmarks::random::{random_logic, RandomLogicSpec};
    use plim_benchmarks::suite::{self, Scale};
    use proptest::prelude::*;

    use super::super::{Decisions, Pass, PassManager, PassRun};
    use crate::backend::{Artifact, Backend, Cost, InstructionInfo, Rm3Backend};
    use crate::ir::{CellId, Event, IrCell, IrOp, IrOutput, IrProgram, Rhs, Value};
    use crate::lifetime::LifetimeClass;
    use crate::{AllocatorStrategy, CompilerOptions, OptLevel, ScheduleOrder};

    /// Memo hits count how often a driver re-examined a ruled-out edit, so
    /// they are the one counter the drivers may disagree on (the oracle
    /// re-examines after every restart); everything else must match.
    fn without_memo_hits(decisions: Decisions) -> Decisions {
        Decisions {
            memo_hits: 0,
            ..decisions
        }
    }

    /// Runs the `-O2` pipeline on `options`' lowering of `mig` with the
    /// one-sweep forwarding driver and with the oracle, asserting the same
    /// IR, the same report and no more memo hits for the one-sweep driver.
    fn assert_drivers_agree(mig: &Mig, options: CompilerOptions, context: &str) {
        let lowered = crate::ir::lower(mig, options.opt(OptLevel::O2));
        let backend = options.target.backend();
        let sweep = PassManager::for_level(OptLevel::O2);
        let mut oracle = PassManager::for_level(OptLevel::O2);
        assert_eq!(oracle.passes[0].name(), "forward");
        oracle.passes[0] = Box::new(super::Forward);

        let mut fast = lowered.clone();
        let fast_report = sweep.run(&mut fast, mig, backend);
        let mut slow = lowered;
        let slow_report = oracle.run(&mut slow, mig, backend);
        assert_eq!(
            format!("{fast:?}"),
            format!("{slow:?}"),
            "{context}: IR differs"
        );
        assert_eq!(fast_report.converged, slow_report.converged, "{context}");
        let strip = |runs: &[PassRun]| -> Vec<PassRun> {
            runs.iter()
                .map(|run| PassRun {
                    decisions: without_memo_hits(run.decisions),
                    ..run.clone()
                })
                .collect()
        };
        assert_eq!(
            strip(&fast_report.runs),
            strip(&slow_report.runs),
            "{context}: reports differ"
        );
        for (fast, slow) in fast_report.runs.iter().zip(&slow_report.runs) {
            assert!(
                fast.decisions.memo_hits <= slow.decisions.memo_hits,
                "{context}"
            );
        }
    }

    fn spec_strategy() -> impl Strategy<Value = RandomLogicSpec> {
        (2usize..10, 1usize..8, 10usize..100, any::<u64>()).prop_map(
            |(inputs, outputs, nodes, seed)| RandomLogicSpec::new(inputs, outputs, nodes, seed),
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        /// Random circuits under every schedule × allocator.
        #[test]
        fn one_sweep_matches_the_restart_loop_on_random_logic(spec in spec_strategy()) {
            let mig = random_logic(&spec);
            for schedule in ScheduleOrder::ALL {
                for allocator in AllocatorStrategy::ALL {
                    let options = CompilerOptions::new().schedule(schedule).allocator(allocator);
                    assert_drivers_agree(&mig, options, &format!("{spec:?} @ {}", options.spec()));
                }
            }
        }
    }

    /// Every reduced suite circuit, as `plimc` compiles it by default.
    #[test]
    fn one_sweep_matches_the_restart_loop_on_the_reduced_suite() {
        for name in suite::ALL {
            let mig = suite::build(name, Scale::Reduced).expect("suite circuit");
            let optimized = mig::rewrite::rewrite(&mig, 4);
            assert_drivers_agree(&optimized, CompilerOptions::new(), name);
        }
    }

    /// RM3 emission with a cost model that turns down every edit leaving
    /// one of the listed ops writing the listed cell — a way to script
    /// which trials the quality gate rejects.
    #[derive(Debug)]
    struct Veto(Vec<(u32, CellId)>);

    impl Backend for Veto {
        fn name(&self) -> &'static str {
            "veto"
        }

        fn description(&self) -> &'static str {
            "#I, with a footprint penalty on vetoed retargets"
        }

        fn instruction_set(&self) -> &'static [InstructionInfo] {
            Rm3Backend.instruction_set()
        }

        fn cost(&self, ir: &IrProgram) -> Cost {
            let vetoed = self.0.iter().any(|&(op, cell)| {
                ir.ops[op as usize].z == cell && ir.events.contains(&Event::Op(op))
            });
            Cost {
                instructions: ir.num_instructions(),
                footprint: u32::from(vetoed),
                ..Cost::default()
            }
        }

        fn emit(&self, ir: &IrProgram) -> Box<dyn Artifact> {
            Rm3Backend.emit(ir)
        }
    }

    /// Appends ops and events to a hand-built program.
    struct Builder(IrProgram);

    impl Builder {
        fn new(inputs: usize, cells: usize) -> Self {
            let cell = IrCell {
                pinned: RamAddr(0),
                hint: LifetimeClass::Short,
            };
            Builder(IrProgram {
                num_inputs: inputs,
                ops: Vec::new(),
                cells: vec![cell; cells],
                events: Vec::new(),
                outputs: Vec::new(),
                mig_nodes: 0,
                allocator: AllocatorStrategy::Fifo,
            })
        }

        fn op(&mut self, a: Value, b: Value, z: u32) -> u32 {
            let index = self.0.ops.len() as u32;
            self.0.ops.push(IrOp {
                a,
                b,
                z: CellId(z),
                rhs: Rhs::Const(false),
                node: None,
            });
            self.0.events.push(Event::Op(index));
            index
        }

        fn set(&mut self, z: u32) -> u32 {
            self.op(Value::Const(true), Value::Const(false), z)
        }

        fn copy(&mut self, source: u32, z: u32) -> u32 {
            self.op(Value::Cell(CellId(source)), Value::Const(true), z)
        }

        fn request(&mut self, c: u32) {
            self.0.events.push(Event::Request(CellId(c)));
        }

        fn release(&mut self, c: u32) {
            self.0.events.push(Event::Release(CellId(c)));
        }
    }

    /// A commit can re-enable a candidate the sweep already passed, and
    /// there is exactly one way it can: the eligibility checks of an op
    /// before the forwarded one read only that op's destination chain, the
    /// chain's copy source and its two candidate cells, and a commit never
    /// removes a write, a touch or an output from any cell but the old
    /// destination `x` (which no earlier op can touch, since `x`'s history
    /// is exactly its chain). What it can remove is the claimed cell's
    /// release: a copy source released between its copy and the main op
    /// bars the *rotate* candidate, and a later op claiming that source
    /// merges its lifetime, dropping the release. The stream below has `n`
    /// earlier ops whose chains copy `d`, with `d` released before them;
    /// their own claims of `d` are vetoed, `k`'s claim of `d` commits, and
    /// that re-enables each earlier op's rotate onto its dying operand.
    /// The earlier ops never touch `d` themselves — only their copies do —
    /// which is why the one-sweep driver also re-marks the op after a copy
    /// of a changed cell.
    fn reenabling_stream(n: u32) -> (IrProgram, Veto, Vec<(u32, CellId)>) {
        let d = 0;
        let w = |j: u32| 1 + j;
        let x = |j: u32| 1 + n + j;
        let xk = 1 + 2 * n;
        let input = Value::Input;
        let mut b = Builder::new(7, 2 + 2 * n as usize);
        let mut veto = Vec::new();
        b.request(d);
        b.set(d);
        b.op(input(0), input(1), d);
        for j in 0..n {
            b.request(w(j));
            b.set(w(j));
            b.op(input(2), input(3), w(j));
        }
        b.request(xk);
        b.set(xk);
        veto.push((b.copy(d, xk), CellId(d)));
        for j in 0..n {
            b.request(x(j));
            b.set(x(j));
            veto.push((b.copy(d, x(j)), CellId(d)));
        }
        b.release(d);
        let mut expected = Vec::new();
        for j in 0..n {
            let main = b.op(Value::Cell(CellId(w(j))), input(4), x(j));
            veto.push((main, CellId(d)));
            expected.push((main, CellId(w(j))));
            b.release(w(j));
        }
        let k = b.op(input(5), input(6), xk);
        expected.push((k, CellId(d)));
        for j in 0..n {
            b.0.outputs
                .push((format!("f{j}"), IrOutput::Cell(CellId(x(j)))));
        }
        b.0.outputs
            .push(("fk".to_string(), IrOutput::Cell(CellId(xk))));
        assert_eq!(b.0.check(), Ok(()));
        (b.0, Veto(veto), expected)
    }

    #[test]
    fn a_commit_that_re_enables_an_earlier_candidate_is_retried_in_order() {
        for n in 1..=3 {
            let (ir, veto, expected) = reenabling_stream(n);
            let run = |pass: &dyn Pass| {
                let mut ir = ir.clone();
                let mut decisions = Decisions::default();
                let edits = pass.run(&mut ir, &veto, &mut None, &mut decisions);
                (ir, edits, decisions)
            };
            let (fast, fast_edits, fast_decisions) = run(&super::super::Forward);
            let (slow, slow_edits, slow_decisions) = run(&super::Forward);
            assert_eq!(format!("{fast:?}"), format!("{slow:?}"), "n={n}");
            assert_eq!(fast_edits, slow_edits, "n={n}");
            assert_eq!(
                without_memo_hits(fast_decisions),
                without_memo_hits(slow_decisions),
                "n={n}"
            );
            // Not vacuous: `k` claimed `d`, and only then could every
            // earlier op rotate onto its dying operand.
            assert_eq!(fast_edits as u32, n + 1, "n={n}");
            for (op, cell) in expected {
                assert_eq!(fast.ops[op as usize].z, cell, "n={n}: op {op}");
            }
            assert_eq!(fast.check(), Ok(()));
        }
    }
}
