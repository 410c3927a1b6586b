//! The optimizing pass pipeline run between lowering and emission.
//!
//! Passes rewrite the IR event stream under the [`OptLevel`] chosen in
//! [`crate::CompilerOptions`]:
//!
//! * [`DeadWrite`] — removes writes whose value no later instruction (and
//!   no output) observes;
//! * [`RedundantInit`] — removes initializations that re-materialize a
//!   constant already resident in the cell, and identity writes;
//! * [`Forward`] — in-place-overwrite forwarding: when a node's destination
//!   value was materialized into a fresh cell (a constant load or a copy)
//!   even though a cell holding one of the instruction's inputs dies
//!   *physically* unread afterwards, the materialization is deleted and the
//!   instruction retargeted to overwrite the dying cell in place, moving it
//!   past that cell's last read. This harvests slack no scheduler can see:
//!   the lowering's reference counts overestimate lifetimes, because
//!   consumers that read a cached complement never touch the value cell;
//! * [`Peephole`] — same-cell fusion in a local window: an instruction
//!   whose result is fully determined by resident constants is folded into
//!   a plain set/reset, and back-to-back re-initializations collapse.
//!
//! `-O0` runs nothing, not even the manager's entry checks; `-O1` runs one
//! round of the linear hygiene passes; `-O2` adds forwarding and iterates
//! the whole sequence to a fixpoint, for at most eight rounds
//! ([`PassReport::converged`] says whether it got there). The hygiene
//! passes are single linear sweeps. Forwarding, the only pass that trials
//! edits, is one sweep too, over a per-cell index it patches in place
//! after each commit; its cost is one stream rebuild plus one backend cost
//! replay per trial (see [`Forward`]). Every run reports its decision
//! counters ([`PassRun::decisions`]). After every pass that edited the
//! stream the [`PassManager`] re-checks the IR structurally and — in
//! debug/test builds — replays it through the machine-simulator
//! equivalence check against the source MIG, so a broken pass fails loudly
//! at the pass boundary, not in some downstream consumer. The entry state
//! those checks compare against (lint counts and backend cost) is computed
//! lazily, the first time a pass edits or trials an edit, so a pipeline in
//! which nothing fires pays for neither.

use std::fmt;

use mig::Mig;

use crate::backend::{Backend, Cost};
use crate::options::OptLevel;

use super::{analysis, CellId, Event, IrOutput, IrProgram, Value};

#[cfg(test)]
mod oracle;

/// An IR-to-IR rewrite.
pub trait Pass {
    /// Stable name, reported in [`PassRun`] records and bench output.
    fn name(&self) -> &'static str;
    /// Rewrites the program, returning the number of edits applied
    /// (removed or rewritten instructions). Passes that trial edits score
    /// them with `backend`'s cost model, so the pipeline optimizes for the
    /// architecture that will actually consume the stream.
    ///
    /// `cost` is the manager's cost of the stream as handed to the pass:
    /// `Some` when already known, `None` when nothing has scored it yet. A
    /// pass that needs it scores the unedited stream and stores the result
    /// there; it never stores the cost of an edited stream.
    ///
    /// A pass that trials edits counts its decisions in `decisions`.
    fn run(
        &self,
        ir: &mut IrProgram,
        backend: &dyn Backend,
        cost: &mut Option<Cost>,
        decisions: &mut Decisions,
    ) -> usize;
}

/// A pass run's decision counters: why it did, or did not, edit.
///
/// The counts are a function of the input stream alone — deterministic
/// across runs and thread counts — and no decision ever reads them. Only
/// passes that trial edits ([`Forward`]) count anything. They describe the
/// pass's own decisions, so they stand even when the [`PassManager`]
/// reverts the whole run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Decisions {
    /// Candidate edits applied and scored (`accepted + rejected`).
    pub trials: usize,
    /// Trials the quality gate committed.
    pub accepted: usize,
    /// Trials the quality gate turned down.
    pub rejected: usize,
    /// Candidates whose move was illegal or too large, never scored.
    pub blocked: usize,
    /// Candidates skipped because an earlier rejection or block of the
    /// same edit was memoized.
    pub memo_hits: usize,
}

impl std::ops::AddAssign for Decisions {
    fn add_assign(&mut self, other: Decisions) {
        self.trials += other.trials;
        self.accepted += other.accepted;
        self.rejected += other.rejected;
        self.blocked += other.blocked;
        self.memo_hits += other.memo_hits;
    }
}

/// One pass execution's accounting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PassRun {
    /// The pass that ran.
    pub pass: &'static str,
    /// `#I` before the pass.
    pub instructions_before: usize,
    /// `#I` after the pass.
    pub instructions_after: usize,
    /// Edits (removals + rewrites) the pass applied.
    pub edits: usize,
    /// The pass's decision counters.
    pub decisions: Decisions,
}

impl PassRun {
    /// Instructions this run removed (never negative: passes only shrink
    /// or rewrite the stream).
    pub fn removed(&self) -> usize {
        self.instructions_before - self.instructions_after
    }
}

/// Accounting for a whole pipeline execution.
///
/// The per-run `#I` deltas always sum to the end-to-end delta — each run's
/// `instructions_before` is the previous run's `instructions_after` — which
/// `tests/ir_passes.rs` pins as an invariant.
#[derive(Debug, Clone)]
pub struct PassReport {
    /// Every pass execution, in order (including no-op runs).
    pub runs: Vec<PassRun>,
    /// Whether the pipeline stopped on its own: `false` only when the
    /// `-O2` fixpoint iteration ran out of rounds while its last round
    /// still edited the stream. Single-round levels always converge.
    pub converged: bool,
}

impl PassReport {
    /// Total instructions removed across all runs.
    pub fn total_removed(&self) -> usize {
        self.runs.iter().map(PassRun::removed).sum()
    }
}

impl fmt::Display for PassReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut effective: Vec<&PassRun> = self.runs.iter().filter(|r| r.edits > 0).collect();
        if effective.is_empty() {
            return write!(f, "no pass fired");
        }
        effective.sort_by_key(|r| r.pass);
        let mut first = true;
        let mut index = 0;
        while index < effective.len() {
            let pass = effective[index].pass;
            let mut removed = 0;
            let mut edits = 0;
            while index < effective.len() && effective[index].pass == pass {
                removed += effective[index].removed();
                edits += effective[index].edits;
                index += 1;
            }
            if !first {
                write!(f, ", ")?;
            }
            first = false;
            write!(f, "{pass}: -{removed} #I ({edits} edits)")?;
        }
        Ok(())
    }
}

/// Maximum pipeline rounds at `-O2`. It is not only a backstop: every
/// reduced suite circuit and every other full-scale one reaches its
/// fixpoint before it, but full-scale `mem_ctrl` still forwards in its
/// eighth round, so the limit shapes that output and raising it changes
/// the emitted program. [`PassReport::converged`] says whether a run hit
/// it.
const MAX_ROUNDS: usize = 8;

/// Runs the pipeline an [`OptLevel`] selects, verifying after every pass.
#[derive(Debug)]
pub struct PassManager {
    passes: Vec<Box<dyn Pass>>,
    rounds: usize,
}

impl fmt::Debug for dyn Pass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Pass({})", self.name())
    }
}

impl PassManager {
    /// The pipeline of an optimization level.
    ///
    /// Within a round, rewrites run before removals and [`DeadWrite`] runs
    /// last, so the feeder initializations a [`Peephole`] fold orphans are
    /// swept in the same round — the `init + op → init` fusion completes
    /// even in `-O1`'s single round.
    pub fn for_level(opt: OptLevel) -> Self {
        let (passes, rounds): (Vec<Box<dyn Pass>>, usize) = match opt {
            OptLevel::O0 => (Vec::new(), 0),
            OptLevel::O1 => (
                vec![
                    Box::new(Peephole),
                    Box::new(RedundantInit),
                    Box::new(DeadWrite),
                ],
                1,
            ),
            OptLevel::O2 => (
                vec![
                    Box::new(Forward),
                    Box::new(Peephole),
                    Box::new(RedundantInit),
                    Box::new(DeadWrite),
                ],
                MAX_ROUNDS,
            ),
        };
        PassManager { passes, rounds }
    }

    /// Runs the pipeline to completion (one round at `-O1`, fixpoint at
    /// `-O2`), returning the per-pass accounting.
    ///
    /// Trial edits are scored under `backend`'s cost model; for the RM3
    /// backend that model is exactly the historical `(#I, #R, max-writes)`
    /// allocator replay, so every gating decision — and every emitted byte
    /// — is unchanged from the pre-trait pipeline.
    ///
    /// After every pass that edited the stream, the IR is structurally
    /// re-checked, and in debug/test builds the emitted program is verified
    /// equivalent to `mig` on the machine simulator.
    ///
    /// # Panics
    ///
    /// Panics if a pass produces structurally invalid IR or (debug builds)
    /// a program that is not equivalent to the source MIG — both are
    /// compiler bugs that must not reach emitted artifacts.
    pub fn run(&self, ir: &mut IrProgram, mig: &Mig, backend: &dyn Backend) -> PassReport {
        let mut report = PassReport {
            runs: Vec::new(),
            converged: self.rounds <= 1,
        };
        // The current stream's cost, threaded across pass runs: each
        // editing pass pays exactly one scoring (for its after-state), and
        // no-op runs pay none. Scored on first use, like `baseline`.
        let mut current: Option<Cost> = None;
        // Translation validation: the analyzer's structural lint counts at
        // pipeline entry. A pass run that raises any count is reverted
        // wholesale, exactly like a quality-gate rejection — the analyzer
        // is the arbiter, the `check` panic below only a backstop for
        // streams so broken the analyzer itself missed them. Every pass
        // before the first editing one left the stream untouched, so the
        // entry counts are those of that pass's snapshot.
        let structural = analysis::AnalysisConfig::structural();
        let mut baseline: Option<[usize; analysis::LINT_COUNT]> = None;
        for _ in 0..self.rounds {
            let mut round_edits = 0;
            for pass in &self.passes {
                let instructions_before = ir.num_instructions();
                let snapshot = ir.clone();
                let mut decisions = Decisions::default();
                let mut edits = pass.run(ir, backend, &mut current, &mut decisions);
                if edits > 0 {
                    let entry = *baseline.get_or_insert_with(|| {
                        analysis::lint_counts(&analysis::analyze_events(&snapshot, &structural))
                    });
                    let after = analysis::lint_counts(&analysis::analyze_events(ir, &structural));
                    if analysis::introduces(&entry, &after) {
                        *ir = snapshot;
                        report.runs.push(PassRun {
                            pass: pass.name(),
                            instructions_before,
                            instructions_after: instructions_before,
                            edits: 0,
                            decisions,
                        });
                        continue;
                    }
                    if let Err(error) = ir.check() {
                        panic!("pass `{}` produced invalid IR: {error}", pass.name());
                    }
                    // Quality guard: a pass may only trade instructions
                    // down, never footprint or endurance up. Allocator
                    // replay makes footprint/wear global properties of the
                    // stream, so an edit that shifts reuse the wrong way is
                    // reverted wholesale rather than shipped.
                    let before_cost = *current.get_or_insert_with(|| backend.cost(&snapshot));
                    let after_cost = backend.cost(ir);
                    if after_cost.worse_than(before_cost) {
                        *ir = snapshot;
                        edits = 0;
                    } else {
                        current = Some(after_cost);
                        #[cfg(debug_assertions)]
                        if let Err(error) =
                            crate::verify::verify(mig, &super::emit(ir), 1, 0xDAC2016)
                        {
                            panic!(
                                "pass `{}` broke machine-simulator equivalence: {error}",
                                pass.name()
                            );
                        }
                    }
                }
                #[cfg(not(debug_assertions))]
                let _ = mig;
                report.runs.push(PassRun {
                    pass: pass.name(),
                    instructions_before,
                    instructions_after: ir.num_instructions(),
                    edits,
                    decisions,
                });
                round_edits += edits;
            }
            if round_edits == 0 {
                report.converged = true;
                break;
            }
        }
        report
    }
}

/// Drops request/release events of cells no surviving op or output touches,
/// so emission never allocates for values the passes optimized away.
fn gc_cells(ir: &mut IrProgram) {
    let mut referenced = vec![false; ir.cells.len()];
    for &event in &ir.events {
        if let Event::Op(i) = event {
            let op = &ir.ops[i as usize];
            for value in [op.a, op.b] {
                if let Value::Cell(c) = value {
                    referenced[c.index()] = true;
                }
            }
            referenced[op.z.index()] = true;
        }
    }
    for (_, output) in &ir.outputs {
        if let IrOutput::Cell(c) = output {
            referenced[c.index()] = true;
        }
    }
    ir.events.retain(|event| match event {
        Event::Request(c) | Event::Release(c) => referenced[c.index()],
        Event::Op(_) => true,
    });
}

/// The constant a masking op writes (`None` for non-masking ops).
fn masked_const(op: &super::IrOp) -> Option<bool> {
    match (op.a, op.b) {
        (Value::Const(x), Value::Const(y)) if x != y => Some(x),
        _ => None,
    }
}

/// Dead-write elimination: one backward liveness sweep over virtual cells.
///
/// A write is dead when no later instruction reads the cell — as an
/// operand or as a non-masking destination's old value — before the cell
/// is re-initialized or the program ends, and the cell is not a primary
/// output. Removing a write in the backward sweep also un-marks its own
/// reads, so whole feeder chains fall in a single run.
#[derive(Debug)]
pub struct DeadWrite;

impl Pass for DeadWrite {
    fn name(&self) -> &'static str {
        "dead-write"
    }

    fn run(
        &self,
        ir: &mut IrProgram,
        _backend: &dyn Backend,
        _cost: &mut Option<Cost>,
        _decisions: &mut Decisions,
    ) -> usize {
        let mut needed = vec![false; ir.cells.len()];
        for (_, output) in &ir.outputs {
            if let IrOutput::Cell(c) = output {
                needed[c.index()] = true;
            }
        }
        let mut keep = vec![true; ir.events.len()];
        let mut edits = 0;
        for pos in (0..ir.events.len()).rev() {
            let Some(op) = ir.op_of(ir.events[pos]) else {
                continue;
            };
            if !needed[op.z.index()] {
                keep[pos] = false;
                edits += 1;
                continue;
            }
            needed[op.z.index()] = !op.masking();
            for value in [op.a, op.b] {
                if let Value::Cell(c) = value {
                    needed[c.index()] = true;
                }
            }
        }
        if edits > 0 {
            let mut index = 0;
            ir.events.retain(|_| {
                index += 1;
                keep[index - 1]
            });
            gc_cells(ir);
        }
        edits
    }
}

/// Forward known-constant dataflow shared by [`RedundantInit`] and
/// [`Peephole`]: calls `action` for every op event with the op's known
/// result (if determined) and whether the cell already holds exactly that
/// value. `action` returns `true` to *remove* the op event.
fn const_flow(
    ir: &mut IrProgram,
    mut action: impl FnMut(&mut super::IrOp, Option<bool>, bool) -> bool,
) -> usize {
    let mut known: Vec<Option<bool>> = vec![None; ir.cells.len()];
    let mut defined = vec![false; ir.cells.len()];
    let mut keep = vec![true; ir.events.len()];
    let mut edits = 0;
    // Indexed loop: the body mutates `ir.ops` through the same borrow the
    // events live under, so an iterator over `ir.events` cannot be held.
    #[allow(clippy::needless_range_loop)]
    for pos in 0..ir.events.len() {
        match ir.events[pos] {
            Event::Request(c) => {
                known[c.index()] = None;
                defined[c.index()] = false;
            }
            Event::Release(_) => {}
            Event::Op(i) => {
                let value_of = |v: Value, known: &[Option<bool>]| match v {
                    Value::Const(x) => Some(x),
                    Value::Input(_) => None,
                    Value::Cell(c) => known[c.index()],
                };
                let op = &mut ir.ops[i as usize];
                let z = op.z.index();
                let result = if let Some(v) = masked_const(op) {
                    Some(v)
                } else if matches!((op.a, op.b), (Value::Const(x), Value::Const(y)) if x == y) {
                    // ⟨x x̄ z⟩ = z: an identity write.
                    if defined[z] {
                        known[z]
                    } else {
                        None
                    }
                } else {
                    let p = value_of(op.a, &known);
                    let q = value_of(op.b, &known).map(|v| !v);
                    let r = if defined[z] { known[z] } else { None };
                    match (p, q, r) {
                        (Some(x), Some(y), _) if x == y => Some(x),
                        (Some(x), _, Some(y)) if x == y => Some(x),
                        (_, Some(x), Some(y)) if x == y => Some(x),
                        (Some(x), Some(y), Some(w)) => {
                            Some(usize::from(x) + usize::from(y) + usize::from(w) >= 2)
                        }
                        _ => None,
                    }
                };
                let identity = matches!((op.a, op.b), (Value::Const(x), Value::Const(y)) if x == y)
                    && defined[z];
                let resident = defined[z] && result.is_some() && known[z] == result;
                if (identity || resident) && action(op, result, true)
                    || (!identity && !resident && action(op, result, false))
                {
                    keep[pos] = false;
                    edits += 1;
                    continue; // removed: the cell keeps its previous value
                }
                known[z] = result;
                defined[z] = true;
            }
        }
    }
    if edits > 0 {
        let mut index = 0;
        ir.events.retain(|_| {
            index += 1;
            keep[index - 1]
        });
        gc_cells(ir);
    }
    edits
}

/// Redundant-initialization removal.
///
/// Tracks which constant each cell provably holds and removes ops that
/// re-materialize exactly that value — a reset of a cell already holding 0,
/// a constant-foldable RM3 whose result equals the resident value, or an
/// identity `⟨x x̄ z⟩` write.
#[derive(Debug)]
pub struct RedundantInit;

impl Pass for RedundantInit {
    fn name(&self) -> &'static str {
        "redundant-init"
    }

    fn run(
        &self,
        ir: &mut IrProgram,
        _backend: &dyn Backend,
        _cost: &mut Option<Cost>,
        _decisions: &mut Decisions,
    ) -> usize {
        const_flow(ir, |_op, _result, resident| resident)
    }
}

/// Same-cell peephole fusion.
///
/// Folds a non-masking op whose result is fully determined by resident
/// constants into the plain set/reset idiom. That removes its reads — in
/// particular the destination's old value — which typically leaves the
/// feeding initialization dead for the next [`DeadWrite`] run: the
/// classic `init + op` → `init` fusion of adjacent same-cell ops, done via
/// dataflow so intervening unrelated instructions don't hide the pair.
#[derive(Debug)]
pub struct Peephole;

impl Pass for Peephole {
    fn name(&self) -> &'static str {
        "peephole"
    }

    fn run(
        &self,
        ir: &mut IrProgram,
        _backend: &dyn Backend,
        _cost: &mut Option<Cost>,
        _decisions: &mut Decisions,
    ) -> usize {
        let mut edits = 0;
        const_flow(ir, |op, result, resident| {
            if resident {
                return false; // RedundantInit's case; don't double-handle
            }
            if let Some(v) = result {
                if !op.masking() {
                    op.a = Value::Const(v);
                    op.b = Value::Const(!v);
                    edits += 1;
                }
            }
            false
        });
        edits
    }
}

/// In-place-overwrite forwarding (the `-O2` workhorse).
///
/// Pattern: a node's main RM3 reads a destination value that lowering
/// materialized into a fresh cell — `init c` (1 op) or `set; copy s`
/// (2 ops) — while a cell holding one of the instruction's *plain* inputs
/// is physically dead afterwards: every one of its remaining touches is a
/// plain operand read (never an in-place overwrite), after which it is
/// re-initialized, released, or simply never used again. Majority is
/// symmetric in its two plain contributions (`A` and the destination's old
/// value), so the instruction can swap them: delete the materialization,
/// move the instruction just past the dying cell's last read, and
/// overwrite the dying cell in place. Later uses of the node's value are
/// renamed onto the claimed cell, whose release moves to the end of the
/// merged lifetime.
///
/// Instructions that depend on the moved one (consumers of the node's
/// value scheduled inside the move window, and transitively everything
/// ordered against them through a shared cell) move with it as a block in
/// original relative order, so the forwarding sees through the tight
/// producer-consumer packing the scheduler emits.
///
/// # One sweep
///
/// A run builds one `CellIndex` and sweeps the stream once, front to
/// back. Every op starts *pending*; visiting a pending op trials its
/// candidates (the copy source, then the op's own plain operand) in order
/// and clears it. A candidate that the quality gate rejected, or whose
/// move is blocked, is memoized for its op and never tried again. A
/// committed edit patches the index in place and marks pending again
/// exactly the ops whose eligibility it can have changed, and the sweep
/// resumes at the first pending op. Those ops are:
///
/// * every op touching a cell whose touch list, request, release or output
///   status the edit changed: the old destination `x`, the claimed cell
///   `d`, the new `A` operand and `b` (all touched by the forwarded op), and
///   every cell of the moved block (which covers the relocated releases);
/// * the op right after a *copy* of such a cell in the copy's destination:
///   its chain reads the cell through the copy, so its source checks depend
///   on the cell without touching it.
///
/// Any other op the sweep already passed still has no eligible candidate,
/// so the sweep makes exactly the trials, in exactly the order, of
/// rescanning the whole stream after every commit — the historical driver,
/// kept as a `#[cfg(test)]` oracle that the unit tests diff against.
///
/// Cost of a run over `E` events with `T` trials: O(E) for the index, a
/// few touch-list lookups per visit, and per trial one O(E) stream rebuild
/// plus the backend's cost replay, which dominates — O(E + T·E) overall.
#[derive(Debug)]
pub struct Forward;

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
        if let Some(known) = *cost {
            debug_assert_eq!(known, backend.cost(ir), "the manager's cost is stale");
        }
        let edits = Sweep::new(ir, backend, cost, decisions).run();
        if edits > 0 {
            gc_cells(ir);
        }
        edits
    }
}

/// How a position touches a cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Touch {
    /// Read as an operand or as a non-masking destination's old value.
    Read,
    /// Masking write: begins a fresh value, old value unread.
    DefMask,
    /// Non-masking write (always paired with a [`Touch::Read`]).
    DefPlain,
}

/// Calls `f` for every touch of `op`, in index order: `a`, `b`, then the
/// destination (a `Read` and a `DefPlain` unless the op is masking).
fn for_each_touch(op: &super::IrOp, mut f: impl FnMut(CellId, Touch)) {
    for value in [op.a, op.b] {
        if let Value::Cell(c) = value {
            f(c, Touch::Read);
        }
    }
    if op.masking() {
        f(op.z, Touch::DefMask);
    } else {
        f(op.z, Touch::Read);
        f(op.z, Touch::DefPlain);
    }
}

/// "No position" in the index and "no entry" in the memo lists.
const NONE: u32 = u32::MAX;

/// The per-cell event index of one forwarding run, built once and patched
/// in place after every committed edit.
///
/// Each cell's touches are one run of `pool`, in stream order, one entry
/// per touch. Entries name ops rather than positions, so deleting events
/// keeps every list sorted; `pos` maps each op to its current position.
struct CellIndex {
    /// `(start, len)` of each cell's touch list in `pool`.
    span: Vec<(u32, u32)>,
    /// The touch lists, plus the holes patching left behind.
    pool: Vec<(u32, Touch)>,
    /// Entries of `pool` inside some cell's span.
    live: usize,
    /// Stream position of each op (`NONE` when not in the stream).
    pos: Vec<u32>,
    /// Position of each cell's request (`NONE` when it has none).
    request: Vec<u32>,
    /// Position of each cell's release (`NONE` when it has none).
    release: Vec<u32>,
    /// Whether the cell holds a primary output at program end.
    is_output: Vec<bool>,
}

impl CellIndex {
    fn build(ir: &IrProgram) -> Self {
        let cells = ir.cells.len();
        let mut index = CellIndex {
            span: vec![(0, 0); cells],
            pool: Vec::new(),
            live: 0,
            pos: vec![NONE; ir.ops.len()],
            request: vec![NONE; cells],
            release: vec![NONE; cells],
            is_output: vec![false; cells],
        };
        // Count each cell's touches, lay the lists out back to back, fill.
        for (p, &event) in ir.events.iter().enumerate() {
            match event {
                Event::Request(c) => index.request[c.index()] = p as u32,
                Event::Release(c) => index.release[c.index()] = p as u32,
                Event::Op(i) => {
                    index.pos[i as usize] = p as u32;
                    for_each_touch(&ir.ops[i as usize], |c, _| index.span[c.index()].1 += 1);
                }
            }
        }
        let mut start = 0;
        for span in &mut index.span {
            let count = span.1;
            *span = (start, 0);
            start += count;
        }
        index.pool = vec![(0, Touch::Read); start as usize];
        index.live = start as usize;
        for &event in &ir.events {
            if let Event::Op(i) = event {
                for_each_touch(&ir.ops[i as usize], |c, touch| {
                    let span = &mut index.span[c.index()];
                    index.pool[(span.0 + span.1) as usize] = (i, touch);
                    span.1 += 1;
                });
            }
        }
        for (_, output) in &ir.outputs {
            if let IrOutput::Cell(c) = output {
                index.is_output[c.index()] = true;
            }
        }
        index
    }

    /// The op's current stream position.
    fn position(&self, op: u32) -> usize {
        self.pos[op as usize] as usize
    }

    /// Every touch of `cell`, in stream order.
    fn touches(&self, cell: CellId) -> &[(u32, Touch)] {
        let (start, len) = self.span[cell.index()];
        &self.pool[start as usize..(start + len) as usize]
    }

    /// The touches of `cell` strictly after position `pos`.
    fn touches_after(&self, cell: CellId, pos: usize) -> &[(u32, Touch)] {
        let touches = self.touches(cell);
        &touches[touches.partition_point(|&(op, _)| self.position(op) <= pos)..]
    }

    /// If every touch of `cell` after `pos` is a plain read (its in-place
    /// overwrite slot goes unused) and the cell is never written again nor
    /// an output, the position of its last such read (`pos` when there is
    /// none); otherwise `None`.
    ///
    /// Any later write disqualifies the cell — including a *masking* one:
    /// lowering never re-initializes a virtual cell mid-lifetime, but a
    /// Peephole fold can turn an interior op into a set/reset, and claiming
    /// such a cell would let the rename put reads of the forwarded value
    /// behind that re-initialization.
    fn unused_slot_last_read(&self, cell: CellId, pos: usize) -> Option<usize> {
        if self.is_output[cell.index()] {
            return None;
        }
        let mut last = pos;
        for &(op, touch) in self.touches_after(cell, pos) {
            match touch {
                Touch::Read => last = self.position(op),
                Touch::DefMask | Touch::DefPlain => return None,
            }
        }
        Some(last)
    }

    /// Whether `cell` is written at a position in `(after, through]`.
    fn defined_between(&self, cell: CellId, after: usize, through: usize) -> bool {
        self.touches_after(cell, after)
            .iter()
            .take_while(|&&(op, _)| self.position(op) <= through)
            .any(|&(_, touch)| touch != Touch::Read)
    }

    /// Replaces `cell`'s touch list, in place when the new one fits.
    fn set_touches(&mut self, cell: CellId, list: &[(u32, Touch)]) {
        let span = &mut self.span[cell.index()];
        self.live = self.live - span.1 as usize + list.len();
        if list.len() > span.1 as usize {
            span.0 = self.pool.len() as u32;
            self.pool.extend_from_slice(list);
        } else {
            let start = span.0 as usize;
            self.pool[start..start + list.len()].copy_from_slice(list);
        }
        span.1 = list.len() as u32;
        // Lists that outgrow their slot move to the end; once the holes
        // outweigh the lists, pack them again.
        if self.pool.len() > 2 * self.live + 4096 {
            let mut pool = Vec::with_capacity(self.live);
            for span in &mut self.span {
                let start = span.0 as usize;
                span.0 = pool.len() as u32;
                pool.extend_from_slice(&self.pool[start..start + span.1 as usize]);
            }
            self.pool = pool;
        }
    }

    /// Whether this index describes `ir` exactly as a fresh build would
    /// (pool layout aside).
    #[cfg(any(test, debug_assertions))]
    fn describes(&self, ir: &IrProgram) -> bool {
        let fresh = CellIndex::build(ir);
        (0..self.span.len())
            .all(|c| self.touches(CellId(c as u32)) == fresh.touches(CellId(c as u32)))
            && self.pos == fresh.pos
            && self.request == fresh.request
            && self.release == fresh.release
            && self.is_output == fresh.is_output
    }
}

/// Upper bound on instructions dragged along with a forwarded one. It is
/// part of the forwarding rules — a larger bound makes more edits legal
/// and so changes the output — and it caps the dependence closure's work.
const MOVE_CAP: usize = 16;

/// One [`Forward`] run: the index, the pending set, the rejection memo and
/// the scratch buffers every trial reuses.
struct Sweep<'a> {
    ir: &'a mut IrProgram,
    backend: &'a dyn Backend,
    /// The manager's cost of the stream as handed to the pass.
    entry: &'a mut Option<Cost>,
    decisions: &'a mut Decisions,
    /// The cost of the stream as edited so far.
    baseline: Option<Cost>,
    index: CellIndex,
    /// Ops the sweep has still to visit.
    pending: Vec<bool>,
    /// Rejected or blocked claims, one list per op in a flat pool:
    /// `memo_head[op]` starts a chain of `(claimed cell, next)` links.
    memo_head: Vec<u32>,
    memo: Vec<(u32, u32)>,
    /// The stream before the current trial — the trial's undo state — or
    /// the buffer the next trial builds into.
    spare: Vec<Event>,
    /// Ops the current trial rewrote, with their original words (the
    /// forwarded op first, then the renamed uses of its old destination).
    undo_ops: Vec<(u32, super::IrOp)>,
    /// Outputs the current trial renamed.
    undo_outputs: Vec<usize>,
    /// The move block: the forwarded op, then the ops moving with it.
    block: Vec<u32>,
    /// Cells the block touches (after the rename).
    block_cells: Vec<CellId>,
    /// Old positions of the events the trial deletes.
    cuts: Vec<usize>,
    /// Releases moving with the block: old position and the block entry
    /// they follow.
    relocated: Vec<(usize, u32)>,
    /// Old positions of every event leaving its place.
    leaving: Vec<usize>,
    /// Generation-stamped marks (`== stamp` means set), so no scratch set
    /// is ever cleared: the move closure's written and read cells and
    /// joined ops, reused by [`Sweep::apply`] (cells) and
    /// [`Sweep::commit`] (ops) under fresh stamps; `last_entry` is each
    /// block cell's last block entry.
    stamp: u32,
    def_mark: Vec<u32>,
    read_mark: Vec<u32>,
    op_mark: Vec<u32>,
    last_entry: Vec<u32>,
    work: Vec<(CellId, bool)>,
    list: Vec<(u32, Touch)>,
}

impl<'a> Sweep<'a> {
    fn new(
        ir: &'a mut IrProgram,
        backend: &'a dyn Backend,
        entry: &'a mut Option<Cost>,
        decisions: &'a mut Decisions,
    ) -> Self {
        let (ops, cells) = (ir.ops.len(), ir.cells.len());
        Sweep {
            index: CellIndex::build(ir),
            spare: Vec::with_capacity(ir.events.len()),
            ir,
            backend,
            entry,
            decisions,
            baseline: None,
            pending: vec![true; ops],
            memo_head: vec![NONE; ops],
            memo: Vec::new(),
            undo_ops: Vec::new(),
            undo_outputs: Vec::new(),
            block: Vec::new(),
            block_cells: Vec::new(),
            cuts: Vec::new(),
            relocated: Vec::new(),
            leaving: Vec::new(),
            stamp: 0,
            def_mark: vec![0; cells],
            read_mark: vec![0; cells],
            op_mark: vec![0; ops],
            last_entry: vec![0; cells],
            work: Vec::new(),
            list: Vec::new(),
        }
    }

    /// Sweeps the stream once, returning the number of committed edits.
    fn run(mut self) -> usize {
        let mut edits = 0;
        let mut cursor = 0;
        while cursor < self.ir.events.len() {
            if let Event::Op(k) = self.ir.events[cursor] {
                if std::mem::take(&mut self.pending[k as usize]) {
                    if let Some(resume) = self.visit(k, cursor) {
                        edits += 1;
                        cursor = resume;
                        continue;
                    }
                }
            }
            cursor += 1;
        }
        edits
    }

    fn memoized(&self, op: u32, cell: CellId) -> bool {
        let mut link = self.memo_head[op as usize];
        while link != NONE {
            let (claimed, next) = self.memo[link as usize];
            if claimed == cell.0 {
                return true;
            }
            link = next;
        }
        false
    }

    fn memoize(&mut self, op: u32, cell: CellId) {
        self.memo.push((cell.0, self.memo_head[op as usize]));
        self.memo_head[op as usize] = (self.memo.len() - 1) as u32;
    }

    /// Visits op `k` at position `pos`: trials its candidates in order and
    /// commits the first the quality gate accepts. Returns the position
    /// the sweep resumes from after a commit.
    fn visit(&mut self, k: u32, pos: usize) -> Option<usize> {
        let op = self.ir.ops[k as usize];
        if op.masking() {
            return None;
        }
        let x = op.z;
        // The destination's history must be exactly a materialization
        // chain: `init c`, or `set; ⟨s 1̄ x⟩` copying `s`.
        let mut chain = [NONE; 2];
        let mut len = 0;
        for &(o, _) in self.index.touches(x) {
            if self.index.position(o) >= pos {
                break;
            }
            if len > 0 && chain[len - 1] == o {
                continue;
            }
            if len == 2 {
                return None;
            }
            chain[len] = o;
            len += 1;
        }
        let chain = &chain[..len];
        let z_value = match *chain {
            [init] => {
                let init_op = &self.ir.ops[init as usize];
                match masked_const(init_op) {
                    Some(value) if init_op.z == x => Value::Const(value),
                    _ => return None,
                }
            }
            [init, copy] => {
                let init_op = &self.ir.ops[init as usize];
                let copy_op = &self.ir.ops[copy as usize];
                let is_set = masked_const(init_op) == Some(true) && init_op.z == x;
                let is_copy = copy_op.z == x
                    && copy_op.b == Value::Const(true)
                    && !matches!(copy_op.a, Value::Const(_));
                if !(is_set && is_copy) {
                    return None;
                }
                copy_op.a
            }
            _ => return None,
        };
        // Candidate dying cells to overwrite in place: the copy's source,
        // then the op's own plain operand. Both re-read the copy's source
        // at the main op's (new) position rather than at the copy's: the
        // source must still hold the copied value there. A release in the
        // gap is survivable (the src candidate drops it when merging
        // lifetimes), a redefinition is not — and the rot candidate cannot
        // resurrect a released source.
        let chain_start = self.index.position(chain[0]);
        let (gap_def, gap_release) = match z_value {
            Value::Cell(s) => {
                let release = self.index.release[s.index()];
                (
                    self.index.defined_between(s, chain_start, pos),
                    release != NONE && release as usize > chain_start && (release as usize) < pos,
                )
            }
            _ => (false, false),
        };
        let src = match z_value {
            // Overwrite the copy source: ⟨a b̄ s⟩ keeps the old-value slot.
            Value::Cell(s) if !gap_def => Some((s, op.a)),
            _ => None,
        };
        let rot = match op.a {
            // Rotate: the old-value contribution moves into the A slot.
            Value::Cell(w) if !matches!(z_value, Value::Cell(_)) || !gap_def && !gap_release => {
                Some((w, z_value))
            }
            _ => None,
        };
        for (d, new_a) in [src, rot].into_iter().flatten() {
            if d == x
                || Some(d) == op.b.cell()
                || new_a.cell() == Some(d)
                || self.index.is_output[d.index()]
            {
                continue;
            }
            if self.memoized(k, d) {
                self.decisions.memo_hits += 1;
                continue;
            }
            let Some(last_read) = self.index.unused_slot_last_read(d, pos) else {
                continue;
            };
            if !self.move_set(k, pos, x, d, new_a, op.b, last_read) {
                // Memoized like quality rejections: re-deriving the closure
                // whenever the op is revisited would buy nothing.
                self.decisions.blocked += 1;
                self.memoize(k, d);
                continue;
            }
            // Trial the edit and commit only if it strictly improves the
            // instruction count without costing footprint or endurance
            // under the active backend's model: lifetime merges shift the
            // allocator's replay, so the effect is global and easiest to
            // judge on the edited stream itself.
            let before = *self.baseline.get_or_insert_with(|| {
                *self.entry.get_or_insert_with(|| self.backend.cost(self.ir))
            });
            self.apply(k, pos, chain, d, new_a, last_read);
            self.decisions.trials += 1;
            #[cfg(debug_assertions)]
            if let Err(e) = self.ir.check() {
                panic!(
                    "forwarding produced invalid IR: {e} (pos={pos} x=%{} d=%{} \
                     last_read={last_read} block={:?} chain={chain:?})",
                    x.0, d.0, self.block
                );
            }
            let after = self.backend.cost(self.ir);
            if after.improves_on(before) {
                self.decisions.accepted += 1;
                self.baseline = Some(after);
                return Some(self.commit(pos, chain, x, d));
            }
            self.decisions.rejected += 1;
            self.revert(x);
            self.memoize(k, d);
        }
        None
    }

    /// Computes into `block` the forwarded op followed by the window ops
    /// that must move with it so every cell's touch order is preserved, in
    /// stream order; `false` when the move is illegal.
    ///
    /// The forwarded op (at `pos`, writing `x`, about to be retargeted onto
    /// `d`) moves to just after `last_read`. A window op joins the block
    /// when it touches a cell the block writes, or writes a cell the block
    /// reads — the classic dependence closure, with one twist: reads of `d`
    /// must NOT join, because the whole transformation relies on them
    /// keeping their place *before* the block overwrites `d`. If the
    /// closure would capture a `d`-reader, or grows past [`MOVE_CAP`], the
    /// move is rejected.
    ///
    /// The closure does not depend on the order ops join in, so a worklist
    /// of newly written and newly read cells walks only their touch lists
    /// inside the window.
    #[allow(clippy::too_many_arguments)]
    fn move_set(
        &mut self,
        k: u32,
        pos: usize,
        x: CellId,
        d: CellId,
        new_a: Value,
        b: Value,
        last_read: usize,
    ) -> bool {
        self.stamp += 1;
        let stamp = self.stamp;
        let Sweep {
            ir,
            index,
            block,
            work,
            def_mark,
            read_mark,
            op_mark,
            ..
        } = self;
        block.clear();
        work.clear();
        def_mark[x.index()] = stamp;
        work.push((x, true));
        for c in [new_a.cell(), b.cell(), Some(d)].into_iter().flatten() {
            if read_mark[c.index()] != stamp {
                read_mark[c.index()] = stamp;
                work.push((c, false));
            }
        }
        // `(cell, written)`: a written cell pulls in every window op that
        // touches it, a read cell only the ops that write it.
        while let Some((cell, written)) = work.pop() {
            for &(o, touch) in index.touches_after(cell, pos) {
                if index.position(o) > last_read {
                    break;
                }
                if !written && touch == Touch::Read || op_mark[o as usize] == stamp {
                    continue;
                }
                let op = &ir.ops[o as usize];
                if op.reads().any(|r| r == d) {
                    return false; // a d-reader may not cross the overwrite
                }
                op_mark[o as usize] = stamp;
                block.push(o);
                if block.len() > MOVE_CAP {
                    return false;
                }
                if def_mark[op.z.index()] != stamp {
                    def_mark[op.z.index()] = stamp;
                    work.push((op.z, true));
                }
                for r in op.reads() {
                    if read_mark[r.index()] != stamp {
                        read_mark[r.index()] = stamp;
                        work.push((r, false));
                    }
                }
            }
        }
        block.sort_unstable_by_key(|&o| index.position(o));
        block.insert(0, k);
        true
    }

    /// Applies one forwarding edit: rewrites the main op onto the dying
    /// cell, deletes the materialization chain, moves the op (and the rest
    /// of `block`) past the cell's last read — dragging releases of the
    /// involved cells along — renames the old destination onto the claimed
    /// cell, and merges the two lifetimes. The edited stream is built into
    /// `spare` and swapped in, so `spare` keeps the old one for
    /// [`Sweep::revert`].
    fn apply(
        &mut self,
        k: u32,
        pos: usize,
        chain: &[u32],
        d: CellId,
        new_a: Value,
        last_read: usize,
    ) {
        let Sweep {
            ir,
            index,
            spare,
            undo_ops,
            undo_outputs,
            block,
            block_cells,
            cuts,
            relocated,
            leaving,
            stamp,
            def_mark,
            last_entry,
            ..
        } = self;
        let x = ir.ops[k as usize].z;
        undo_ops.clear();
        undo_ops.push((k, ir.ops[k as usize]));
        ir.ops[k as usize].a = new_a;
        ir.ops[k as usize].z = d;

        // Rename every later use of the old destination onto the claimed
        // cell (an op's touches of one cell are adjacent in its list).
        let mut previous = NONE;
        for &(o, _) in index.touches_after(x, pos) {
            if o == previous {
                continue;
            }
            previous = o;
            let op = &mut ir.ops[o as usize];
            undo_ops.push((o, *op));
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
        undo_outputs.clear();
        for (i, (_, output)) in ir.outputs.iter_mut().enumerate() {
            if *output == IrOutput::Cell(x) {
                undo_outputs.push(i);
                *output = IrOutput::Cell(d);
            }
        }

        cuts.clear();
        cuts.extend(chain.iter().map(|&o| index.position(o)));
        if index.request[x.index()] != NONE {
            cuts.push(index.request[x.index()] as usize);
        }
        // Merge lifetimes: the claimed cell stays live until the old
        // destination's release (which is after every touch of the merged
        // cell); its own release is superseded. A missing release — a value
        // held to program end — wins.
        let (rx, rd) = (index.release[x.index()], index.release[d.index()]);
        let replaced = match (rx != NONE, rd != NONE) {
            (true, true) => {
                cuts.push(rd as usize);
                rx as usize
            }
            (true, false) => {
                cuts.push(rx as usize);
                usize::MAX
            }
            (false, true) => {
                cuts.push(rd as usize);
                usize::MAX
            }
            (false, false) => usize::MAX,
        };

        // Any release inside the window whose cell the block touches must
        // not fire before the block runs; relocate it to just after the
        // last block entry touching the cell, keeping the lifetime as tight
        // as the move allows (a longer hold can cost a fresh cell
        // downstream). The old destination was renamed onto the claimed
        // cell, so its release follows the claimed cell's touches.
        *stamp += 1;
        block_cells.clear();
        for (entry, &o) in block.iter().enumerate() {
            let op = &ir.ops[o as usize];
            for c in [op.a.cell(), op.b.cell(), Some(op.z)].into_iter().flatten() {
                if def_mark[c.index()] != *stamp {
                    def_mark[c.index()] = *stamp;
                    block_cells.push(c);
                }
                last_entry[c.index()] = entry as u32;
            }
        }
        relocated.clear();
        for &c in block_cells.iter() {
            let own = index.release[c.index()];
            let renamed = if c == d { rx } else { NONE };
            for release in [own, renamed] {
                let p = release as usize;
                if release != NONE && p > pos && p <= last_read && !cuts.contains(&p) {
                    relocated.push((p, last_entry[c.index()]));
                }
            }
        }
        relocated.sort_unstable();

        // Build the edited stream: copy the runs between leaving events,
        // and place the block (each entry followed by the releases it now
        // owns) right after `last_read`.
        leaving.clear();
        leaving.extend_from_slice(cuts);
        leaving.extend(block.iter().map(|&o| index.position(o)));
        leaving.extend(relocated.iter().map(|&(p, _)| p));
        leaving.sort_unstable();
        let events = &ir.events;
        let resolve = |p: usize| {
            if p == replaced {
                Event::Release(d)
            } else {
                events[p]
            }
        };
        let copy = |out: &mut Vec<Event>, from: usize, to: usize| {
            if from < to {
                out.extend_from_slice(&events[from..to]);
                if (from..to).contains(&replaced) {
                    let at = out.len() - (to - replaced);
                    out[at] = Event::Release(d);
                }
            }
        };
        let place_block = |out: &mut Vec<Event>| {
            for (entry, &o) in block.iter().enumerate() {
                out.push(Event::Op(o));
                for &(p, after) in relocated.iter() {
                    if after as usize == entry {
                        out.push(resolve(p));
                    }
                }
            }
        };
        spare.clear();
        let mut from = 0;
        let mut placed = false;
        for &p in leaving.iter() {
            if !placed && p > last_read {
                copy(spare, from, last_read + 1);
                from = last_read + 1;
                place_block(spare);
                placed = true;
            }
            copy(spare, from, p);
            from = p + 1;
        }
        if !placed {
            copy(spare, from, last_read + 1);
            from = last_read + 1;
            place_block(spare);
        }
        copy(spare, from, events.len());
        std::mem::swap(&mut ir.events, spare);
    }

    /// Reverts the trial [`Sweep::apply`] made, whose old destination was `x`.
    fn revert(&mut self, x: CellId) {
        std::mem::swap(&mut self.ir.events, &mut self.spare);
        for &(o, op) in self.undo_ops.iter().rev() {
            self.ir.ops[o as usize] = op;
        }
        for &i in &self.undo_outputs {
            self.ir.outputs[i].1 = IrOutput::Cell(x);
        }
    }

    /// Patches the index to the committed trial's stream and marks pending
    /// every op whose eligibility the edit can have changed (see
    /// [`Forward`]). Returns the position the sweep resumes from: the
    /// first such op, or the first event that followed the forwarded op's
    /// old position, whichever comes first.
    fn commit(&mut self, pos: usize, chain: &[u32], x: CellId, d: CellId) -> usize {
        let Sweep {
            ir,
            index,
            undo_ops,
            block_cells,
            cuts,
            leaving,
            pending,
            stamp,
            op_mark,
            list,
            ..
        } = self;
        // Positions, requests and releases: nothing before the first event
        // that left its place moved.
        for &o in chain {
            index.pos[o as usize] = NONE;
        }
        index.request[x.index()] = NONE;
        index.release[x.index()] = NONE;
        index.release[d.index()] = NONE;
        for (p, &event) in ir.events.iter().enumerate().skip(leaving[0]) {
            match event {
                Event::Op(o) => index.pos[o as usize] = p as u32,
                Event::Request(c) => index.request[c.index()] = p as u32,
                Event::Release(c) => index.release[c.index()] = p as u32,
            }
        }
        if std::mem::take(&mut index.is_output[x.index()]) {
            index.is_output[d.index()] = true;
        }

        // Touch lists: every cell a deleted, rewritten or moved op touches
        // is the old destination or one of the block's cells. Rebuild each
        // from its surviving entries plus the rewritten ops' new ones.
        *stamp += 1;
        for &(o, _) in undo_ops.iter() {
            op_mark[o as usize] = *stamp;
        }
        block_cells.push(x);
        for &c in block_cells.iter() {
            list.clear();
            list.extend(
                index.touches(c).iter().filter(|&&(o, _)| {
                    index.pos[o as usize] != NONE && op_mark[o as usize] != *stamp
                }),
            );
            for &(o, _) in undo_ops.iter() {
                for_each_touch(&ir.ops[o as usize], |cell, touch| {
                    if cell == c {
                        list.push((o, touch));
                    }
                });
            }
            list.sort_by_key(|&(o, _)| index.pos[o as usize]);
            index.set_touches(c, list);
        }

        // Everything from the forwarded op's old position on was never
        // visited; before it, only ops reading the changed cells — directly
        // or through a copy — can have gained a candidate.
        let mut resume = pos - cuts.iter().filter(|&&p| p < pos).count();
        for &c in block_cells.iter() {
            for &(o, _) in index.touches(c) {
                pending[o as usize] = true;
                resume = resume.min(index.position(o));
                let op = &ir.ops[o as usize];
                if op.a == Value::Cell(c) && op.b == Value::Const(true) {
                    // A copy of `c`: the op after it in its destination's
                    // list is the one whose chain it may complete.
                    let after = index.touches_after(op.z, index.position(o));
                    if let Some(&(next, _)) = after.first() {
                        pending[next as usize] = true;
                        resume = resume.min(index.position(next));
                    }
                }
            }
        }
        #[cfg(debug_assertions)]
        assert!(index.describes(ir), "the patched forwarding index is stale");
        resume
    }
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::{AtomicUsize, Ordering};

    use mig::Mig;
    use plim_benchmarks::suite::{self, Scale};

    use super::*;
    use crate::backend::{Artifact, InstructionInfo, Rm3Backend};
    use crate::CompilerOptions;

    /// The RM3 backend, counting how often the pipeline scores a stream.
    #[derive(Debug, Default)]
    struct Counting {
        costs: AtomicUsize,
    }

    impl Backend for Counting {
        fn name(&self) -> &'static str {
            "counting"
        }

        fn description(&self) -> &'static str {
            "RM3 with a cost-call counter"
        }

        fn instruction_set(&self) -> &'static [InstructionInfo] {
            Rm3Backend.instruction_set()
        }

        fn cost(&self, ir: &IrProgram) -> Cost {
            self.costs.fetch_add(1, Ordering::Relaxed);
            Rm3Backend.cost(ir)
        }

        fn emit(&self, ir: &IrProgram) -> Box<dyn Artifact> {
            Rm3Backend.emit(ir)
        }
    }

    /// Runs `opt`'s pipeline on `mig`'s lowering, returning the total
    /// edits, the number of cost calls, and whether the IR is unchanged.
    fn run(mig: &Mig, opt: OptLevel) -> (usize, usize, bool) {
        let mut ir = super::super::lower(mig, CompilerOptions::new());
        let before = format!("{ir:?}");
        let backend = Counting::default();
        let report = PassManager::for_level(opt).run(&mut ir, mig, &backend);
        let edits = report.runs.iter().map(|r| r.edits).sum();
        (
            edits,
            backend.costs.into_inner(),
            format!("{ir:?}") == before,
        )
    }

    #[test]
    fn o0_does_no_work_at_all() {
        let mig = suite::build("adder", Scale::Reduced).expect("known circuit");
        // Not vacuous: -O2 does edit (and so score) this circuit.
        let (edits, costs, _) = run(&mig, OptLevel::O2);
        assert!(edits > 0 && costs > 0);
        assert_eq!(run(&mig, OptLevel::O0), (0, 0, true));
    }

    #[test]
    fn pipelines_that_edit_nothing_never_score() {
        let mut mig = Mig::new();
        let [a, b, c] = [0, 1, 2].map(|i| mig.add_input(format!("x{i}")));
        let f = mig.maj(a, b, c);
        mig.add_output("f", f);
        for opt in [OptLevel::O1, OptLevel::O2] {
            assert_eq!(run(&mig, opt), (0, 0, true), "{opt:?}");
        }
    }

    /// Patching moves a list that outgrows its slot to the end of the
    /// pool; once the holes outweigh the lists the pool is packed again,
    /// and every list must come through intact.
    #[test]
    fn touch_lists_survive_pool_packing() {
        let mig = suite::build("ctrl", Scale::Reduced).expect("known circuit");
        let ir = super::super::lower(&mig, CompilerOptions::new());
        let mut index = CellIndex::build(&ir);
        let cell = CellId(0);
        let original = index.touches(cell).to_vec();
        let mut grown = original.clone();
        let mut appended = 0;
        for _ in 0..200 {
            grown.push((0, Touch::Read));
            appended += grown.len();
            index.set_touches(cell, &grown);
        }
        // Not vacuous: without packing the pool would hold every append.
        assert!(index.pool.len() < appended);
        assert!(index.pool.len() <= 2 * index.live + 4096);
        assert_eq!(index.touches(cell), grown.as_slice());
        index.set_touches(cell, &original);
        assert!(index.describes(&ir));
    }
}
