//! Emission: IR → physical [`plim::Program`].
//!
//! The emitter replays the IR's event stream through a fresh
//! [`RramAllocator`] of the program's strategy: a [`Event::Request`]
//! assigns the virtual cell a physical address, a [`Event::Release`]
//! returns it to the free pool, and every [`Event::Op`] becomes one RM3
//! instruction whose destination write is recorded on the allocator's
//! per-cell counters — the same funnel the lowering used, so
//! `max_cell_writes` stays exactly equal to the program's static endurance
//! profile no matter what the passes did to the stream.
//!
//! On an unedited stream the replay performs the identical
//! request/release/write sequence the lowering performed, so `-O0` output
//! is byte-identical to the historical single-step translator — listing
//! comments included, which is why ops carry only the comment's right-hand
//! side and the emitter re-renders the `X<addr> ←` prefix from the replayed
//! address.

use std::fmt::Write as _;

use plim::{Instruction, Operand, OutputLoc, Program, RamAddr};

use crate::alloc::RramAllocator;
use crate::program::{Rm3Program, Rm3Stats};

use super::{Event, IrOutput, IrProgram, Value};

/// Resources re-derived from an event stream alone, by replaying it through
/// a fresh allocator of the program's strategy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Replay {
    /// Instruction count (`#I`): one per [`Event::Op`].
    pub instructions: usize,
    /// Work-cell count (`#R`): the highest physical address any replayed
    /// instruction touches, plus one.
    pub rams: u32,
    /// The largest per-cell destination-write count.
    pub max_cell_writes: u64,
    /// Destination writes per physical cell, indexed by address.
    pub write_counts: Vec<u64>,
}

/// Replays only the allocator, without building the program (no listing
/// strings) — the RM3 cost model the pass pipeline consults per trial edit,
/// where full emission would dominate compile time, and the independent
/// resource certificate of `plim-analysis`.
///
/// Total: returns `None` if the stream is malformed (a release before a
/// request, an op touching a cell outside its lifetime, an unknown cell or
/// op) — exactly the streams on which
/// [`analyze_events`](super::analysis::analyze_events) reports structural
/// errors.
pub fn replay(ir: &IrProgram) -> Option<Replay> {
    let mut alloc = RramAllocator::new(ir.allocator);
    let mut addr: Vec<Option<RamAddr>> = vec![None; ir.cells.len()];
    let mut instructions = 0usize;
    let mut rams = 0u32;
    for &event in &ir.events {
        match event {
            Event::Request(c) => {
                let hint = ir.cells.get(c.index())?.hint;
                addr[c.index()] = Some(alloc.request_with_hint(hint));
            }
            Event::Release(c) => alloc.release(addr.get_mut(c.index())?.take()?),
            Event::Op(i) => {
                let op = ir.ops.get(i as usize)?;
                let z = (*addr.get(op.z.index())?)?;
                instructions += 1;
                alloc.note_write(z);
                rams = rams.max(z.0 + 1);
                for value in [op.a, op.b] {
                    if let Value::Cell(c) = value {
                        let a = (*addr.get(c.index())?)?;
                        rams = rams.max(a.0 + 1);
                    }
                }
            }
        }
    }
    let max_cell_writes = alloc.max_writes();
    Some(Replay {
        instructions,
        rams,
        max_cell_writes,
        write_counts: alloc.into_write_counts(),
    })
}

/// Replays the IR into an executable program with its cost metrics.
///
/// # Panics
///
/// Panics if the event stream is malformed (an op touching a cell outside
/// its request/release span); run [`IrProgram::check`] first when in doubt
/// — the pass pipeline does so after every pass.
pub fn emit(ir: &IrProgram) -> Rm3Program {
    let mut alloc = RramAllocator::new(ir.allocator);
    let mut addr: Vec<Option<RamAddr>> = vec![None; ir.cells.len()];
    let mut program = Program::new(ir.num_inputs);
    let mut peak_live = 0usize;

    let operand = |value: Value, addr: &[Option<RamAddr>]| match value {
        Value::Const(v) => Operand::Const(v),
        Value::Input(i) => Operand::Input(i),
        Value::Cell(c) => Operand::Ram(addr[c.index()].expect("read outside cell lifetime")),
    };

    for &event in &ir.events {
        match event {
            Event::Request(c) => {
                let a = alloc.request_with_hint(ir.cells[c.index()].hint);
                addr[c.index()] = Some(a);
                peak_live = peak_live.max(alloc.num_live());
            }
            Event::Release(c) => {
                let a = addr[c.index()].take().expect("release before request");
                alloc.release(a);
            }
            Event::Op(i) => {
                let op = &ir.ops[i as usize];
                let z = addr[op.z.index()].expect("write outside cell lifetime");
                let instruction = Instruction::new(operand(op.a, &addr), operand(op.b, &addr), z);
                alloc.note_write(z);
                // Sized for the common `X1234 ← ¬N123456`, so rendering
                // the comment allocates once.
                let mut comment = String::with_capacity(24);
                let _ = write!(comment, "X{} ← {}", z.0 + 1, op.rhs);
                program.push_commented(instruction, comment);
            }
        }
    }

    for (name, output) in &ir.outputs {
        let loc = match *output {
            IrOutput::Cell(c) => {
                OutputLoc::Ram(addr[c.index()].expect("output cell released before program end"))
            }
            IrOutput::Input {
                index,
                complemented,
            } => OutputLoc::Input {
                index,
                complemented,
            },
            IrOutput::Const(v) => OutputLoc::Const(v),
        };
        program.add_output(name.clone(), loc);
    }

    let stats = Rm3Stats {
        instructions: program.len(),
        rams: program.num_rams(),
        mig_nodes: ir.mig_nodes,
        peak_live,
        max_cell_writes: alloc.max_writes(),
    };
    Rm3Program { program, stats }
}
