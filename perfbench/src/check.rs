//! The benchmark's own output check, independent of the compiler's
//! `verify`: every compiled program runs on the `plim` machine
//! interpreter and must match `mig::simulate` of the *source* graph (before
//! rewriting), and the emitted listing must describe exactly the
//! instructions that ran.

use mig::simulate::{simulate, variable_word, XorShift64};
use mig::Mig;
use plim::wide::WideMachine;
use plim::Program;

/// Circuits with at most this many inputs are checked on every pattern.
const EXHAUSTIVE_INPUTS: usize = 14;

/// 64-pattern words checked per circuit above [`EXHAUSTIVE_INPUTS`].
const RANDOM_WORDS: usize = 16;

/// Checks `program` (whose emitted listing is `listing`) against the
/// source graph `source`, with random patterns drawn from `seed`.
///
/// # Errors
///
/// A one-line description of the first disagreement.
pub fn check_program(
    source: &Mig,
    program: &Program,
    listing: &str,
    seed: u64,
) -> Result<(), String> {
    let listed = parse_listing(listing, program.num_inputs())?;
    if listed.instructions() != program.instructions() {
        return Err("the listing does not describe the program that ran".to_string());
    }
    let names_agree = program.outputs().len() == source.num_outputs()
        && program
            .outputs()
            .iter()
            .zip(source.outputs())
            .all(|((a, _), (b, _))| a == b);
    if !names_agree {
        return Err("program outputs differ from the source outputs".to_string());
    }
    let n = source.num_inputs();
    let mut machine = WideMachine::<u64>::new();
    let mut run = |words: &[u64]| -> Result<(), String> {
        let got = machine
            .run(program, words)
            .map_err(|e| format!("machine error: {e}"))?;
        let expected = simulate(source, words);
        match expected.iter().zip(&got).position(|(e, g)| e != g) {
            Some(index) => Err(format!(
                "output `{}` differs from the source",
                source.outputs()[index].0
            )),
            None => Ok(()),
        }
    };
    if n <= EXHAUSTIVE_INPUTS {
        for block in 0..1usize << n.saturating_sub(6) {
            let words: Vec<u64> = (0..n).map(|var| variable_word(var, block)).collect();
            run(&words)?;
        }
    } else {
        let mut rng = XorShift64::new(seed);
        for _ in 0..RANDOM_WORDS {
            let words: Vec<u64> = (0..n).map(|_| rng.next_word()).collect();
            run(&words)?;
        }
    }
    Ok(())
}

/// Reads the instruction column of a listing (`NN: A, B, @Xk   comment`).
fn parse_listing(listing: &str, num_inputs: usize) -> Result<Program, String> {
    let mut asm = format!(".inputs {num_inputs}\n");
    for line in listing.lines() {
        let body = line.split_once(": ").map_or(line, |(_, rest)| rest);
        let instruction: Vec<&str> = body.split_whitespace().take(3).collect();
        asm.push_str(&instruction.join(" "));
        asm.push('\n');
    }
    plim::asm::parse_asm(&asm).map_err(|e| format!("unreadable listing: {e}"))
}

/// FNV-1a over `bytes`: a cheap fingerprint for comparing outputs of
/// repeated passes.
pub fn fingerprint(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use plim_compiler::{compile, CompilerOptions};

    fn and_or() -> Mig {
        let mut mig = Mig::new();
        let a = mig.add_input("a");
        let b = mig.add_input("b");
        let c = mig.add_input("c");
        let f = mig.and(a, b);
        let g = mig.or(f, !c);
        mig.add_output("f", f);
        mig.add_output("g", g);
        mig
    }

    #[test]
    fn accepts_a_correct_program_and_its_listing() {
        let mig = and_or();
        let compiled = compile(&mig, CompilerOptions::new());
        let listing = compiled.program.to_string();
        assert_eq!(check_program(&mig, &compiled.program, &listing, 1), Ok(()));
    }

    #[test]
    fn rejects_a_wrong_program_or_a_wrong_listing() {
        let mig = and_or();
        let compiled = compile(&mig, CompilerOptions::new());
        let listing = compiled.program.to_string();
        let mut other = and_or();
        other.set_output(0, !other.outputs()[0].1);
        assert!(check_program(&other, &compiled.program, &listing, 1).is_err());
        let truncated: String = listing.lines().skip(1).map(|l| format!("{l}\n")).collect();
        assert!(check_program(&mig, &compiled.program, &truncated, 1).is_err());
    }
}
