//! How fast the host runs right now, measured with a fixed CPU kernel.
//!
//! On a shared host the same code runs 20–35% slower for minutes at a
//! time, and every workload slows together. The kernel below shares no
//! code with the repository, so no change to the compiler can move it: its
//! time tracks only the speed the host gives this process. Timed samples
//! of it taken alongside the compile passes turn wall time into
//! reference-host time — wall time × [`REFERENCE_SECONDS`] / kernel time —
//! which cancels the host's drift and keeps every change to the program.

use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use std::hint::black_box;
use std::time::Instant;

use crate::stats::median;

/// The kernel's time on the reference host (a 2-core shared virtual
/// machine, median of 30 samples). Reference-host seconds equal wall
/// seconds whenever the host runs the kernel this fast.
pub const REFERENCE_SECONDS: f64 = 0.0055;

/// Kernel samples per compile pass, spread evenly over its circuits.
const SAMPLES_PER_PASS: usize = 18;

/// Runs the kernel once — sorting, hashing, dependent loads through a
/// 4 MiB table and small allocations, the mix a compiler's own work
/// has — and returns its wall time in seconds.
pub fn kernel_seconds() -> f64 {
    let clock = Instant::now();
    let mut state = 0x9E37_79B9_7F4A_7C15_u64;
    let mut next = || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let mut values: Vec<u64> = (0..40_000).map(|_| next()).collect();
    values.sort_unstable();
    // A fixed hasher: the work must not depend on a per-process seed.
    let mut map: HashMap<u64, u32, BuildHasherDefault<std::collections::hash_map::DefaultHasher>> =
        HashMap::default();
    for i in 0..15_000 {
        map.insert(next() & 0xF_FFFF, i);
    }
    let hits = (0..15_000)
        .filter(|_| map.contains_key(&(next() & 0xF_FFFF)))
        .count();
    let links: Vec<u32> = (0..1u32 << 20)
        .map(|_| (next() % (1 << 20)) as u32)
        .collect();
    let mut at = 0u32;
    for _ in 0..100_000 {
        at = links[at as usize];
    }
    let boxes: Vec<Box<[u64; 8]>> = (0..10_000u64).map(|i| Box::new([i; 8])).collect();
    black_box((&values, hits, at, &boxes));
    clock.elapsed().as_secs_f64()
}

/// Kernel samples taken during one stretch of work (a pass, a set-up).
#[derive(Debug, Default)]
pub struct Speed {
    samples: Vec<f64>,
}

impl Speed {
    /// Takes one kernel sample.
    pub fn sample(&mut self) {
        self.samples.push(kernel_seconds());
    }

    /// Samples before item `index` of `count`, so that a pass takes about
    /// [`SAMPLES_PER_PASS`] samples however many circuits it has.
    pub fn sample_before(&mut self, index: usize, count: usize) {
        if index.is_multiple_of(count.div_ceil(SAMPLES_PER_PASS).max(1)) {
            self.sample();
        }
    }

    /// The median kernel time of the samples, in seconds.
    pub fn kernel_seconds(&self) -> f64 {
        median(&self.samples)
    }

    /// The factor that turns wall time measured during these samples into
    /// reference-host time.
    pub fn factor(&self) -> f64 {
        REFERENCE_SECONDS / self.kernel_seconds().max(f64::MIN_POSITIVE)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn samples_spread_over_a_pass() {
        let mut speed = Speed::default();
        for index in 0..36 {
            speed.sample_before(index, 36);
        }
        assert_eq!(speed.samples.len(), 18);
        assert!(speed.kernel_seconds() > 0.0);
        assert!(speed.factor() > 0.0);
    }
}
