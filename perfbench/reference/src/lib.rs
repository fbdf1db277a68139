//! A fixed reference computation that the benchmark times beside the
//! workload, to express the workload's time in units of the host's
//! current speed.
//!
//! The host the benchmark runs on is shared: its speed drifts by 20-40 %
//! over minutes, and changes from one second to the next, the same for
//! the simulator and for any other CPU-bound code. Timing this kernel
//! right before and right after each simulation point and dividing
//! cancels much of that drift.
//!
//! The kernel is a crate of its own with no dependencies, so that its
//! machine code depends on this file, the standard library and the
//! compiler only, not on the simulator's crates that the benchmark's
//! binary links.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::hint::black_box;
use std::time::Instant;

const OPS: u32 = 1_500_000;

/// Event-loop work: pop the earliest of 20 000 pending times, push it
/// back a pseudo-random delay later, and add it to one of 65 536
/// hashed counters. On a 2-vCPU Xeon virtual machine this tracked the
/// simulator's speed better than the same loop over a hand-written
/// array heap and counter table: over eight runs of the permutation the
/// normalised time spread by 0.06 against 0.11, with 0.25 raw.
#[inline(never)]
fn kernel(ops: u32) -> u64 {
    let mut heap: BinaryHeap<Reverse<u64>> = (0..20_000u64)
        .map(|i| Reverse(i * 7919 % 100_003))
        .collect();
    let mut counts: HashMap<u64, u64> = HashMap::new();
    let (mut x, mut acc) = (0x2545_F491_4F6C_DD1Du64, 0u64);
    for _ in 0..ops {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let Reverse(t) = heap.pop().expect("the heap never empties");
        heap.push(Reverse(t + x % 1000));
        *counts.entry(x & 0xFFFF).or_insert(0) += t;
        acc = acc.wrapping_add(t);
    }
    acc.wrapping_add(counts.len() as u64)
}

/// Host seconds of one run of the reference kernel, about 0.15 s on a
/// 2-vCPU Xeon virtual machine.
pub fn seconds() -> f64 {
    let t = Instant::now();
    black_box(kernel(black_box(OPS)));
    t.elapsed().as_secs_f64()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_is_deterministic() {
        assert_eq!(kernel(10_000), kernel(10_000));
        assert_ne!(kernel(10_000), kernel(10_001));
    }
}
