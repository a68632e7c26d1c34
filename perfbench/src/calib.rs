//! Host-speed calibration.
//!
//! The benchmark host is shared: over minutes its effective speed drifts
//! by tens of percent, for the simulator and for any other code alike.
//! End-to-end host times are therefore scaled by how fast a fixed kernel
//! ran during the same run. The kernel is the benchmark's own code, never
//! the program under test, so a change to the program moves only the
//! simulator's side of the ratio.

use std::cmp::Reverse;
use std::collections::hash_map::DefaultHasher;
use std::collections::{BinaryHeap, HashMap};
use std::hash::BuildHasherDefault;
use std::time::Instant;

/// A typical kernel time on the benchmark host (2 vCPUs); scaled host
/// times are reported as if the host ran the kernel this fast.
pub const REFERENCE_S: f64 = 0.050;

/// A fixed event-loop kernel with the simulator's memory shape (a
/// binary heap of timed events, a hash map of in-flight entries and a
/// node array updated at random), independent of the program under test.
/// Its inputs, hash keys included, are fixed, so every call does the
/// same work.
pub fn kernel_s() -> f64 {
    const NODES: usize = 1 << 14;
    let mut nodes = vec![[0u64; 8]; NODES];
    let mut heap = BinaryHeap::with_capacity(8192);
    let mut map: HashMap<u64, u64, BuildHasherDefault<DefaultHasher>> =
        HashMap::with_capacity_and_hasher(8192, Default::default());
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut rnd = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    for i in 0..4096u64 {
        heap.push(Reverse((rnd() % 1_000_000, i)));
        map.insert(i, i);
    }
    let start = Instant::now();
    for next_id in 4096..4096 + 200_000u64 {
        let Reverse((t, id)) = heap.pop().expect("heap stays full");
        let v = map.remove(&id).unwrap_or(0);
        let k = (rnd() as usize) & (NODES - 1);
        let node = &mut nodes[k];
        node[(v & 7) as usize] = node[(v & 7) as usize].wrapping_add(t);
        let base = (rnd() as usize) & (NODES - 1) & !63;
        let best = nodes[base..base + 64]
            .iter()
            .map(|n| n[0])
            .min()
            .unwrap_or(0);
        heap.push(Reverse((t + 1 + rnd() % 10_000, next_id)));
        map.insert(next_id, best ^ t);
    }
    std::hint::black_box((&nodes, &map));
    start.elapsed().as_secs_f64()
}
