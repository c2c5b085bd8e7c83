//! A fixed yardstick for the machine's current speed.
//!
//! On a shared machine, neighbours slow every run by up to 2× for minutes
//! at a time. Timed next to each simulation run, this kernel slows with
//! it: over ten 30-second windows the median run time of `adaptive-mix`
//! spread by 24% (quartile distance over median), its median ratio to
//! this kernel by 7%. The kernel is the benchmark's own code, so no change
//! to the simulator moves it.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use std::hint::black_box;
use std::time::Instant;

/// Seconds to sort 4 Mi pseudo-random words and hash 512 Ki of them: the
/// sorting, hashing and cache-missing work a simulation run does.
pub fn kernel_s() -> f64 {
    let start = Instant::now();
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut words: Vec<u64> = (0..4 << 20)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        })
        .collect();
    words.sort_unstable();
    let mut table: HashMap<u64, u64, BuildHasherDefault<DefaultHasher>> =
        HashMap::with_capacity_and_hasher(1 << 19, BuildHasherDefault::default());
    for (i, &w) in words.iter().enumerate().step_by(8) {
        *table.entry(w >> 20).or_insert(0) += i as u64;
    }
    black_box(table.values().sum::<u64>() ^ words[words.len() / 2]);
    start.elapsed().as_secs_f64()
}
