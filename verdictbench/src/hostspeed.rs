//! Host-speed probe: a fixed piece of work, independent of the repository's
//! code, whose time tracks how fast the host runs right now.
//!
//! On a shared host the same deterministic job can take 1.5× longer in one
//! minute than in the next (other tenants contend for caches and memory),
//! and every workload here slows together. A time divided by the probe's
//! time, measured next to it, cancels most of that drift; multiplied by
//! [`NOMINAL_S`] it reads as seconds again, "seconds on a host where the
//! probe takes `NOMINAL_S`". A change to the engines moves the job's time
//! and not the probe's, so it shows in full.
//!
//! The probe mixes the two kinds of work the engines spend their time on
//! that best tracked them: open-addressing hash inserts and lookups in a
//! 2 MiB table (a seen set) and an unstable sort of 200,000 integers.

use std::hint::black_box;
use std::time::Instant;

use crate::models::Rng;

/// A typical probe time on the reference host (Intel Xeon at 2.1 GHz,
/// 2 vCPUs), where it ranged over 9–16 ms as the host's speed drifted.
pub const NOMINAL_S: f64 = 0.0125;

const TABLE_BITS: u32 = 18;
const KEYS: usize = 150_000;
const SORTED: usize = 200_000;

/// Time one probe, in seconds.
pub fn probe() -> f64 {
    let t = Instant::now();
    black_box(hash_work());
    black_box(sort_work());
    t.elapsed().as_secs_f64()
}

/// Insert `KEYS` pseudo-random keys into a linear-probing table, then look
/// up a second, disjoint-looking stream of keys; returns the hit count.
fn hash_work() -> usize {
    let mask = (1usize << TABLE_BITS) - 1;
    let mut table = vec![0u64; 1 << TABLE_BITS];
    let mut hits = 0usize;
    for (stream, insert) in [(1u64, true), (2u64, false)] {
        let mut rng = Rng::new(stream);
        for _ in 0..KEYS {
            let key = rng.next_u64() | 1;
            let mut i = (key.wrapping_mul(0x517c_c1b7_2722_0a95) >> (64 - TABLE_BITS)) as usize;
            loop {
                if table[i] == key {
                    hits += 1;
                    break;
                }
                if table[i] == 0 {
                    if insert {
                        table[i] = key;
                    }
                    break;
                }
                i = (i + 1) & mask;
            }
        }
    }
    hits
}

/// Sort `SORTED` pseudo-random integers; returns the median.
fn sort_work() -> u32 {
    let mut rng = Rng::new(3);
    let mut v: Vec<u32> = (0..SORTED).map(|_| rng.next_u64() as u32).collect();
    v.sort_unstable();
    v[SORTED / 2]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_work_is_deterministic() {
        assert_eq!(hash_work(), hash_work());
        assert_eq!(sort_work(), sort_work());
        assert!(probe() > 0.0);
    }
}
