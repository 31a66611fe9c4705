//! Machine weather: two fixed loops, timed before every block, that say how
//! fast the guest was while the block ran — so a `too_noisy` verdict (both
//! sides of a comparison saw different machines) can be told from a real
//! change. On the sizing machine the ALU loop drifts ±9 % and the pointer
//! chase ±20 % within a minute.

use std::hint::black_box;
use std::time::Instant;

/// Entries of the pointer-chase table: 16 Mi `u32`s = 64 MiB, beyond any
/// last-level cache share this guest gets.
const CHASE_ENTRIES: usize = 16 << 20;
/// Dependent loads per probe (≈ 50 ms at DRAM latency).
const CHASE_STEPS: usize = 400_000;
/// Multiply-xor-shift rounds per probe (≈ 50 ms).
const ALU_ROUNDS: u64 = 30_000_000;

/// The probes' working memory. Built once, before anything else is
/// allocated, and kept for the life of the process: it is then a constant
/// 64 MiB of the resident set, which [`Weather::resident_bytes`] lets the
/// caller subtract from the process's peak.
pub struct Weather {
    next: Vec<u32>,
    at: u32,
}

impl Weather {
    /// Build the chase table: `next[i] = (a·i + c) mod 2^24` with
    /// `a ≡ 1 (mod 4)` and `c` odd is a full-period LCG step, so following
    /// `next` visits all 16 Mi entries in one cycle, in an order no
    /// prefetcher follows — and filling it is a sequential write.
    pub fn new() -> Weather {
        let mask = CHASE_ENTRIES - 1;
        let next = (0..CHASE_ENTRIES)
            .map(|i| ((i.wrapping_mul(1_664_525).wrapping_add(1_013_904_223)) & mask) as u32)
            .collect();
        Weather { next, at: 0 }
    }

    /// Bytes the table keeps resident.
    pub fn resident_bytes(&self) -> u64 {
        (self.next.len() * std::mem::size_of::<u32>()) as u64
    }

    /// Time the fixed ALU loop, in milliseconds.
    pub fn cpu_ms(&self) -> f64 {
        let start = Instant::now();
        let mut x = black_box(0x9E37_79B9_7F4A_7C15u64);
        for _ in 0..ALU_ROUNDS {
            x ^= x >> 29;
            x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
        }
        black_box(x);
        start.elapsed().as_secs_f64() * 1e3
    }

    /// Time the fixed pointer chase, in milliseconds. Continues where the
    /// previous probe stopped, so successive probes touch fresh lines.
    pub fn mem_ms(&mut self) -> f64 {
        let start = Instant::now();
        let mut at = self.at;
        for _ in 0..CHASE_STEPS {
            at = self.next[at as usize];
        }
        self.at = black_box(at);
        start.elapsed().as_secs_f64() * 1e3
    }
}

impl Default for Weather {
    fn default() -> Self {
        Weather::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chase_table_is_one_cycle_prefix() {
        let w = Weather::new();
        assert_eq!(w.resident_bytes(), 64 << 20);
        // a full-period step never revisits within the period: the first
        // million hops are all distinct
        let mut seen = vec![false; CHASE_ENTRIES];
        let mut at = 0u32;
        for _ in 0..1_000_000 {
            assert!(!seen[at as usize]);
            seen[at as usize] = true;
            at = w.next[at as usize];
        }
    }
}
