//! Seeded input generation and the input digest.
//!
//! Every workload draws its inputs from the engine's [`SplitMix64`]
//! seeded by `--seed` mixed with a per-workload salt, renders them to one
//! canonical text (numbers as `proto::fmt_f64`, every bit of the draw),
//! and records the FNV-1a digest of that text. The same seed therefore
//! gives byte-identical inputs, which the digest makes checkable across
//! runs and machines.

use subvt_engine::hash::Fnv64;
pub use subvt_engine::rng::SplitMix64;

/// A stream for one workload: the seed mixed with a salt naming it.
pub fn rng(seed: u64, salt: &str) -> SplitMix64 {
    SplitMix64::new(seed ^ fnv(salt))
}

/// Uniform in `[lo, hi)`.
pub fn range(rng: &mut SplitMix64, lo: f64, hi: f64) -> f64 {
    lo + (hi - lo) * rng.next_f64()
}

/// Uniform index in `0..n` (`n > 0`).
pub fn index(rng: &mut SplitMix64, n: usize) -> usize {
    (rng.next_u64() % n as u64) as usize
}

fn fnv(text: &str) -> u64 {
    let mut h = Fnv64::new();
    h.write(text.as_bytes());
    h.finish()
}

/// Digest of a workload's canonical input text, as 16 hex digits.
pub fn digest(text: &str) -> String {
    format!("{:016x}", fnv(text))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_other_seed_differs() {
        let draw = |seed| {
            let mut r = rng(seed, "w");
            (0..8).map(|_| r.next_u64()).collect::<Vec<_>>()
        };
        assert_eq!(draw(7), draw(7));
        assert_ne!(draw(7), draw(8));
        let mut r = rng(1, "w");
        for _ in 0..1000 {
            let x = range(&mut r, -1.0, 1.0);
            assert!((-1.0..1.0).contains(&x));
            assert!(index(&mut r, 3) < 3);
        }
    }
}
