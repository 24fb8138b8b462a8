//! Deterministic, forkable random source.
//!
//! [`SimRng`] is a xoshiro256++ generator, implemented here so that the
//! stream is this repository's own and no dependency bump can move it.
//! Every draw goes through its inherent methods.
//!
//! The important extra over a plain RNG is [`SimRng::fork`]: each simulated
//! component derives an *independent* child stream from a string label, so
//! adding random draws to one component never perturbs another. This is what
//! keeps experiments comparable across configurations (common random
//! numbers).

/// xoshiro256++ state.
#[derive(Debug, Clone)]
pub struct SimRng {
    s: [u64; 4],
}

/// SplitMix64, used to expand seeds into full xoshiro state and to hash fork
/// labels.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl SimRng {
    /// Create a generator from a 64-bit seed.
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        SimRng { s }
    }

    /// Derive an independent child generator from a string label.
    ///
    /// Forking is stable: the same parent seed and label always produce the
    /// same child stream, and drawing from the parent afterwards does not
    /// change already-forked children.
    pub fn fork(&self, label: &str) -> SimRng {
        // FNV-1a over the label, mixed with the parent state (not the parent
        // *position*, so forks are insensitive to call order).
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in label.as_bytes() {
            h ^= u64::from(*b);
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
        let mixed = h ^ self.s[0].rotate_left(17) ^ self.s[2].rotate_left(43);
        SimRng::new(mixed)
    }

    /// Derive an independent child generator from an integer index.
    pub fn fork_idx(&self, label: &str, idx: u64) -> SimRng {
        let mut child = self.fork(label);
        child.s[1] ^= idx.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        // Scramble so that consecutive indices are decorrelated.
        for _ in 0..4 {
            child.next_raw();
        }
        child
    }

    #[inline]
    fn next_raw(&mut self) -> u64 {
        let [s0, s1, s2, s3] = &mut self.s;
        let result = s0.wrapping_add(*s3).rotate_left(23).wrapping_add(*s0);
        let t = *s1 << 17;
        *s2 ^= *s0;
        *s3 ^= *s1;
        *s1 ^= *s2;
        *s0 ^= *s3;
        *s2 ^= t;
        *s3 = s3.rotate_left(45);
        result
    }

    /// Uniform `f64` in `[0, 1)`.
    #[inline]
    pub fn f64(&mut self) -> f64 {
        // 53 random mantissa bits.
        (self.next_raw() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform `u64` in `[0, bound)`. `bound` must be non-zero.
    #[inline]
    pub fn below(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0);
        // Lemire's multiply-shift rejection method.
        let mut x = self.next_raw();
        let mut m = (x as u128).wrapping_mul(bound as u128);
        let mut l = m as u64;
        if l < bound {
            let t = bound.wrapping_neg() % bound;
            while l < t {
                x = self.next_raw();
                m = (x as u128).wrapping_mul(bound as u128);
                l = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// Uniform `usize` in `[0, bound)`.
    #[inline]
    pub fn index(&mut self, bound: usize) -> usize {
        self.below(bound as u64) as usize
    }

    /// Bernoulli draw with probability `p` of `true`.
    #[inline]
    pub fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            false
        } else if p >= 1.0 {
            true
        } else {
            self.f64() < p
        }
    }

    /// Pick a uniformly random element of a non-empty slice.
    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        let i = self.index(items.len());
        let Some(item) = items.get(i) else {
            unreachable!("index() draws below items.len()");
        };
        item
    }

    /// Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.index(i + 1);
            items.swap(i, j);
        }
    }
}

/// RAII guard that echoes an RNG seed if the current thread panics while
/// the guard is alive.
///
/// Deterministic harnesses (the fabric testbed, the conformance runner)
/// hold one of these so that *any* assertion failure in a seeded test
/// prints the one value needed to replay it, without every assertion
/// having to thread the seed through its message.
#[derive(Debug)]
pub struct SeedEcho {
    label: &'static str,
    seed: u64,
}

impl SeedEcho {
    /// Create a guard for `seed`; `label` names the harness that owns it.
    pub fn new(label: &'static str, seed: u64) -> SeedEcho {
        SeedEcho { label, seed }
    }

    /// The guarded seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }
}

impl Drop for SeedEcho {
    fn drop(&mut self) {
        if std::thread::panicking() {
            obs::sinks::stderr_line(&format!(
                "[seed-echo] {}: failing run used seed 0x{:016x} ({}); \
                 rerun with this seed to reproduce",
                self.label, self.seed, self.seed
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::new(42);
        let mut b = SimRng::new(42);
        for _ in 0..1000 {
            assert_eq!(a.next_raw(), b.next_raw());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SimRng::new(1);
        let mut b = SimRng::new(2);
        let same = (0..64).filter(|_| a.next_raw() == b.next_raw()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn forks_are_independent_of_parent_draws() {
        let parent = SimRng::new(7);
        let mut c1 = parent.fork("link");
        let mut parent2 = parent.clone();
        parent2.next_raw(); // draw from a clone of the parent
        let mut c2 = parent.fork("link");
        for _ in 0..100 {
            assert_eq!(c1.next_raw(), c2.next_raw());
        }
    }

    #[test]
    fn fork_labels_decorrelate() {
        let parent = SimRng::new(7);
        let mut a = parent.fork("a");
        let mut b = parent.fork("b");
        let same = (0..64).filter(|_| a.next_raw() == b.next_raw()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn fork_idx_decorrelates_consecutive_indices() {
        let parent = SimRng::new(7);
        let mut a = parent.fork_idx("port", 0);
        let mut b = parent.fork_idx("port", 1);
        let same = (0..64).filter(|_| a.next_raw() == b.next_raw()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn f64_in_unit_interval_and_uniformish() {
        let mut r = SimRng::new(3);
        let n = 20_000;
        let mut sum = 0.0;
        for _ in 0..n {
            let x = r.f64();
            assert!((0.0..1.0).contains(&x));
            sum += x;
        }
        let mean = sum / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean={mean}");
    }

    #[test]
    fn below_is_unbiased_at_small_bounds() {
        let mut r = SimRng::new(9);
        let mut counts = [0u32; 7];
        for _ in 0..70_000 {
            counts[r.below(7) as usize] += 1;
        }
        for c in counts {
            assert!((8_500..11_500).contains(&c), "count={c}");
        }
    }

    #[test]
    fn chance_edges() {
        let mut r = SimRng::new(4);
        assert!(!r.chance(0.0));
        assert!(r.chance(1.0));
        assert!(!r.chance(-1.0));
        assert!(r.chance(2.0));
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut r = SimRng::new(5);
        let mut v: Vec<u32> = (0..50).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }
}
