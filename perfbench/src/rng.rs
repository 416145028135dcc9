//! Seeded SplitMix64: the benchmark's only source of randomness, so one
//! `--seed` fixes every generated input.

/// SplitMix64 generator (Steele, Lea & Flood 2014).
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// An independent seed for input stream `stream` of workload seed `seed`.
pub fn derive(seed: u64, stream: u64) -> u64 {
    SplitMix64::new(seed ^ stream.wrapping_mul(0xA24B_AED4_963E_E407)).next_u64()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let (mut a, mut b) = (SplitMix64::new(9), SplitMix64::new(9));
        for _ in 0..4 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        assert_ne!(derive(1, 1), derive(1, 2));
        assert_ne!(derive(1, 1), derive(2, 1));
    }

    #[test]
    fn unit_interval() {
        let mut r = SplitMix64::new(3);
        for _ in 0..1000 {
            let x = r.next_f64();
            assert!((0.0..1.0).contains(&x));
            assert!(r.below(7) < 7);
        }
    }
}
