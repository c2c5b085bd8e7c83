//! Request-size and file-offset distributions for the workload DSL.
//!
//! Both distributions are serializable spec fragments sampled through the
//! workspace's deterministic [`DetRng`] streams, so a spec plus a seed fully
//! determines every byte a generated workload touches. Sizes are fixed or
//! uniform over a range. Offsets come in two flavours: *partitioned*
//! patterns (sequential, strided, uniform random) confine each rank to its
//! own disjoint slab of the file, which keeps writes race-free; the
//! *shared* Zipf hotspot pattern deliberately lets read offsets collide
//! across ranks to model contended hot data (its writes still land in the
//! rank's own slab).

use dualpar_sim::DetRng;
use serde::{Deserialize, Serialize};

/// Distribution of per-request sizes, in bytes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(rename_all = "snake_case", deny_unknown_fields)]
pub enum SizeDistr {
    /// Every request moves exactly `bytes`.
    Fixed {
        /// Request size in bytes.
        bytes: u64,
    },
    /// Uniform over `[min, max]` (inclusive), rounded to 512-byte sectors.
    Uniform {
        /// Smallest request, bytes.
        min: u64,
        /// Largest request, bytes.
        max: u64,
    },
}

impl Default for SizeDistr {
    fn default() -> Self {
        SizeDistr::Fixed { bytes: 64 << 10 }
    }
}

impl SizeDistr {
    /// Largest size this distribution can produce (used for bounds checks).
    pub fn max_bytes(&self) -> u64 {
        match *self {
            SizeDistr::Fixed { bytes } => bytes,
            SizeDistr::Uniform { min, max } => max.max(min),
        }
    }

    /// Mean size in bytes (used for cost estimation only).
    pub fn mean_bytes(&self) -> u64 {
        match *self {
            SizeDistr::Fixed { bytes } => bytes,
            SizeDistr::Uniform { min, max } => (min + max.max(min)) / 2,
        }
    }

    /// Draw one request size. Never zero.
    pub fn sample(&self, rng: &mut DetRng) -> u64 {
        match *self {
            SizeDistr::Fixed { bytes } => bytes.max(1),
            SizeDistr::Uniform { min, max } => {
                let (lo, hi) = (min.max(1), max.max(min).max(1));
                // Round to sectors so generated traces look like real I/O,
                // but never below the requested minimum.
                let raw = rng.uniform_u64(lo, hi + 1);
                (raw / 512 * 512).max(lo)
            }
        }
    }

    /// Reject impossible parameterisations.
    pub fn validate(&self) -> Result<(), String> {
        match *self {
            SizeDistr::Fixed { bytes } => {
                if bytes == 0 {
                    return Err("size.fixed: bytes must be non-zero".into());
                }
            }
            SizeDistr::Uniform { min, max } => {
                if min == 0 || max < min {
                    return Err(format!(
                        "size.uniform: need 0 < min <= max, got min={min} max={max}"
                    ));
                }
            }
        }
        Ok(())
    }
}

/// Distribution of file offsets for a leaf access pattern.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
#[serde(rename_all = "snake_case", deny_unknown_fields)]
pub enum OffsetDistr {
    /// Each rank walks its own slab front to back (IOR-style segmented
    /// layout), wrapping if the pattern is longer than the slab: the walk
    /// of [`OffsetDistr::Strided`] with no gap, and the default.
    #[default]
    Sequential,
    /// Like [`OffsetDistr::Sequential`] but with a fixed gap of `stride`
    /// bytes between consecutive requests (noncontig-style holes).
    Strided {
        /// Gap between consecutive requests, bytes.
        stride: u64,
    },
    /// Uniformly random offsets within the rank's slab.
    Random,
    /// Zipf-distributed block popularity over the *whole file*: block 0 is
    /// the hottest, and `theta` (> 0, typically 0.6–1.2; higher = more
    /// skewed) controls the skew. Reads from all ranks collide on the hot
    /// blocks — the shared-hot-data adversary the closed benchmarks never
    /// exercise. Writes stay inside the rank's slab to remain race-free.
    ZipfHotspot {
        /// Skew exponent (> 0).
        theta: f64,
    },
}

impl OffsetDistr {
    /// Reject impossible parameterisations.
    pub fn validate(&self) -> Result<(), String> {
        if let OffsetDistr::ZipfHotspot { theta } = *self {
            if theta <= 0.0 || !theta.is_finite() {
                return Err(format!(
                    "offsets.zipf_hotspot: theta must be finite and > 0, got {theta}"
                ));
            }
        }
        Ok(())
    }
}

/// Draw a 1-based Zipf(`theta`) rank over `[1, n]` by inverting the
/// continuous power-law CDF `F(k) ∝ k^(1-θ)` — an O(1), precomputation-free
/// approximation of the discrete Zipf distribution that is exact in shape
/// for the bulk and close enough in the head for workload-generation
/// purposes (the hottest block still dominates as θ grows).
pub fn zipf_rank(rng: &mut DetRng, n: u64, theta: f64) -> u64 {
    if n <= 1 {
        return 1;
    }
    let u = rng.unit_f64();
    let nf = n as f64;
    let k = if (theta - 1.0).abs() < 1e-9 {
        // θ → 1 limit: F(k) = ln k / ln n.
        (nf.ln() * u).exp()
    } else {
        let e = 1.0 - theta;
        // F(k) = (k^e - 1) / (n^e - 1); invert for k.
        ((nf.powf(e) - 1.0) * u + 1.0).powf(1.0 / e)
    };
    (k.floor() as u64).clamp(1, n)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_samples_its_size() {
        let mut rng = DetRng::for_stream(1, "distr-test");
        let fixed = SizeDistr::Fixed { bytes: 4096 };
        assert_eq!(fixed.sample(&mut rng), 4096);
    }

    #[test]
    fn uniform_respects_bounds_and_sectors() {
        let mut rng = DetRng::for_stream(2, "distr-test");
        let u = SizeDistr::Uniform {
            min: 4096,
            max: 65536,
        };
        for _ in 0..512 {
            let s = u.sample(&mut rng);
            assert!((4096..=65536).contains(&s), "{s} out of bounds");
            assert_eq!(s % 512, 0, "{s} not sector aligned");
        }
    }

    #[test]
    fn zipf_is_head_heavy_and_in_range() {
        let mut rng = DetRng::for_stream(3, "distr-test");
        let n = 1000;
        let mut head = 0u64;
        let draws = 4000;
        for _ in 0..draws {
            let k = zipf_rank(&mut rng, n, 0.99);
            assert!((1..=n).contains(&k));
            if k <= n / 10 {
                head += 1;
            }
        }
        // Under uniform offsets the top decile would get ~10% of draws; a
        // 0.99-skewed Zipf concentrates well over half there.
        assert!(
            head * 2 > draws,
            "top decile drew {head}/{draws}, expected a hot head"
        );
    }

    #[test]
    fn zipf_draws_are_deterministic() {
        let a: Vec<u64> = {
            let mut rng = DetRng::for_stream(7, "zipf");
            (0..64).map(|_| zipf_rank(&mut rng, 512, 1.0)).collect()
        };
        let b: Vec<u64> = {
            let mut rng = DetRng::for_stream(7, "zipf");
            (0..64).map(|_| zipf_rank(&mut rng, 512, 1.0)).collect()
        };
        assert_eq!(a, b);
    }

    #[test]
    fn validation_catches_bad_params() {
        assert!(SizeDistr::Fixed { bytes: 0 }.validate().is_err());
        assert!(SizeDistr::Uniform { min: 9, max: 4 }.validate().is_err());
        assert!(OffsetDistr::ZipfHotspot { theta: 0.0 }.validate().is_err());
        assert!(OffsetDistr::ZipfHotspot { theta: f64::NAN }
            .validate()
            .is_err());
    }

    #[test]
    fn distrs_round_trip_through_json() {
        for d in [
            SizeDistr::Fixed { bytes: 4096 },
            SizeDistr::Uniform {
                min: 512,
                max: 4096,
            },
        ] {
            let json = serde_json::to_string(&d).expect("serialize");
            let back: SizeDistr = serde_json::from_str(&json).expect("parse");
            assert_eq!(back, d);
        }
        for o in [
            OffsetDistr::Sequential,
            OffsetDistr::Strided { stride: 1 << 16 },
            OffsetDistr::Random,
            OffsetDistr::ZipfHotspot { theta: 0.99 },
        ] {
            let json = serde_json::to_string(&o).expect("serialize");
            let back: OffsetDistr = serde_json::from_str(&json).expect("parse");
            assert_eq!(back, o);
        }
    }
}
