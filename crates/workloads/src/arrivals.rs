//! Open-loop arrival processes: program instances spawned over simulated
//! time instead of a fixed start list.
//!
//! An [`Arrivals`] spec deterministically expands to a sorted list of
//! arrival times ([`Arrivals::times`]) from its own seed — the expansion
//! happens at experiment-assembly time, so the assembled cluster stays a
//! pure function of the spec and byte-identical suite verification keeps
//! working. The one process, [`ArrivalProcess::Poisson`], is memoryless
//! arrivals at a constant rate. It stays an enum so a spec names it:
//! `{"poisson": {"rate_per_sec": R}}`.

use dualpar_sim::DetRng;
use serde::{Deserialize, Serialize};

/// Hard cap on instances when `max_instances` is left at 0.
pub const DEFAULT_MAX_INSTANCES: u64 = 4096;

/// The stochastic shape of an arrival stream.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(rename_all = "snake_case", deny_unknown_fields)]
pub enum ArrivalProcess {
    /// Homogeneous Poisson process.
    Poisson {
        /// Mean arrivals per second (> 0).
        rate_per_sec: f64,
    },
}

/// A complete arrival spec: process, observation window, seed, and cap.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct Arrivals {
    /// The stochastic process generating arrival times.
    pub process: ArrivalProcess,
    /// Arrivals after this many seconds are dropped.
    pub horizon_secs: f64,
    /// Seed for the arrival stream (independent of workload seeds).
    #[serde(default)]
    pub seed: u64,
    /// Upper bound on spawned instances; 0 means
    /// [`DEFAULT_MAX_INSTANCES`].
    #[serde(default)]
    pub max_instances: u64,
}

impl Default for Arrivals {
    fn default() -> Self {
        Arrivals {
            process: ArrivalProcess::Poisson { rate_per_sec: 1.0 },
            horizon_secs: 10.0,
            seed: 0,
            max_instances: 0,
        }
    }
}

impl Arrivals {
    /// The effective instance cap.
    pub fn cap(&self) -> u64 {
        if self.max_instances == 0 {
            DEFAULT_MAX_INSTANCES
        } else {
            self.max_instances
        }
    }

    /// Reject impossible parameterisations.
    pub fn validate(&self) -> Result<(), String> {
        if self.horizon_secs <= 0.0 || !self.horizon_secs.is_finite() {
            return Err(format!(
                "arrivals: horizon_secs must be finite and > 0, got {}",
                self.horizon_secs
            ));
        }
        let ArrivalProcess::Poisson { rate_per_sec } = self.process;
        if rate_per_sec <= 0.0 || !rate_per_sec.is_finite() {
            return Err(format!(
                "arrivals.poisson: rate_per_sec must be finite and > 0, got {rate_per_sec}"
            ));
        }
        Ok(())
    }

    /// Expand the process into concrete arrival times (seconds, ascending,
    /// all `< horizon_secs`, at most [`Arrivals::cap`] of them). Purely a
    /// function of the spec: the same spec always expands identically.
    pub fn times(&self) -> Vec<f64> {
        let mut rng = DetRng::for_stream(self.seed, "arrivals");
        let cap = self.cap() as usize;
        let mut out = Vec::new();
        let ArrivalProcess::Poisson { rate_per_sec } = self.process;
        let mean_gap = 1.0 / rate_per_sec;
        let mut t = rng.exp_f64(mean_gap);
        while t < self.horizon_secs && out.len() < cap {
            out.push(t);
            t += rng.exp_f64(mean_gap);
        }
        out
    }
}

/// Mix an instance index into a base seed (splitmix64 finalizer), giving
/// each open-loop instance an independent but reproducible stream. Instance
/// 0 is also remixed, so instance streams never alias the base seed's own
/// stream.
pub fn instance_seed(base: u64, instance: u64) -> u64 {
    let mut z = base ^ (instance.wrapping_add(1)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sorted(xs: &[f64]) -> bool {
        xs.windows(2).all(|w| w[0] <= w[1])
    }

    #[test]
    fn poisson_times_are_deterministic_sorted_and_bounded() {
        let arr = Arrivals {
            process: ArrivalProcess::Poisson { rate_per_sec: 5.0 },
            horizon_secs: 20.0,
            seed: 11,
            max_instances: 0,
        };
        arr.validate().expect("valid");
        let a = arr.times();
        let b = arr.times();
        assert_eq!(a, b, "expansion must be deterministic");
        assert!(sorted(&a));
        assert!(a.iter().all(|&t| t > 0.0 && t < 20.0));
        // 5/s over 20s ⇒ ~100 arrivals; allow wide slack, reject nonsense.
        assert!((40..=200).contains(&a.len()), "got {} arrivals", a.len());
    }

    #[test]
    fn poisson_respects_the_cap() {
        let arr = Arrivals {
            process: ArrivalProcess::Poisson {
                rate_per_sec: 1000.0,
            },
            horizon_secs: 100.0,
            seed: 1,
            max_instances: 7,
        };
        assert_eq!(arr.times().len(), 7);
        let uncapped = Arrivals {
            max_instances: 0,
            horizon_secs: 1e9,
            ..arr
        };
        assert_eq!(uncapped.times().len() as u64, DEFAULT_MAX_INSTANCES);
    }

    #[test]
    fn instance_seed_decorrelates_and_is_stable() {
        let s0 = instance_seed(42, 0);
        let s1 = instance_seed(42, 1);
        assert_ne!(s0, s1);
        assert_ne!(s0, 42, "instance 0 must not alias the base seed");
        assert_eq!(s0, instance_seed(42, 0));
    }

    #[test]
    fn validation_catches_bad_params() {
        let bad_rate = Arrivals {
            process: ArrivalProcess::Poisson { rate_per_sec: 0.0 },
            ..Arrivals::default()
        };
        assert!(bad_rate.validate().is_err());
        let bad_horizon = Arrivals {
            horizon_secs: 0.0,
            ..Arrivals::default()
        };
        assert!(bad_horizon.validate().is_err());
    }

    #[test]
    fn arrivals_round_trip_through_json() {
        let arr = Arrivals {
            process: ArrivalProcess::Poisson { rate_per_sec: 2.0 },
            horizon_secs: 30.0,
            seed: 17,
            max_instances: 32,
        };
        let json = serde_json::to_string(&arr).expect("serialize");
        let back: Arrivals = serde_json::from_str(&json).expect("parse");
        assert_eq!(back, arr);
        assert_eq!(back.times(), arr.times());
    }
}
