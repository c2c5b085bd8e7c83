//! # dualpar-sim
//!
//! Deterministic discrete-event simulation engine underpinning the DualPar
//! reproduction. Provides:
//!
//! * [`time`] — integer-nanosecond simulated clock types;
//! * [`fel`] — a stable-FIFO future-event list (one binary heap with the
//!   payloads inline);
//! * [`rng`] — labelled deterministic random streams;
//! * [`stats`] — time series;
//! * [`resource`] — FIFO resources and latency/bandwidth links;
//! * [`slab`] — generational slab storage with stale-handle detection;
//! * [`pool`] — order-preserving scoped worker pool (determinism-safe
//!   parallel maps shared by the suite runner and the registered figures);
//!   the only module in the workspace that spawns threads (clippy.toml
//!   bans raw threads and channels everywhere else).
//!
//! Everything is single-threaded and allocation-conscious; determinism is a
//! hard guarantee (same seed ⇒ bit-identical run), which the property tests
//! in `tests/` enforce.

pub mod fel;
pub mod hash;
pub mod pool;
pub mod resource;
pub mod rng;
pub mod slab;
pub mod stats;
pub mod time;

/// Assert a simulation invariant in the *expanding* crate's hot path.
///
/// Expands to a real `assert!` when the expanding crate is compiled with its
/// `strict-invariants` cargo feature or under `cfg(test)`; otherwise the
/// whole check is a constant-false branch the optimiser removes, so
/// instrumented release paths stay zero-cost. Crates using this macro must
/// declare a `strict-invariants` feature (the `cfg!` is evaluated at the
/// expansion site, not here).
#[macro_export]
macro_rules! strict_assert {
    ($($arg:tt)*) => {
        if cfg!(any(test, feature = "strict-invariants")) {
            assert!($($arg)*);
        }
    };
}

/// Equality-asserting companion of [`strict_assert!`] — same gating rules.
#[macro_export]
macro_rules! strict_assert_eq {
    ($($arg:tt)*) => {
        if cfg!(any(test, feature = "strict-invariants")) {
            assert_eq!($($arg)*);
        }
    };
}

pub use fel::EventQueue;
pub use hash::{FxHashMap, FxHashSet, FxHasher};
pub use pool::{
    default_jobs, parallel_map, parallel_map_prioritized, run_with_deadline, DeadlineError,
};
pub use resource::Link;
pub use rng::DetRng;
pub use slab::{Slab, SlabKey};
pub use stats::TimeSeries;
pub use time::{SimDuration, SimTime, NANOS_PER_MICRO, NANOS_PER_MILLI, NANOS_PER_SEC};
