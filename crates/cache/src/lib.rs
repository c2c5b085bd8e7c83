//! # dualpar-cache
//!
//! The global client-side I/O cache — our stand-in for the Memcached layer
//! of §IV-D. A file is partitioned into chunks equal to the PVFS2 stripe
//! unit (64 KB) so a chunk touches exactly one data server; chunk *homes*
//! are spread round-robin over the compute nodes; every chunk carries a
//! reference-time tag for idle eviction; and per-owner accounting supports
//! the per-process quota and the mis-prefetch ratio that EMC monitors.
//!
//! The cache stores *metadata about byte ranges*, not data bytes: the
//! simulator only needs to know whether a read hits, how much is dirty,
//! and which node's memory holds a chunk (to charge network transfers).

// Hot path: byte offsets and chunk indices must not wrap or truncate.
#![warn(clippy::arithmetic_side_effects, clippy::cast_possible_truncation)]

pub mod store;

pub use store::{CacheConfig, CacheStats, ChunkHomes, GlobalCache, NodeId, OwnerId, ReadResult};
