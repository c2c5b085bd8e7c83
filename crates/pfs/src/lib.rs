//! # dualpar-pfs
//!
//! A PVFS2-like striped parallel file system model: round-robin 64 KB
//! striping across data servers, per-server extent allocation mapping local
//! objects to disk LBNs, and end-to-end resolution of file regions to disk
//! runs. The metadata server of the paper (which hosts the EMC daemon) is
//! represented by the file table here plus the EMC logic in `dualpar-core`.

pub mod alloc;
pub mod fs;
pub mod layout;
pub mod ranges;
pub mod strided;

pub use alloc::{AllocConfig, Extent, ExtentAllocator};
pub use fs::{FileMeta, Pvfs, ResolvedIo};
pub use layout::{FileId, FileRegion, ServerId, StripeLayout, StripePiece};
pub use ranges::RangeSet;
pub use strided::{Clipped, Strided};
