//! MPI derived datatypes — the two the workloads build.
//!
//! `demo`, `noncontig` and `btio` build file views from *vector* datatypes
//! (`count` blocks of `blocklen` elements separated by `stride` elements),
//! and `examples/custom_workload.rs` builds a BT-style 2-D *subarray*; the
//! other benchmarks issue contiguous regions directly. One instance of a
//! datatype at a base file offset lowers to the call's [`Regions`] without
//! being flattened: a single [`Strided`] run (one region stored inline when
//! the run has one block).

use crate::regions::Regions;
use dualpar_pfs::Strided;

/// A file-access datatype.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Datatype {
    /// MPI_Type_vector: `count` blocks of `block_bytes`, with consecutive
    /// block starts `stride_bytes` apart. `stride_bytes >= block_bytes`:
    /// lowering a vector whose blocks overlap panics.
    Vector {
        /// Number of blocks.
        count: u64,
        /// Bytes per block.
        block_bytes: u64,
        /// Distance between consecutive block starts, in bytes.
        stride_bytes: u64,
    },
    /// MPI_Type_create_subarray in two dimensions (row-major): a
    /// `sub_rows × sub_cols` window at `(row_off, col_off)` inside a
    /// global `rows × cols` array of `elem_bytes` elements — the file view
    /// BT-style block-decomposed solvers construct.
    Subarray2 {
        /// Global array rows.
        rows: u64,
        /// Global array columns.
        cols: u64,
        /// Bytes per element.
        elem_bytes: u64,
        /// Window start row.
        row_off: u64,
        /// Window start column.
        col_off: u64,
        /// Window rows.
        sub_rows: u64,
        /// Window columns.
        sub_cols: u64,
    },
}

impl Datatype {
    /// Lower one instance of the type at `base` into the regions it
    /// selects, in ascending offset order, without flattening a strided
    /// pattern.
    ///
    /// # Panics
    /// Panics on a `Vector` with `stride_bytes < block_bytes` (and two or
    /// more blocks), in release builds too: its blocks would overlap.
    pub fn lower(&self, base: u64) -> Regions {
        match self {
            Datatype::Vector {
                count,
                block_bytes,
                stride_bytes,
            } => Regions::strided(Strided::new(base, *block_bytes, *stride_bytes, *count)),
            Datatype::Subarray2 {
                rows,
                cols,
                elem_bytes,
                row_off,
                col_off,
                sub_rows,
                sub_cols,
            } => {
                debug_assert!(row_off + sub_rows <= *rows, "subarray rows out of bounds");
                debug_assert!(col_off + sub_cols <= *cols, "subarray cols out of bounds");
                Regions::strided(Strided::new(
                    base + (row_off * cols + col_off) * elem_bytes,
                    sub_cols * elem_bytes,
                    cols * elem_bytes,
                    *sub_rows,
                ))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dualpar_pfs::FileRegion;

    /// One instance at `base`, flattened.
    fn flat(t: &Datatype, base: u64) -> Vec<FileRegion> {
        t.lower(base).iter().collect()
    }

    #[test]
    fn vector_lowering() {
        // 3 blocks of 16 bytes every 64 bytes.
        let t = Datatype::Vector {
            count: 3,
            block_bytes: 16,
            stride_bytes: 64,
        };
        assert_eq!(
            flat(&t, 1000),
            vec![
                FileRegion::new(1000, 16),
                FileRegion::new(1064, 16),
                FileRegion::new(1128, 16)
            ]
        );
    }

    #[test]
    fn vector_lowers_to_one_strided_run() {
        let t = Datatype::Vector {
            count: 1 << 20,
            block_bytes: 16,
            stride_bytes: 1024,
        };
        let regions = t.lower(64);
        assert!(regions.is_strided());
        assert_eq!(regions.len(), 1 << 20);
        assert_eq!(regions.bytes(), 16 << 20);
        assert_eq!(regions.get(3), Some(FileRegion::new(64 + 3 * 1024, 16)));
        assert!(!regions.is_flattened());
    }

    #[test]
    #[should_panic(expected = "overlapping strided blocks")]
    fn overlapping_vector_is_rejected() {
        let t = Datatype::Vector {
            count: 2,
            block_bytes: 64,
            stride_bytes: 16,
        };
        t.lower(0);
    }

    #[test]
    fn subarray2_lowers_to_row_strips() {
        // 8x8 array of 4-byte elements; a 2x3 window at (1, 2).
        let t = Datatype::Subarray2 {
            rows: 8,
            cols: 8,
            elem_bytes: 4,
            row_off: 1,
            col_off: 2,
            sub_rows: 2,
            sub_cols: 3,
        };
        assert_eq!(
            flat(&t, 0),
            vec![FileRegion::new(40, 12), FileRegion::new(72, 12)]
        );
    }

    #[test]
    fn subarray2_full_width_is_contiguous() {
        let t = Datatype::Subarray2 {
            rows: 4,
            cols: 4,
            elem_bytes: 8,
            row_off: 1,
            col_off: 0,
            sub_rows: 2,
            sub_cols: 4,
        };
        let rs = flat(&t, 100);
        assert_eq!(rs.len(), 2);
        assert_eq!(rs[0].end(), rs[1].offset);
    }

    #[test]
    fn subarray2_span_and_base() {
        let t = Datatype::Subarray2 {
            rows: 10,
            cols: 10,
            elem_bytes: 1,
            row_off: 0,
            col_off: 5,
            sub_rows: 3,
            sub_cols: 5,
        };
        let rs = flat(&t, 1000);
        assert_eq!(rs[0].offset, 1005);
        assert_eq!(rs[2].end(), 1000 + 2 * 10 + 5 + 5);
        assert_eq!(rs[2].end() - rs[0].offset, 25);
    }

    #[test]
    fn zero_sized_types() {
        let t = Datatype::Vector {
            count: 0,
            block_bytes: 16,
            stride_bytes: 64,
        };
        assert!(flat(&t, 0).is_empty());
        let t2 = Datatype::Subarray2 {
            rows: 4,
            cols: 4,
            elem_bytes: 8,
            row_off: 0,
            col_off: 0,
            sub_rows: 0,
            sub_cols: 4,
        };
        assert!(flat(&t2, 5).is_empty());
    }
}
