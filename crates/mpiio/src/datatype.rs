//! MPI derived datatypes — the subset the paper's benchmarks use.
//!
//! `demo`, `noncontig` and `btio` build file views from *vector* datatypes
//! (`count` blocks of `blocklen` elements separated by `stride` elements);
//! the rest use contiguous types. One instance of a datatype at a base file
//! offset lowers to the call's [`Regions`] without being flattened:
//! contiguous, vector and 2-D subarray types become a single [`Strided`]
//! run (one region stored inline when the run has one block), and only an
//! indexed type is an explicit region list.

use crate::regions::Regions;
use dualpar_pfs::{FileRegion, Strided};
use serde::{Deserialize, Serialize};

/// A file-access datatype.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum Datatype {
    /// `len` contiguous bytes.
    Contiguous {
        /// Bytes selected.
        len: u64,
    },
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
    /// Explicit region list (MPI_Type_indexed / hindexed), offsets relative
    /// to the view base.
    Indexed {
        /// `(offset, len)` pairs relative to the view base.
        blocks: Vec<(u64, u64)>,
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
    /// Total bytes of data selected by one instance of the type.
    pub fn extent_data(&self) -> u64 {
        match self {
            Datatype::Contiguous { len } => *len,
            Datatype::Vector {
                count, block_bytes, ..
            } => count * block_bytes,
            Datatype::Indexed { blocks } => blocks.iter().map(|&(_, l)| l).sum(),
            Datatype::Subarray2 {
                elem_bytes,
                sub_rows,
                sub_cols,
                ..
            } => sub_rows * sub_cols * elem_bytes,
        }
    }

    /// Span from the first selected byte to one past the last.
    pub fn extent_span(&self) -> u64 {
        match self {
            Datatype::Contiguous { len } => *len,
            Datatype::Vector {
                count,
                block_bytes,
                stride_bytes,
            } => {
                if *count == 0 {
                    0
                } else {
                    (count - 1) * stride_bytes + block_bytes
                }
            }
            Datatype::Indexed { blocks } => blocks.iter().map(|&(o, l)| o + l).max().unwrap_or(0),
            Datatype::Subarray2 {
                cols,
                elem_bytes,
                row_off,
                col_off,
                sub_rows,
                sub_cols,
                ..
            } => {
                if *sub_rows == 0 || *sub_cols == 0 {
                    0
                } else {
                    let first = (row_off * cols + col_off) * elem_bytes;
                    let last_end =
                        ((row_off + sub_rows - 1) * cols + col_off + sub_cols) * elem_bytes;
                    last_end - first
                }
            }
        }
    }

    /// Lower one instance of the type at `base` into the regions it
    /// selects, in ascending offset order, without flattening a strided
    /// pattern.
    ///
    /// # Panics
    /// Panics on a `Vector` with `stride_bytes < block_bytes` (and two or
    /// more blocks), in release builds too: its blocks would overlap.
    pub fn lower(&self, base: u64) -> Regions {
        match self {
            Datatype::Contiguous { len } => Regions::strided(Strided::new(base, *len, *len, 1)),
            Datatype::Vector {
                count,
                block_bytes,
                stride_bytes,
            } => Regions::strided(Strided::new(base, *block_bytes, *stride_bytes, *count)),
            Datatype::Indexed { blocks } => {
                let mut v: Vec<FileRegion> = blocks
                    .iter()
                    .filter(|&&(_, l)| l > 0)
                    .map(|&(o, l)| FileRegion::new(base + o, l))
                    .collect();
                v.sort_by_key(|r| r.offset);
                Regions::from(v)
            }
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

    /// Is one instance a single contiguous run?
    pub fn is_contiguous(&self) -> bool {
        match self {
            Datatype::Contiguous { .. } => true,
            Datatype::Vector {
                count,
                block_bytes,
                stride_bytes,
            } => *count <= 1 || block_bytes == stride_bytes,
            Datatype::Indexed { blocks } => {
                let mut sorted: Vec<_> = blocks.iter().filter(|&&(_, l)| l > 0).collect();
                sorted.sort_by_key(|&&(o, _)| o);
                sorted.windows(2).all(|w| w[0].0 + w[0].1 == w[1].0)
            }
            Datatype::Subarray2 {
                cols,
                sub_rows,
                sub_cols,
                ..
            } => *sub_rows <= 1 || sub_cols == cols,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One instance at `base`, flattened.
    fn flat(t: &Datatype, base: u64) -> Vec<FileRegion> {
        t.lower(base).iter().collect()
    }

    #[test]
    fn contiguous_lowering() {
        let t = Datatype::Contiguous { len: 4096 };
        assert_eq!(flat(&t, 100), vec![FileRegion::new(100, 4096)]);
        assert_eq!(t.extent_data(), 4096);
        assert_eq!(t.extent_span(), 4096);
        assert!(t.is_contiguous());
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
        assert_eq!(t.extent_data(), 48);
        assert_eq!(t.extent_span(), 2 * 64 + 16);
        assert!(!t.is_contiguous());
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
        assert_eq!(regions.bytes(), t.extent_data());
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
    fn dense_vector_is_contiguous() {
        let t = Datatype::Vector {
            count: 4,
            block_bytes: 32,
            stride_bytes: 32,
        };
        assert!(t.is_contiguous());
    }

    #[test]
    fn indexed_lowering_sorts() {
        let t = Datatype::Indexed {
            blocks: vec![(100, 10), (0, 10), (50, 10)],
        };
        let rs = flat(&t, 0);
        assert_eq!(rs[0].offset, 0);
        assert_eq!(rs[1].offset, 50);
        assert_eq!(rs[2].offset, 100);
        assert_eq!(t.extent_data(), 30);
        assert_eq!(t.extent_span(), 110);
    }

    #[test]
    fn indexed_contiguity() {
        let t = Datatype::Indexed {
            blocks: vec![(10, 10), (0, 10)],
        };
        assert!(t.is_contiguous());
        let t2 = Datatype::Indexed {
            blocks: vec![(0, 10), (20, 10)],
        };
        assert!(!t2.is_contiguous());
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
        assert_eq!(t.extent_data(), 24);
        assert!(!t.is_contiguous());
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
        assert!(t.is_contiguous());
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
        assert_eq!(t.extent_span(), 25);
    }

    #[test]
    fn zero_sized_types() {
        let t = Datatype::Vector {
            count: 0,
            block_bytes: 16,
            stride_bytes: 64,
        };
        assert!(flat(&t, 0).is_empty());
        assert_eq!(t.extent_span(), 0);
        let t2 = Datatype::Contiguous { len: 0 };
        assert!(flat(&t2, 5).is_empty());
    }
}
