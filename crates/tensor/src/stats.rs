//! Summary statistics of a sparsity pattern.
//!
//! These are the "human-crafted features" of §3.2.1: the paper's
//! `HumanFeature` ablation baseline uses a small subset of them, and the
//! machine-model simulator in `waco-sim` uses several to reason about load
//! balance and locality.

use crate::CooMatrix;

/// Number of log₂ buckets in a degree histogram ([`log2_histogram`]).
pub const HIST_BUCKETS: usize = 16;

/// Histogram of per-line (row, column or slice) populations over log₂
/// buckets: bucket `i` counts lines whose nnz `c` satisfies
/// `floor(log2(c)) == i`, empty lines land in bucket 0 beside `c = 1`, and
/// counts of `2^15` and above saturate into the last bucket.
///
/// The serve fingerprint hashes these buckets and the Stage-1 asymptotic
/// profile prices skew from them, so both read one bucketing.
#[inline]
pub fn log2_histogram(counts: &[usize]) -> [u64; HIST_BUCKETS] {
    let mut hist = [0u64; HIST_BUCKETS];
    for &c in counts {
        let bucket = if c <= 1 {
            0
        } else {
            (usize::BITS - 1 - c.leading_zeros()) as usize
        };
        hist[bucket.min(HIST_BUCKETS - 1)] += 1;
    }
    hist
}

/// Statistical summary of a sparse matrix pattern.
#[derive(Debug, Clone, PartialEq)]
pub struct MatrixStats {
    /// Number of rows.
    pub nrows: usize,
    /// Number of columns.
    pub ncols: usize,
    /// Number of stored nonzeros.
    pub nnz: usize,
    /// `nnz / (nrows * ncols)`.
    pub density: f64,
    /// Mean nonzeros per row.
    pub row_nnz_mean: f64,
    /// Variance of nonzeros per row.
    pub row_nnz_var: f64,
    /// Maximum nonzeros in any row.
    pub row_nnz_max: usize,
    /// Coefficient of variation of row populations (std / mean); the skew
    /// signal that decides fine- vs coarse-grained load balancing.
    pub row_cv: f64,
    /// Mean |row − col| over nonzeros, normalized by the dimension — the DIA
    /// style "average distance from the diagonal" feature.
    pub diag_distance_mean: f64,
    /// Fraction of nonzeros whose mirror position is also a nonzero.
    pub symmetry: f64,
    /// Fraction of occupied `b×b` blocks that are at least half full, for
    /// `b = 8` — a cheap dense-block detector.
    pub block8_fill_mean: f64,
    /// Number of distinct occupied 8×8 blocks.
    pub block8_count: usize,
}

impl MatrixStats {
    /// Computes all statistics in time linear in `nnz + nrows + ncols`.
    pub fn compute(m: &CooMatrix) -> Self {
        let nrows = m.nrows();
        let ncols = m.ncols();
        let nnz = m.nnz();
        let row_counts = m.row_nnz();
        let mean = nnz as f64 / nrows as f64;
        let var = row_counts
            .iter()
            .map(|&c| {
                let d = c as f64 - mean;
                d * d
            })
            .sum::<f64>()
            / nrows as f64;
        let max = row_counts.iter().copied().max().unwrap_or(0);
        let cv = if mean > 0.0 { var.sqrt() / mean } else { 0.0 };

        let dim = nrows.max(ncols) as f64;
        let diag_distance_mean = if nnz == 0 {
            0.0
        } else {
            m.iter().map(|(r, c, _)| r.abs_diff(c) as f64).sum::<f64>() / nnz as f64 / dim
        };

        // Symmetry: fraction of off-diagonal entries with a stored mirror.
        // A counting sort by column lists the transpose's entries in
        // row-major order, so one merge against the entries finds every
        // entry stored at both (r, c) and (c, r).
        let mut col_start = vec![0usize; ncols + 1];
        for e in m.entries() {
            col_start[e.col + 1] += 1;
        }
        for c in 0..ncols {
            col_start[c + 1] += col_start[c];
        }
        let mut transposed = vec![(0usize, 0usize); nnz];
        for e in m.entries() {
            transposed[col_start[e.col]] = (e.col, e.row);
            col_start[e.col] += 1;
        }
        let (mut sym_hits, mut off_diag, mut t) = (0usize, 0usize, 0usize);
        for e in m.entries() {
            let key = (e.row, e.col);
            while t < nnz && transposed[t] < key {
                t += 1;
            }
            if e.row != e.col {
                off_diag += 1;
                if transposed.get(t) == Some(&key) {
                    sym_hits += 1;
                }
            }
        }
        let symmetry = if off_diag == 0 {
            1.0
        } else {
            sym_hits as f64 / off_diag as f64
        };

        // 8×8 block occupancy. Entries arrive band by band (8 rows at a
        // time), so a block is new when its block column was last marked in
        // an earlier band. Per-block fills `count / 64` are exact in f64, so
        // their mean is exactly `(nnz / 64) / blocks`.
        let mut marked_in_band = vec![usize::MAX; ncols.div_ceil(8)];
        let mut block8_count = 0usize;
        for e in m.entries() {
            let mark = &mut marked_in_band[e.col / 8];
            if *mark != e.row / 8 {
                *mark = e.row / 8;
                block8_count += 1;
            }
        }
        let block8_fill_mean = if block8_count == 0 {
            0.0
        } else {
            nnz as f64 / 64.0 / block8_count as f64
        };

        Self {
            nrows,
            ncols,
            nnz,
            density: nnz as f64 / (nrows as f64 * ncols as f64),
            row_nnz_mean: mean,
            row_nnz_var: var,
            row_nnz_max: max,
            row_cv: cv,
            diag_distance_mean,
            symmetry,
            block8_fill_mean,
            block8_count,
        }
    }

    /// The minimal three-feature vector the paper's `HumanFeature` ablation
    /// uses: `(#rows, #cols, #nonzeros)`, log-scaled for conditioning.
    pub fn human_feature3(&self) -> [f32; 3] {
        [
            (self.nrows as f32).ln_1p(),
            (self.ncols as f32).ln_1p(),
            (self.nnz as f32).ln_1p(),
        ]
    }

    /// A richer fixed-length feature vector (all statistics), for extended
    /// hand-crafted baselines.
    pub fn feature_vector(&self) -> Vec<f32> {
        vec![
            (self.nrows as f32).ln_1p(),
            (self.ncols as f32).ln_1p(),
            (self.nnz as f32).ln_1p(),
            self.density as f32,
            self.row_nnz_mean as f32,
            self.row_nnz_var.sqrt() as f32,
            self.row_nnz_max as f32,
            self.row_cv as f32,
            self.diag_distance_mean as f32,
            self.symmetry as f32,
            self.block8_fill_mean as f32,
            (self.block8_count as f32).ln_1p(),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{self, Rng64};

    /// The direct definitions: a binary-search mirror probe per entry and
    /// a hash map of 8×8 blocks. `compute` must match them bit for bit,
    /// because the fingerprint (a cache key) hashes these statistics.
    fn reference_symmetry_and_blocks(m: &CooMatrix) -> (f64, f64, usize) {
        let mut sym_hits = 0usize;
        let mut off_diag = 0usize;
        for (r, c, _) in m.iter() {
            if r != c {
                off_diag += 1;
                if m.get(c, r).is_some() {
                    sym_hits += 1;
                }
            }
        }
        let symmetry = if off_diag == 0 {
            1.0
        } else {
            sym_hits as f64 / off_diag as f64
        };
        let mut blocks = std::collections::HashMap::new();
        for (r, c, _) in m.iter() {
            *blocks.entry((r / 8, c / 8)).or_insert(0usize) += 1;
        }
        let fill = if blocks.is_empty() {
            0.0
        } else {
            blocks.values().map(|&c| c as f64 / 64.0).sum::<f64>() / blocks.len() as f64
        };
        (symmetry, fill, blocks.len())
    }

    #[test]
    fn linear_pass_matches_direct_definitions() {
        let mut rng = Rng64::seed_from(5);
        let mut corpus: Vec<CooMatrix> = gen::corpus(21, 300, 8)
            .into_iter()
            .map(|(_, m)| m)
            .collect();
        corpus.push(gen::uniform_random(37, 211, 0.05, &mut rng));
        corpus.push(gen::uniform_random(211, 37, 0.05, &mut rng));
        corpus.push(gen::blocked(120, 200, 8, 30, 0.8, &mut rng));
        corpus.push(gen::mesh2d(9, 13));
        corpus.push(CooMatrix::zeros(5, 9));
        corpus.push(CooMatrix::from_triplets(3, 3, vec![(1, 1, 1.0)]).unwrap());
        for m in &corpus {
            let s = MatrixStats::compute(m);
            let (symmetry, fill, count) = reference_symmetry_and_blocks(m);
            assert_eq!(s.symmetry.to_bits(), symmetry.to_bits());
            assert_eq!(s.block8_fill_mean.to_bits(), fill.to_bits());
            assert_eq!(s.block8_count, count);
        }
    }

    #[test]
    fn mesh_stats() {
        let m = gen::mesh2d(8, 8);
        let s = MatrixStats::compute(&m);
        assert_eq!(s.nrows, 64);
        assert_eq!(s.nnz, m.nnz());
        assert!(s.symmetry > 0.99, "mesh is symmetric");
        assert!(s.diag_distance_mean < 0.2, "mesh is near-diagonal");
        assert_eq!(s.row_nnz_max, 5);
    }

    #[test]
    fn skew_shows_in_cv() {
        let mut rng = Rng64::seed_from(2);
        let uniform = gen::uniform_random(256, 256, 0.03, &mut rng);
        let skewed = gen::powerlaw_rows(256, 256, 8.0, 1.2, &mut rng);
        let su = MatrixStats::compute(&uniform);
        let ss = MatrixStats::compute(&skewed);
        assert!(
            ss.row_cv > 2.0 * su.row_cv,
            "power-law rows must have higher CV"
        );
    }

    #[test]
    fn blocks_show_in_fill() {
        let mut rng = Rng64::seed_from(3);
        let blocked = gen::blocked(128, 128, 8, 40, 0.95, &mut rng);
        let uniform = gen::uniform_random(128, 128, blocked.density(), &mut rng);
        let sb = MatrixStats::compute(&blocked);
        let su = MatrixStats::compute(&uniform);
        assert!(sb.block8_fill_mean > 2.0 * su.block8_fill_mean);
    }

    #[test]
    fn feature_vectors_are_finite() {
        let mut rng = Rng64::seed_from(4);
        let m = gen::kronecker(6, 200, &mut rng);
        let s = MatrixStats::compute(&m);
        for f in s.feature_vector() {
            assert!(f.is_finite());
        }
        assert_eq!(s.human_feature3().len(), 3);
    }
}
