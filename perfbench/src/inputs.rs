//! Seeded workload inputs. Every matrix the benchmark sends to the program
//! comes from here, so the same `--seed` gives the same inputs.

use waco_tensor::gen::{Family, Rng64};
use waco_tensor::{CooMatrix, DenseMatrix, DenseVector};

/// One matrix of `family` with exactly `n` rows and columns. The
/// Kronecker and mesh generators size themselves (powers of two, squares),
/// so their output is embedded into — or trimmed to — the `n × n` frame.
pub fn family_matrix(family: Family, n: usize, rng: &mut Rng64) -> CooMatrix {
    let m = family.generate(n, rng);
    if m.nrows() == n && m.ncols() == n {
        return m;
    }
    let triplets: Vec<_> = m.iter().filter(|&(r, c, _)| r < n && c < n).collect();
    CooMatrix::from_triplets(n, n, triplets).expect("trimmed coordinates lie in the frame")
}

/// A dense vector operand with seeded values in `[-1, 1)`.
pub fn dense_vector(n: usize, rng: &mut Rng64) -> DenseVector {
    DenseVector::from_fn(n, |_| 2.0 * rng.unit_f32() - 1.0)
}

/// A dense matrix operand with seeded values in `[-1, 1)`.
pub fn dense_matrix(rows: usize, cols: usize, rng: &mut Rng64) -> DenseMatrix {
    DenseMatrix::from_fn(rows, cols, |_, _| 2.0 * rng.unit_f32() - 1.0)
}

/// Matrix Market text of `m`, as a client would upload it.
pub fn matrix_market(m: &CooMatrix) -> String {
    let mut out = Vec::new();
    waco_tensor::io::write_matrix_market(&mut out, m).expect("writing to a Vec cannot fail");
    String::from_utf8(out).expect("Matrix Market output is ASCII")
}

/// Zipf(`s`) sampler over `n` ranks: rank 0 is the most popular.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Self {
        let weights: Vec<f64> = (1..=n).map(|k| 1.0 / (k as f64).powf(s)).collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        let cdf = weights
            .iter()
            .map(|w| {
                acc += w / total;
                acc
            })
            .collect();
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut Rng64) -> usize {
        let u = rng.unit_f64();
        self.cdf
            .iter()
            .position(|&c| u < c)
            .unwrap_or(self.cdf.len() - 1)
    }
}
