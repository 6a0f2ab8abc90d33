//! Banded LU solver (no pivoting) for the continuity systems.
//!
//! A 5-point finite-volume stencil on an `nx × ny` grid has half-bandwidth
//! equal to the length of whichever axis varies fastest in the unknown
//! ordering; the continuity system orders along the short (vertical)
//! axis, so its half-bandwidth is the number of silicon rows. The
//! drift-diffusion continuity matrix is an irreducibly diagonally
//! dominant M-matrix, so elimination without pivoting is stable. A
//! direct solve also side-steps the enormous dynamic range of carrier
//! densities (1e2…1e20 cm⁻³) that makes iterative residual tests
//! unreliable for this system.

/// A square banded matrix with half-bandwidth `bw` (entries `(i, j)` with
/// `|i − j| ≤ bw`), stored row-major as `n × (2·bw + 1)`.
#[derive(Debug, Clone, PartialEq)]
pub struct BandedMatrix {
    n: usize,
    bw: usize,
    data: Vec<f64>,
}

/// Error from a zero (or denormal) pivot during factorization.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ZeroPivotError {
    /// Row at which elimination failed.
    pub row: usize,
}

impl core::fmt::Display for ZeroPivotError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "zero pivot at row {}", self.row)
    }
}

impl std::error::Error for ZeroPivotError {}

impl BandedMatrix {
    /// Creates a zero matrix.
    pub fn zeros(n: usize, bw: usize) -> Self {
        Self {
            n,
            bw,
            data: vec![0.0; n * (2 * bw + 1)],
        }
    }

    /// Matrix dimension.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the matrix is 0×0.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    #[inline]
    fn slot(&self, row: usize, col: usize) -> Option<usize> {
        let (lo, hi) = (row.saturating_sub(self.bw), (row + self.bw).min(self.n - 1));
        if col < lo || col > hi {
            return None;
        }
        Some(row * (2 * self.bw + 1) + (col + self.bw - row))
    }

    /// Reads entry `(row, col)` (zero outside the band).
    pub fn get(&self, row: usize, col: usize) -> f64 {
        self.slot(row, col).map_or(0.0, |s| self.data[s])
    }

    /// Writes entry `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if the entry lies outside the band.
    pub fn set(&mut self, row: usize, col: usize, value: f64) {
        let s = self.slot(row, col).expect("entry outside band");
        self.data[s] = value;
    }

    /// Adds to entry `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if the entry lies outside the band.
    pub fn add(&mut self, row: usize, col: usize, value: f64) {
        let s = self.slot(row, col).expect("entry outside band");
        self.data[s] += value;
    }

    /// Zeros an entire row (used to impose Dirichlet rows).
    pub fn clear_row(&mut self, row: usize) {
        let start = row * (2 * self.bw + 1);
        self.data[start..start + 2 * self.bw + 1].fill(0.0);
    }

    /// `y = A·x`.
    pub fn mul_vec(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.n);
        assert_eq!(y.len(), self.n);
        for (row, y_row) in y.iter_mut().enumerate() {
            let lo = row.saturating_sub(self.bw);
            let hi = (row + self.bw).min(self.n - 1);
            *y_row = (lo..=hi).map(|col| self.get(row, col) * x[col]).sum();
        }
    }

    /// Solves `A·x = b` in place by banded LU without pivoting,
    /// destroying the matrix.
    ///
    /// Elimination and back substitution run over contiguous row slices
    /// of the band storage: row `r` holds columns `r − bw ..= r + bw` at
    /// offsets `0 ..= 2·bw`, so the diagonal sits at offset `bw`.
    ///
    /// # Errors
    ///
    /// Returns [`ZeroPivotError`] if a pivot magnitude falls below
    /// 1e-300.
    ///
    /// # Panics
    ///
    /// Panics if `b.len()` differs from the matrix dimension.
    pub fn solve_in_place(mut self, b: &mut [f64]) -> Result<Vec<f64>, ZeroPivotError> {
        assert_eq!(b.len(), self.n);
        let n = self.n;
        let bw = self.bw;
        let w = 2 * bw + 1;
        for k in 0..n {
            let (head, tail) = self.data.split_at_mut((k + 1) * w);
            let pivot_row = &head[k * w..];
            let pivot = pivot_row[bw];
            if pivot.abs() < 1e-300 {
                return Err(ZeroPivotError { row: k });
            }
            // Columns k+1 ..= k+m of the pivot row.
            let m = bw.min(n - 1 - k);
            let upper = &pivot_row[bw + 1..=bw + m];
            for d in 1..=m {
                // Row k+d stores column k at offset bw − d.
                let row = &mut tail[(d - 1) * w..d * w];
                let factor = row[bw - d] / pivot;
                if factor == 0.0 {
                    continue;
                }
                for (a, &u) in row[bw - d + 1..=bw - d + m].iter_mut().zip(upper) {
                    *a -= factor * u;
                }
                b[k + d] -= factor * b[k];
            }
        }
        // Back substitution.
        let mut x = vec![0.0; n];
        for k in (0..n).rev() {
            let row = &self.data[k * w..(k + 1) * w];
            let m = bw.min(n - 1 - k);
            let acc = row[bw + 1..=bw + m]
                .iter()
                .zip(&x[k + 1..=k + m])
                .fold(b[k], |acc, (a, xc)| acc - a * xc);
            x[k] = acc / row[bw];
        }
        Ok(x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use subvt_engine::rng::SplitMix64;

    #[test]
    fn tridiagonal_poisson() {
        // -u'' = 1 on 5 interior points, h = 1: u = x(6-x)/2 at x=1..5.
        let n = 5;
        let mut m = BandedMatrix::zeros(n, 1);
        for i in 0..n {
            m.set(i, i, 2.0);
            if i > 0 {
                m.set(i, i - 1, -1.0);
            }
            if i + 1 < n {
                m.set(i, i + 1, -1.0);
            }
        }
        let mut b = vec![1.0; n];
        let x = m.solve_in_place(&mut b).unwrap();
        let want = [2.5, 4.0, 4.5, 4.0, 2.5];
        for (got, w) in x.iter().zip(want) {
            assert!((got - w).abs() < 1e-10, "{got} vs {w}");
        }
    }

    #[test]
    fn wide_band_matches_grid_laplacian() {
        // 3x3 grid Laplacian (bw = 3) with Dirichlet boundary folded in:
        // solve and verify A·x = b.
        let n = 9;
        let bw = 3;
        let mut m = BandedMatrix::zeros(n, bw);
        for i in 0..n {
            m.set(i, i, 4.0);
            if i % 3 != 0 {
                m.set(i, i - 1, -1.0);
            }
            if i % 3 != 2 {
                m.set(i, i + 1, -1.0);
            }
            if i >= 3 {
                m.set(i, i - 3, -1.0);
            }
            if i + 3 < n {
                m.set(i, i + 3, -1.0);
            }
        }
        let m_copy = m.clone();
        let b: Vec<f64> = (0..n).map(|i| 1.0 + i as f64).collect();
        let mut rhs = b.clone();
        let x = m.solve_in_place(&mut rhs).unwrap();
        let mut check = vec![0.0; n];
        m_copy.mul_vec(&x, &mut check);
        for (c, w) in check.iter().zip(&b) {
            assert!((c - w).abs() < 1e-9);
        }
    }

    #[test]
    fn dirichlet_row_pins_value() {
        let n = 4;
        let mut m = BandedMatrix::zeros(n, 1);
        for i in 0..n {
            m.set(i, i, 2.0);
            if i > 0 {
                m.set(i, i - 1, -1.0);
            }
            if i + 1 < n {
                m.set(i, i + 1, -1.0);
            }
        }
        m.clear_row(0);
        m.set(0, 0, 1.0);
        let mut b = vec![7.0, 0.0, 0.0, 0.0];
        let x = m.solve_in_place(&mut b).unwrap();
        assert!((x[0] - 7.0).abs() < 1e-12);
    }

    #[test]
    fn zero_pivot_detected() {
        let m = BandedMatrix::zeros(3, 1);
        let mut b = vec![1.0; 3];
        assert!(m.solve_in_place(&mut b).is_err());
    }

    #[test]
    fn out_of_band_reads_zero() {
        let m = BandedMatrix::zeros(5, 1);
        assert_eq!(m.get(0, 4), 0.0);
    }

    /// The textbook banded elimination through bounds-checked
    /// `get`/`set`, kept as the reference the slice kernel must match
    /// bit for bit.
    #[allow(clippy::needless_range_loop)] // mirrors the textbook algorithm
    fn solve_reference(mut m: BandedMatrix, b: &mut [f64]) -> Vec<f64> {
        let (n, bw) = (m.n, m.bw);
        for k in 0..n {
            let pivot = m.get(k, k);
            for row in (k + 1)..=(k + bw).min(n - 1) {
                let factor = m.get(row, k) / pivot;
                if factor == 0.0 {
                    continue;
                }
                for col in (k + 1)..=(k + bw).min(n - 1) {
                    m.set(row, col, m.get(row, col) - factor * m.get(k, col));
                }
                b[row] -= factor * b[k];
            }
        }
        let mut x = vec![0.0; n];
        for k in (0..n).rev() {
            let mut acc = b[k];
            for col in (k + 1)..=(k + bw).min(n - 1) {
                acc -= m.get(k, col) * x[col];
            }
            x[k] = acc / m.get(k, k);
        }
        x
    }

    #[test]
    fn random_dominant_banded_systems_match_mul_vec() {
        let mut rng = SplitMix64::new(0xba2d_ed5e);
        let mut uniform = |lo: f64, hi: f64| lo + (hi - lo) * rng.next_f64();
        // Fixed edge cases first (n = 1, bw ≥ n), then random shapes.
        let mut shapes = vec![(1, 0), (1, 1), (1, 4), (2, 2), (3, 7), (6, 6)];
        for _ in 0..200 {
            let n = 1 + (uniform(0.0, 40.0) as usize);
            let bw = uniform(0.0, n as f64 + 3.0) as usize;
            shapes.push((n, bw));
        }
        for (n, bw) in shapes {
            let mut m = BandedMatrix::zeros(n, bw);
            for i in 0..n {
                let mut diag = 1.0;
                for j in i.saturating_sub(bw)..=(i + bw).min(n - 1) {
                    if i != j {
                        let v = uniform(-1.0, 1.0);
                        m.set(i, j, v);
                        diag += v.abs();
                    }
                }
                m.set(i, i, if uniform(0.0, 1.0) < 0.5 { diag } else { -diag });
            }
            let rhs: Vec<f64> = (0..n).map(|_| uniform(-3.0, 3.0)).collect();
            let mut b = rhs.clone();
            let x = m.clone().solve_in_place(&mut b).unwrap();
            let mut check = vec![0.0; n];
            m.mul_vec(&x, &mut check);
            for (c, w) in check.iter().zip(&rhs) {
                assert!((c - w).abs() < 1e-9, "n={n} bw={bw}: {c} vs {w}");
            }
            let want = solve_reference(m, &mut rhs.clone());
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&x), bits(&want), "n={n} bw={bw}");
        }
    }
}
