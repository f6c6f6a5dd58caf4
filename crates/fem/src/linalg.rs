//! Small dense linear algebra.
//!
//! The solvers never form global sparse matrices (the element-based design of
//! the paper), so all we need is a plain heap-backed dense matrix for the
//! baseline tetrahedron's element stiffness.

/// Heap-backed dense matrix, row-major.
///
/// Used for the 12x12 tet4 element stiffness. Not intended for large-N
/// linear algebra — the solvers are matrix-free by design.
#[derive(Clone, Debug, PartialEq)]
pub struct DMat {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl DMat {
    pub fn zeros(rows: usize, cols: usize) -> DMat {
        DMat { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// `self * v` for a dense vector.
    pub fn mul_vec(&self, v: &[f64]) -> Vec<f64> {
        assert_eq!(v.len(), self.cols);
        self.data.chunks_exact(self.cols).map(|row| dot(row, v)).collect()
    }

    pub fn mul(&self, o: &DMat) -> DMat {
        assert_eq!(self.cols, o.rows);
        let mut r = DMat::zeros(self.rows, o.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self[(i, k)];
                if a == 0.0 {
                    continue;
                }
                for j in 0..o.cols {
                    r[(i, j)] += a * o[(k, j)];
                }
            }
        }
        r
    }

    pub fn transpose(&self) -> DMat {
        let mut r = DMat::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                r[(j, i)] = self[(i, j)];
            }
        }
        r
    }

    pub fn scale_in_place(&mut self, s: f64) {
        for x in &mut self.data {
            *x *= s;
        }
    }
}

impl std::ops::Index<(usize, usize)> for DMat {
    type Output = f64;
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        &self.data[i * self.cols + j]
    }
}

impl std::ops::IndexMut<(usize, usize)> for DMat {
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        &mut self.data[i * self.cols + j]
    }
}

/// Dot product of two equal-length slices.
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len());
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dmat_transpose_mul_vec_consistent() {
        let mut a = DMat::zeros(2, 3);
        for i in 0..2 {
            for j in 0..3 {
                a[(i, j)] = (i * 3 + j) as f64 + 0.5;
            }
        }
        let v = [1.0, -1.0];
        let direct = a.transpose().mul_vec(&v);
        let by_columns: Vec<f64> = (0..3).map(|j| a[(0, j)] * v[0] + a[(1, j)] * v[1]).collect();
        assert_eq!(direct, by_columns);
    }
}
