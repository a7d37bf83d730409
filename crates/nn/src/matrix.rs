//! Dense row-major matrix with the kernels the layers need.

/// A dense `rows x cols` matrix of `f64`, row-major.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    /// Row count.
    pub rows: usize,
    /// Column count.
    pub cols: usize,
    /// Row-major storage, `rows * cols` long.
    pub data: Vec<f64>,
}

impl Matrix {
    /// All-zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Matrix from a row-major vector (length must match).
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), rows * cols);
        Matrix { rows, cols, data }
    }

    /// Element access.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f64 {
        self.data[r * self.cols + c]
    }

    /// Element mutation.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f64) {
        self.data[r * self.cols + c] = v;
    }

    /// In-place element update.
    #[inline]
    pub fn add_at(&mut self, r: usize, c: usize, v: f64) {
        self.data[r * self.cols + c] += v;
    }

    /// A view of row `r`.
    #[inline]
    pub fn row(&self, r: usize) -> &[f64] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// A mutable view of row `r`.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f64] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// `self @ other` (`rows x cols` times `cols x k`).
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.cols, other.rows, "matmul shape mismatch");
        let mut out = Matrix::zeros(self.rows, other.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self.get(i, k);
                if a == 0.0 {
                    continue;
                }
                let orow = other.row(k);
                let out_row = out.row_mut(i);
                for (j, &b) in orow.iter().enumerate() {
                    out_row[j] += a * b;
                }
            }
        }
        out
    }

    /// `selfᵀ @ other` without materializing the transpose.
    pub fn t_matmul(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.rows, other.rows, "t_matmul shape mismatch");
        let mut out = Matrix::zeros(self.cols, other.cols);
        for r in 0..self.rows {
            let arow = self.row(r);
            let brow = other.row(r);
            for (i, &a) in arow.iter().enumerate() {
                if a == 0.0 {
                    continue;
                }
                let orow = out.row_mut(i);
                for (j, &b) in brow.iter().enumerate() {
                    orow[j] += a * b;
                }
            }
        }
        out
    }

    /// `self @ otherᵀ` without materializing the transpose.
    pub fn matmul_t(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.cols, other.cols, "matmul_t shape mismatch");
        let mut out = Matrix::zeros(self.rows, other.rows);
        for i in 0..self.rows {
            let arow = self.row(i);
            for j in 0..other.rows {
                let brow = other.row(j);
                let mut s = 0.0;
                for k in 0..self.cols {
                    s += arow[k] * brow[k];
                }
                out.set(i, j, s);
            }
        }
        out
    }

    /// Transposed copy.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.set(c, r, self.get(r, c));
            }
        }
        out
    }

    /// Elementwise sum (shapes must match).
    pub fn add(&self, other: &Matrix) -> Matrix {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols));
        let data = self
            .data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| a + b)
            .collect();
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }

    /// In-place `self += scale * other`.
    pub fn add_scaled(&mut self, other: &Matrix, scale: f64) {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols));
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += scale * b;
        }
    }

    /// Elementwise map.
    pub fn map(&self, f: impl Fn(f64) -> f64) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }

    /// Adds a row-vector (`1 x cols`) to every row.
    pub fn add_row_broadcast(&self, bias: &[f64]) -> Matrix {
        assert_eq!(bias.len(), self.cols);
        let mut out = self.clone();
        for r in 0..out.rows {
            for (c, &b) in bias.iter().enumerate() {
                out.add_at(r, c, b);
            }
        }
        out
    }

    /// Sum over rows -> `cols`-long vector.
    pub fn sum_rows(&self) -> Vec<f64> {
        let mut out = vec![0.0; self.cols];
        for r in 0..self.rows {
            for (c, &v) in self.row(r).iter().enumerate() {
                out[c] += v;
            }
        }
        out
    }

    /// Frobenius norm.
    pub fn norm(&self) -> f64 {
        self.data.iter().map(|x| x * x).sum::<f64>().sqrt()
    }

    /// Concatenates matrices horizontally (same row counts).
    pub fn hcat(parts: &[Matrix]) -> Matrix {
        assert!(!parts.is_empty());
        let rows = parts[0].rows;
        assert!(parts.iter().all(|p| p.rows == rows));
        let cols: usize = parts.iter().map(|p| p.cols).sum();
        let mut out = Matrix::zeros(rows, cols);
        for r in 0..rows {
            let mut off = 0;
            for p in parts {
                out.row_mut(r)[off..off + p.cols].copy_from_slice(p.row(r));
                off += p.cols;
            }
        }
        out
    }

    /// Splits horizontally into equal-width chunks.
    pub fn hsplit(&self, parts: usize) -> Vec<Matrix> {
        assert_eq!(self.cols % parts, 0);
        let w = self.cols / parts;
        (0..parts)
            .map(|p| {
                let mut m = Matrix::zeros(self.rows, w);
                for r in 0..self.rows {
                    m.row_mut(r)
                        .copy_from_slice(&self.row(r)[p * w..(p + 1) * w]);
                }
                m
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matmul_known() {
        let a = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = Matrix::from_vec(3, 2, vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let c = a.matmul(&b);
        assert_eq!(c.data, vec![58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn transposed_products_agree() {
        let a = Matrix::from_vec(2, 3, vec![1.0, -2.0, 3.0, 0.5, 5.0, -6.0]);
        let b = Matrix::from_vec(2, 4, (0..8).map(|i| i as f64 * 0.3).collect());
        let via_t = a.transpose().matmul(&b);
        let direct = a.t_matmul(&b);
        assert_eq!(via_t, direct);

        let c = Matrix::from_vec(5, 3, (0..15).map(|i| (i as f64).sin()).collect());
        let via_t2 = a.matmul(&c.transpose());
        let direct2 = a.matmul_t(&c);
        for (x, y) in via_t2.data.iter().zip(&direct2.data) {
            assert!((x - y).abs() < 1e-12);
        }
    }

    #[test]
    fn hcat_hsplit_roundtrip() {
        let a = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let b = Matrix::from_vec(2, 2, vec![5.0, 6.0, 7.0, 8.0]);
        let cat = Matrix::hcat(&[a.clone(), b.clone()]);
        assert_eq!(cat.cols, 4);
        let back = cat.hsplit(2);
        assert_eq!(back[0], a);
        assert_eq!(back[1], b);
    }

    #[test]
    fn broadcast_and_sums() {
        let a = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let c = a.add_row_broadcast(&[10.0, 20.0]);
        assert_eq!(c.data, vec![11.0, 22.0, 13.0, 24.0]);
        assert_eq!(a.sum_rows(), vec![4.0, 6.0]);
    }

    #[test]
    fn add_scaled_accumulates() {
        let mut a = Matrix::zeros(1, 3);
        let g = Matrix::from_vec(1, 3, vec![1.0, 2.0, 3.0]);
        a.add_scaled(&g, 0.5);
        a.add_scaled(&g, 0.5);
        assert_eq!(a.data, vec![1.0, 2.0, 3.0]);
    }
}
