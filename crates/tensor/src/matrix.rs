//! Row-major dense `f32` matrix with blocked products and broadcasting.

use crate::{ShapeError, Vector};
use rand::distributions::Distribution;
use rand::Rng;
use serde::{de, DeError, Deserialize, Serialize, Value};

/// A dense, row-major matrix of `f32` values.
///
/// `Matrix` is the workhorse type of the reproduction: image-feature batches,
/// class-attribute matrices, FC weights, attribute dictionaries converted to
/// floating point, and similarity/logit matrices are all `Matrix` values.
///
/// # Example
///
/// ```
/// use tensor::Matrix;
///
/// let x = Matrix::zeros(2, 3);
/// assert_eq!(x.rows(), 2);
/// assert_eq!(x.cols(), 3);
/// assert_eq!(x.get(1, 2), 0.0);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

/// Hand-written (instead of derived) so a corrupted document whose buffer
/// length disagrees with its declared shape is rejected with a typed error
/// rather than constructing a matrix that panics on first access.
impl Deserialize for Matrix {
    fn from_value(value: &Value) -> Result<Self, DeError> {
        let entries = de::expect_object(value, "Matrix")?;
        let rows: usize = de::field(entries, "rows", "Matrix")?;
        let cols: usize = de::field(entries, "cols", "Matrix")?;
        let data: Vec<f32> = de::field(entries, "data", "Matrix")?;
        Self::try_from_vec(rows, cols, data)
            .map_err(|e| DeError::new(e.to_string()).in_field("Matrix"))
    }
}

/// Block edge used by the cache-blocked matrix products.
const BLOCK: usize = 64;

impl Matrix {
    /// Creates a matrix of the given shape filled with zeros.
    ///
    /// # Example
    ///
    /// ```
    /// # use tensor::Matrix;
    /// let m = Matrix::zeros(3, 4);
    /// assert_eq!(m.sum(), 0.0);
    /// ```
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a matrix of the given shape filled with ones.
    pub fn ones(rows: usize, cols: usize) -> Self {
        Self::filled(rows, cols, 1.0)
    }

    /// Creates a matrix of the given shape filled with `value`.
    pub fn filled(rows: usize, cols: usize, value: f32) -> Self {
        Self {
            rows,
            cols,
            data: vec![value; rows * cols],
        }
    }

    /// Creates the `n × n` identity matrix.
    ///
    /// # Example
    ///
    /// ```
    /// # use tensor::Matrix;
    /// let i = Matrix::identity(3);
    /// assert_eq!(i.get(0, 0), 1.0);
    /// assert_eq!(i.get(0, 1), 0.0);
    /// ```
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m.set(i, i, 1.0);
        }
        m
    }

    /// Creates a matrix from a flat row-major buffer.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "buffer length {} does not match shape {}x{}",
            data.len(),
            rows,
            cols
        );
        Self { rows, cols, data }
    }

    /// Creates a matrix from a flat row-major buffer, returning an error on
    /// length mismatch instead of panicking.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if `data.len() != rows * cols`.
    pub fn try_from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Result<Self, ShapeError> {
        if data.len() != rows * cols {
            return Err(ShapeError::new(format!(
                "buffer length {} does not match shape {rows}x{cols}",
                data.len()
            )));
        }
        Ok(Self { rows, cols, data })
    }

    /// Creates a matrix from a slice of equal-length rows.
    ///
    /// # Panics
    ///
    /// Panics if the rows have differing lengths or `rows` is empty.
    pub fn from_rows(rows: &[Vec<f32>]) -> Self {
        assert!(!rows.is_empty(), "cannot build a matrix from zero rows");
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for (i, row) in rows.iter().enumerate() {
            assert_eq!(
                row.len(),
                cols,
                "row {i} has length {} but row 0 has length {cols}",
                row.len()
            );
            data.extend_from_slice(row);
        }
        Self {
            rows: rows.len(),
            cols,
            data,
        }
    }

    /// Creates a matrix whose entries are drawn i.i.d. from the provided
    /// distribution.
    pub fn random<D, R>(rows: usize, cols: usize, dist: &D, rng: &mut R) -> Self
    where
        D: Distribution<f32>,
        R: Rng + ?Sized,
    {
        let data = (0..rows * cols).map(|_| dist.sample(rng)).collect();
        Self { rows, cols, data }
    }

    /// Creates a matrix with entries drawn uniformly from `[-scale, scale]`.
    pub fn random_uniform<R: Rng + ?Sized>(
        rows: usize,
        cols: usize,
        scale: f32,
        rng: &mut R,
    ) -> Self {
        let data = (0..rows * cols)
            .map(|_| rng.gen_range(-scale..=scale))
            .collect();
        Self { rows, cols, data }
    }

    /// Creates a matrix with entries drawn from a normal distribution with
    /// the given mean and standard deviation (Box–Muller transform; no
    /// dependency on `rand_distr`).
    pub fn random_normal<R: Rng + ?Sized>(
        rows: usize,
        cols: usize,
        mean: f32,
        std: f32,
        rng: &mut R,
    ) -> Self {
        let n = rows * cols;
        let mut data = Vec::with_capacity(n);
        while data.len() < n {
            let u1: f32 = rng.gen_range(f32::EPSILON..1.0);
            let u2: f32 = rng.gen_range(0.0..1.0);
            let r = (-2.0 * u1.ln()).sqrt();
            let theta = 2.0 * std::f32::consts::PI * u2;
            data.push(mean + std * r * theta.cos());
            if data.len() < n {
                data.push(mean + std * r * theta.sin());
            }
        }
        Self { rows, cols, data }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Shape as a `(rows, cols)` pair.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total number of entries.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Returns `true` if the matrix has no entries.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Returns the entry at `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if the indices are out of bounds.
    #[inline]
    pub fn get(&self, row: usize, col: usize) -> f32 {
        assert!(row < self.rows && col < self.cols, "index out of bounds");
        self.data[row * self.cols + col]
    }

    /// Sets the entry at `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if the indices are out of bounds.
    #[inline]
    pub fn set(&mut self, row: usize, col: usize, value: f32) {
        assert!(row < self.rows && col < self.cols, "index out of bounds");
        self.data[row * self.cols + col] = value;
    }

    /// Borrows row `row` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `row >= self.rows()`.
    #[inline]
    pub fn row(&self, row: usize) -> &[f32] {
        assert!(row < self.rows, "row index out of bounds");
        &self.data[row * self.cols..(row + 1) * self.cols]
    }

    /// Mutably borrows row `row` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `row >= self.rows()`.
    #[inline]
    pub fn row_mut(&mut self, row: usize) -> &mut [f32] {
        assert!(row < self.rows, "row index out of bounds");
        &mut self.data[row * self.cols..(row + 1) * self.cols]
    }

    /// Copies column `col` into a new [`Vector`].
    ///
    /// # Panics
    ///
    /// Panics if `col >= self.cols()`.
    pub fn col(&self, col: usize) -> Vector {
        assert!(col < self.cols, "column index out of bounds");
        Vector::from_vec((0..self.rows).map(|r| self.get(r, col)).collect())
    }

    /// Returns the underlying row-major buffer.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Returns the underlying row-major buffer mutably.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the matrix and returns its row-major buffer.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Returns an owned copy of the rows as `Vec<Vec<f32>>`.
    pub fn to_rows(&self) -> Vec<Vec<f32>> {
        (0..self.rows).map(|r| self.row(r).to_vec()).collect()
    }

    /// Builds a matrix by stacking the given matrices vertically.
    ///
    /// # Panics
    ///
    /// Panics if the matrices do not all share the same number of columns or
    /// if `parts` is empty.
    pub fn vstack(parts: &[&Matrix]) -> Self {
        assert!(!parts.is_empty(), "cannot vstack zero matrices");
        let cols = parts[0].cols;
        let rows: usize = parts.iter().map(|m| m.rows).sum();
        let mut data = Vec::with_capacity(rows * cols);
        for part in parts {
            assert_eq!(part.cols, cols, "vstack requires equal column counts");
            data.extend_from_slice(&part.data);
        }
        Self { rows, cols, data }
    }

    /// Returns a new matrix containing only the rows whose indices appear in
    /// `indices` (in the given order).
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds.
    pub fn select_rows(&self, indices: &[usize]) -> Self {
        let mut data = Vec::with_capacity(indices.len() * self.cols);
        for &i in indices {
            data.extend_from_slice(self.row(i));
        }
        Self {
            rows: indices.len(),
            cols: self.cols,
            data,
        }
    }

    /// Returns the transpose of the matrix.
    pub fn transpose(&self) -> Self {
        let mut out = Self::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.data[c * self.rows + r] = self.data[r * self.cols + c];
            }
        }
        out
    }

    /// Computes the matrix product `self · other`.
    ///
    /// Uses a cache-blocked i-k-j loop ordering.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != other.rows()`.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        self.try_matmul(other)
            .expect("matmul shape mismatch: inner dimensions differ")
    }

    /// Checked variant of [`Matrix::matmul`].
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if the inner dimensions differ.
    // Index loops, not iterators: the cache-blocked kernel reads `a_row`
    // at an offset while writing `out_row`, which iterator zips can't express.
    #[allow(clippy::needless_range_loop)]
    pub fn try_matmul(&self, other: &Matrix) -> Result<Matrix, ShapeError> {
        if self.cols != other.rows {
            return Err(ShapeError::new(format!(
                "matmul {}x{} by {}x{}",
                self.rows, self.cols, other.rows, other.cols
            )));
        }
        let (m, k, n) = (self.rows, self.cols, other.cols);
        let mut out = Matrix::zeros(m, n);
        for ib in (0..m).step_by(BLOCK) {
            let i_end = (ib + BLOCK).min(m);
            for kb in (0..k).step_by(BLOCK) {
                let k_end = (kb + BLOCK).min(k);
                for jb in (0..n).step_by(BLOCK) {
                    let j_end = (jb + BLOCK).min(n);
                    for i in ib..i_end {
                        let a_row = &self.data[i * k..(i + 1) * k];
                        let out_row = &mut out.data[i * n..(i + 1) * n];
                        for kk in kb..k_end {
                            let a = a_row[kk];
                            if a == 0.0 {
                                continue;
                            }
                            let b_row = &other.data[kk * n..(kk + 1) * n];
                            for j in jb..j_end {
                                out_row[j] += a * b_row[j];
                            }
                        }
                    }
                }
            }
        }
        Ok(out)
    }

    /// Computes `selfᵀ · other` without materialising the transpose.
    ///
    /// # Panics
    ///
    /// Panics if `self.rows() != other.rows()`.
    #[allow(clippy::needless_range_loop)]
    pub fn matmul_tn(&self, other: &Matrix) -> Matrix {
        assert_eq!(
            self.rows, other.rows,
            "matmul_tn requires equal row counts ({} vs {})",
            self.rows, other.rows
        );
        let (m, k, n) = (self.cols, self.rows, other.cols);
        let mut out = Matrix::zeros(m, n);
        for kk in 0..k {
            let a_row = &self.data[kk * m..(kk + 1) * m];
            let b_row = &other.data[kk * n..(kk + 1) * n];
            for i in 0..m {
                let a = a_row[i];
                if a == 0.0 {
                    continue;
                }
                let out_row = &mut out.data[i * n..(i + 1) * n];
                for j in 0..n {
                    out_row[j] += a * b_row[j];
                }
            }
        }
        out
    }

    /// Computes `self · otherᵀ` without materialising the transpose.
    ///
    /// This is the natural shape for similarity kernels: a `B×d` batch of
    /// embeddings against a `C×d` matrix of class embeddings yields a `B×C`
    /// logit matrix.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != other.cols()`.
    pub fn matmul_nt(&self, other: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, other.cols,
            "matmul_nt requires equal column counts ({} vs {})",
            self.cols, other.cols
        );
        let (m, k, n) = (self.rows, self.cols, other.rows);
        let mut out = Matrix::zeros(m, n);
        for i in 0..m {
            let a_row = &self.data[i * k..(i + 1) * k];
            let out_row = &mut out.data[i * n..(i + 1) * n];
            for (j, out_v) in out_row.iter_mut().enumerate() {
                let b_row = &other.data[j * k..(j + 1) * k];
                let mut acc = 0.0f32;
                for (a, b) in a_row.iter().zip(b_row.iter()) {
                    acc += a * b;
                }
                *out_v = acc;
            }
        }
        out
    }

    /// Multiplies the matrix by a column vector, returning a [`Vector`] of
    /// length `self.rows()`.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != v.len()`.
    pub fn matvec(&self, v: &Vector) -> Vector {
        assert_eq!(
            self.cols,
            v.len(),
            "matvec shape mismatch ({}x{} by {})",
            self.rows,
            self.cols,
            v.len()
        );
        let mut out = vec![0.0f32; self.rows];
        for (r, out_v) in out.iter_mut().enumerate() {
            let row = self.row(r);
            let mut acc = 0.0f32;
            for (a, b) in row.iter().zip(v.as_slice()) {
                acc += a * b;
            }
            *out_v = acc;
        }
        Vector::from_vec(out)
    }

    /// Sum of all entries.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Mean of all entries (0 for an empty matrix).
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f32
        }
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f32 {
        self.data.iter().map(|x| x * x).sum::<f32>().sqrt()
    }

    /// Returns per-row L2 norms.
    pub fn row_norms(&self) -> Vector {
        Vector::from_vec(
            (0..self.rows)
                .map(|r| self.row(r).iter().map(|x| x * x).sum::<f32>().sqrt())
                .collect(),
        )
    }

    /// Returns a copy whose rows are L2-normalised (rows with a norm below
    /// `eps` are left unchanged).
    pub fn normalize_rows(&self, eps: f32) -> Matrix {
        let mut out = self.clone();
        for r in 0..self.rows {
            let norm = self.row(r).iter().map(|x| x * x).sum::<f32>().sqrt();
            if norm > eps {
                for v in out.row_mut(r) {
                    *v /= norm;
                }
            }
        }
        out
    }

    /// Applies `f` to every entry, returning a new matrix.
    pub fn map(&self, mut f: impl FnMut(f32) -> f32) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }

    /// Applies `f` to every entry in place.
    pub fn map_inplace(&mut self, mut f: impl FnMut(f32) -> f32) {
        for v in &mut self.data {
            *v = f(*v);
        }
    }

    /// Elementwise addition.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn add(&self, other: &Matrix) -> Matrix {
        self.zip_with(other, |a, b| a + b)
    }

    /// Elementwise subtraction.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn sub(&self, other: &Matrix) -> Matrix {
        self.zip_with(other, |a, b| a - b)
    }

    /// Elementwise (Hadamard) product.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn hadamard(&self, other: &Matrix) -> Matrix {
        self.zip_with(other, |a, b| a * b)
    }

    /// Combines two equal-shaped matrices entrywise with `f`.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn zip_with(&self, other: &Matrix, mut f: impl FnMut(f32, f32) -> f32) -> Matrix {
        assert_eq!(
            self.shape(),
            other.shape(),
            "elementwise op on mismatched shapes {:?} vs {:?}",
            self.shape(),
            other.shape()
        );
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(other.data.iter())
                .map(|(&a, &b)| f(a, b))
                .collect(),
        }
    }

    /// Adds `other * alpha` to `self` in place (axpy).
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn add_scaled_inplace(&mut self, other: &Matrix, alpha: f32) {
        assert_eq!(self.shape(), other.shape(), "axpy on mismatched shapes");
        for (a, b) in self.data.iter_mut().zip(other.data.iter()) {
            *a += alpha * b;
        }
    }

    /// Multiplies every entry by `alpha`, returning a new matrix.
    pub fn scale(&self, alpha: f32) -> Matrix {
        self.map(|x| x * alpha)
    }

    /// Adds the row vector `row` to every row of the matrix (broadcasting).
    ///
    /// # Panics
    ///
    /// Panics if `row.len() != self.cols()`.
    pub fn add_row_broadcast(&self, row: &[f32]) -> Matrix {
        assert_eq!(row.len(), self.cols, "broadcast row length mismatch");
        let mut out = self.clone();
        for r in 0..self.rows {
            for (v, b) in out.row_mut(r).iter_mut().zip(row) {
                *v += b;
            }
        }
        out
    }

    /// Sums the matrix over its rows, producing a row vector of length
    /// `self.cols()`.
    pub fn sum_rows(&self) -> Vector {
        let mut out = vec![0.0f32; self.cols];
        for r in 0..self.rows {
            for (o, v) in out.iter_mut().zip(self.row(r)) {
                *o += v;
            }
        }
        Vector::from_vec(out)
    }

    /// Sums the matrix over its columns, producing a column vector of length
    /// `self.rows()`.
    pub fn sum_cols(&self) -> Vector {
        Vector::from_vec((0..self.rows).map(|r| self.row(r).iter().sum()).collect())
    }

    /// Returns the index of the maximum entry in each row.
    ///
    /// Ties resolve to the first maximal index; an empty row count yields an
    /// empty vector.
    pub fn argmax_rows(&self) -> Vec<usize> {
        (0..self.rows)
            .map(|r| {
                let row = self.row(r);
                let mut best = 0usize;
                let mut best_v = f32::NEG_INFINITY;
                for (j, &v) in row.iter().enumerate() {
                    if v > best_v {
                        best_v = v;
                        best = j;
                    }
                }
                best
            })
            .collect()
    }

    /// Returns the indices of the `k` largest entries of each row, most
    /// similar first. Ties on value resolve to the smaller index, so results
    /// are deterministic.
    ///
    /// **Truncation contract:** `k` is clamped to the column count — asking
    /// for more entries than a row has returns each row's full descending
    /// ordering (`min(k, cols)` indices, never an error and never padding),
    /// and `k == 0` returns empty rows. The engine's `top_k` family follows
    /// the same rule, so `k ≥ classes` is a safe way to ask for "everything,
    /// ranked" anywhere in the workspace.
    ///
    /// Runs in `O(C + k log k)` per row via `select_nth_unstable_by` plus a
    /// sort of the `k`-prefix, instead of fully sorting every row
    /// (`O(C log C)`) just to keep `k` indices — the win matters on the
    /// serving path, where `C` is the class count and `k` is small.
    pub fn topk_rows(&self, k: usize) -> Vec<Vec<usize>> {
        // Descending by value, ascending by index on ties; the explicit
        // index tie-break keeps the unstable selection deterministic.
        fn descending(row: &[f32]) -> impl Fn(&usize, &usize) -> std::cmp::Ordering + '_ {
            move |&a, &b| {
                row[b]
                    .partial_cmp(&row[a])
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then_with(|| a.cmp(&b))
            }
        }
        (0..self.rows)
            .map(|r| {
                let row = self.row(r);
                let k = k.min(row.len());
                if k == 0 {
                    return Vec::new();
                }
                let mut idx: Vec<usize> = (0..row.len()).collect();
                if k < row.len() {
                    idx.select_nth_unstable_by(k, descending(row));
                    idx.truncate(k);
                }
                idx.sort_unstable_by(descending(row));
                idx
            })
            .collect()
    }

    /// Maximum absolute difference to another matrix of the same shape.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn max_abs_diff(&self, other: &Matrix) -> f32 {
        assert_eq!(self.shape(), other.shape(), "shape mismatch");
        self.data
            .iter()
            .zip(other.data.iter())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f32::max)
    }
}

impl std::fmt::Display for Matrix {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        let max_rows = 8.min(self.rows);
        for r in 0..max_rows {
            let row = self.row(r);
            let shown: Vec<String> = row.iter().take(8).map(|v| format!("{v:.4}")).collect();
            let ellipsis = if self.cols > 8 { ", …" } else { "" };
            writeln!(f, "  [{}{}]", shown.join(", "), ellipsis)?;
        }
        if self.rows > max_rows {
            writeln!(f, "  …")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn approx_eq(a: f32, b: f32, eps: f32) -> bool {
        (a - b).abs() <= eps
    }

    #[test]
    fn zeros_and_shape() {
        let m = Matrix::zeros(3, 5);
        assert_eq!(m.shape(), (3, 5));
        assert_eq!(m.len(), 15);
        assert!(!m.is_empty());
        assert_eq!(m.sum(), 0.0);
    }

    #[test]
    fn identity_matmul_is_noop() {
        let mut rng = StdRng::seed_from_u64(1);
        let a = Matrix::random_uniform(4, 4, 1.0, &mut rng);
        let i = Matrix::identity(4);
        assert!(a.matmul(&i).max_abs_diff(&a) < 1e-6);
        assert!(i.matmul(&a).max_abs_diff(&a) < 1e-6);
    }

    #[test]
    fn matmul_known_values() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]);
        let b = Matrix::from_rows(&[vec![7.0, 8.0], vec![9.0, 10.0], vec![11.0, 12.0]]);
        let c = a.matmul(&b);
        assert_eq!(c.shape(), (2, 2));
        assert_eq!(c.get(0, 0), 58.0);
        assert_eq!(c.get(0, 1), 64.0);
        assert_eq!(c.get(1, 0), 139.0);
        assert_eq!(c.get(1, 1), 154.0);
    }

    #[test]
    fn try_matmul_shape_error() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(4, 2);
        assert!(a.try_matmul(&b).is_err());
    }

    #[test]
    fn matmul_tn_matches_explicit_transpose() {
        let mut rng = StdRng::seed_from_u64(2);
        let a = Matrix::random_uniform(7, 5, 1.0, &mut rng);
        let b = Matrix::random_uniform(7, 3, 1.0, &mut rng);
        let fast = a.matmul_tn(&b);
        let slow = a.transpose().matmul(&b);
        assert!(fast.max_abs_diff(&slow) < 1e-4);
    }

    #[test]
    fn matmul_nt_matches_explicit_transpose() {
        let mut rng = StdRng::seed_from_u64(3);
        let a = Matrix::random_uniform(6, 9, 1.0, &mut rng);
        let b = Matrix::random_uniform(4, 9, 1.0, &mut rng);
        let fast = a.matmul_nt(&b);
        let slow = a.matmul(&b.transpose());
        assert!(fast.max_abs_diff(&slow) < 1e-4);
    }

    #[test]
    fn blocked_matmul_matches_naive_on_larger_sizes() {
        let mut rng = StdRng::seed_from_u64(4);
        let a = Matrix::random_uniform(70, 130, 1.0, &mut rng);
        let b = Matrix::random_uniform(130, 65, 1.0, &mut rng);
        let fast = a.matmul(&b);
        // Naive reference.
        let mut naive = Matrix::zeros(70, 65);
        for i in 0..70 {
            for j in 0..65 {
                let mut acc = 0.0;
                for k in 0..130 {
                    acc += a.get(i, k) * b.get(k, j);
                }
                naive.set(i, j, acc);
            }
        }
        assert!(fast.max_abs_diff(&naive) < 1e-3);
    }

    #[test]
    fn matvec_matches_matmul() {
        let mut rng = StdRng::seed_from_u64(5);
        let a = Matrix::random_uniform(5, 8, 1.0, &mut rng);
        let v = Vector::from_vec((0..8).map(|i| i as f32).collect());
        let via_matvec = a.matvec(&v);
        let vm = Matrix::from_vec(8, 1, v.as_slice().to_vec());
        let via_matmul = a.matmul(&vm);
        for i in 0..5 {
            assert!(approx_eq(via_matvec.get(i), via_matmul.get(i, 0), 1e-4));
        }
    }

    #[test]
    fn transpose_involution() {
        let mut rng = StdRng::seed_from_u64(6);
        let a = Matrix::random_uniform(3, 7, 1.0, &mut rng);
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn row_and_col_access() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0], vec![5.0, 6.0]]);
        assert_eq!(a.row(1), &[3.0, 4.0]);
        assert_eq!(a.col(1).as_slice(), &[2.0, 4.0, 6.0]);
    }

    #[test]
    fn select_rows_preserves_order() {
        let a = Matrix::from_rows(&[vec![1.0], vec![2.0], vec![3.0], vec![4.0]]);
        let s = a.select_rows(&[3, 1]);
        assert_eq!(s.as_slice(), &[4.0, 2.0]);
    }

    #[test]
    fn vstack_concatenates() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0]]);
        let b = Matrix::from_rows(&[vec![3.0, 4.0], vec![5.0, 6.0]]);
        let c = Matrix::vstack(&[&a, &b]);
        assert_eq!(c.shape(), (3, 2));
        assert_eq!(c.row(2), &[5.0, 6.0]);
    }

    #[test]
    fn normalize_rows_unit_norm() {
        let a = Matrix::from_rows(&[vec![3.0, 4.0], vec![0.0, 0.0]]);
        let n = a.normalize_rows(1e-8);
        assert!(approx_eq(n.row_norms().get(0), 1.0, 1e-6));
        // Zero row untouched.
        assert_eq!(n.row(1), &[0.0, 0.0]);
    }

    #[test]
    fn argmax_and_topk() {
        let a = Matrix::from_rows(&[vec![0.1, 0.9, 0.5], vec![2.0, -1.0, 0.0]]);
        assert_eq!(a.argmax_rows(), vec![1, 0]);
        let topk = a.topk_rows(2);
        assert_eq!(topk[0], vec![1, 2]);
        assert_eq!(topk[1], vec![0, 2]);
    }

    /// Pins the truncation contract: `k` at, past, and far past the column
    /// count returns each row's full descending ordering; `k == 0` is empty.
    #[test]
    fn topk_rows_truncates_past_column_count() {
        let a = Matrix::from_rows(&[vec![0.1, 0.9, 0.5], vec![2.0, -1.0, 0.0]]);
        let full = vec![vec![1usize, 2, 0], vec![0usize, 2, 1]];
        assert_eq!(a.topk_rows(3), full);
        assert_eq!(a.topk_rows(4), full);
        assert_eq!(a.topk_rows(usize::MAX), full);
        assert_eq!(a.topk_rows(0), vec![Vec::<usize>::new(); 2]);
    }

    #[test]
    fn broadcasting_and_reductions() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        let b = a.add_row_broadcast(&[10.0, 20.0]);
        assert_eq!(b.row(0), &[11.0, 22.0]);
        assert_eq!(a.sum_rows().as_slice(), &[4.0, 6.0]);
        assert_eq!(a.sum_cols().as_slice(), &[3.0, 7.0]);
        assert!(approx_eq(a.mean(), 2.5, 1e-6));
    }

    #[test]
    fn elementwise_ops() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0]]);
        let b = Matrix::from_rows(&[vec![3.0, 5.0]]);
        assert_eq!(a.add(&b).as_slice(), &[4.0, 7.0]);
        assert_eq!(b.sub(&a).as_slice(), &[2.0, 3.0]);
        assert_eq!(a.hadamard(&b).as_slice(), &[3.0, 10.0]);
        assert_eq!(a.scale(2.0).as_slice(), &[2.0, 4.0]);
        let mut c = a.clone();
        c.add_scaled_inplace(&b, 0.5);
        assert_eq!(c.as_slice(), &[2.5, 4.5]);
    }

    #[test]
    fn random_normal_moments() {
        let mut rng = StdRng::seed_from_u64(7);
        let m = Matrix::random_normal(100, 100, 1.5, 2.0, &mut rng);
        let mean = m.mean();
        let var = m.map(|x| (x - mean) * (x - mean)).mean();
        assert!((mean - 1.5).abs() < 0.05, "mean was {mean}");
        assert!((var.sqrt() - 2.0).abs() < 0.05, "std was {}", var.sqrt());
    }

    #[test]
    fn display_does_not_panic() {
        let m = Matrix::zeros(20, 20);
        let s = format!("{m}");
        assert!(s.contains("Matrix 20x20"));
    }

    #[test]
    #[should_panic(expected = "index out of bounds")]
    fn get_out_of_bounds_panics() {
        let m = Matrix::zeros(2, 2);
        let _ = m.get(2, 0);
    }

    #[test]
    fn try_from_vec_checks_length() {
        assert!(Matrix::try_from_vec(2, 2, vec![0.0; 3]).is_err());
        assert!(Matrix::try_from_vec(2, 2, vec![0.0; 4]).is_ok());
    }
}
