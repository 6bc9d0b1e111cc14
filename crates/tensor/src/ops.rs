//! Free-standing numeric operations: softmax, log-sum-exp, sigmoid,
//! cosine-similarity matrices and related helpers shared by the `nn` and
//! `hdc-zsc` crates.

use crate::Matrix;

/// Numerically stable softmax over a slice, returning a new `Vec<f32>` that
/// sums to 1 (an empty slice returns an empty vector).
///
/// # Example
///
/// ```
/// let p = tensor::ops::softmax(&[1.0, 1.0]);
/// assert!((p[0] - 0.5).abs() < 1e-6);
/// ```
pub fn softmax(logits: &[f32]) -> Vec<f32> {
    if logits.is_empty() {
        return Vec::new();
    }
    let max = logits.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
    let exps: Vec<f32> = logits.iter().map(|&x| (x - max).exp()).collect();
    let sum: f32 = exps.iter().sum();
    exps.iter().map(|&e| e / sum).collect()
}

/// Numerically stable log-sum-exp of a slice.
///
/// Returns negative infinity for an empty slice.
pub fn log_sum_exp(logits: &[f32]) -> f32 {
    if logits.is_empty() {
        return f32::NEG_INFINITY;
    }
    let max = logits.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
    if max.is_infinite() {
        return max;
    }
    let sum: f32 = logits.iter().map(|&x| (x - max).exp()).sum();
    max + sum.ln()
}

/// Logistic sigmoid `1 / (1 + e^{-x})`, numerically stable for large `|x|`.
pub fn sigmoid(x: f32) -> f32 {
    if x >= 0.0 {
        let z = (-x).exp();
        1.0 / (1.0 + z)
    } else {
        let z = x.exp();
        z / (1.0 + z)
    }
}

/// Cosine-similarity matrix between the rows of `a` (`B×d`) and the rows of
/// `b` (`C×d`), producing a `B×C` matrix of values in `[-1, 1]`.
///
/// Rows with (near-)zero norm produce zero similarities, mirroring the
/// behaviour of the similarity kernel in the paper's Eq. (1) with the
/// temperature factored out.
///
/// # Panics
///
/// Panics if `a.cols() != b.cols()`.
pub fn cosine_similarity_matrix(a: &Matrix, b: &Matrix) -> Matrix {
    assert_eq!(
        a.cols(),
        b.cols(),
        "cosine similarity requires equal embedding dims ({} vs {})",
        a.cols(),
        b.cols()
    );
    let an = a.normalize_rows(1e-12);
    let bn = b.normalize_rows(1e-12);
    an.matmul_nt(&bn)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn softmax_sums_to_one() {
        let p = softmax(&[1.0, 2.0, 3.0]);
        let sum: f32 = p.iter().sum();
        assert!((sum - 1.0).abs() < 1e-6);
        assert!(p[2] > p[1] && p[1] > p[0]);
        assert!(softmax(&[]).is_empty());
    }

    #[test]
    fn softmax_is_shift_invariant() {
        let a = softmax(&[1.0, 2.0, 3.0]);
        let b = softmax(&[1001.0, 1002.0, 1003.0]);
        for (x, y) in a.iter().zip(b.iter()) {
            assert!((x - y).abs() < 1e-5);
        }
    }

    #[test]
    fn log_sum_exp_matches_direct() {
        let xs = [0.1f32, -0.3, 0.7];
        let direct = xs.iter().map(|x| x.exp()).sum::<f32>().ln();
        assert!((log_sum_exp(&xs) - direct).abs() < 1e-6);
        assert_eq!(log_sum_exp(&[]), f32::NEG_INFINITY);
    }

    #[test]
    fn sigmoid_bounds_and_symmetry() {
        assert!((sigmoid(0.0) - 0.5).abs() < 1e-6);
        assert!(sigmoid(50.0) > 0.999_999);
        assert!(sigmoid(-50.0) < 1e-6);
        assert!((sigmoid(2.0) + sigmoid(-2.0) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn cosine_similarity_self_is_one() {
        let mut rng = StdRng::seed_from_u64(9);
        let a = Matrix::random_uniform(4, 16, 1.0, &mut rng);
        let s = cosine_similarity_matrix(&a, &a);
        for i in 0..4 {
            assert!((s.get(i, i) - 1.0).abs() < 1e-5);
            for j in 0..4 {
                assert!(s.get(i, j) <= 1.0 + 1e-5 && s.get(i, j) >= -1.0 - 1e-5);
            }
        }
    }

    #[test]
    fn cosine_similarity_orthogonal_rows() {
        let a = Matrix::from_rows(&[vec![1.0, 0.0]]);
        let b = Matrix::from_rows(&[vec![0.0, 1.0], vec![1.0, 0.0]]);
        let s = cosine_similarity_matrix(&a, &b);
        assert!(s.get(0, 0).abs() < 1e-6);
        assert!((s.get(0, 1) - 1.0).abs() < 1e-6);
    }
}
