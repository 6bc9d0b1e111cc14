//! Parallel dense scoring for the float inference paths (ZSC class logits,
//! DAP cosine scores, ESZSL compatibility scores).
//!
//! Every function here splits the *query* operand into contiguous row chunks
//! and applies the exact same scalar kernels (`normalize_rows`, `matmul`,
//! `matmul_nt`) each chunk would see in the serial code. Row results never
//! depend on other rows, so the stitched output is **bit-identical** to the
//! serial result for every thread count — the inference rewiring in
//! `hdc_zsc` and `baselines` relies on this to keep accuracies unchanged to
//! the last bit.

use minipool::Pool;
use tensor::Matrix;

/// Minimum row norm treated as non-zero, matching both
/// `nn::CosineSimilarity` and `tensor::ops::cosine_similarity_matrix`.
const COSINE_EPS: f32 = 1e-12;

/// Applies `f` to contiguous row chunks of `a` and vertically stitches the
/// results in chunk order.
///
/// With a one-thread pool (or a matrix of fewer than two rows) this is
/// exactly `f(a)` with no copies.
///
/// # Panics
///
/// Panics if `f` returns chunks of differing widths.
fn rowwise_map<F>(a: &Matrix, pool: &Pool, f: F) -> Matrix
where
    F: Fn(&Matrix) -> Matrix + Sync,
{
    if pool.threads() == 1 || a.rows() < 2 {
        return f(a);
    }
    let cols = a.cols();
    let blocks = pool.map_chunks(a.rows(), |range| {
        let chunk = Matrix::from_vec(
            range.len(),
            cols,
            a.as_slice()[range.start * cols..range.end * cols].to_vec(),
        );
        f(&chunk)
    });
    let refs: Vec<&Matrix> = blocks.iter().collect();
    Matrix::vstack(&refs)
}

/// The `B×C` cosine-similarity matrix between the rows of `queries` (`B×d`)
/// and the rows of `prototypes` (`C×d`), computed in parallel over query
/// rows.
///
/// Bit-identical to `tensor::ops::cosine_similarity_matrix` and to the
/// inference (`train = false`) output of `nn::CosineSimilarity::forward`.
///
/// # Panics
///
/// Panics if the embedding widths differ.
pub fn cosine_scores(queries: &Matrix, prototypes: &Matrix, pool: &Pool) -> Matrix {
    assert_eq!(
        queries.cols(),
        prototypes.cols(),
        "cosine scoring requires equal embedding dims ({} vs {})",
        queries.cols(),
        prototypes.cols()
    );
    let normalized_prototypes = prototypes.normalize_rows(COSINE_EPS);
    rowwise_map(queries, pool, |chunk| {
        chunk
            .normalize_rows(COSINE_EPS)
            .matmul_nt(&normalized_prototypes)
    })
}

/// Bilinear compatibility scores `X·W·Sᵀ` (`B×C`), computed in parallel over
/// the rows of `features`; bit-identical to
/// `features.matmul(weights).matmul_nt(signatures)`.
///
/// # Panics
///
/// Panics if the shapes are incompatible.
pub fn bilinear_scores(
    features: &Matrix,
    weights: &Matrix,
    signatures: &Matrix,
    pool: &Pool,
) -> Matrix {
    rowwise_map(features, pool, |chunk| {
        chunk.matmul(weights).matmul_nt(signatures)
    })
}

/// Linear scores `X·W` (`B×α`), computed in parallel over the rows of
/// `features`; bit-identical to `features.matmul(weights)`.
///
/// # Panics
///
/// Panics if `features.cols() != weights.rows()`.
pub fn linear_scores(features: &Matrix, weights: &Matrix, pool: &Pool) -> Matrix {
    rowwise_map(features, pool, |chunk| chunk.matmul(weights))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use tensor::ops::cosine_similarity_matrix;

    #[test]
    fn cosine_scores_bit_identical_to_serial_reference() {
        let mut rng = StdRng::seed_from_u64(1);
        let a = Matrix::random_uniform(23, 17, 1.0, &mut rng);
        let b = Matrix::random_uniform(9, 17, 1.0, &mut rng);
        let reference = cosine_similarity_matrix(&a, &b);
        for threads in [1usize, 2, 5, 16] {
            let scores = cosine_scores(&a, &b, &Pool::new(threads));
            assert_eq!(scores.as_slice(), reference.as_slice(), "threads={threads}");
        }
    }

    #[test]
    fn bilinear_scores_bit_identical_to_serial_reference() {
        let mut rng = StdRng::seed_from_u64(2);
        let x = Matrix::random_uniform(19, 7, 1.0, &mut rng);
        let w = Matrix::random_uniform(7, 5, 1.0, &mut rng);
        let s = Matrix::random_uniform(4, 5, 1.0, &mut rng);
        let reference = x.matmul(&w).matmul_nt(&s);
        for threads in [1usize, 3, 8] {
            let scores = bilinear_scores(&x, &w, &s, &Pool::new(threads));
            assert_eq!(scores.as_slice(), reference.as_slice(), "threads={threads}");
        }
    }

    #[test]
    fn linear_scores_bit_identical_to_serial_reference() {
        let mut rng = StdRng::seed_from_u64(3);
        let x = Matrix::random_uniform(11, 6, 1.0, &mut rng);
        let w = Matrix::random_uniform(6, 13, 1.0, &mut rng);
        let reference = x.matmul(&w);
        for threads in [1usize, 4] {
            let scores = linear_scores(&x, &w, &Pool::new(threads));
            assert_eq!(scores.as_slice(), reference.as_slice(), "threads={threads}");
        }
    }

    #[test]
    fn rowwise_map_handles_single_row_and_zero_norm() {
        let a = Matrix::from_rows(&[vec![0.0, 0.0]]);
        let b = Matrix::from_rows(&[vec![1.0, 1.0]]);
        let scores = cosine_scores(&a, &b, &Pool::new(8));
        assert_eq!(scores.get(0, 0), 0.0);
    }
}
