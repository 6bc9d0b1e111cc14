//! Similarity between float embeddings and hypervector dictionaries.

use tensor::Matrix;

/// Cosine similarity between a dense `f32` embedding and every row of a ±1
/// dictionary matrix, returning one similarity per row.
///
/// This is the attribute-prediction head of the paper
/// (`q = cossim(γ(x), B)`): the image embedding is compared against all
/// `α = 312` attribute codevectors.
///
/// # Panics
///
/// Panics if `embedding.len() != dictionary.cols()`.
pub fn cosine_to_dictionary(embedding: &[f32], dictionary: &Matrix) -> Vec<f32> {
    assert_eq!(
        embedding.len(),
        dictionary.cols(),
        "embedding dim {} does not match dictionary width {}",
        embedding.len(),
        dictionary.cols()
    );
    let emb_norm = embedding.iter().map(|x| x * x).sum::<f32>().sqrt();
    (0..dictionary.rows())
        .map(|r| {
            let row = dictionary.row(r);
            let dot: f32 = row.iter().zip(embedding).map(|(a, b)| a * b).sum();
            let row_norm = row.iter().map(|x| x * x).sum::<f32>().sqrt();
            let denom = emb_norm * row_norm;
            if denom < 1e-12 {
                0.0
            } else {
                dot / denom
            }
        })
        .collect()
}

/// Expected absolute cosine similarity between two independent random
/// d-dimensional bipolar hypervectors (≈ `sqrt(2/(π d))`), useful for
/// calibrating quasi-orthogonality thresholds in tests and benches.
pub fn expected_random_cosine(dim: usize) -> f32 {
    (2.0 / (std::f32::consts::PI * dim as f32)).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BipolarHypervector;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn stack(hvs: &[BipolarHypervector]) -> Matrix {
        Matrix::from_rows(
            &hvs.iter()
                .map(BipolarHypervector::to_f32)
                .collect::<Vec<_>>(),
        )
    }

    fn argmax(sims: &[f32]) -> usize {
        (0..sims.len())
            .max_by(|&a, &b| sims[a].total_cmp(&sims[b]))
            .expect("non-empty")
    }

    #[test]
    fn cosine_to_dictionary_identifies_self() {
        let mut rng = StdRng::seed_from_u64(2);
        let hvs: Vec<_> = (0..10)
            .map(|_| BipolarHypervector::random(2048, &mut rng))
            .collect();
        let dict = stack(&hvs);
        let query = hvs[3].to_f32();
        let sims = cosine_to_dictionary(&query, &dict);
        assert_eq!(sims.len(), 10);
        assert!((sims[3] - 1.0).abs() < 1e-5);
        for (i, s) in sims.iter().enumerate() {
            if i != 3 {
                assert!(s.abs() < 0.1);
            }
        }
        assert_eq!(argmax(&sims), 3);
    }

    #[test]
    fn cosine_to_dictionary_handles_noisy_query() {
        let mut rng = StdRng::seed_from_u64(3);
        let hvs: Vec<_> = (0..20)
            .map(|_| BipolarHypervector::random(4096, &mut rng))
            .collect();
        let dict = stack(&hvs);
        // Noisy float version of entry 7.
        let query: Vec<f32> = hvs[7]
            .to_f32()
            .iter()
            .map(|v| v + 0.3 * (rng.gen::<f32>() - 0.5))
            .collect();
        assert_eq!(argmax(&cosine_to_dictionary(&query, &dict)), 7);
    }

    #[test]
    fn zero_embedding_gives_zero_similarity() {
        let dict = Matrix::from_rows(&[vec![1.0, -1.0]]);
        let sims = cosine_to_dictionary(&[0.0, 0.0], &dict);
        assert_eq!(sims, vec![0.0]);
    }

    #[test]
    fn expected_random_cosine_shrinks_with_dim() {
        assert!(expected_random_cosine(1024) > expected_random_cosine(8192));
        let mut rng = StdRng::seed_from_u64(4);
        // Empirical mean |cos| over pairs should be close to the formula.
        let d = 2048;
        let n = 50;
        let hvs: Vec<_> = (0..n)
            .map(|_| BipolarHypervector::random(d, &mut rng))
            .collect();
        let mut acc = 0.0f32;
        let mut count = 0;
        for i in 0..n {
            for j in (i + 1)..n {
                acc += hvs[i].cosine(&hvs[j]).abs();
                count += 1;
            }
        }
        let empirical = acc / count as f32;
        let expected = expected_random_cosine(d);
        assert!((empirical - expected).abs() < expected * 0.3);
    }
}
