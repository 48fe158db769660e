//! Brute-force retrieval reference, written independently of
//! `delrec-retrieval`: f64 arithmetic straight from the raw (unnormalized)
//! item embeddings, a full sort, no packing and no GEMM.
//!
//! The retrieval stage's contract is an L2-normalized index scanned with an
//! L2-normalized, recency-weighted (decay 0.8 per step back) mean of the
//! history's item vectors, best first, ties toward the smaller item id.
//! Agreement with this reference is `recall_at_100`.

use delrec_data::ItemId;

/// Recency decay of the query encoder.
const DECAY: f64 = 0.8;

/// The reference scorer over one embedding matrix.
pub struct Reference {
    rows: Vec<f64>,
    dim: usize,
}

fn normalize(v: &mut [f64]) {
    let norm = v.iter().map(|x| x * x).sum::<f64>().sqrt();
    if norm > 0.0 {
        v.iter_mut().for_each(|x| *x /= norm);
    }
}

impl Reference {
    /// Normalize a row-major `[n_items, dim]` matrix (zero rows stay zero).
    pub fn new(raw: &[f32], dim: usize) -> Self {
        let mut rows: Vec<f64> = raw.iter().map(|&x| f64::from(x)).collect();
        rows.chunks_exact_mut(dim).for_each(normalize);
        Reference { rows, dim }
    }

    /// The `n` best items for `history` (oldest first), best first.
    pub fn top(&self, history: &[ItemId], n: usize) -> Vec<ItemId> {
        let n_items = self.rows.len() / self.dim;
        let mut query = vec![0.0f64; self.dim];
        let mut weight = 1.0;
        for id in history.iter().rev() {
            if id.index() < n_items {
                let row = &self.rows[id.index() * self.dim..][..self.dim];
                query
                    .iter_mut()
                    .zip(row)
                    .for_each(|(q, r)| *q += weight * r);
            }
            weight *= DECAY;
        }
        normalize(&mut query);
        let mut scored: Vec<(f64, u32)> = self
            .rows
            .chunks_exact(self.dim)
            .enumerate()
            .map(|(j, row)| (row.iter().zip(&query).map(|(a, b)| a * b).sum(), j as u32))
            .collect();
        scored.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
        scored.truncate(n);
        scored.into_iter().map(|(_, j)| ItemId(j)).collect()
    }
}

/// `recall_at_100` of best-first `retrieved` lists (one per history): the
/// mean overlap of their top 100 with the reference top 100.
pub fn recall_at_100(
    reference: &Reference,
    histories: &[&[ItemId]],
    retrieved: &[Vec<ItemId>],
) -> f64 {
    assert_eq!(histories.len(), retrieved.len());
    let total: f64 = histories
        .iter()
        .zip(retrieved)
        .map(|(h, got)| {
            let want = reference.top(h, 100);
            let overlap = got.iter().take(100).filter(|id| want.contains(id)).count();
            overlap as f64 / want.len().min(100) as f64
        })
        .sum();
    total / histories.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use delrec_retrieval::{IndexFormat, Retriever};

    #[test]
    fn reference_agrees_with_the_retriever() {
        let (n_items, dim) = (500, 16);
        let raw = delrec_bench::harness::fill(11, n_items * dim);
        let retriever = Retriever::build(raw.clone(), dim, 0, IndexFormat::F32);
        let reference = Reference::new(&raw, dim);
        let histories: Vec<Vec<ItemId>> = (0..20u32)
            .map(|i| {
                (0..6)
                    .map(|t| ItemId((i * 37 + t * 11) % n_items as u32))
                    .collect()
            })
            .collect();
        let refs: Vec<&[ItemId]> = histories.iter().map(|h| h.as_slice()).collect();
        let got: Vec<Vec<ItemId>> = refs
            .iter()
            .map(|h| {
                retriever
                    .retrieve(h, 100)
                    .into_iter()
                    .map(|(id, _)| id)
                    .collect()
            })
            .collect();
        let recall = recall_at_100(&reference, &refs, &got);
        assert!(recall > 0.99, "{recall}");
    }
}
