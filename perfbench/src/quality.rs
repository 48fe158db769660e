//! Quality probes on the fitted model, reported beside the speed numbers so
//! a change in behaviour shows next to a change in speed.
//!
//! Everything here depends on the fit seed only — not on the workload seed —
//! so the values are exact functions of the model and move only when its
//! behaviour does.

use crate::model::Fitted;
use crate::stream::Rng;
use delrec_data::{CandidateSampler, ItemId, Split};
use delrec_eval::{evaluate, EvalConfig, Ranker};

/// Candidate-set size of the paper's protocol.
const M: usize = 15;
/// Depth of the hit-rate cut.
const K: usize = 10;

fn candidate_seed(f: &Fitted) -> u64 {
    f.ctx.seed ^ 0xE7A1
}

/// HR@10 and NDCG@10 of the paper's 15-way protocol on the test split.
pub fn fifteen_way(f: &Fitted) -> (f64, f64) {
    let cfg = EvalConfig {
        m: M,
        candidate_seed: candidate_seed(f),
        max_examples: None,
        batch_size: 16,
    };
    let report = evaluate(f.model.inner(), &f.ctx.dataset, Split::Test, &cfg);
    (report.hr(K), report.ndcg(K))
}

/// The history-shuffle probe ("Lost in Sequence"): the share of test
/// examples whose top-1 of the 15-way candidate set changes when the
/// history is permuted with a seeded permutation.
pub fn order_sensitivity(f: &Fitted) -> f64 {
    let examples = f.ctx.dataset.examples(Split::Test);
    let shuffled: Vec<Vec<ItemId>> = examples
        .iter()
        .enumerate()
        .map(|(i, ex)| {
            let perm = Rng::at(f.ctx.seed ^ 0x0DE5, i as u64).permutation(ex.prefix.len());
            perm.iter().map(|&p| ex.prefix[p]).collect()
        })
        .collect();
    let rec = f.model.inner();
    let sampler = CandidateSampler::new(f.ctx.dataset.num_items(), M);
    let cands: Vec<Vec<ItemId>> = examples
        .iter()
        .enumerate()
        .map(|(i, ex)| sampler.candidates(ex.target, candidate_seed(f), i))
        .collect();
    let argmax = |scores: &[f32]| {
        (0..scores.len())
            .max_by(|&a, &b| scores[a].total_cmp(&scores[b]).then(b.cmp(&a)))
            .unwrap()
    };
    let original: Vec<_> = examples
        .iter()
        .zip(&cands)
        .map(|(ex, c)| (ex.prefix.as_slice(), c.as_slice()))
        .collect();
    let permuted: Vec<_> = shuffled
        .iter()
        .zip(&cands)
        .map(|(h, c)| (h.as_slice(), c.as_slice()))
        .collect();
    let a = rec.score_candidates_batch(&original);
    let b = rec.score_candidates_batch(&permuted);
    let changed = a
        .iter()
        .zip(&b)
        .filter(|(x, y)| argmax(x) != argmax(y))
        .count();
    changed as f64 / examples.len() as f64
}
