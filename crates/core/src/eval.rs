//! Evaluation: link prediction (the triple module's completion ability) and
//! relation-existence discrimination (the relation module's job).
//!
//! Ranking runs on the fused kernels in [`crate::eval_kernels`]
//! (candidate-blocked scans, exact early exit, relation-grouped head
//! ranking, sorted-merge filtering); a bit-exact `reference_rank_*` twin
//! there pins the contract under the parity suite.

use crate::eval_kernels::{fused_rank_heads, fused_rank_relations, fused_rank_tails, EvalError};
use crate::model::PkgmModel;
use pkgm_store::{RelationId, Triple, TripleStore};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Link-prediction metrics (tail ranking).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LinkPredictionReport {
    /// Mean reciprocal rank.
    pub mrr: f64,
    /// Mean rank (1-based).
    pub mean_rank: f64,
    /// `(k, Hits@k)` pairs in the order requested.
    pub hits: Vec<(usize, f64)>,
    /// Number of test triples ranked.
    pub n: usize,
}

impl LinkPredictionReport {
    /// Hits@k, if it was computed.
    pub fn hits_at(&self, k: usize) -> Option<f64> {
        self.hits.iter().find(|(kk, _)| *kk == k).map(|(_, v)| *v)
    }
}

/// Rank the true tail of each test triple against every entity.
///
/// Scores candidates with the triple module `‖h + r − t′‖₁` (the relation
/// module's `f_R(h,r)` is constant across tail candidates, so it cannot
/// change tail ranks). With `filter`, candidate tails that form *other* known
/// positives in the given store are skipped — the standard "filtered"
/// protocol of the KGE literature.
///
/// Errors if a test triple references an id outside the model's tables.
pub fn rank_tails(
    model: &PkgmModel,
    test: &[Triple],
    filter: Option<&TripleStore>,
    ks: &[usize],
) -> Result<LinkPredictionReport, EvalError> {
    Ok(summarize_ranks(&fused_rank_tails(model, test, filter)?, ks))
}

/// Summarize a list of 1-based ranks into MRR / mean-rank / Hits@k.
pub fn summarize_ranks(ranks: &[usize], ks: &[usize]) -> LinkPredictionReport {
    let n = ranks.len().max(1);
    let mrr = ranks.iter().map(|&r| 1.0 / r as f64).sum::<f64>() / n as f64;
    let mean_rank = ranks.iter().map(|&r| r as f64).sum::<f64>() / n as f64;
    let hits = ks
        .iter()
        .map(|&k| {
            let h = ranks.iter().filter(|&&r| r <= k).count() as f64 / n as f64;
            (k, h)
        })
        .collect();
    LinkPredictionReport {
        mrr,
        mean_rank,
        hits,
        n: ranks.len(),
    }
}

/// Rank the true head of each test triple against every entity, scoring with
/// the **joint** objective `f_T + f_R` — unlike tail ranking, `f_R(h′, r)`
/// varies across head candidates, so the relation module participates.
///
/// The fused kernel groups test triples by relation and shares each
/// candidate's `M_r·h′` projection across the group, so large head-ranking
/// sweeps cost O(|R_test|·|E|·d²) + O(|test|·|E|·d) rather than the naive
/// O(|test|·|E|·d²).
pub fn rank_heads(
    model: &PkgmModel,
    test: &[Triple],
    filter: Option<&TripleStore>,
    ks: &[usize],
) -> Result<LinkPredictionReport, EvalError> {
    Ok(summarize_ranks(&fused_rank_heads(model, test, filter)?, ks))
}

/// Rank the true relation of each test triple against every relation using
/// the joint score — the relation-query analogue of link prediction (recall
/// that the paper's Eq. 4 also corrupts relations, so the model is trained
/// for exactly this discrimination).
pub fn rank_relations(
    model: &PkgmModel,
    test: &[Triple],
    filter: Option<&TripleStore>,
    ks: &[usize],
) -> Result<LinkPredictionReport, EvalError> {
    Ok(summarize_ranks(
        &fused_rank_relations(model, test, filter)?,
        ks,
    ))
}

/// Relation-existence metrics for the relation module.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RelationExistenceReport {
    /// Area under the ROC curve of `−f_R` as an existence score.
    pub auc: f64,
    /// Mean `f_R` over positive `(h, r)` pairs.
    pub mean_pos_score: f64,
    /// Mean `f_R` over negative `(h, r)` pairs.
    pub mean_neg_score: f64,
    /// Number of positive/negative pairs.
    pub n_pos: usize,
    /// Number of negative pairs.
    pub n_neg: usize,
}

/// How many uniform draws the sparse-head negative sampler makes before
/// giving up on a head (the head is then skipped and the guard counter
/// still bounds total work).
const MAX_NEG_ATTEMPTS: usize = 16;

/// Evaluate how well `f_R(h,r)` separates relations an entity has from
/// relations it does not.
///
/// Positives are sampled from `(h, r)` pairs present in `store`; negatives
/// pair the same heads with relations they lack. AUC is computed exactly
/// from the rank-sum statistic.
pub fn relation_existence_auc(
    model: &PkgmModel,
    store: &TripleStore,
    n_samples: usize,
    rng: &mut impl Rng,
) -> RelationExistenceReport {
    let heads = store.head_entities();
    assert!(!heads.is_empty(), "store has no head entities");
    let n_relations = store.n_relations();

    let mut pos_scores = Vec::with_capacity(n_samples);
    let mut neg_scores = Vec::with_capacity(n_samples);
    let mut guard = 0usize;
    while pos_scores.len() < n_samples && guard < n_samples * 100 {
        guard += 1;
        let h = heads[rng.gen_range(0..heads.len())];
        let rels = store.relations_of(h);
        let missing = n_relations as usize - rels.len();
        if rels.is_empty() || missing == 0 {
            continue;
        }
        let r_pos = rels[rng.gen_range(0..rels.len())];
        // Sample a relation h does NOT have. Rejection sampling succeeds
        // with probability missing/n_relations per draw, so for dense
        // heads (few missing relations) it would spin near-forever; those
        // draw the k-th missing relation directly instead.
        let r_neg = if missing * 4 < n_relations as usize {
            Some(nth_missing_relation(rels, rng.gen_range(0..missing as u32)))
        } else {
            (0..MAX_NEG_ATTEMPTS)
                .map(|_| RelationId(rng.gen_range(0..n_relations)))
                .find(|r| rels.binary_search(r).is_err())
        };
        let Some(r_neg) = r_neg else {
            continue; // astronomically unlikely; the guard caps retries
        };
        pos_scores.push(model.score_relation(h, r_pos) as f64);
        neg_scores.push(model.score_relation(h, r_neg) as f64);
    }

    let auc = auc_lower_is_positive(&pos_scores, &neg_scores);
    RelationExistenceReport {
        auc,
        mean_pos_score: mean(&pos_scores),
        mean_neg_score: mean(&neg_scores),
        n_pos: pos_scores.len(),
        n_neg: neg_scores.len(),
    }
}

/// The `k`-th (0-based) relation id absent from the sorted id list `rels`.
/// Requires `k < n_relations − rels.len()` for the caller's relation count.
fn nth_missing_relation(rels: &[RelationId], mut k: u32) -> RelationId {
    let mut next = 0u32; // smallest id not yet accounted for
    for &r in rels {
        let gap = r.0 - next; // ids next..r.0 are all missing
        if k < gap {
            return RelationId(next + k);
        }
        k -= gap;
        next = r.0 + 1;
    }
    RelationId(next + k)
}

/// AUC where *lower* scores indicate the positive class, computed exactly
/// in O(n log n) from the Mann–Whitney rank-sum statistic with midrank tie
/// handling: sort the pooled scores, sum the positives' midranks `R⁺`,
/// then `U = R⁺ − P(P+1)/2` counts the (pos, neg) pairs where the positive
/// scored *higher* (ties ½), so `AUC = 1 − U / (P·N)`.
fn auc_lower_is_positive(pos: &[f64], neg: &[f64]) -> f64 {
    if pos.is_empty() || neg.is_empty() {
        return 0.5;
    }
    let mut all: Vec<(f64, bool)> = pos
        .iter()
        .map(|&s| (s, true))
        .chain(neg.iter().map(|&s| (s, false)))
        .collect();
    all.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut pos_rank_sum = 0.0f64;
    let mut i = 0usize;
    while i < all.len() {
        let mut j = i + 1;
        while j < all.len() && all[j].0 == all[i].0 {
            j += 1;
        }
        // 1-based ranks i+1 ..= j share the midrank (i+1 + j)/2.
        let midrank = (i + 1 + j) as f64 / 2.0;
        let tied_pos = all[i..j].iter().filter(|&&(_, p)| p).count();
        pos_rank_sum += midrank * tied_pos as f64;
        i = j;
    }
    let p = pos.len() as f64;
    let n = neg.len() as f64;
    let u_greater = pos_rank_sum - p * (p + 1.0) / 2.0;
    1.0 - u_greater / (p * n)
}

fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::PkgmConfig;
    use crate::trainer::{TrainConfig, Trainer};
    use pkgm_store::{EntityId, StoreBuilder};
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn toy() -> (TripleStore, PkgmModel) {
        let mut b = StoreBuilder::new();
        // Items carry relation 0 plus *either* relation 1 or relation 2, so
        // every head has relations it lacks (needed for existence AUC).
        for i in 0..12u32 {
            b.add_raw(i, 0, 12 + i % 3);
            b.add_raw(i, 1 + i % 2, 15 + i % 2);
        }
        let store = b.build();
        let mut model = PkgmModel::new(
            store.n_entities() as usize,
            store.n_relations() as usize,
            PkgmConfig::new(16).with_seed(1),
        );
        let cfg = TrainConfig {
            lr: 0.05,
            margin: 2.0,
            batch_size: 32,
            epochs: 40,
            negatives: 2,
            seed: 1,
            normalize_entities: true,
            parallel: false,
            chunk_size: None,
        };
        Trainer::new(&model, cfg.clone()).train(&mut model, &store);
        (store, model)
    }

    #[test]
    fn summarize_ranks_formulas() {
        let r = summarize_ranks(&[1, 2, 4], &[1, 3, 10]);
        assert!((r.mrr - (1.0 + 0.5 + 0.25) / 3.0).abs() < 1e-12);
        assert!((r.mean_rank - 7.0 / 3.0).abs() < 1e-12);
        assert_eq!(r.hits_at(1), Some(1.0 / 3.0));
        assert_eq!(r.hits_at(3), Some(2.0 / 3.0));
        assert_eq!(r.hits_at(10), Some(1.0));
        assert_eq!(r.hits_at(5), None);
        assert_eq!(r.n, 3);
    }

    #[test]
    fn trained_model_ranks_true_tails_well() {
        let (store, model) = toy();
        let test: Vec<Triple> = store.triples().iter().copied().take(10).collect();
        let report = rank_tails(&model, &test, Some(&store), &[1, 3, 10]).unwrap();
        let random_mrr = 2.0 / store.n_entities() as f64; // generous bound
        assert!(
            report.mrr > random_mrr * 3.0,
            "mrr {} barely above random {}",
            report.mrr,
            random_mrr
        );
        assert!(report.hits_at(10).unwrap() > 0.5);
    }

    #[test]
    fn filtered_ranks_never_worse_than_raw() {
        let (store, model) = toy();
        let test: Vec<Triple> = store.triples().to_vec();
        let raw = rank_tails(&model, &test, None, &[1]).unwrap();
        let filt = rank_tails(&model, &test, Some(&store), &[1]).unwrap();
        assert!(filt.mean_rank <= raw.mean_rank + 1e-9);
        assert!(filt.mrr >= raw.mrr - 1e-9);
    }

    /// A test triple whose every competing candidate is a known positive
    /// must rank exactly 1 under the filtered protocol, whatever the
    /// embeddings say.
    #[test]
    fn rank_is_one_when_every_other_candidate_is_filtered() {
        let mut b = StoreBuilder::new();
        for c in 0..5u32 {
            b.add_raw(0, 0, c); // (0, 0, c) for every entity, incl. (0,0,0)
            b.add_raw(c, 1, 1); // (c, 1, 1) for every entity
        }
        let store = b.build();
        let model = PkgmModel::new(
            store.n_entities() as usize,
            store.n_relations() as usize,
            PkgmConfig::new(8).with_seed(6),
        );
        let tails = rank_tails(
            &model,
            &[Triple::new(EntityId(0), RelationId(0), EntityId(2))],
            Some(&store),
            &[1],
        )
        .unwrap();
        assert_eq!(tails.mean_rank, 1.0);
        assert_eq!(tails.hits_at(1), Some(1.0));
        let heads = rank_heads(
            &model,
            &[Triple::new(EntityId(3), RelationId(1), EntityId(1))],
            Some(&store),
            &[1],
        )
        .unwrap();
        assert_eq!(heads.mean_rank, 1.0);
    }

    /// An empty filter store filters nothing and must not panic.
    #[test]
    fn empty_filter_store_behaves_like_unfiltered() {
        let (store, model) = toy();
        let empty = StoreBuilder::new().build();
        let test: Vec<Triple> = store.triples().iter().copied().take(8).collect();
        for (filtered, raw) in [
            (
                rank_tails(&model, &test, Some(&empty), &[3]).unwrap(),
                rank_tails(&model, &test, None, &[3]).unwrap(),
            ),
            (
                rank_heads(&model, &test, Some(&empty), &[3]).unwrap(),
                rank_heads(&model, &test, None, &[3]).unwrap(),
            ),
            (
                rank_relations(&model, &test, Some(&empty), &[3]).unwrap(),
                rank_relations(&model, &test, None, &[3]).unwrap(),
            ),
        ] {
            assert_eq!(filtered.mean_rank, raw.mean_rank);
            assert_eq!(filtered.mrr, raw.mrr);
        }
    }

    /// Out-of-range test ids are a clean error, not a panic.
    #[test]
    fn out_of_range_test_ids_return_errors() {
        let (_, model) = toy();
        let n = model.n_entities() as u32;
        let bad = [Triple::new(EntityId(n), RelationId(0), EntityId(0))];
        assert!(rank_tails(&model, &bad, None, &[1]).is_err());
        assert!(rank_heads(&model, &bad, None, &[1]).is_err());
        assert!(rank_relations(&model, &bad, None, &[1]).is_err());
    }

    #[test]
    fn relation_existence_auc_beats_chance_after_training() {
        let (store, model) = toy();
        let mut rng = SmallRng::seed_from_u64(7);
        let report = relation_existence_auc(&model, &store, 100, &mut rng);
        assert!(report.auc > 0.6, "AUC {} ≈ chance", report.auc);
        assert!(report.mean_pos_score < report.mean_neg_score);
        assert!(report.n_pos > 0 && report.n_neg > 0);
    }

    /// A head holding all but one of many relations must not stall the
    /// negative sampler: the dense path enumerates missing relations
    /// directly instead of rejection-sampling against long odds.
    #[test]
    fn existence_auc_terminates_with_dense_heads() {
        let n_rels = 64u32;
        let mut b = StoreBuilder::new();
        for r in 0..n_rels - 1 {
            b.add_raw(0, r, 100 + r); // head 0 has 63 of the 64 relations
        }
        b.add_raw(1, n_rels - 1, 200);
        let store = b.build();
        let model = PkgmModel::new(
            store.n_entities() as usize,
            store.n_relations() as usize,
            PkgmConfig::new(4).with_seed(9),
        );
        let mut rng = SmallRng::seed_from_u64(3);
        let report = relation_existence_auc(&model, &store, 50, &mut rng);
        assert_eq!(report.n_pos, 50);
        assert_eq!(report.n_neg, 50);
    }

    #[test]
    fn nth_missing_relation_walks_gaps() {
        let rels: Vec<RelationId> = [1u32, 2, 5].iter().map(|&r| RelationId(r)).collect();
        // Missing ids (for, say, 8 relations): 0, 3, 4, 6, 7.
        for (k, want) in [(0u32, 0u32), (1, 3), (2, 4), (3, 6), (4, 7)] {
            assert_eq!(nth_missing_relation(&rels, k), RelationId(want));
        }
        assert_eq!(nth_missing_relation(&[], 3), RelationId(3));
    }

    #[test]
    fn auc_helper_is_exact() {
        assert_eq!(auc_lower_is_positive(&[0.0, 0.1], &[1.0, 2.0]), 1.0);
        assert_eq!(auc_lower_is_positive(&[3.0], &[1.0]), 0.0);
        assert_eq!(auc_lower_is_positive(&[1.0], &[1.0]), 0.5);
        assert_eq!(auc_lower_is_positive(&[], &[1.0]), 0.5);
    }

    /// The rank-sum AUC matches the O(P·N) pairwise definition on random
    /// inputs, ties included.
    #[test]
    fn auc_matches_pairwise_on_random_inputs() {
        fn pairwise(pos: &[f64], neg: &[f64]) -> f64 {
            let mut wins = 0.0f64;
            for &p in pos {
                for &n in neg {
                    if p < n {
                        wins += 1.0;
                    } else if p == n {
                        wins += 0.5;
                    }
                }
            }
            wins / (pos.len() as f64 * neg.len() as f64)
        }
        let mut rng = SmallRng::seed_from_u64(21);
        for _ in 0..50 {
            let np = rng.gen_range(1..40);
            let nn = rng.gen_range(1..40);
            // Coarse quantization forces plenty of exact ties.
            let draw = |rng: &mut SmallRng| (rng.gen_range(0..12) as f64) * 0.25;
            let pos: Vec<f64> = (0..np).map(|_| draw(&mut rng)).collect();
            let neg: Vec<f64> = (0..nn).map(|_| draw(&mut rng)).collect();
            let fast = auc_lower_is_positive(&pos, &neg);
            let slow = pairwise(&pos, &neg);
            assert!(
                (fast - slow).abs() < 1e-12,
                "rank-sum {fast} vs pairwise {slow} (P={np}, N={nn})"
            );
        }
    }

    #[test]
    fn head_ranking_beats_chance_after_training() {
        let (store, model) = toy();
        let test: Vec<Triple> = store.triples().iter().copied().take(10).collect();
        let report = rank_heads(&model, &test, Some(&store), &[10]).unwrap();
        // 12 items share each tail, so several heads are plausible; still the
        // true head should rank well inside the 17-entity space.
        assert!(
            report.hits_at(10).unwrap() > 0.5,
            "hits@10 {:?}",
            report.hits
        );
        assert!(report.mean_rank < store.n_entities() as f64 / 2.0);
    }

    #[test]
    fn relation_ranking_prefers_true_relation() {
        let (store, model) = toy();
        let test: Vec<Triple> = store.triples().to_vec();
        let report = rank_relations(&model, &test, Some(&store), &[1]).unwrap();
        // 3 relations → chance Hits@1 = 1/3; trained should clearly beat it.
        assert!(
            report.hits_at(1).unwrap() > 0.5,
            "relation Hits@1 {} ≈ chance",
            report.hits_at(1).unwrap()
        );
    }

    #[test]
    fn untrained_model_is_near_chance() {
        let mut b = StoreBuilder::new();
        for i in 0..10u32 {
            b.add_raw(i, 0, 10 + i % 2);
        }
        let store = b.build();
        let model = PkgmModel::new(
            store.n_entities() as usize,
            store.n_relations() as usize,
            PkgmConfig::new(8).with_seed(2),
        );
        let test: Vec<Triple> = store.triples().to_vec();
        let report = rank_tails(&model, &test, None, &[1]).unwrap();
        // Untrained: mean rank should be in the middle of the entity range,
        // not near 1.
        assert!(report.mean_rank > 2.0);
    }
}
