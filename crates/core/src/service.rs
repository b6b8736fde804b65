//! The serving layer (paper §II-D/E): per-item knowledge service vectors.
//!
//! After pre-training, PKGM answers queries *in vector space, without
//! touching triple data*:
//!
//! * `S_T(h,r) = h + r` — the (possibly inferred) tail-entity embedding;
//! * `S_R(h,r) = M_r·h − r` — approaches **0** iff `h` has (or should have)
//!   relation `r`.
//!
//! For a target item the service emits vectors for its category's `k` key
//! relations, in two shapes:
//!
//! * **sequence service** (Fig. 2): `[S_1 … S_k, S_{k+1} … S_{2k}]` — the
//!   `2k` vectors appended to a sequence model's input embeddings;
//! * **condensed service** (Fig. 3, Eq. 8–9/20): pair up the two modules'
//!   vectors per relation, concatenate, and average:
//!   `S = (1/k) Σ_j [S_j ; S_{j+k}]` — a single `2d` vector concatenated to
//!   a single-embedding model's item embedding.

use crate::model::{service_r_cols_into, PkgmModel};
use pkgm_store::{EntityId, KeyRelationSelector, RelationId};
use rayon::prelude::*;
use serde::{Deserialize, Serialize};
use std::sync::{Arc, OnceLock};

/// Items per rayon task in the batch entry points: large enough to amortize
/// thread dispatch, small enough to balance uneven per-item work.
const BATCH_CHUNK: usize = 64;

/// Reusable per-thread buffers for service computation, so batch paths do
/// not allocate two `d`-vectors per (item, relation) pair.
#[derive(Debug, Clone)]
pub struct ServiceScratch {
    t: Vec<f32>,
    r: Vec<f32>,
}

impl ServiceScratch {
    /// Scratch space for a model of embedding dimension `dim`.
    pub fn new(dim: usize) -> Self {
        Self {
            t: vec![0.0; dim],
            r: vec![0.0; dim],
        }
    }
}

/// A trained PKGM bundled with the key-relation selector — everything a
/// downstream task needs, with no access to the underlying triples.
///
/// ```
/// use pkgm_core::{KnowledgeService, PkgmConfig, PkgmModel};
/// use pkgm_store::{EntityId, KeyRelationSelector, StoreBuilder};
///
/// // A toy KG: items 0..4 with two properties each.
/// let mut b = StoreBuilder::new();
/// for i in 0..4u32 {
///     b.add_raw(i, 0, 4 + i % 2).add_raw(i, 1, 6);
/// }
/// let store = b.build();
/// let items: Vec<(EntityId, u32)> = (0..4).map(|i| (EntityId(i), 0)).collect();
/// let selector = KeyRelationSelector::build(&store, &items, 1, 2);
///
/// let model = PkgmModel::new(
///     store.n_entities() as usize,
///     store.n_relations() as usize,
///     PkgmConfig::new(8),
/// );
/// let service = KnowledgeService::new(model, selector);
///
/// // 2k vectors for sequence models, one 2d vector for single-embedding ones.
/// assert_eq!(service.sequence_service(EntityId(0)).len(), 2 * service.k());
/// assert_eq!(service.condensed_service(EntityId(0)).len(), 2 * service.dim());
/// // Completion works even for missing (h, r) pairs.
/// assert_eq!(service.predict_tail(EntityId(0), pkgm_store::RelationId(1), 3).len(), 3);
/// ```
///
/// Both parts are frozen after pre-training and held behind `Arc`, so
/// `clone()` is O(1) and every clone shares one copy of the parameters.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct KnowledgeService {
    model: Arc<PkgmModel>,
    selector: Arc<KeyRelationSelector>,
    /// [`PkgmModel::transposed_mats`], made on the first condensed row.
    #[serde(skip)]
    mats_t: Arc<OnceLock<Vec<f32>>>,
}

impl KnowledgeService {
    /// Bundle a trained model with a selector.
    ///
    /// # Panics
    /// If the model has no relation module — serving requires both modules.
    pub fn new(model: PkgmModel, selector: KeyRelationSelector) -> Self {
        assert!(
            model.cfg.relation_module,
            "KnowledgeService requires the relation module (use PkgmConfig::new)"
        );
        Self {
            model: Arc::new(model),
            selector: Arc::new(selector),
            mats_t: Arc::default(),
        }
    }

    /// Number of key relations per item (the paper's k = 10).
    pub fn k(&self) -> usize {
        self.selector.k()
    }

    /// Embedding dimension d.
    pub fn dim(&self) -> usize {
        self.model.dim()
    }

    /// The underlying model.
    pub fn model(&self) -> &PkgmModel {
        &self.model
    }

    /// The key-relation selector.
    pub fn selector(&self) -> &KeyRelationSelector {
        &self.selector
    }

    /// The transposed transfer matrices [`condense_into`] reads.
    pub(crate) fn mats_t(&self) -> &[f32] {
        self.mats_t.get_or_init(|| self.model.transposed_mats())
    }

    /// The `k` triple-query vectors `[S_1 … S_k]` for `item`, zero-padded if
    /// the item's category has fewer than `k` key relations (or the item has
    /// no category).
    pub fn triple_vectors(&self, item: EntityId) -> Vec<Vec<f32>> {
        let d = self.dim();
        let rels = self.selector.for_item(item);
        let mut out = Vec::with_capacity(self.k());
        for &r in rels {
            out.push(self.model.service_t(item, r));
        }
        out.resize(self.k(), vec![0.0; d]);
        out
    }

    /// The `k` relation-query vectors `[S_{k+1} … S_{2k}]` for `item`,
    /// zero-padded like [`KnowledgeService::triple_vectors`].
    pub fn relation_vectors(&self, item: EntityId) -> Vec<Vec<f32>> {
        let d = self.dim();
        let rels = self.selector.for_item(item);
        let mut out = Vec::with_capacity(self.k());
        for &r in rels {
            out.push(self.model.service_r(item, r));
        }
        out.resize(self.k(), vec![0.0; d]);
        out
    }

    /// The full `2k`-vector sequence service (triple vectors first, then
    /// relation vectors — the paper's appending order).
    pub fn sequence_service(&self, item: EntityId) -> Vec<Vec<f32>> {
        let mut out = self.triple_vectors(item);
        out.extend(self.relation_vectors(item));
        out
    }

    /// Condensed single-vector service (Eq. 8–9 / Eq. 20):
    /// `S = (1/k) Σ_j [S_j ; S_{j+k}]`, a `2d` vector.
    pub fn condensed_service(&self, item: EntityId) -> Vec<f32> {
        let mut out = vec![0.0f32; 2 * self.dim()];
        let mut scratch = ServiceScratch::new(self.dim());
        self.condensed_service_into(item, &mut scratch, &mut out);
        out
    }

    /// Allocation-free condensed service: writes the `2d` vector into `out`
    /// using caller-provided scratch buffers. This is the hot path behind
    /// [`KnowledgeService::condensed_service_batch`] and snapshot builds;
    /// `S_R` runs in column order (`model::service_r_cols_into`), bit-identical
    /// to [`PkgmModel::service_r_into`].
    ///
    /// Zero-padded slots (categories with fewer than `k` key relations)
    /// contribute nothing to the sum, so they are skipped rather than
    /// materialized.
    ///
    /// # Panics
    /// If `out.len() != 2 * self.dim()`.
    pub fn condensed_service_into(
        &self,
        item: EntityId,
        scratch: &mut ServiceScratch,
        out: &mut [f32],
    ) {
        let d = self.dim();
        assert_eq!(out.len(), 2 * d, "condensed service output must be 2d");
        let (mats_t, rels, k) = (self.mats_t(), self.selector.for_item(item), self.k());
        condense_into(&self.model, mats_t, item, rels, k, scratch, out);
    }

    /// Condensed services for a batch of items, computed in parallel with a
    /// per-thread [`ServiceScratch`] and order preserved.
    pub fn condensed_service_batch(&self, items: &[EntityId]) -> Vec<Vec<f32>> {
        let d = self.dim();
        items
            .par_chunks(BATCH_CHUNK)
            .map(|chunk| {
                let mut scratch = ServiceScratch::new(d);
                chunk
                    .iter()
                    .map(|&it| {
                        let mut out = vec![0.0f32; 2 * d];
                        self.condensed_service_into(it, &mut scratch, &mut out);
                        out
                    })
                    .collect::<Vec<_>>()
            })
            .collect::<Vec<_>>()
            .into_iter()
            .flatten()
            .collect()
    }

    /// Condensed triple-module-only service (`d` dims) — the PKGM-T ablation
    /// for single-embedding models.
    pub fn condensed_triple(&self, item: EntityId) -> Vec<f32> {
        condense(&self.triple_vectors(item), self.dim(), self.k())
    }

    /// Condensed relation-module-only service (`d` dims) — the PKGM-R
    /// ablation for single-embedding models.
    pub fn condensed_relation(&self, item: EntityId) -> Vec<f32> {
        condense(&self.relation_vectors(item), self.dim(), self.k())
    }

    /// Tail-entity completion: the `topn` entities closest (L1) to
    /// `S_T(h,r)` — works whether or not `(h, r, ·)` exists in the KG, which
    /// is the paper's "completion during servicing".
    pub fn predict_tail(&self, h: EntityId, r: RelationId, topn: usize) -> Vec<(EntityId, f32)> {
        let d = self.dim();
        let mut base = vec![0.0f32; d];
        self.model.service_t_into(h, r, &mut base);
        let mut scored: Vec<(EntityId, f32)> = (0..u32::try_from(self.model.n_entities())
            .expect("entity count fits u32"))
            .map(|e| {
                let dist = crate::kernels::l1_dist(&base, self.model.ent(EntityId(e)));
                (EntityId(e), dist)
            })
            .collect();
        scored.sort_by(|a, b| a.1.total_cmp(&b.1));
        scored.truncate(topn);
        scored
    }

    /// Existence score `f_R(h,r) = ‖S_R(h,r)‖₁`; small means `h` has (or
    /// should have) relation `r`.
    pub fn relation_exists_score(&self, h: EntityId, r: RelationId) -> f32 {
        self.model.score_relation(h, r)
    }
}

/// The condensed row `(1/k) Σ_{r ∈ rels} [S_T(h, r) ; S_R(h, r)]` of model
/// row `h` into `out`, with `S_R` from `mats_t`, the
/// [`PkgmModel::transposed_mats`] of `model`. Elementwise throughout, so
/// the table build's level wrapper runs it at full width.
#[inline(always)]
pub(crate) fn condense_into(
    model: &PkgmModel,
    mats_t: &[f32],
    h: EntityId,
    rels: &[RelationId],
    k: usize,
    scratch: &mut ServiceScratch,
    out: &mut [f32],
) {
    let d = model.dim();
    let k = k as f32;
    out.fill(0.0);
    for &r in rels {
        model.service_t_into(h, r, &mut scratch.t);
        let mt = &mats_t[r.index() * d * d..(r.index() + 1) * d * d];
        service_r_cols_into(mt, model.ent(h), model.rel(r), &mut scratch.r);
        let (ot, or) = out.split_at_mut(d);
        for (o, &t) in ot.iter_mut().zip(&scratch.t[..d]) {
            *o += t / k;
        }
        for (o, &r) in or.iter_mut().zip(&scratch.r[..d]) {
            *o += r / k;
        }
    }
}

fn condense(vectors: &[Vec<f32>], d: usize, k: usize) -> Vec<f32> {
    let mut out = vec![0.0f32; d];
    for v in vectors {
        for i in 0..d {
            out[i] += v[i] / k as f32;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::PkgmConfig;
    use pkgm_store::{StoreBuilder, TripleStore};

    fn setup() -> (TripleStore, KnowledgeService) {
        let mut b = StoreBuilder::new();
        // items 0..4 in category 0 (relations 0,1), 4..8 in category 1 (rel 2)
        for i in 0..4u32 {
            b.add_raw(i, 0, 10 + i % 2);
            b.add_raw(i, 1, 12);
        }
        for i in 4..8u32 {
            b.add_raw(i, 2, 13 + i % 2);
        }
        let store = b.build();
        let pairs: Vec<(EntityId, u32)> = (0..8u32).map(|i| (EntityId(i), i / 4)).collect();
        let selector = KeyRelationSelector::build(&store, &pairs, 2, 3);
        let model = PkgmModel::new(
            store.n_entities() as usize,
            store.n_relations() as usize,
            PkgmConfig::new(8).with_seed(1),
        );
        (store, KnowledgeService::new(model, selector))
    }

    #[test]
    fn sequence_service_has_2k_vectors_of_dim_d() {
        let (_, svc) = setup();
        let seq = svc.sequence_service(EntityId(0));
        assert_eq!(seq.len(), 2 * svc.k());
        assert!(seq.iter().all(|v| v.len() == svc.dim()));
    }

    #[test]
    fn short_categories_are_zero_padded() {
        let (_, svc) = setup();
        // category 1 has a single relation; k = 3 → 2 padded triple vectors.
        let tv = svc.triple_vectors(EntityId(5));
        assert_eq!(tv.len(), 3);
        assert!(tv[0].iter().any(|&x| x != 0.0));
        assert!(tv[1].iter().all(|&x| x == 0.0));
        assert!(tv[2].iter().all(|&x| x == 0.0));
    }

    #[test]
    fn unknown_items_get_all_zero_service() {
        let (_, svc) = setup();
        // entity 12 is a value, not an item — no category.
        let seq = svc.sequence_service(EntityId(12));
        assert!(seq.iter().all(|v| v.iter().all(|&x| x == 0.0)));
    }

    #[test]
    fn sequence_order_is_triple_then_relation() {
        let (_, svc) = setup();
        let item = EntityId(0);
        let seq = svc.sequence_service(item);
        let tv = svc.triple_vectors(item);
        let rv = svc.relation_vectors(item);
        assert_eq!(&seq[..svc.k()], &tv[..]);
        assert_eq!(&seq[svc.k()..], &rv[..]);
    }

    #[test]
    fn service_vectors_match_model_functions() {
        let (_, svc) = setup();
        let item = EntityId(1);
        let rels = svc.selector().for_item(item).to_vec();
        let tv = svc.triple_vectors(item);
        for (j, &r) in rels.iter().enumerate() {
            assert_eq!(tv[j], svc.model().service_t(item, r));
        }
    }

    #[test]
    fn condensed_service_is_mean_of_paired_concats() {
        let (_, svc) = setup();
        let item = EntityId(2);
        let d = svc.dim();
        let k = svc.k();
        let st = svc.triple_vectors(item);
        let sr = svc.relation_vectors(item);
        let s = svc.condensed_service(item);
        assert_eq!(s.len(), 2 * d);
        for i in 0..d {
            let expect_t: f32 = st.iter().map(|v| v[i]).sum::<f32>() / k as f32;
            let expect_r: f32 = sr.iter().map(|v| v[i]).sum::<f32>() / k as f32;
            assert!((s[i] - expect_t).abs() < 1e-6);
            assert!((s[d + i] - expect_r).abs() < 1e-6);
        }
    }

    #[test]
    fn condensed_ablations_have_dim_d() {
        let (_, svc) = setup();
        assert_eq!(svc.condensed_triple(EntityId(0)).len(), svc.dim());
        assert_eq!(svc.condensed_relation(EntityId(0)).len(), svc.dim());
    }

    #[test]
    fn predict_tail_returns_sorted_topn() {
        let (_, svc) = setup();
        let preds = svc.predict_tail(EntityId(0), RelationId(0), 5);
        assert_eq!(preds.len(), 5);
        assert!(preds.windows(2).all(|w| w[0].1 <= w[1].1));
    }

    #[test]
    fn condensed_service_into_matches_allocating_path() {
        let (_, svc) = setup();
        let mut scratch = ServiceScratch::new(svc.dim());
        let mut out = vec![0.0f32; 2 * svc.dim()];
        // Items across both categories plus a non-item entity (all-zero row).
        for i in 0..14u32 {
            svc.condensed_service_into(EntityId(i), &mut scratch, &mut out);
            assert_eq!(out, svc.condensed_service(EntityId(i)));
        }
    }

    #[test]
    fn batch_services_match_per_item_calls() {
        let (_, svc) = setup();
        let items: Vec<EntityId> = (0..8u32).map(EntityId).collect();
        let cond = svc.condensed_service_batch(&items);
        assert_eq!(cond.len(), items.len());
        for (i, &item) in items.iter().enumerate() {
            assert_eq!(cond[i], svc.condensed_service(item));
        }
    }

    #[test]
    #[should_panic(expected = "relation module")]
    fn service_requires_relation_module() {
        let (store, svc) = setup();
        let transe = PkgmModel::new(
            store.n_entities() as usize,
            store.n_relations() as usize,
            PkgmConfig::transe(8),
        );
        let _ = KnowledgeService::new(transe, svc.selector().clone());
    }

    #[test]
    fn clones_share_the_parameter_storage() {
        let (_, svc) = setup();
        let copy = svc.clone();
        assert!(std::ptr::eq(
            svc.model().ent(EntityId(0)),
            copy.model().ent(EntityId(0))
        ));
        assert!(std::ptr::eq(svc.selector(), copy.selector()));
    }
}
