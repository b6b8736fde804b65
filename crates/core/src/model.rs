//! The PKGM parameterization: entity/relation embeddings and per-relation
//! transfer matrices, with the paper's score and service functions.

use pkgm_store::{EntityId, RelationId, Triple};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Model hyper-parameters.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PkgmConfig {
    /// Embedding dimension (paper: 64).
    pub dim: usize,
    /// Whether the relation-query module (`M_r`, `f_R`) is active.
    /// Disabling it yields exactly TransE — the paper's triple module alone,
    /// used as the ablation baseline.
    pub relation_module: bool,
    /// Initialization scale: embeddings start `U(−b, b)` with
    /// `b = 6/√dim` (the TransE recipe); transfer matrices start near
    /// identity with this much uniform noise.
    pub init_noise: f64,
    /// RNG seed for initialization.
    pub seed: u64,
}

impl PkgmConfig {
    /// Paper defaults at a given dimension.
    pub fn new(dim: usize) -> Self {
        Self {
            dim,
            relation_module: true,
            init_noise: 0.05,
            seed: 0,
        }
    }

    /// TransE ablation (triple module only).
    pub fn transe(dim: usize) -> Self {
        Self {
            relation_module: false,
            ..Self::new(dim)
        }
    }

    /// Set the init seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// The trainable model.
///
/// Storage is flat `Vec<f32>`:
/// * `ent` — `n_entities × dim` entity embeddings,
/// * `rel` — `n_relations × dim` relation embeddings,
/// * `mats` — `n_relations × dim × dim` transfer matrices (row-major),
///   empty when the relation module is disabled.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PkgmModel {
    /// Hyper-parameters the model was built with.
    pub cfg: PkgmConfig,
    pub(crate) n_entities: usize,
    pub(crate) n_relations: usize,
    pub(crate) ent: Vec<f32>,
    pub(crate) rel: Vec<f32>,
    pub(crate) mats: Vec<f32>,
}

impl PkgmModel {
    /// Initialize a model for a graph of the given size.
    ///
    /// Entity and relation embeddings follow TransE's `U(−6/√d, 6/√d)`;
    /// transfer matrices start at `I + U(−noise, noise)` so that at step 0
    /// the relation score is roughly `‖h − r‖₁` and gradients are well-scaled.
    pub fn new(n_entities: usize, n_relations: usize, cfg: PkgmConfig) -> Self {
        let mut rng = SmallRng::seed_from_u64(cfg.seed ^ 0x9E37_79B9);
        let d = cfg.dim;
        let bound = 6.0 / (d as f64).sqrt();
        let sample_emb = |rng: &mut SmallRng, n: usize| -> Vec<f32> {
            (0..n)
                .map(|_| rng.gen_range(-bound..bound) as f32)
                .collect()
        };
        let ent = sample_emb(&mut rng, n_entities * d);
        let rel = sample_emb(&mut rng, n_relations * d);
        let mats = if cfg.relation_module {
            let mut m = vec![0.0f32; n_relations * d * d];
            for r in 0..n_relations {
                for i in 0..d {
                    for j in 0..d {
                        let noise = rng.gen_range(-cfg.init_noise..cfg.init_noise) as f32;
                        m[r * d * d + i * d + j] = noise + if i == j { 1.0 } else { 0.0 };
                    }
                }
            }
            m
        } else {
            Vec::new()
        };
        Self {
            cfg,
            n_entities,
            n_relations,
            ent,
            rel,
            mats,
        }
    }

    /// Embedding dimension.
    #[inline]
    pub fn dim(&self) -> usize {
        self.cfg.dim
    }

    /// Number of entities.
    #[inline]
    pub fn n_entities(&self) -> usize {
        self.n_entities
    }

    /// Number of relations.
    #[inline]
    pub fn n_relations(&self) -> usize {
        self.n_relations
    }

    /// Entity embedding row.
    #[inline]
    pub fn ent(&self, e: EntityId) -> &[f32] {
        let d = self.cfg.dim;
        &self.ent[e.index() * d..(e.index() + 1) * d]
    }

    /// Relation embedding row.
    #[inline]
    pub fn rel(&self, r: RelationId) -> &[f32] {
        let d = self.cfg.dim;
        &self.rel[r.index() * d..(r.index() + 1) * d]
    }

    /// Transfer matrix of relation `r` (row-major `dim × dim`).
    ///
    /// # Panics
    /// If the relation module is disabled.
    #[inline]
    pub fn mat(&self, r: RelationId) -> &[f32] {
        assert!(self.cfg.relation_module, "relation module disabled");
        let dd = self.cfg.dim * self.cfg.dim;
        &self.mats[r.index() * dd..(r.index() + 1) * dd]
    }

    /// Triple-module score `f_T(h,r,t) = ‖h + r − t‖₁` (Eq. 1).
    pub fn score_triple(&self, t: Triple) -> f32 {
        let h = self.ent(t.head);
        let r = self.rel(t.relation);
        let tl = self.ent(t.tail);
        let mut s = 0.0;
        for i in 0..self.cfg.dim {
            s += (h[i] + r[i] - tl[i]).abs();
        }
        s
    }

    /// Relation-module score `f_R(h,r) = ‖M_r·h − r‖₁` (Eq. 2); `0` when the
    /// relation module is disabled.
    pub fn score_relation(&self, h: EntityId, r: RelationId) -> f32 {
        if !self.cfg.relation_module {
            return 0.0;
        }
        let mut buf = vec![0.0f32; self.cfg.dim];
        self.service_r_into(h, r, &mut buf);
        buf.iter().map(|x| x.abs()).sum()
    }

    /// Joint score `f = f_T + f_R` (Eq. 3). Lower is more plausible.
    pub fn score(&self, t: Triple) -> f32 {
        self.score_triple(t) + self.score_relation(t.head, t.relation)
    }

    /// Triple-query service `S_T(h,r) = h + r` (Eq. 6): the embedding of the
    /// (possibly missing) tail entity.
    pub fn service_t(&self, h: EntityId, r: RelationId) -> Vec<f32> {
        let mut out = vec![0.0f32; self.cfg.dim];
        self.service_t_into(h, r, &mut out);
        out
    }

    /// `S_T` written into a caller-provided buffer.
    #[inline(always)]
    pub fn service_t_into(&self, h: EntityId, r: RelationId, out: &mut [f32]) {
        let hv = self.ent(h);
        let rv = self.rel(r);
        for ((o, &a), &b) in out.iter_mut().zip(hv).zip(rv) {
            *o = a + b;
        }
    }

    /// Relation-query service `S_R(h,r) = M_r·h − r` (Eq. 7): approaches the
    /// zero vector iff `h` has (or should have) relation `r`.
    pub fn service_r(&self, h: EntityId, r: RelationId) -> Vec<f32> {
        let mut out = vec![0.0f32; self.cfg.dim];
        self.service_r_into(h, r, &mut out);
        out
    }

    /// `S_R` written into a caller-provided buffer.
    ///
    /// # Panics
    /// If the relation module is disabled.
    pub fn service_r_into(&self, h: EntityId, r: RelationId, out: &mut [f32]) {
        let d = self.cfg.dim;
        let m = self.mat(r);
        let hv = self.ent(h);
        let rv = self.rel(r);
        for i in 0..d {
            let row = &m[i * d..(i + 1) * d];
            out[i] = pkgm_dot(row, hv) - rv[i];
        }
    }

    /// Every transfer matrix transposed, each at its own offset: block `r`
    /// of the result is `Mᵀ_r`, whose row `j` is column `j` of `M_r` — the
    /// layout [`service_r_cols_into`] reads. Table builds make it once.
    pub(crate) fn transposed_mats(&self) -> Vec<f32> {
        let d = self.cfg.dim;
        let mut out = vec![0.0f32; self.mats.len()];
        for r in 0..self.mats.len() / (d * d).max(1) {
            let (m, t) = (&self.mats[r * d * d..], &mut out[r * d * d..]);
            for i in 0..d {
                for j in 0..d {
                    t[j * d + i] = m[i * d + j];
                }
            }
        }
        out
    }

    /// Project each `touched` entity embedding onto the unit L2 ball (the
    /// TransE normalization constraint), one `normalize_row` per entity.
    /// The trainer calls `normalize_row` inside its Adam step instead.
    pub fn normalize_entities(&mut self, touched: impl IntoIterator<Item = u32>) {
        let d = self.cfg.dim;
        for e in touched {
            normalize_row(&mut self.ent[e as usize * d..(e as usize + 1) * d]);
        }
    }

    /// Approximate heap size of the parameters, in bytes.
    pub fn param_bytes(&self) -> usize {
        (self.ent.len() + self.rel.len() + self.mats.len()) * std::mem::size_of::<f32>()
    }
}

/// Scale one embedding row onto the unit L2 ball if it lies outside. The
/// result depends on this row alone, so the trainer applies it right after
/// the row's own Adam update. The sum of squares is a serial fold, which
/// the compiler never reassociates; the division is elementwise and
/// vectorizes at the width of the trainer's level wrapper.
#[inline(always)]
pub(crate) fn normalize_row(row: &mut [f32]) {
    let norm: f32 = row.iter().map(|x| x * x).sum::<f32>().sqrt();
    if norm > 1.0 {
        for x in row {
            *x /= norm;
        }
    }
}

/// Start of every serial `pkgm_dot` chain, shared with [`service_r_cols_into`].
/// Written out because `Iterator::sum` over `f32` starts at `+0.0` on older
/// toolchains, which flips the sign when every product is `−0.0`.
pub(crate) const DOT_START: f32 = -0.0;

/// Plain dot product (kept local to avoid a dependency on pkgm-tensor):
/// one serial add chain from [`DOT_START`], in index order.
#[inline]
pub(crate) fn pkgm_dot(a: &[f32], b: &[f32]) -> f32 {
    a.iter().zip(b).fold(DOT_START, |s, (x, y)| s + x * y)
}

/// `S_R(h, r) = M_r·h − r` in column order from `mt = Mᵀ_r`: `out = −0.0;
/// out += Mᵀ_r[j]·h[j] for j in order; out −= r`. Each lane runs exactly
/// [`pkgm_dot`]'s serial chain, so the result is bit-identical to
/// [`PkgmModel::service_r_into`]. The lanes are independent, so the loop
/// vectorizes at the width of the level wrapper the table build inlines it
/// into (`snapshot::condensed_rows_into`, [`crate::simd::at_level`]).
#[inline(always)]
pub(crate) fn service_r_cols_into(mt: &[f32], hv: &[f32], rv: &[f32], out: &mut [f32]) {
    let d = out.len();
    out.fill(DOT_START);
    for (col, &x) in mt.chunks_exact(d.max(1)).zip(&hv[..d]) {
        for (o, &m) in out.iter_mut().zip(col) {
            *o += m * x;
        }
    }
    for (o, &r) in out.iter_mut().zip(&rv[..d]) {
        *o -= r;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simd::{self, LevelBody, RowDot, SimdDispatch};

    fn model() -> PkgmModel {
        PkgmModel::new(10, 3, PkgmConfig::new(8).with_seed(1))
    }

    #[test]
    fn shapes_and_accessors() {
        let m = model();
        assert_eq!(m.dim(), 8);
        assert_eq!(m.ent(EntityId(0)).len(), 8);
        assert_eq!(m.rel(RelationId(2)).len(), 8);
        assert_eq!(m.mat(RelationId(1)).len(), 64);
        assert_eq!(m.param_bytes(), (80 + 24 + 192) * 4);
    }

    #[test]
    fn score_triple_is_l1_of_translation() {
        let mut m = model();
        let d = m.dim();
        // Force h + r == t exactly → score 0.
        let h: Vec<f32> = m.ent(EntityId(0)).to_vec();
        let r: Vec<f32> = m.rel(RelationId(0)).to_vec();
        for i in 0..d {
            m.ent[d + i] = h[i] + r[i]; // entity 1 = h + r
        }
        let score = m.score_triple(Triple::from_raw(0, 0, 1));
        assert!(score < 1e-6);
        // Any other tail scores higher.
        assert!(m.score_triple(Triple::from_raw(0, 0, 2)) > score);
    }

    #[test]
    fn relation_score_zero_when_mr_h_equals_r() {
        let mut m = model();
        let d = m.dim();
        // Make M_0 = I and r_0 = h_0 → f_R = 0.
        for i in 0..d {
            for j in 0..d {
                m.mats[i * d + j] = if i == j { 1.0 } else { 0.0 };
            }
        }
        let h: Vec<f32> = m.ent(EntityId(0)).to_vec();
        m.rel[..d].copy_from_slice(&h);
        assert!(m.score_relation(EntityId(0), RelationId(0)) < 1e-6);
        // And S_R is the zero vector — the paper's EXIST encoding.
        let sr = m.service_r(EntityId(0), RelationId(0));
        assert!(sr.iter().all(|x| x.abs() < 1e-6));
    }

    #[test]
    fn joint_score_is_sum_of_modules() {
        let m = model();
        let t = Triple::from_raw(3, 1, 7);
        let joint = m.score(t);
        let parts = m.score_triple(t) + m.score_relation(t.head, t.relation);
        assert!((joint - parts).abs() < 1e-5);
    }

    #[test]
    fn transe_config_disables_relation_module() {
        let m = PkgmModel::new(5, 2, PkgmConfig::transe(4));
        assert_eq!(m.score_relation(EntityId(0), RelationId(0)), 0.0);
        assert_eq!(
            m.score(Triple::from_raw(0, 0, 1)),
            m.score_triple(Triple::from_raw(0, 0, 1))
        );
        assert!(m.mats.is_empty());
    }

    #[test]
    #[should_panic(expected = "relation module disabled")]
    fn mat_access_panics_without_relation_module() {
        let m = PkgmModel::new(5, 2, PkgmConfig::transe(4));
        m.mat(RelationId(0));
    }

    #[test]
    fn service_t_is_translation() {
        let m = model();
        let st = m.service_t(EntityId(2), RelationId(1));
        for (i, &v) in st.iter().enumerate() {
            let expect = m.ent(EntityId(2))[i] + m.rel(RelationId(1))[i];
            assert!((v - expect).abs() < 1e-6);
        }
    }

    #[test]
    fn pkgm_dot_starts_at_negative_zero() {
        assert_eq!(DOT_START.to_bits(), (-0.0f32).to_bits());
        assert_eq!(pkgm_dot(&[], &[]).to_bits(), (-0.0f32).to_bits());
        // Every product −0.0: a +0.0 start would give +0.0.
        assert_eq!(
            pkgm_dot(&[-1.0, 2.0], &[0.0, -0.0]).to_bits(),
            (-0.0f32).to_bits()
        );
    }

    /// [`service_r_cols_into`] as a [`LevelBody`], to run it compiled at
    /// each level.
    struct Cols<'a> {
        mt: &'a [f32],
        hv: &'a [f32],
        rv: &'a [f32],
        out: &'a mut [f32],
    }

    impl LevelBody for Cols<'_> {
        type Output = ();

        #[inline(always)]
        fn run<D: RowDot>(self) {
            service_r_cols_into(self.mt, self.hv, self.rv, self.out);
        }
    }

    #[test]
    fn column_order_service_r_matches_row_order_bitwise() {
        let tiny = f32::MIN_POSITIVE;
        let specials = [
            0.0,
            -0.0,
            tiny / 4.0,
            -tiny / 8.0,
            tiny,
            1.0,
            -2.5,
            3e-3,
            7e5,
        ];
        for d in [1, 3, 8, 64] {
            let mut m = PkgmModel::new(5, 4, PkgmConfig::new(d).with_seed(d as u64));
            let dd = d * d;
            // Entity 0 and relation 0 cycle through ±0, subnormals and
            // normals; entity 1 is all +0.0 and entity 2 all −0.0, so
            // under relation 1 (an all-negative matrix over an all-zero
            // vector) every product is −0.0 and only the start value sets
            // the sign; relation 2's matrix is all zeros.
            for i in 0..d {
                m.ent[i] = specials[i % specials.len()];
                m.ent[d + i] = 0.0;
                m.ent[2 * d + i] = -0.0;
                m.rel[i] = specials[(i + 3) % specials.len()];
                m.rel[d + i] = 0.0;
            }
            for j in 0..dd {
                m.mats[j] = specials[(j * 5 + 1) % specials.len()];
                m.mats[dd + j] = -1.0 - j as f32;
                m.mats[2 * dd + j] = 0.0;
            }
            let mats_t = m.transposed_mats();
            let (mut want, mut got) = (vec![0.0f32; d], vec![1.0f32; d]);
            for h in 0..5 {
                for r in 0..4u32 {
                    let (h, r) = (EntityId(h), RelationId(r));
                    m.service_r_into(h, r, &mut want);
                    let mt = &mats_t[r.index() * dd..(r.index() + 1) * dd];
                    for table in SimdDispatch::all_supported() {
                        let (hv, rv, out) = (m.ent(h), m.rel(r), &mut got[..]);
                        simd::at_level(table, Cols { mt, hv, rv, out });
                        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                        let level = table.level;
                        assert_eq!(bits(&got), bits(&want), "d={d} h={h:?} r={r:?} {level:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn init_is_deterministic_and_seed_sensitive() {
        let a = PkgmModel::new(10, 3, PkgmConfig::new(8).with_seed(5));
        let b = PkgmModel::new(10, 3, PkgmConfig::new(8).with_seed(5));
        let c = PkgmModel::new(10, 3, PkgmConfig::new(8).with_seed(6));
        assert_eq!(a.ent, b.ent);
        assert_ne!(a.ent, c.ent);
    }

    #[test]
    fn normalize_projects_onto_unit_ball() {
        let mut m = model();
        let d = m.dim();
        for x in &mut m.ent[..d] {
            *x = 10.0;
        }
        m.normalize_entities([0u32]);
        let norm: f32 = m.ent(EntityId(0)).iter().map(|x| x * x).sum::<f32>().sqrt();
        assert!((norm - 1.0).abs() < 1e-5);
        // Rows already inside the ball are untouched.
        for (i, x) in m.ent[d..2 * d].iter_mut().enumerate() {
            *x = if i == 0 { 0.5 } else { 0.0 };
        }
        let before: Vec<f32> = m.ent(EntityId(1)).to_vec();
        m.normalize_entities([1u32]);
        assert_eq!(m.ent(EntityId(1)), &before[..]);
    }

    #[test]
    fn transfer_matrices_start_near_identity() {
        let m = model();
        let d = m.dim();
        let mat = m.mat(RelationId(0));
        for i in 0..d {
            for j in 0..d {
                let expect = if i == j { 1.0 } else { 0.0 };
                assert!((mat[i * d + j] - expect).abs() <= 0.05 + 1e-6);
            }
        }
    }
}
