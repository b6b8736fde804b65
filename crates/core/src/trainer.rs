//! Margin-loss pre-training with hand-derived gradients.
//!
//! The loss (paper Eq. 4) over positives `(h,r,t)` and their corruptions:
//!
//! ```text
//! L = Σ [ f(h,r,t) + γ − f(h′,r′,t′) ]₊ ,   f = f_T + f_R
//! ```
//!
//! Both `f_T = ‖h + r − t‖₁` and `f_R = ‖M_r·h − r‖₁` are piecewise linear,
//! so subgradients are sign vectors:
//!
//! * `∂f_T/∂h = s`, `∂f_T/∂r = s`, `∂f_T/∂t = −s` with `s = sgn(h + r − t)`;
//! * `∂f_R/∂r = −u`, `∂f_R/∂h = M_rᵀ·u`, `∂f_R/∂M_r = u·hᵀ` with
//!   `u = sgn(M_r·h − r)`.
//!
//! Violated pairs contribute `+∂f(pos) − ∂f(neg)`. The forward/backward work
//! runs through the fused, relation-blocked kernels in [`crate::kernels`]
//! (sparse index-sorted gradients, preallocated scratch, `M_r·h` computed
//! once per positive), in parallel across minibatch chunks with rayon, and
//! is applied with lazy row-wise Adam, itself cut into one contiguous id
//! range per thread, with each touched entity renormalized right after its
//! own update — the paper trains with Adam at lr 1e-4, batch 1000,
//! 1 negative per edge, 2 epochs. Each chunk's gradient rows stay in that
//! chunk's scratch until the Adam step, which sums them where they lie.
//!
//! ## Determinism & chunk-layout contract
//!
//! Training is a pure function of `(model seed, TrainConfig, store)`: every
//! RNG is derived fresh from `(cfg.seed, epoch, batch_idx, chunk_idx)`, and
//! per-chunk gradients merge in ascending chunk order whether or not
//! `cfg.parallel` is set — so serial and parallel runs of the same chunk
//! layout produce **bit-identical** models, and an out-of-core resume
//! ([`crate::ooc`]) replays the exact stream it would have seen
//! uninterrupted.
//!
//! The chunk layout is part of that contract. `cfg.chunk_size = Some(n)`
//! pins it explicitly; `None` adapts to `batch_len / rayon threads`
//! (min [`crate::kernels::MIN_CHUNK_SIZE`]), which is stable within a
//! process but may differ across machines — pin it when bit-equality across
//! differently-sized hosts matters.

use crate::kernels::{accumulate_chunk, SlotBlock, TrainScratch, MIN_CHUNK_SIZE};
use crate::model::{normalize_row, PkgmModel};
use crate::negative::{CorruptedPair, NegativeSampler};
use crate::obs::{Phase, PhaseClock, TrainRecord};
use crate::simd::{self, LevelBody, RowDot, SimdDispatch};
use pkgm_store::TripleStore;
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rayon::prelude::*;
use serde::{Deserialize, Serialize};

/// Training hyper-parameters.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TrainConfig {
    /// Adam learning rate (paper: 1e-4; larger values converge faster at toy
    /// scale).
    pub lr: f32,
    /// Margin γ between positive and negative scores.
    pub margin: f32,
    /// Positives per minibatch (paper: 1000).
    pub batch_size: usize,
    /// Passes over the triple set (paper: 2).
    pub epochs: usize,
    /// Negatives generated per positive (paper: 1).
    pub negatives: usize,
    /// Base RNG seed for shuffling and corruption.
    pub seed: u64,
    /// Project entity embeddings onto the unit L2 ball after each batch
    /// (the TransE constraint).
    pub normalize_entities: bool,
    /// Compute batch gradients, and run the Adam step, in parallel with
    /// rayon.
    pub parallel: bool,
    /// Minibatch chunk size for gradient workers. `None` (the default)
    /// adapts to `batch_len / rayon threads`, floored at
    /// [`MIN_CHUNK_SIZE`]. The layout seeds the per-chunk corruption RNGs,
    /// so it is part of the resume-equivalence contract: resuming with a
    /// different chunk size (or, under `None`, a different thread count)
    /// changes which negatives are drawn — pin `Some(n)` where bit-equality
    /// across hosts matters.
    pub chunk_size: Option<usize>,
}

impl Default for TrainConfig {
    fn default() -> Self {
        Self {
            lr: 1e-3,
            margin: 4.0,
            batch_size: 1000,
            epochs: 2,
            negatives: 1,
            seed: 0,
            normalize_entities: true,
            parallel: true,
            chunk_size: None,
        }
    }
}

impl TrainConfig {
    /// The paper's pre-training setting (lr 1e-4, batch 1000, 2 epochs).
    pub fn paper() -> Self {
        Self {
            lr: 1e-4,
            ..Self::default()
        }
    }
}

/// Per-epoch statistics.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EpochStats {
    /// Mean hinge loss per pair.
    pub mean_loss: f32,
    /// Fraction of pairs violating the margin.
    pub violation_rate: f32,
    /// Pairs processed.
    pub pairs: usize,
}

impl EpochStats {
    /// Stats of `pairs` pairs with summed hinge loss `loss`, `violations`
    /// of them violating the margin.
    pub(crate) fn from_totals(loss: f64, violations: usize, pairs: usize) -> Self {
        if pairs == 0 {
            return EpochStats {
                mean_loss: 0.0,
                violation_rate: 0.0,
                pairs,
            };
        }
        EpochStats {
            mean_loss: (loss / pairs as f64) as f32,
            violation_rate: violations as f32 / pairs as f32,
            pairs,
        }
    }
}

/// Full training report.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TrainReport {
    /// Stats per epoch, in order (only the epochs run in this call).
    pub epochs: Vec<EpochStats>,
    /// Total wall-clock seconds.
    pub wall_secs: f64,
    /// `Some(reason)` if the NaN / loss-divergence guard stopped training
    /// early. The model holds the last epoch's (possibly bad) parameters;
    /// [`Trainer::epochs_done`] stays before that epoch.
    pub halted: Option<String>,
}

/// Lazy row-wise Adam state for the three parameter blocks.
pub struct Trainer {
    /// Training hyper-parameters.
    pub cfg: TrainConfig,
    // Moment vectors, step counter and epoch cursor are crate-visible so
    // the out-of-core block trainer ([`crate::ooc`]) can run a shard-pair
    // block through the exact same Adam state it would have used resident.
    pub(crate) m_ent: Vec<f32>,
    pub(crate) v_ent: Vec<f32>,
    pub(crate) m_rel: Vec<f32>,
    pub(crate) v_rel: Vec<f32>,
    pub(crate) m_mat: Vec<f32>,
    pub(crate) v_mat: Vec<f32>,
    pub(crate) t: u64,
    epochs_done: usize,
    /// One scratch per chunk of a batch, reused across batches: each holds
    /// its chunk's gradient rows until the Adam step has read them.
    pub(crate) scratches: Vec<TrainScratch>,
    /// The open telemetry record (off unless [`Trainer::record_telemetry`]).
    pub(crate) clock: PhaseClock,
    records: Vec<TrainRecord>,
    /// The level the gradient pass and the Adam step are compiled for.
    simd: &'static SimdDispatch,
}

const BETA1: f32 = 0.9;
const BETA2: f32 = 0.999;
const EPS: f32 = 1e-8;

/// Halt when an epoch's mean loss exceeds this multiple of the best (lowest,
/// floored) mean loss seen so far in the run — the parameters are diverging
/// and a commit would persist garbage.
const DIVERGENCE_FACTOR: f32 = 100.0;

impl Trainer {
    /// Allocate optimizer state sized to `model`.
    pub fn new(model: &PkgmModel, cfg: TrainConfig) -> Self {
        Self {
            m_ent: vec![0.0; model.ent.len()],
            v_ent: vec![0.0; model.ent.len()],
            m_rel: vec![0.0; model.rel.len()],
            v_rel: vec![0.0; model.rel.len()],
            m_mat: vec![0.0; model.mats.len()],
            v_mat: vec![0.0; model.mats.len()],
            ..Self::without_state(cfg)
        }
    }

    /// A trainer with no optimizer state allocated: the out-of-core block
    /// trainer ([`crate::ooc`]) moves a block's paged-in moments and step
    /// counter into the crate-visible fields instead of zero-filling
    /// buffers it would overwrite.
    pub(crate) fn without_state(cfg: TrainConfig) -> Self {
        Self {
            cfg,
            m_ent: Vec::new(),
            v_ent: Vec::new(),
            m_rel: Vec::new(),
            v_rel: Vec::new(),
            m_mat: Vec::new(),
            v_mat: Vec::new(),
            t: 0,
            epochs_done: 0,
            scratches: Vec::new(),
            clock: PhaseClock::default(),
            records: Vec::new(),
            simd: simd::active(),
        }
    }

    /// Run the gradient pass and the Adam step compiled for `table`'s
    /// level (see `simd::at_level`) instead of [`simd::active`]'s. Every
    /// level trains the same bits; the parity suites train at each one.
    pub fn with_simd(mut self, table: &'static SimdDispatch) -> Self {
        self.simd = table;
        self
    }

    /// Record one [`TrainRecord`] per epoch that [`Trainer::train`] runs
    /// from now on (read them with [`Trainer::take_records`]). Without this
    /// call no clock is read.
    pub fn record_telemetry(&mut self) {
        self.clock = PhaseClock::on();
    }

    /// The telemetry records so far, oldest first, leaving none behind.
    pub fn take_records(&mut self) -> Vec<TrainRecord> {
        std::mem::take(&mut self.records)
    }

    /// Adam steps taken so far.
    pub fn steps(&self) -> u64 {
        self.t
    }

    /// Epochs completed so far: a later [`Trainer::train`] call with a
    /// larger `cfg.epochs` continues from here.
    pub fn epochs_done(&self) -> usize {
        self.epochs_done
    }

    /// Run up to `cfg.epochs` total passes over the store's triples,
    /// continuing from [`Trainer::epochs_done`], stopping early if the NaN
    /// / divergence guard trips. The trainer keeps nothing on disk: train
    /// through [`crate::OocTrainer`] to survive a kill.
    pub fn train(&mut self, model: &mut PkgmModel, store: &TripleStore) -> TrainReport {
        let start = std::time::Instant::now();
        let total = self.cfg.epochs;
        let mut epochs = Vec::with_capacity(total.saturating_sub(self.epochs_done));
        let mut halted = None;
        let mut best_loss = f32::INFINITY;
        while self.epochs_done < total && halted.is_none() {
            let epoch = self.epochs_done;
            self.clock.reopen();
            let stats = self.train_epoch(model, store, epoch as u64);
            // NaN / divergence guard: the epoch cursor stays before the bad
            // epoch.
            match diverged(stats.mean_loss, best_loss) {
                Some(reason) => halted = Some(format!("epoch {}: {reason}", epoch + 1)),
                None => {
                    best_loss = best_loss.min(stats.mean_loss.max(1e-3));
                    self.epochs_done = epoch + 1;
                }
            }
            self.records.extend(self.clock.close(epoch, None, &stats));
            epochs.push(stats);
        }
        TrainReport {
            epochs,
            wall_secs: start.elapsed().as_secs_f64(),
            halted,
        }
    }

    /// One pass over the triples, in shuffled minibatches.
    pub fn train_epoch(
        &mut self,
        model: &mut PkgmModel,
        store: &TripleStore,
        epoch: u64,
    ) -> EpochStats {
        let sampler = NegativeSampler::new(store);
        let mut order: Vec<u32> = (0..store.len() as u32).collect();
        let mut rng = SmallRng::seed_from_u64(self.cfg.seed ^ (epoch << 32) ^ 0x5EED);
        order.shuffle(&mut rng);
        self.clock.lap(Phase::Grads);

        let mut total_loss = 0.0f64;
        let mut total_violations = 0usize;
        let mut total_pairs = 0usize;

        let triples = store.triples();
        let sample = |chunk: &[u32], negatives, rng: &mut SmallRng, pairs: &mut _| {
            let positives = chunk.iter().map(|&idx| triples[idx as usize]);
            sampler.corrupt_batch_into(positives, store, negatives, rng, pairs);
        };
        let batch_size = self.cfg.batch_size.max(1);
        for (batch_idx, batch) in order.chunks(batch_size).enumerate() {
            let (loss, violations, pairs) =
                self.batch_step(model, batch, epoch, batch_idx as u64, &sample);
            total_loss += loss;
            total_violations += violations;
            total_pairs += pairs;
        }
        EpochStats::from_totals(total_loss, total_violations, total_pairs)
    }

    /// One minibatch: each chunk of `batch` accumulates into its own
    /// scratch (across the rayon pool when `cfg.parallel` is set), then one
    /// Adam step reads every chunk's rows. `sample(chunk, negatives, rng,
    /// pairs)` corrupts a chunk: the one thing the resident and out-of-core
    /// trainers do differently. Returns the summed loss, violating pairs
    /// and pairs, each folded in chunk order from 0.
    pub(crate) fn batch_step<T: Sync>(
        &mut self,
        model: &mut PkgmModel,
        batch: &[T],
        epoch: u64,
        batch_idx: u64,
        sample: &(impl Fn(&[T], usize, &mut SmallRng, &mut Vec<CorruptedPair>) + Sync),
    ) -> (f64, usize, usize) {
        let margin = self.cfg.margin;
        let negatives = self.cfg.negatives.max(1);
        let seed = self.cfg.seed ^ (epoch << 40) ^ (batch_idx << 8);
        // `cfg.chunk_size` if pinned, else an even split across rayon's
        // threads: never a function of `cfg.parallel`, since the layout
        // seeds the per-chunk RNG streams.
        let chunk_size = match self.cfg.chunk_size {
            Some(n) => n.max(1),
            None => (batch.len() / rayon::current_num_threads()).max(MIN_CHUNK_SIZE),
        };
        let n_chunks = batch.len().div_ceil(chunk_size);
        if self.scratches.len() < n_chunks {
            self.scratches.resize_with(n_chunks, TrainScratch::default);
        }

        // Corruptions are drawn in original chunk order *before* the kernel
        // relation-blocks the pairs, so the RNG stream is exactly what the
        // old per-pair loop consumed for the same chunk layout.
        let frozen: &PkgmModel = model;
        let table = self.simd;
        let chunk_grads = |(ci, sc): (usize, &mut [TrainScratch])| {
            let sc = &mut sc[0];
            let chunk = &batch[ci * chunk_size..((ci + 1) * chunk_size).min(batch.len())];
            let mut rng = SmallRng::seed_from_u64(seed ^ ci as u64);
            let mut pairs = std::mem::take(&mut sc.pairs);
            sample(chunk, negatives, &mut rng, &mut pairs);
            accumulate_chunk(table, frozen, sc, &pairs, margin);
            sc.pairs = pairs;
        };
        let scratches = &mut self.scratches[..n_chunks];
        if self.cfg.parallel {
            scratches
                .par_chunks_mut(1)
                .enumerate()
                .for_each(chunk_grads);
        } else {
            scratches.chunks_mut(1).enumerate().for_each(chunk_grads);
        }
        self.clock.lap(Phase::Grads);

        let (mut loss, mut violations, mut pairs) = (0.0f64, 0usize, 0usize);
        for sc in &self.scratches[..n_chunks] {
            loss += sc.loss;
            violations += sc.violations;
            pairs += sc.n_pairs;
        }
        let parts = if self.cfg.parallel {
            rayon::current_num_threads()
        } else {
            1
        };
        self.adam_step(model, n_chunks, parts);
        self.clock.lap(Phase::Adam);
        (loss, violations, pairs)
    }

    /// One Adam step from the rows the first `n_chunks` scratches hold, cut
    /// into `parts` contiguous id ranges per parameter block. An id's
    /// gradient is the first holding chunk's row plus the later ones, added
    /// in chunk order: [`crate::kernels::ChunkGrads::merge`]'s left fold, so
    /// the bits are the merged rows'. A row updates only its own parameter
    /// and moments, and a touched entity is renormalized right after its
    /// own update, so the result does not depend on `parts`.
    pub(crate) fn adam_step(&mut self, model: &mut PkgmModel, n_chunks: usize, parts: usize) {
        self.t += 1;
        let bc1 = 1.0 - BETA1.powi(self.t as i32);
        let bc2 = 1.0 - BETA2.powi(self.t as i32);
        let lr_t = self.cfg.lr * bc2.sqrt() / bc1;
        let d = model.cfg.dim;
        let Trainer {
            m_ent,
            v_ent,
            m_rel,
            v_rel,
            m_mat,
            v_mat,
            scratches,
            simd: table,
            cfg,
            ..
        } = self;
        let [ge, gr, gm] = [0, 1, 2].map(|b| {
            let grads = scratches[..n_chunks].iter().map(|c| c.grads()[b]);
            grads.collect::<Vec<&SlotBlock>>()
        });
        let rows = |grads, width, w, m, v, normalize| AdamRows {
            grads,
            width,
            first: 0,
            w,
            m,
            v,
            lr_t,
            normalize,
        };
        let blocks = [
            rows(&ge, d, &mut model.ent, m_ent, v_ent, cfg.normalize_entities),
            rows(&gr, d, &mut model.rel, m_rel, v_rel, false),
            rows(&gm, d * d, &mut model.mats, m_mat, v_mat, false),
        ];
        adam_parts(table, blocks, parts.max(1));
    }
}

/// Did this epoch's loss go bad enough to halt?
pub(crate) fn diverged(mean_loss: f32, best: f32) -> Option<String> {
    if !mean_loss.is_finite() {
        return Some(format!("non-finite mean loss ({mean_loss})"));
    }
    if best.is_finite() && mean_loss > DIVERGENCE_FACTOR * best {
        return Some(format!(
            "mean loss {mean_loss} exceeds {DIVERGENCE_FACTOR}× the best epoch ({best})"
        ));
    }
    None
}

/// One parameter block's share of an Adam step: the parameter and moment
/// slices that start at row `first`, the block's gradient rows from every
/// chunk of the batch, in chunk order, the step's learning rate, and
/// whether each updated row is projected onto the unit ball.
struct AdamRows<'a> {
    grads: &'a [&'a SlotBlock],
    width: usize,
    first: usize,
    w: &'a mut [f32],
    m: &'a mut [f32],
    v: &'a mut [f32],
    lr_t: f32,
    normalize: bool,
}

impl AdamRows<'_> {
    /// Cut the rows at `left / parts`: the ids below the cut go left, the
    /// rest go right. A batch touches ids across the whole range, so the
    /// parts get similar row counts.
    fn split(self, left: usize, parts: usize) -> (Self, Self) {
        let cut = self.w.len() / self.width * left / parts;
        let at = cut * self.width;
        let (w0, w1) = self.w.split_at_mut(at);
        let (m0, m1) = self.m.split_at_mut(at);
        let (v0, v1) = self.v.split_at_mut(at);
        let part = |first, w, m, v| AdamRows {
            grads: self.grads,
            width: self.width,
            first,
            w,
            m,
            v,
            lr_t: self.lr_t,
            normalize: self.normalize,
        };
        (
            part(self.first, w0, m0, v0),
            part(self.first + cut, w1, m1, v1),
        )
    }
}

/// The Adam leaf, compiled per level by [`adam_parts`].
impl LevelBody for AdamRows<'_> {
    type Output = ();

    /// Walk the sorted union of the chunks' ids in range; sum each id's
    /// rows in chunk order and update its parameter row.
    #[inline(always)]
    fn run<D: RowDot>(self) {
        let end = self.first + self.w.len() / self.width;
        let from = |ids: &[u32]| ids.partition_point(|&id| (id as usize) < self.first);
        let mut rest: Vec<&[u32]> = self
            .grads
            .iter()
            .map(|g| &g.ids()[from(g.ids())..])
            .collect();
        let mut sum = vec![0.0f32; self.width];
        while let Some(&id) = rest.iter().filter_map(|ids| ids.first()).min() {
            if id as usize >= end {
                break;
            }
            let mut held = false;
            for (g, ids) in self.grads.iter().zip(&mut rest) {
                if ids.first() == Some(&id) {
                    *ids = &ids[1..];
                    let row = g.row(id, self.width);
                    if held {
                        sum.iter_mut().zip(row).for_each(|(s, &x)| *s += x);
                    } else {
                        sum.copy_from_slice(row);
                        held = true;
                    }
                }
            }
            let off = (id as usize - self.first) * self.width;
            let row = off..off + self.width;
            let w = &mut self.w[row.clone()];
            adam_update(
                w,
                &sum,
                &mut self.m[row.clone()],
                &mut self.v[row],
                self.lr_t,
            );
            if self.normalize {
                normalize_row(w);
            }
        }
    }
}

/// Run the entity, relation and matrix blocks of one Adam step as `parts`
/// contiguous id ranges, halving recursively through [`rayon::join`]. Each
/// block is cut at the same share of its rows, and each leaf runs compiled
/// for `table`'s level ([`simd::at_level`]).
fn adam_parts(table: &SimdDispatch, blocks: [AdamRows<'_>; 3], parts: usize) {
    if parts <= 1 {
        for rows in blocks {
            simd::at_level(table, rows);
        }
        return;
    }
    let left = parts / 2;
    let [(e0, e1), (r0, r1), (m0, m1)] = blocks.map(|b| b.split(left, parts));
    rayon::join(
        || adam_parts(table, [e0, r0, m0], left),
        || adam_parts(table, [e1, r1, m1], parts - left),
    );
}

/// One row's Adam update. The equal-length reslices are checked once,
/// before the loop, and the zipped loop body carries no bounds checks, so
/// it vectorizes at the width of the level wrapper it is inlined into;
/// packed `sqrt` / `div` round exactly like their scalar forms, so every
/// element is bit-identical at any width.
#[inline(always)]
fn adam_update(w: &mut [f32], g: &[f32], m: &mut [f32], v: &mut [f32], lr_t: f32) {
    let n = w.len();
    for (((w, &g), m), v) in w.iter_mut().zip(&g[..n]).zip(&mut m[..n]).zip(&mut v[..n]) {
        *m = BETA1 * *m + (1.0 - BETA1) * g;
        *v = BETA2 * *v + (1.0 - BETA2) * g * g;
        *w -= lr_t * *m / (v.sqrt() + EPS);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::ChunkGrads;
    use crate::model::PkgmConfig;
    use pkgm_store::StoreBuilder;
    use rand::Rng;

    /// A toy graph with structure: items 0..8 have brand (r0) and color (r1)
    /// values, two brands and two colors.
    fn toy_store() -> TripleStore {
        let mut b = StoreBuilder::new();
        for i in 0..8u32 {
            b.add_raw(i, 0, 8 + i % 2); // brand ∈ {8, 9}
            b.add_raw(i, 1, 10 + (i / 4) % 2); // color ∈ {10, 11}
        }
        b.build()
    }

    fn quick_cfg(seed: u64) -> TrainConfig {
        TrainConfig {
            lr: 0.05,
            margin: 2.0,
            batch_size: 16,
            epochs: 30,
            negatives: 2,
            seed,
            normalize_entities: true,
            parallel: false,
            chunk_size: None,
        }
    }

    #[test]
    fn training_reduces_loss() {
        let store = toy_store();
        let mut model = PkgmModel::new(
            store.n_entities() as usize,
            store.n_relations() as usize,
            PkgmConfig::new(16).with_seed(1),
        );
        let mut trainer = Trainer::new(&model, quick_cfg(1));
        let report = trainer.train(&mut model, &store);
        let first = report.epochs.first().unwrap().mean_loss;
        let last = report.epochs.last().unwrap().mean_loss;
        assert!(
            last < first * 0.7,
            "loss did not drop: first {first}, last {last}"
        );
        assert!(trainer.steps() > 0);
    }

    #[test]
    fn trained_positives_score_below_negatives() {
        let store = toy_store();
        let mut model = PkgmModel::new(
            store.n_entities() as usize,
            store.n_relations() as usize,
            PkgmConfig::new(16).with_seed(2),
        );
        let mut trainer = Trainer::new(&model, quick_cfg(2));
        trainer.train(&mut model, &store);
        // Mean positive score must be clearly below mean corrupted score.
        let mut rng = SmallRng::seed_from_u64(0);
        let sampler = NegativeSampler::new(&store);
        let mut pos_sum = 0.0;
        let mut neg_sum = 0.0;
        for &t in store.triples() {
            pos_sum += model.score(t);
            let (n, _) = sampler.corrupt(t, &store, &mut rng);
            neg_sum += model.score(n);
        }
        // Mean margin achieved should be a decent fraction of γ = 2.0.
        let mean_gap = (neg_sum - pos_sum) / store.len() as f32;
        assert!(
            mean_gap > 1.0,
            "positives not separated: mean gap {mean_gap} (pos {pos_sum}, neg {neg_sum})"
        );
    }

    #[test]
    fn relation_module_learns_existence() {
        let store = toy_store();
        let mut model = PkgmModel::new(
            store.n_entities() as usize,
            store.n_relations() as usize,
            PkgmConfig::new(16).with_seed(3),
        );
        let mut trainer = Trainer::new(&model, quick_cfg(3));
        trainer.train(&mut model, &store);
        // Item 0 has relations 0 and 1. Value entity 8 has none (it is only
        // a tail). f_R should separate them.
        let has = model.score_relation(pkgm_store::EntityId(0), pkgm_store::RelationId(0));
        let hasnt = model.score_relation(pkgm_store::EntityId(8), pkgm_store::RelationId(0));
        assert!(
            has < hasnt,
            "relation module failed: f_R(has)={has} ≥ f_R(has-not)={hasnt}"
        );
    }

    #[test]
    fn parallel_and_serial_paths_both_converge() {
        let store = toy_store();
        for parallel in [false, true] {
            let mut model = PkgmModel::new(
                store.n_entities() as usize,
                store.n_relations() as usize,
                PkgmConfig::new(8).with_seed(4),
            );
            let cfg = TrainConfig {
                parallel,
                batch_size: 512,
                ..quick_cfg(4)
            };
            let mut trainer = Trainer::new(&model, cfg);
            let report = trainer.train(&mut model, &store);
            assert!(report.epochs.last().unwrap().violation_rate < 0.9);
        }
    }

    #[test]
    fn transe_ablation_trains_without_matrices() {
        let store = toy_store();
        let mut model = PkgmModel::new(
            store.n_entities() as usize,
            store.n_relations() as usize,
            PkgmConfig::transe(16).with_seed(5),
        );
        let mut trainer = Trainer::new(&model, quick_cfg(5));
        let report = trainer.train(&mut model, &store);
        assert!(model.mats.is_empty());
        let first = report.epochs.first().unwrap().mean_loss;
        let last = report.epochs.last().unwrap().mean_loss;
        assert!(last < first);
    }

    #[test]
    fn nan_guard_halts_training() {
        let store = toy_store();
        let mut model = PkgmModel::new(
            store.n_entities() as usize,
            store.n_relations() as usize,
            PkgmConfig::new(8).with_seed(7),
        );
        // Poison one parameter: every batch touching entity 0 yields NaN loss.
        model.ent[0] = f32::NAN;
        let mut trainer = Trainer::new(&model, quick_cfg(7));
        let report = trainer.train(&mut model, &store);
        let halted = report.halted.expect("NaN must halt training");
        assert!(halted.contains("non-finite"), "unexpected reason: {halted}");
        assert!(report.epochs.len() < 30, "guard must stop the run early");
    }

    #[test]
    fn divergence_guard_halts_training() {
        let store = toy_store();
        let mut model = PkgmModel::new(
            store.n_entities() as usize,
            store.n_relations() as usize,
            PkgmConfig::new(8).with_seed(8),
        );
        // An absurd learning rate without entity normalization blows the
        // parameters (and the hinge loss) up within a few epochs.
        let cfg = TrainConfig {
            lr: 1e4,
            normalize_entities: false,
            ..quick_cfg(8)
        };
        let mut trainer = Trainer::new(&model, cfg);
        let report = trainer.train(&mut model, &store);
        assert!(
            report.halted.is_some(),
            "divergent run must halt: {:?}",
            report
                .epochs
                .iter()
                .map(|e| e.mean_loss)
                .collect::<Vec<_>>()
        );
    }

    /// `Trainer::apply` and `adam_update` as they were when the step ran
    /// serially on merged [`ChunkGrads`], with a second normalization pass:
    /// with the chunks' `ChunkGrads::merge` fold, the oracle the in-place
    /// step must reproduce bit for bit at every part and chunk count.
    fn serial_apply(tr: &mut Trainer, model: &mut PkgmModel, acc: ChunkGrads) {
        tr.t += 1;
        let bc1 = 1.0 - BETA1.powi(tr.t as i32);
        let bc2 = 1.0 - BETA2.powi(tr.t as i32);
        let lr_t = tr.cfg.lr * bc2.sqrt() / bc1;
        let d = model.cfg.dim;
        let dd = d * d;

        let mut touched_entities: Vec<u32> = Vec::with_capacity(acc.ent.len());
        for (row, g) in acc.ent {
            let off = row as usize * d;
            serial_adam_update(
                &mut model.ent[off..off + d],
                &g,
                &mut tr.m_ent[off..off + d],
                &mut tr.v_ent[off..off + d],
                lr_t,
            );
            touched_entities.push(row);
        }
        for (row, g) in acc.rel {
            let off = row as usize * d;
            serial_adam_update(
                &mut model.rel[off..off + d],
                &g,
                &mut tr.m_rel[off..off + d],
                &mut tr.v_rel[off..off + d],
                lr_t,
            );
        }
        for (row, g) in acc.mat {
            let off = row as usize * dd;
            serial_adam_update(
                &mut model.mats[off..off + dd],
                &g,
                &mut tr.m_mat[off..off + dd],
                &mut tr.v_mat[off..off + dd],
                lr_t,
            );
        }
        if tr.cfg.normalize_entities {
            model.normalize_entities(touched_entities);
        }
    }

    fn serial_adam_update(w: &mut [f32], g: &[f32], m: &mut [f32], v: &mut [f32], lr_t: f32) {
        for i in 0..w.len() {
            let gi = g[i];
            m[i] = BETA1 * m[i] + (1.0 - BETA1) * gi;
            v[i] = BETA2 * v[i] + (1.0 - BETA2) * gi * gi;
            w[i] -= lr_t * m[i] / (v[i].sqrt() + EPS);
        }
    }

    /// Random gradient rows for chunk `c` of a batch. Chunk 0 holds every
    /// other entity, every relation but the middle one and every matrix but
    /// the last; chunk 1 touched nothing; chunk `c ≥ 2` holds the entities
    /// `≡ c − 2 (mod c + 1)`, so entity 0 is held by chunks 0 and 2 alone.
    /// Ids fall on both sides of every cut at up to seven parts. TransE
    /// models get no matrix rows.
    fn chunk_grads(model: &PkgmModel, step: u64, c: u32) -> ChunkGrads {
        let mut rng = SmallRng::seed_from_u64(step << 8 | c as u64);
        let d = model.dim();
        let (n_ent, n_rel) = (model.n_entities() as u32, model.n_relations() as u32);
        let mut rows = |ids: Vec<u32>, width: usize| -> Vec<(u32, Vec<f32>)> {
            ids.into_iter()
                .map(|id| {
                    let g = (0..width).map(|_| rng.gen_range(-2.0..2.0) as f32);
                    (id, g.collect())
                })
                .collect()
        };
        let (ent, rel, mat): (Vec<u32>, Vec<u32>, Vec<u32>) = match c {
            0 => (
                (0..n_ent).step_by(2).collect(),
                (0..n_rel).filter(|&r| r != n_rel / 2).collect(),
                (0..n_rel - 1).collect(),
            ),
            1 => Default::default(),
            _ => (
                (0..n_ent).filter(|e| e % (c + 1) == c - 2).collect(),
                (0..n_rel).filter(|r| r % (c + 1) != 1).collect(),
                (0..n_rel).filter(|r| r % 2 == c % 2).collect(),
            ),
        };
        let mat = if model.cfg.relation_module {
            rows(mat, d * d)
        } else {
            Vec::new()
        };
        ChunkGrads {
            ent: rows(ent, d),
            rel: rows(rel, d),
            mat,
            ..ChunkGrads::empty()
        }
    }

    #[test]
    fn in_place_adam_step_matches_merged_serial_apply() {
        let bits = |xs: &[f32]| xs.iter().map(|x| x.to_bits()).collect::<Vec<u32>>();
        for model_cfg in [PkgmConfig::new(8), PkgmConfig::transe(8)] {
            let fresh = PkgmModel::new(40, 9, model_cfg.with_seed(21));
            for n_chunks in [1, 2, 5] {
                // Three steps, so the moments carry over.
                let steps: Vec<Vec<ChunkGrads>> = (0..3)
                    .map(|s| (0..n_chunks).map(|c| chunk_grads(&fresh, s, c)).collect())
                    .collect();
                let mut want_model = fresh.clone();
                let mut want = Trainer::new(&fresh, quick_cfg(21));
                for chunks in &steps {
                    let merged = chunks
                        .iter()
                        .cloned()
                        .fold(ChunkGrads::empty(), ChunkGrads::merge);
                    serial_apply(&mut want, &mut want_model, merged);
                }
                // Init rows sit far outside the unit ball (‖e‖ ≈ 3.5 at
                // d = 8) and one step moves each by at most ≈ lr·√d, so
                // every touched entity is renormalized.
                let e0 = fresh.ent(pkgm_store::EntityId(0));
                assert!(e0.iter().map(|x| x * x).sum::<f32>().sqrt() > 1.5);
                let e0 = want_model.ent(pkgm_store::EntityId(0));
                assert!(e0.iter().map(|x| x * x).sum::<f32>().sqrt() <= 1.0 + 1e-6);

                for parts in [1, 2, 3, 7] {
                    let mut model = fresh.clone();
                    let mut tr = Trainer::new(&fresh, quick_cfg(21));
                    for chunks in &steps {
                        tr.scratches = chunks
                            .iter()
                            .map(|g| TrainScratch::holding(&fresh, g))
                            .collect();
                        // A stale scratch past the batch's chunks is ignored.
                        let stale = chunk_grads(&fresh, 9, 0);
                        tr.scratches.push(TrainScratch::holding(&fresh, &stale));
                        tr.adam_step(&mut model, n_chunks as usize, parts);
                    }
                    assert_eq!(tr.t, want.t);
                    for (name, got, exp) in [
                        ("ent", &model.ent, &want_model.ent),
                        ("rel", &model.rel, &want_model.rel),
                        ("mats", &model.mats, &want_model.mats),
                        ("m_ent", &tr.m_ent, &want.m_ent),
                        ("v_ent", &tr.v_ent, &want.v_ent),
                        ("m_rel", &tr.m_rel, &want.m_rel),
                        ("v_rel", &tr.v_rel, &want.v_rel),
                        ("m_mat", &tr.m_mat, &want.m_mat),
                        ("v_mat", &tr.v_mat, &want.v_mat),
                    ] {
                        assert!(
                            bits(got) == bits(exp),
                            "{name} differs at {parts} parts, {n_chunks} chunks"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn entity_norms_stay_bounded() {
        let store = toy_store();
        let mut model = PkgmModel::new(
            store.n_entities() as usize,
            store.n_relations() as usize,
            PkgmConfig::new(8).with_seed(6),
        );
        let mut trainer = Trainer::new(&model, quick_cfg(6));
        trainer.train(&mut model, &store);
        for e in 0..store.n_entities() {
            let row = model.ent(pkgm_store::EntityId(e));
            let norm: f32 = row.iter().map(|x| x * x).sum::<f32>().sqrt();
            assert!(norm <= 1.0 + 1e-4, "entity {e} norm {norm} > 1");
        }
    }
}
