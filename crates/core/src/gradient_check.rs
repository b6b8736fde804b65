//! Gradient checks against the math, not against a twin.
//!
//! `fused_chunk_grads` and `reference_chunk_grads` are two transcriptions
//! of one hand derivation, so their bitwise parity cannot show that the
//! derivation itself is right. These tests compare the fused kernel with
//! central differences of the margin loss `[f(pos) + γ − f(neg)]₊` computed
//! through [`PkgmModel::score`], and one [`Trainer`] Adam step with
//! `pkgm_tensor::optim::AdamOpt` on the same gradient.

use crate::kernels::{fused_chunk_grads, ChunkGrads, TrainScratch};
use crate::model::{PkgmConfig, PkgmModel};
use crate::negative::{CorruptedPair, Corruption};
use crate::trainer::{TrainConfig, Trainer};
use pkgm_store::{EntityId, RelationId, Triple};
use pkgm_tensor::optim::AdamOpt;
use pkgm_tensor::{Params, Tensor};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

const DIM: usize = 8;
const N_ENT: u32 = 12;
const N_REL: u32 = 4;
const MARGIN: f32 = 1.0;
/// Central-difference step.
const STEP: f32 = 1e-2;
/// Every L1 component stays this far from zero, and every hinge this far
/// from its kink. One probed parameter moves a component by at most
/// `STEP · max(1, |M_ij|, |h_j|) ≈ 2.2·STEP` and a hinge by at most
/// `≈ 5·STEP`, so no probe crosses a kink and the loss is linear in it.
const COMPONENT_CLEARANCE: f32 = 0.05;
const HINGE_CLEARANCE: f32 = 0.1;
/// f32 scores near 25 carry ≈ 2e-6 of rounding, ≈ 4e-4 after the divide
/// by `2·STEP`; a wrong term moves a gradient coordinate by ≳ 0.05.
const TOLERANCE: f64 = 2e-3;
const SLOTS: [Corruption; 3] = [Corruption::Head, Corruption::Tail, Corruption::Relation];

fn model(cfg: PkgmConfig) -> PkgmModel {
    PkgmModel::new(N_ENT as usize, N_REL as usize, cfg.with_seed(17))
}

/// The L1 components of `f(t)`: `h + r − t`, then `M_r·h − r`.
fn components(model: &PkgmModel, t: Triple) -> Vec<f32> {
    let (h, r, tl) = (model.ent(t.head), model.rel(t.relation), model.ent(t.tail));
    let mut c: Vec<f32> = (0..DIM).map(|i| h[i] + r[i] - tl[i]).collect();
    if model.cfg.relation_module {
        c.extend(model.service_r(t.head, t.relation));
    }
    c
}

fn violation(model: &PkgmModel, p: &CorruptedPair) -> f32 {
    model.score(p.pos) + MARGIN - model.score(p.neg)
}

fn clear_of_kinks(model: &PkgmModel, p: &CorruptedPair) -> bool {
    violation(model, p).abs() > HINGE_CLEARANCE
        && [p.pos, p.neg].iter().all(|&t| {
            components(model, t)
                .iter()
                .all(|c| c.abs() > COMPONENT_CLEARANCE)
        })
}

fn corrupt(pos: Triple, slot: Corruption, rng: &mut SmallRng) -> CorruptedPair {
    let mut neg = pos;
    match slot {
        Corruption::Head => neg.head = EntityId(rng.gen_range(0..N_ENT)),
        Corruption::Tail => neg.tail = EntityId(rng.gen_range(0..N_ENT)),
        Corruption::Relation => neg.relation = RelationId(rng.gen_range(0..N_REL)),
    }
    CorruptedPair { pos, neg, slot }
}

fn random_triple(rng: &mut SmallRng) -> Triple {
    Triple::from_raw(
        rng.gen_range(0..N_ENT),
        rng.gen_range(0..N_REL),
        rng.gen_range(0..N_ENT),
    )
}

/// The first `n` pairs from `draw` that are clear of every kink and pass
/// `keep`.
fn find_pairs(
    model: &PkgmModel,
    n: usize,
    mut draw: impl FnMut(&mut SmallRng) -> CorruptedPair,
    keep: impl Fn(&CorruptedPair) -> bool,
) -> Vec<CorruptedPair> {
    let mut rng = SmallRng::seed_from_u64(29);
    let found: Vec<CorruptedPair> = (0..100_000)
        .map(|_| draw(&mut rng))
        .filter(|p| clear_of_kinks(model, p) && keep(p))
        .take(n)
        .collect();
    assert_eq!(found.len(), n, "not enough kink-free pairs");
    found
}

/// The parameter rows a pair's loss can depend on, as
/// `(block, id, width)` with blocks 0 = entities, 1 = relations,
/// 2 = matrices.
fn involved_rows(model: &PkgmModel, p: &CorruptedPair) -> Vec<(usize, u32, usize)> {
    let mut rows = Vec::new();
    for t in [p.pos, p.neg] {
        rows.push((0, t.head.0, DIM));
        rows.push((0, t.tail.0, DIM));
        rows.push((1, t.relation.0, DIM));
        if model.cfg.relation_module {
            rows.push((2, t.relation.0, DIM * DIM));
        }
    }
    rows.sort_unstable();
    rows.dedup();
    rows
}

fn block_mut(model: &mut PkgmModel, block: usize) -> &mut Vec<f32> {
    match block {
        0 => &mut model.ent,
        1 => &mut model.rel,
        _ => &mut model.mats,
    }
}

/// The largest gap between the kernel's gradient of one pair and central
/// differences of its hinge, over every coordinate of every row the pair
/// touches. Also asserts that the kernel exported no other row.
fn max_gradient_error(model: &mut PkgmModel, p: &CorruptedPair) -> f64 {
    let mut scratch = TrainScratch::new(model);
    let acc = fused_chunk_grads(model, &mut scratch, std::slice::from_ref(p), MARGIN);
    let rows = involved_rows(model, p);
    let lists = [&acc.ent, &acc.rel, &acc.mat];
    for (block, list) in lists.iter().enumerate() {
        for (id, _) in list.iter() {
            assert!(
                rows.iter().any(|&(b, i, _)| b == block && i == *id),
                "{p:?}: gradient for uninvolved row {id} of block {block}"
            );
        }
    }
    let hinge = |m: &PkgmModel| f64::from(violation(m, p).max(0.0));
    let mut worst = 0.0f64;
    for (block, id, width) in rows {
        let analytic = lists[block].iter().find(|(i, _)| *i == id);
        for k in 0..width {
            let idx = id as usize * width + k;
            let orig = block_mut(model, block)[idx];
            let (up, down) = (orig + STEP, orig - STEP);
            block_mut(model, block)[idx] = up;
            let l_up = hinge(model);
            block_mut(model, block)[idx] = down;
            let l_down = hinge(model);
            block_mut(model, block)[idx] = orig;
            let numeric = (l_up - l_down) / (f64::from(up) - f64::from(down));
            let kernel = analytic.map_or(0.0, |(_, g)| f64::from(g[k]));
            worst = worst.max((numeric - kernel).abs());
        }
    }
    worst
}

#[test]
fn fused_gradients_match_central_differences() {
    for cfg in [PkgmConfig::new(DIM), PkgmConfig::transe(DIM)] {
        let mut model = model(cfg);
        let active = |p: &CorruptedPair| violation(&model, p) > 0.0 && p.neg != p.pos;
        let mut cases = Vec::new();
        for slot in SLOTS {
            let draw = |rng: &mut SmallRng| corrupt(random_triple(rng), slot, rng);
            cases.extend(find_pairs(&model, 6, draw, active));
        }
        // One entity in two roles: the positive's head is the negative's
        // tail.
        let two_roles = |rng: &mut SmallRng| {
            let pos = random_triple(rng);
            let neg = Triple::new(pos.head, pos.relation, pos.head);
            CorruptedPair {
                pos,
                neg,
                slot: Corruption::Tail,
            }
        };
        cases.extend(find_pairs(&model, 2, two_roles, active));
        for p in &cases {
            let err = max_gradient_error(&mut model, p);
            assert!(err < TOLERANCE, "{p:?}: gradient off by {err}");
        }
    }
}

#[test]
fn a_head_corruption_onto_the_positive_head_has_zero_gradient() {
    // The sampler's give-up fallback can hand back the positive itself:
    // the loss is the constant γ, so every derivative is zero, and the
    // kernel's aliased-head path must cancel to zero up to rounding.
    let mut model = model(PkgmConfig::new(DIM));
    let mut rng = SmallRng::seed_from_u64(31);
    for _ in 0..8 {
        let pos = random_triple(&mut rng);
        let p = CorruptedPair {
            pos,
            neg: pos,
            slot: Corruption::Head,
        };
        let acc = fused_chunk_grads(&model, &mut TrainScratch::new(&model), &[p], MARGIN);
        assert_eq!(acc.violations, 1);
        for (_, g) in acc.ent.iter().chain(&acc.rel).chain(&acc.mat) {
            assert!(g.iter().all(|x| x.abs() < 1e-5), "{p:?}: {g:?}");
        }
        let err = max_gradient_error(&mut model, &p);
        assert!(err < TOLERANCE, "{p:?}: self-pair gradient off by {err}");
    }
}

#[test]
fn an_inactive_pair_has_no_gradient() {
    let mut model = model(PkgmConfig::new(DIM));
    let inactive = |p: &CorruptedPair| violation(&model, p) < 0.0;
    let draw = |rng: &mut SmallRng| {
        let slot = SLOTS[rng.gen_range(0..3usize)];
        corrupt(random_triple(rng), slot, rng)
    };
    for p in find_pairs(&model, 6, draw, inactive) {
        let mut scratch = TrainScratch::new(&model);
        let acc = fused_chunk_grads(&model, &mut scratch, &[p], MARGIN);
        assert!(acc.ent.is_empty() && acc.rel.is_empty() && acc.mat.is_empty());
        assert_eq!((acc.violations, acc.loss), (0, 0.0));
        // The hinge is flat here, so central differences agree: zero.
        assert_eq!(max_gradient_error(&mut model, &p), 0.0);
    }
}

/// The same sparse gradient as one row-sparse `pkgm-tensor` table per
/// parameter block.
fn accumulate(params: &mut Params, ids: [pkgm_tensor::ParamId; 3], acc: &ChunkGrads) {
    for (id, list) in ids.into_iter().zip([&acc.ent, &acc.rel, &acc.mat]) {
        if list.is_empty() {
            continue;
        }
        let rows: Vec<u32> = list.iter().map(|(r, _)| *r).collect();
        let flat: Vec<f32> = list.iter().flat_map(|(_, g)| g.iter().copied()).collect();
        let width = flat.len() / rows.len();
        params.accumulate_sparse_grad(id, &rows, &Tensor::from_vec(rows.len(), width, flat));
    }
}

#[test]
fn trainer_adam_steps_match_pkgm_tensor_adam_bitwise() {
    let mut model = model(PkgmConfig::new(DIM));
    let mut rng = SmallRng::seed_from_u64(37);
    let pairs: Vec<CorruptedPair> = (0..64)
        .map(|i| {
            let slot = SLOTS[i % 3];
            corrupt(random_triple(&mut rng), slot, &mut rng)
        })
        .collect();
    let mut scratch = TrainScratch::new(&model);
    let acc = fused_chunk_grads(&model, &mut scratch, &pairs, MARGIN);
    assert!(!acc.ent.is_empty() && !acc.rel.is_empty() && !acc.mat.is_empty());

    // AdamOpt does not project onto the unit ball; compare raw steps.
    let lr = 0.05;
    let cfg = TrainConfig {
        lr,
        normalize_entities: false,
        ..TrainConfig::default()
    };
    let mut trainer = Trainer::new(&model, cfg);
    // The trainer's step reads the rows where the kernel left them.
    trainer.scratches = vec![scratch];
    let mut params = Params::new();
    let mut table = |name, rows: u32, cols, value: &Vec<f32>| {
        params.add_sparse(name, Tensor::from_vec(rows as usize, cols, value.clone()))
    };
    let ids = [
        table("ent", N_ENT, DIM, &model.ent),
        table("rel", N_REL, DIM, &model.rel),
        table("mat", N_REL, DIM * DIM, &model.mats),
    ];
    let mut opt = AdamOpt::new(lr);
    // Three steps on the same gradient, so the moments carry over.
    for _ in 0..3 {
        trainer.adam_step(&mut model, 1, 1);
        accumulate(&mut params, ids, &acc);
        opt.step(&mut params);
        params.zero_grads();
    }
    assert_eq!(trainer.steps(), opt.steps());
    for (id, ours) in ids.into_iter().zip([&model.ent, &model.rel, &model.mats]) {
        let theirs = params.value(id).as_slice();
        let max_ulps = ours
            .iter()
            .zip(theirs)
            .map(|(a, b)| (a.to_bits() as i64 - b.to_bits() as i64).unsigned_abs())
            .max()
            .unwrap_or(0);
        assert_eq!(max_ulps, 0, "{}: {max_ulps} ulp apart", params.name(id));
    }
}
