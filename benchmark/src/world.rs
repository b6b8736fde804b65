//! The inputs every workload is built from, and the helpers they share.
//!
//! All sizes are the paper-shaped `CatalogConfig::bench` world scaled so a
//! whole run (set-up three times, then the timed phase) fits the
//! acceptance driver's budget of about twenty seconds; ratios between
//! table, cache and batch sizes are those of the full-size design.

use crate::stats::{summarize, Summary};
use pkgm_core::{PkgmConfig, PkgmModel, TrainConfig};
use pkgm_synth::{Catalog, CatalogConfig};
use std::time::Instant;

/// Embedding dimension; served rows are `2 × DIM` floats.
pub const DIM: usize = 64;
/// Key relations per item (the paper's k).
pub const K: usize = 10;
/// Closed-loop caller threads of the serve workloads.
pub const CALLERS: usize = 2;
/// A run sets up at least this many times and `setup_s` is the median;
/// set-ups too short to time steadily repeat until [`SETUP_MIN_TOTAL_S`]
/// is spent, up to [`SETUP_MAX_REPS`].
const SETUP_REPS: usize = 3;
const SETUP_MIN_TOTAL_S: f64 = 1.0;
const SETUP_MAX_REPS: usize = 9;

/// The training and evaluation world: a quarter of `bench`
/// (24 000 items, ≈284k triples, ≈29.8k entities, 189 relations).
pub fn train_catalog(seed: u64) -> CatalogConfig {
    CatalogConfig {
        n_categories: 30,
        ..CatalogConfig::bench(seed)
    }
}

/// The serving world: 60 000 items (≈72k table rows, 37 MB of PKGMSS3).
pub fn serve_catalog(seed: u64) -> CatalogConfig {
    CatalogConfig {
        n_categories: 60,
        products_per_category: 100,
        ..CatalogConfig::bench(seed)
    }
}

pub fn train_config(seed: u64, epochs: usize) -> TrainConfig {
    TrainConfig {
        lr: 5e-3,
        margin: 4.0,
        batch_size: 1000,
        epochs,
        negatives: 1,
        seed,
        normalize_entities: true,
        parallel: true,
        chunk_size: None,
    }
}

pub fn fresh_model(catalog: &Catalog, seed: u64) -> PkgmModel {
    PkgmModel::new(
        catalog.store.n_entities() as usize,
        catalog.store.n_relations() as usize,
        PkgmConfig::new(DIM).with_seed(seed),
    )
}

/// Run `setup` repeatedly — once in a traced run, else by the rule at
/// [`SETUP_REPS`] — keep the last result, and summarise the walls.
pub fn timed_setups<T>(once: bool, mut setup: impl FnMut() -> T) -> (T, Summary) {
    let mut walls: Vec<f64> = Vec::new();
    let mut last = None;
    loop {
        drop(last.take());
        let started = Instant::now();
        last = Some(setup());
        walls.push(started.elapsed().as_secs_f64());
        let enough = walls.len() >= SETUP_REPS
            && (walls.iter().sum::<f64>() >= SETUP_MIN_TOTAL_S || walls.len() >= SETUP_MAX_REPS);
        if once || enough {
            break;
        }
    }
    (last.expect("at least one set-up ran"), summarize(&walls))
}

pub fn bits_equal(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// FNV-1a, for printing a model's identity across commits.
pub fn fnv64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}
