//! Deployment-style serving: snapshot a trained service, reload it, build
//! its condensed serving table, fan out cached vector queries from many
//! threads, and contrast with the symbolic pattern-query path the vectors
//! replace.
//!
//! ```sh
//! cargo run --release --example serving
//! ```

use pkgm::core::{serialize, CachedService};
use pkgm::prelude::*;
use pkgm::store::query::{Pattern, Term};
use rayon::prelude::*;

fn main() {
    let catalog = Catalog::generate(&CatalogConfig::small(77));
    println!("Pre-training PKGM…");
    let service = pkgm::pretrain(
        &catalog,
        PkgmConfig::new(32).with_seed(77),
        TrainConfig {
            epochs: 5,
            lr: 5e-3,
            margin: 4.0,
            ..TrainConfig::default()
        },
        10,
    );

    // --- Snapshot round-trip (what a model registry would store) --------
    let bytes = serialize::service_to_bytes(&service);
    println!(
        "Snapshot: {:.1} MiB for {} entities × d={} (+ {} transfer matrices)",
        bytes.len() as f64 / (1024.0 * 1024.0),
        service.model().n_entities(),
        service.dim(),
        service.model().n_relations(),
    );
    let service = serialize::service_from_bytes(&bytes).expect("reload");

    // --- Cached fan-out --------------------------------------------------
    // The cache serves a precomputed table; the model is not needed past
    // this line.
    let cached = CachedService::new(ServiceSnapshot::build(&service), 8192);
    let start = std::time::Instant::now();
    let hot_items: Vec<u32> = (0..200u32).collect();
    // Simulate three downstream consumers sweeping the same hot items.
    let total_floats: usize = (0..3u32)
        .into_par_iter()
        .map(|_| {
            hot_items
                .par_iter()
                .map(|&i| cached.condensed_service(EntityId(i)).len())
                .sum::<usize>()
        })
        .sum();
    let stats = cached.stats();
    println!(
        "Served {total_floats} floats in {:.1} ms — cache: {} hits / {} misses",
        start.elapsed().as_secs_f64() * 1000.0,
        stats.hits,
        stats.misses,
    );

    // --- The symbolic path the vectors replace ---------------------------
    // "Which other items share item 0's brand AND color?" as a conjunctive
    // pattern query (what a downstream team ran before PKGM):
    let item0 = EntityId(0);
    let brand = catalog.store.relations_of(item0)[0];
    let color = catalog.store.relations_of(item0)[1];
    let brand_val = catalog.store.tails(item0, brand)[0];
    let color_val = catalog.store.tails(item0, color)[0];
    let matches = pkgm::store::query::solve(
        &catalog.store,
        &[
            Pattern::new(Term::Var(0), Term::rel(brand.0), Term::ent(brand_val.0)),
            Pattern::new(Term::Var(0), Term::rel(color.0), Term::ent(color_val.0)),
        ],
    );
    println!(
        "Symbolic query: {} items share item 0's {} and {}",
        matches.len(),
        catalog.relations.name(brand.0).unwrap_or("?"),
        catalog.relations.name(color.0).unwrap_or("?"),
    );
    println!(
        "Vector path: those items' condensed services are nearest neighbours of item 0's \
         — and it also answers for items whose brand/color triples are missing."
    );
}
