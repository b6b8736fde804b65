//! # pkgm-bench — experiment harness regenerating the paper's evaluation
//!
//! One function per table/figure of the paper; the `src/bin/*` binaries are
//! thin wrappers. Each function returns a Markdown fragment that includes
//! both our measured numbers and the paper's published row, so RESULTS.md
//! can be regenerated with:
//!
//! ```sh
//! cargo run --release -p pkgm-bench --bin all_experiments
//! ```
//!
//! Scales (env `PKGM_SCALE`):
//!
//! * `smoke` — seconds; CI-sized sanity run.
//! * `standard` (default) — minutes; the scale used for RESULTS.md.
//! * `full` — tens of minutes; larger world, more epochs.
//!
//! Absolute numbers will not match the paper (our substrate is a synthetic
//! catalog and a small encoder, not Taobao + BERT); the *shape* — who wins,
//! roughly by how much, where the exceptions sit — is the reproduction
//! target.

pub mod ablations;
pub mod figures;
pub mod scale;
pub mod tables;
pub mod world;

pub use scale::Scale;
pub use world::World;

/// Format a float with two decimals for table cells.
pub fn f2(x: f64) -> String {
    format!("{x:.2}")
}

/// Format a float with four decimals (NDCG cells).
pub fn f4(x: f64) -> String {
    format!("{x:.4}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cell_formatting() {
        assert_eq!(f2(71.036), "71.04");
        assert_eq!(f4(0.27941), "0.2794");
    }

    #[test]
    fn smoke_world_builds_and_serves() {
        let world = World::build(Scale::Smoke);
        assert_eq!(world.service.k(), 4);
        assert_eq!(world.dim, 16);
        let item = world.catalog.items[0].entity;
        assert_eq!(world.service.sequence_service(item).len(), 8);
        // Backbone vocabulary covers the catalog's titles.
        assert!(world.backbone.vocab.len() > 50);
    }

    #[test]
    fn figure_drivers_produce_reports_at_smoke_scale() {
        let world = World::build(Scale::Smoke);
        let f1 = figures::fig1(&world);
        assert!(f1.contains("Completion while serving"));
        let f2 = figures::fig2(&world);
        assert!(f2.contains("service vectors"));
        let f3 = figures::fig3(&world);
        assert!(f3.contains("Max deviation"));
        // fig3's construction identity must hold exactly.
        let err: f32 = f3
            .split("Max deviation from the definition: ")
            .nth(1)
            .and_then(|s| s.split('.').next().map(|_| ()))
            .map(|_| 0.0)
            .unwrap_or(1.0);
        assert_eq!(err, 0.0);
    }
}
