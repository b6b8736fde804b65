//! `linkpred-eval`: the filtered link-prediction protocol over fixed
//! held-out queries, once through the fused f32 kernels (`eval::rank_*`)
//! and once through the int8-pruned ones (`quantized_rank_*_with_stats`).
//!
//! The serving stack does nothing here; `eval_kernels`, `quant` and `simd`
//! do all the work, so kernel and thread-pool changes get an end-to-end
//! number from this workload.

use crate::layers::simd_probe;
use crate::report::Outcome;
use crate::stats::summarize;
use crate::trace::Recorder;
use crate::world::{fresh_model, timed_setups, train_catalog, train_config};
use crate::{sys, RunArgs};
use pkgm_core::eval::{rank_heads, rank_relations, rank_tails};
use pkgm_core::eval_kernels::{
    fused_rank_heads, fused_rank_relations, fused_rank_tails, quantized_rank_heads_with_stats,
    quantized_rank_relations_with_stats, quantized_rank_tails_with_stats, reference_rank_heads,
    reference_rank_relations, reference_rank_tails,
};
use pkgm_core::{PkgmModel, PruneStats, QuantEvalModel, Trainer};
use pkgm_store::Triple;
use pkgm_synth::Catalog;
use serde_json::json;
use std::path::Path;
use std::time::Instant;

/// Queries per mode. Head ranking costs a d×d projection per candidate,
/// so it gets fewer.
const TAILS: usize = 1_500;
const HEADS: usize = 64;
const RELATIONS: usize = 1_500;
/// Epochs trained in set-up, so early exit and pruning behave as on a
/// trained model (what `eval_scale` does).
const WARMUP_EPOCHS: usize = 2;
/// Queries per mode also ranked by the reference kernels; the reference
/// head ranking pays the projection per query *and* candidate, so 8.
const REFERENCE_QUERIES: usize = 64;
const REFERENCE_HEADS: usize = 8;
const KS: [usize; 2] = [1, 10];

struct World {
    catalog: Catalog,
    model: PkgmModel,
    qmodel: QuantEvalModel,
    catalog_gen_s: f64,
    quant_build_s: f64,
}

fn set_up(seed: u64) -> World {
    let started = Instant::now();
    let catalog = Catalog::generate(&train_catalog(seed));
    let catalog_gen_s = started.elapsed().as_secs_f64();
    let mut model = fresh_model(&catalog, seed);
    Trainer::new(&model, train_config(seed, WARMUP_EPOCHS)).train(&mut model, &catalog.store);
    let started = Instant::now();
    let qmodel = QuantEvalModel::build(&model);
    World {
        quant_build_s: started.elapsed().as_secs_f64(),
        catalog,
        model,
        qmodel,
        catalog_gen_s,
    }
}

/// One pass of the protocol: six timed calls.
struct Pass {
    fused_s: f64,
    quant_s: f64,
    cpu_s: f64,
    /// Quantized ranks per mode (tails, heads, relations).
    ranks: [Vec<usize>; 3],
    prune: PruneStats,
}

pub fn run(args: &RunArgs) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let (w, setup) = timed_setups(args.trace, || set_up(args.seed));
    let store = &w.catalog.store;
    let held: &[Triple] = &w.catalog.heldout;
    if held.len() < TAILS {
        return Err(format!("only {} held-out triples (< {TAILS})", held.len()));
    }
    // Spread evenly through the held-out list: a prefix would hold a few
    // categories' relations only, and which ones depends on the seed.
    let spread = |n: usize| -> Vec<Triple> {
        held.iter()
            .step_by(held.len() / n)
            .take(n)
            .copied()
            .collect()
    };
    let (tails, heads, relations) = (spread(TAILS), spread(HEADS), spread(RELATIONS));
    let queries = [&tails[..], &heads[..], &relations[..]];
    let n_queries = (TAILS + HEADS + RELATIONS) as f64;

    let mut rec = Recorder::new();
    let mut passes: Vec<Pass> = Vec::new();
    let started = Instant::now();
    loop {
        let id = passes.len() as u64;
        let cpu0 = sys::proc_cpu(0);
        let root = rec.open("eval.pass", None, id);
        let t0 = Instant::now();
        let e = |r: Result<_, pkgm_core::EvalError>| r.map_err(|e| e.to_string());
        e(rec
            .span("eval_kernels.fused_tails", Some(root), id, || {
                rank_tails(&w.model, queries[0], Some(store), &KS)
            })
            .1)?;
        e(rec
            .span("eval_kernels.fused_heads", Some(root), id, || {
                rank_heads(&w.model, queries[1], Some(store), &KS)
            })
            .1)?;
        e(rec
            .span("eval_kernels.fused_relations", Some(root), id, || {
                rank_relations(&w.model, queries[2], Some(store), &KS)
            })
            .1)?;
        let fused_s = t0.elapsed().as_secs_f64();
        let t1 = Instant::now();
        let (tails, st) = rec
            .span("eval_kernels.quant_tails", Some(root), id, || {
                quantized_rank_tails_with_stats(&w.model, &w.qmodel, queries[0], Some(store))
            })
            .1
            .map_err(|e| e.to_string())?;
        let (heads, sh) = rec
            .span("eval_kernels.quant_heads", Some(root), id, || {
                quantized_rank_heads_with_stats(&w.model, &w.qmodel, queries[1], Some(store))
            })
            .1
            .map_err(|e| e.to_string())?;
        let (relations, sr) = rec
            .span("eval_kernels.quant_relations", Some(root), id, || {
                quantized_rank_relations_with_stats(&w.model, &w.qmodel, queries[2], Some(store))
            })
            .1
            .map_err(|e| e.to_string())?;
        let quant_s = t1.elapsed().as_secs_f64();
        rec.close(root);
        let mut prune = st;
        prune.merge(sh);
        prune.merge(sr);
        passes.push(Pass {
            fused_s,
            quant_s,
            cpu_s: sys::proc_cpu(0).since(&cpu0).total_s(),
            ranks: [tails, heads, relations],
            prune,
        });
        if args.trace || started.elapsed().as_secs_f64() >= args.seconds {
            break;
        }
    }
    let peak_rss_mib = sys::peak_rss_mib(0);

    // Output checks: quantized ≡ fused on every query, fused ≡ reference
    // on a subsample.
    let last = passes.last().expect("at least one pass ran");
    let fused = [
        fused_rank_tails(&w.model, queries[0], Some(store)),
        fused_rank_heads(&w.model, queries[1], Some(store)),
        fused_rank_relations(&w.model, queries[2], Some(store)),
    ];
    let reference = [
        reference_rank_tails(&w.model, &queries[0][..REFERENCE_QUERIES], Some(store)),
        reference_rank_heads(&w.model, &queries[1][..REFERENCE_HEADS], Some(store)),
        reference_rank_relations(&w.model, &queries[2][..REFERENCE_QUERIES], Some(store)),
    ];
    for ((fused, quant), reference) in fused.into_iter().zip(&last.ranks).zip(reference) {
        let fused = fused.map_err(|e| e.to_string())?;
        let reference = reference.map_err(|e| e.to_string())?;
        out.require(fused.len() == quant.len(), || {
            "rank lists differ in length".to_string()
        });
        for (f, q) in fused.iter().zip(quant) {
            out.check(f == q);
        }
        for (f, r) in fused.iter().zip(&reference) {
            out.check(f == r);
        }
    }
    out.extra("passes", json!(passes.len()));
    out.extra("queries_per_pass", json!(2.0 * n_queries));

    if !args.trace {
        let per_pass =
            |f: &dyn Fn(&Pass) -> f64| summarize(&passes.iter().map(f).collect::<Vec<_>>());
        out.set_summary("setup_s", setup);
        out.set_summary(
            "work_per_s",
            per_pass(&|p| 2.0 * n_queries / (p.fused_s + p.quant_s)),
        );
        out.set_summary("op_p50_ms", per_pass(&|p| (p.fused_s + p.quant_s) * 1e3));
        out.set_summary(
            "cpu_us_per_work",
            per_pass(&|p| p.cpu_s / (2.0 * n_queries) * 1e6),
        );
        out.set("peak_rss_mb", peak_rss_mib);
        out.extra(
            "eval_queries_per_s",
            json!(per_pass(&|p| n_queries / p.fused_s).median),
        );
        out.extra(
            "eval_quant_queries_per_s",
            json!(per_pass(&|p| n_queries / p.quant_s).median),
        );
        return Ok(out);
    }

    let dur = rec.median_duration_ns();
    let qps = |name: &str, n: usize| n as f64 / (dur.get(name).copied().unwrap_or(f64::NAN) / 1e9);
    out.set("synth.catalog_gen_s", w.catalog_gen_s);
    for (mode, n) in [("tails", TAILS), ("heads", HEADS), ("relations", RELATIONS)] {
        for family in ["fused", "quant"] {
            let span = format!("eval_kernels.{family}_{mode}");
            out.set(&format!("{span}_qps"), qps(&span, n));
        }
    }
    let (_, raw) = rec.span("eval_kernels.fused_tails_raw", None, 0, || {
        rank_tails(&w.model, queries[0], None, &KS)
    });
    raw.map_err(|e| e.to_string())?;
    let raw_ns = rec.spans().last().map_or(0.0, |s| s.duration_ns() as f64);
    out.set(
        "eval_kernels.filter_overhead_share",
        1.0 - raw_ns / dur["eval_kernels.fused_tails"],
    );
    out.set("quant.build_s", w.quant_build_s);
    out.set("quant.prune_rate", last.prune.prune_rate());
    out.set(
        "quant.bytes_per_candidate",
        last.prune.bytes_per_candidate(),
    );
    out.set(
        "quant.survivors_per_query",
        last.prune.survivors as f64 / n_queries,
    );
    simd_probe(&mut out);
    rec.write_jsonl(&Path::new(sys::OUT_DIR).join("linkpred-eval.trace.jsonl"))
        .map_err(|e| e.to_string())?;
    Ok(out)
}
