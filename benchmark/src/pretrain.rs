//! `pretrain-resident` and `pretrain-ooc`: train → servable snapshot.
//!
//! One *pass* is the whole pipeline on a fresh model: trainer → service
//! snapshot → PKGMSS3 on disk → mapped open → first bit-verified lookup.
//! The epoch count inside a pass is fixed (training speeds up as the
//! violation rate falls, so a time-boxed epoch count would not compare);
//! passes repeat until the run's seconds are used and the medians over
//! passes are reported.

use crate::layers::simd_probe;
use crate::report::Outcome;
use crate::stats::summarize;
use crate::trace::Recorder;
use crate::world::{
    bits_equal, fnv64, fresh_model, timed_setups, train_catalog, train_config, DIM, K,
};
use crate::{sys, RunArgs};
use pkgm_core::kernels::fused_chunk_grads;
use pkgm_core::serialize::{model_to_bytes, open_snapshot_file, write_snapshot_ss3_file};
use pkgm_core::trainer::EpochStats;
use pkgm_core::{
    open_mapped_snapshot, ChunkGrads, KnowledgeService, NegativeSampler, OocConfig, OocTrainer,
    PkgmConfig, PkgmModel, ServiceSnapshot, StdIo, TrainScratch, Trainer,
};
use pkgm_store::keyrel::KeyRelationSelector;
use pkgm_store::{EntityId, TripleStore};
use pkgm_synth::Catalog;
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use serde_json::json;
use std::path::Path;
use std::time::Instant;

/// Epochs per `pretrain-resident` pass.
const RESIDENT_EPOCHS: usize = 3;
/// Rows of the mapped result compared bit-for-bit with the built table.
const VERIFIED_ROWS: usize = 1_000;
/// Last-epoch violation rates above these mean training went wrong
/// (measured: ≈0.25 after three resident epochs, ≈0.57 after one paged).
const RESIDENT_VIOLATION_CEILING: f32 = 0.40;
const OOC_VIOLATION_CEILING: f32 = 0.75;

/// What one pass measured.
struct Pass {
    wall_s: f64,
    cpu_s: f64,
    /// Positive triples × epochs.
    work: f64,
    epochs: Vec<EpochStats>,
    /// CPU seconds of the last `trainer.epoch` span (resident only).
    last_epoch_cpu_s: f64,
    rows: usize,
    file_bytes: u64,
    peak_rss_mib: f64,
    /// The trained model, inside the service the check used.
    service: KnowledgeService,
    ooc: Option<OocPass>,
}

struct OocPass {
    partitions: usize,
    blocks: usize,
    mem_budget: usize,
    /// Wall of `OocTrainer::new` + `train`.
    train_s: f64,
    read_bytes: u64,
    write_bytes: u64,
    train_cpu: sys::ProcCpu,
}

pub fn run(args: &RunArgs, ooc: bool) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut catalog_gen_s = 0.0;
    let ((catalog, selector), setup) = timed_setups(args.trace, || {
        let started = Instant::now();
        let catalog = Catalog::generate(&train_catalog(args.seed));
        catalog_gen_s = started.elapsed().as_secs_f64();
        let selector = catalog.key_relation_selector(K);
        (catalog, selector)
    });
    let name = if ooc {
        "pretrain-ooc"
    } else {
        "pretrain-resident"
    };
    let dir = sys::scratch_dir(name).map_err(|e| e.to_string())?;

    let mut rec = Recorder::new();
    let mut passes: Vec<Pass> = Vec::new();
    let started = Instant::now();
    loop {
        let id = passes.len() as u64;
        let pass = if ooc {
            ooc_pass(
                &catalog, &selector, &dir, args.seed, &mut rec, id, &mut out, true,
            )?
        } else {
            resident_pass(&catalog, &selector, &dir, args.seed, &mut rec, id, &mut out)?
        };
        passes.push(pass);
        if args.trace || started.elapsed().as_secs_f64() >= args.seconds {
            break;
        }
    }

    let last = passes.last().expect("at least one pass ran");
    let final_stats = last
        .epochs
        .last()
        .expect("a pass trains at least one epoch");
    let ceiling = if ooc {
        OOC_VIOLATION_CEILING
    } else {
        RESIDENT_VIOLATION_CEILING
    };
    out.check(final_stats.mean_loss.is_finite());
    out.check(final_stats.violation_rate < ceiling);
    out.extra(
        "model_fnv64",
        json!(format!(
            "{:016x}",
            fnv64(&model_to_bytes(last.service.model()))
        )),
    );
    out.extra("passes", json!(passes.len()));
    out.extra("triples", json!(catalog.store.len()));
    out.extra(
        "violation_rate_by_epoch",
        json!(last
            .epochs
            .iter()
            .map(|e| f64::from(e.violation_rate))
            .collect::<Vec<f64>>()),
    );
    if let Some(o) = &last.ooc {
        out.require(o.partitions >= 8, || {
            format!(
                "ooc.partitions = {} (< 8): the table is not being paged",
                o.partitions
            )
        });
    }

    if !args.trace {
        let per_pass =
            |f: &dyn Fn(&Pass) -> f64| summarize(&passes.iter().map(f).collect::<Vec<_>>());
        out.set_summary("setup_s", setup);
        out.set_summary("work_per_s", per_pass(&|p| p.work / p.wall_s));
        out.set_summary("op_p50_ms", per_pass(&|p| p.wall_s * 1e3));
        out.set_summary("cpu_us_per_work", per_pass(&|p| p.cpu_s / p.work * 1e6));
        out.set("peak_rss_mb", passes[0].peak_rss_mib);
        let rate = out.get("work_per_s");
        out.extra("pretrain_triples_per_s", json!(rate));
        return Ok(out);
    }

    // Traced run: the per-layer table from the one pass's spans, then the
    // kernel replay and the probes that only make sense here.
    let dur = rec.median_duration_ns();
    let secs = |name: &str| dur.get(name).copied().unwrap_or(0.0) / 1e9;
    let triples = catalog.store.len() as f64;
    out.set("synth.catalog_gen_s", catalog_gen_s);
    out.set(
        "kernels.violation_rate",
        f64::from(final_stats.violation_rate),
    );
    out.set(
        "snapshot3.file_bytes_per_row",
        last.file_bytes as f64 / last.rows as f64,
    );
    out.set("serialize.open_ms", secs("serialize.open") * 1e3);
    if let Some(o) = &last.ooc {
        out.set("ooc.train_s", o.train_s);
        out.set("ooc.write_snapshots_s", secs("ooc.write_snapshots"));
        out.set(
            "snapshot3.write_mb_per_s",
            last.file_bytes as f64 / 1e6 / secs("ooc.write_snapshots"),
        );
        out.set("ooc.partitions", o.partitions as f64);
        out.set("ooc.blocks", o.blocks as f64);
        out.set("ooc.read_bytes_per_triple", o.read_bytes as f64 / triples);
        out.set("ooc.write_bytes_per_triple", o.write_bytes as f64 / triples);
        out.set(
            "ooc.sys_cpu_share",
            o.train_cpu.sys_s / o.train_cpu.total_s(),
        );
        out.set(
            "ooc.peak_rss_over_budget",
            last.peak_rss_mib * 1_048_576.0 / o.mem_budget as f64,
        );
        // The same data with the whole table in one partition isolates
        // page-in/out and manifest commits from compute.
        let one = ooc_pass(
            &catalog, &selector, &dir, args.seed, &mut rec, 1, &mut out, false,
        )?;
        let one = one.ooc.expect("an out-of-core pass");
        out.require(one.partitions == 1, || {
            "the unpaged comparison run was partitioned".to_string()
        });
        out.set("ooc.p1_triples_per_s", triples / one.train_s);
        out.set("ooc.paging_slowdown", o.train_s / one.train_s);
    } else {
        out.set("trainer.epoch_s", secs("trainer.epoch"));
        out.set(
            "trainer.epoch_triples_per_s",
            triples / secs("trainer.epoch"),
        );
        out.set(
            "snapshot.build_rows_per_s",
            last.rows as f64 / secs("snapshot.build"),
        );
        out.set(
            "snapshot3.write_mb_per_s",
            last.file_bytes as f64 / 1e6 / secs("snapshot3.write"),
        );
    }
    let replay = replay_kernels(last.service.model(), &catalog.store, args.seed, &mut rec);
    out.set("negative.corrupt_ns_per_pair", replay.corrupt_ns_per_pair);
    out.set("kernels.fused_grads_ns_per_pair", replay.fused_ns_per_pair);
    out.set("kernels.merge_ns_per_pair", replay.merge_ns_per_pair);
    out.extra(
        "kernels.replay_violation_rate",
        json!(replay.violation_rate),
    );
    if !ooc {
        out.set(
            "trainer.self_share",
            1.0 - replay.total_s / last.last_epoch_cpu_s,
        );
    }
    simd_probe(&mut out);
    rec.write_jsonl(&Path::new(sys::OUT_DIR).join(format!("{name}.trace.jsonl")))
        .map_err(|e| e.to_string())?;
    Ok(out)
}

/// Sampled row ids for the output check, the same for every pass.
fn sample_rows(seed: u64, n_rows: usize) -> Vec<u32> {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x726f_7773);
    (0..VERIFIED_ROWS)
        .map(|_| rng.gen_range(0..n_rows as u32))
        .collect()
}

fn resident_pass(
    catalog: &Catalog,
    selector: &KeyRelationSelector,
    dir: &Path,
    seed: u64,
    rec: &mut Recorder,
    id: u64,
    out: &mut Outcome,
) -> Result<Pass, String> {
    let store = &catalog.store;
    let mut model = fresh_model(catalog, seed);
    let path = dir.join("trained.pkgmss3");
    let cpu0 = sys::proc_cpu(0);
    let started = Instant::now();
    let root = rec.open("pretrain.pass", None, id);
    let mut trainer = Trainer::new(&model, train_config(seed, RESIDENT_EPOCHS));
    let mut epochs = Vec::with_capacity(RESIDENT_EPOCHS);
    let mut last_epoch_cpu_s = 0.0;
    for epoch in 0..RESIDENT_EPOCHS {
        let before = sys::proc_cpu(0);
        let (_, stats) = rec.span("trainer.epoch", Some(root), id, || {
            trainer.train_epoch(&mut model, store, epoch as u64)
        });
        last_epoch_cpu_s = sys::proc_cpu(0).since(&before).total_s();
        epochs.push(stats);
    }
    let service = KnowledgeService::new(model, selector.clone());
    let (_, built) = rec.span("snapshot.build", Some(root), id, || {
        ServiceSnapshot::build(&service)
    });
    rec.span("snapshot3.write", Some(root), id, || {
        write_snapshot_ss3_file(&StdIo, &path, &built)
    })
    .1
    .map_err(|e| e.to_string())?;
    let (mut got, mut want) = (Vec::new(), Vec::new());
    let (_, mapped) = rec.span("serialize.open", Some(root), id, || {
        let mapped = open_snapshot_file(&path)?;
        mapped.lookup_exact(EntityId(0), &mut got);
        Ok::<_, pkgm_core::ArtifactError>(mapped)
    });
    let mapped = mapped.map_err(|e| e.to_string())?;
    built.lookup_exact(EntityId(0), &mut want);
    out.check(bits_equal(&got, &want));
    rec.close(root);
    let wall_s = started.elapsed().as_secs_f64();
    let cpu_s = sys::proc_cpu(0).since(&cpu0).total_s();
    let peak_rss_mib = sys::peak_rss_mib(0);

    out.require(mapped.backing().label() == "mapped", || {
        format!(
            "the written snapshot opened {}, not mapped",
            mapped.backing().label()
        )
    });
    for row in sample_rows(seed, built.n_rows()) {
        mapped.lookup_exact(EntityId(row), &mut got);
        built.lookup_exact(EntityId(row), &mut want);
        out.check(bits_equal(&got, &want));
    }
    Ok(Pass {
        wall_s,
        cpu_s,
        work: (store.len() * RESIDENT_EPOCHS) as f64,
        epochs,
        last_epoch_cpu_s,
        rows: built.n_rows(),
        file_bytes: std::fs::metadata(&path).map_or(0, |m| m.len()),
        peak_rss_mib,
        service,
        ooc: None,
    })
}

/// One epoch through the out-of-core trainer, then one PKGMSS3 shard per
/// partition. `paged` budgets a quarter of the paged state (embedding +
/// Adam moments); otherwise the budget holds all of it in one partition.
#[allow(clippy::too_many_arguments)]
fn ooc_pass(
    catalog: &Catalog,
    selector: &KeyRelationSelector,
    dir: &Path,
    seed: u64,
    rec: &mut Recorder,
    id: u64,
    out: &mut Outcome,
    paged: bool,
) -> Result<Pass, String> {
    let store = &catalog.store;
    let table_bytes = store.n_entities() as usize * 3 * DIM * 4;
    let mem_budget = if paged { table_bytes / 4 } else { table_bytes };
    let ooc_dir = dir.join("ooc");
    let _ = std::fs::remove_dir_all(&ooc_dir);
    let cfg = OocConfig {
        model: PkgmConfig::new(DIM).with_seed(seed),
        train: train_config(seed, 1),
        mem_budget,
        dir: ooc_dir,
    };
    let base = dir.join("trained.pkgmss3");
    let cpu0 = sys::proc_cpu(0);
    let io0 = sys::self_io_bytes();
    let started = Instant::now();
    let root = rec.open("pretrain.pass", None, id);
    let (_, trained) = rec.span("ooc.train", Some(root), id, || {
        let mut trainer = OocTrainer::new(store, cfg)?;
        let report = trainer.train(store)?;
        Ok::<_, pkgm_core::OocError>((trainer, report))
    });
    let (trainer, report) = trained.map_err(|e| e.to_string())?;
    let train_s = started.elapsed().as_secs_f64();
    let train_cpu = sys::proc_cpu(0).since(&cpu0);
    let io1 = sys::self_io_bytes();
    let (_, files) = rec.span("ooc.write_snapshots", Some(root), id, || {
        trainer.write_snapshots(selector, &base)
    });
    let files = files.map_err(|e| e.to_string())?;
    let mut row = Vec::new();
    let (_, shards) = rec.span("serialize.open", Some(root), id, || {
        files
            .iter()
            .map(|f| {
                let shard = open_mapped_snapshot(f, false)?;
                shard.lookup_exact(EntityId(shard.shard().row_start as u32), &mut row);
                Ok(shard)
            })
            .collect::<Result<Vec<ServiceSnapshot>, pkgm_core::ArtifactError>>()
    });
    let shards = shards.map_err(|e| e.to_string())?;
    rec.close(root);
    let wall_s = started.elapsed().as_secs_f64();
    let cpu_s = sys::proc_cpu(0).since(&cpu0).total_s();
    // Read before the check below assembles the whole model in memory.
    let peak_rss_mib = sys::peak_rss_mib(0);

    let model = trainer.assemble_model().map_err(|e| e.to_string())?;
    let service = KnowledgeService::new(model, selector.clone());
    for id in sample_rows(seed, store.n_entities() as usize) {
        let served = shards
            .iter()
            .find(|s| s.covers(id))
            .is_some_and(|s| s.lookup_exact(EntityId(id), &mut row));
        out.check(served && bits_equal(&row, &service.condensed_service(EntityId(id))));
    }
    Ok(Pass {
        wall_s,
        cpu_s,
        work: store.len() as f64,
        epochs: report.epochs,
        last_epoch_cpu_s: 0.0,
        rows: store.n_entities() as usize,
        file_bytes: files
            .iter()
            .map(|f| std::fs::metadata(f).map_or(0, |m| m.len()))
            .sum(),
        peak_rss_mib,
        service,
        ooc: Some(OocPass {
            partitions: report.n_partitions,
            blocks: report.blocks,
            mem_budget,
            train_s,
            read_bytes: io1.0 - io0.0,
            write_bytes: io1.1 - io0.1,
            train_cpu,
        }),
    })
}

struct Replay {
    corrupt_ns_per_pair: f64,
    fused_ns_per_pair: f64,
    merge_ns_per_pair: f64,
    violation_rate: f64,
    total_s: f64,
}

/// One epoch's worth of minibatches through the trainer's three inner
/// layers, called directly: corruption sampling, the fused gradient kernel
/// (pooled scratch) and the chunk merge. Same batch size and chunk layout
/// as the trainer; the model stays as the pass left it, so the violation
/// rate is that of the start of a further epoch.
fn replay_kernels(model: &PkgmModel, store: &TripleStore, seed: u64, rec: &mut Recorder) -> Replay {
    let cfg = train_config(seed, 1);
    let sampler = NegativeSampler::new(store);
    let triples = store.triples();
    let mut order: Vec<u32> = (0..store.len() as u32).collect();
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x7265_706c_6179);
    order.shuffle(&mut rng);
    let chunk_size = (cfg.batch_size / sys::nproc()).max(pkgm_core::kernels::MIN_CHUNK_SIZE);
    let mut scratch = TrainScratch::new(model);
    let mut pairs = Vec::new();
    let (mut violations, mut n_pairs) = (0usize, 0usize);
    let root = rec.open("replay.epoch", None, u64::MAX);
    for batch in order.chunks(cfg.batch_size) {
        let mut grads = Vec::with_capacity(batch.len().div_ceil(chunk_size));
        for chunk in batch.chunks(chunk_size) {
            rec.span("negative.corrupt", Some(root), u64::MAX, || {
                sampler.corrupt_batch_into(
                    chunk.iter().map(|&i| triples[i as usize]),
                    store,
                    cfg.negatives,
                    &mut rng,
                    &mut pairs,
                )
            });
            let (_, g) = rec.span("kernels.fused_grads", Some(root), u64::MAX, || {
                fused_chunk_grads(model, &mut scratch, &pairs, cfg.margin)
            });
            grads.push(g);
        }
        let (_, merged) = rec.span("kernels.merge", Some(root), u64::MAX, || {
            grads
                .into_iter()
                .fold(ChunkGrads::empty(), ChunkGrads::merge)
        });
        violations += merged.violations;
        n_pairs += merged.pairs;
    }
    rec.close(root);
    let total_ns = |name: &str| -> f64 {
        rec.spans()
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64)
            .sum()
    };
    let per_pair = |name: &str| total_ns(name) / n_pairs.max(1) as f64;
    Replay {
        corrupt_ns_per_pair: per_pair("negative.corrupt"),
        fused_ns_per_pair: per_pair("kernels.fused_grads"),
        merge_ns_per_pair: per_pair("kernels.merge"),
        violation_rate: violations as f64 / n_pairs.max(1) as f64,
        total_s: total_ns("replay.epoch") / 1e9,
    }
}
