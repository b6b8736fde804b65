//! `pkgm` — command-line interface for the PKGM reproduction.
//!
//! Catalogs are regenerated deterministically from `--preset` + `--seed`, so
//! a saved service snapshot plus those two flags fully reproduce a session.
//!
//! ```text
//! pkgm stats      --preset small --seed 42
//! pkgm generate   --preset small --seed 42 --out kg.tsv
//! pkgm train      --preset small --seed 42 --dim 32 --epochs 8 --k 10 --out svc.bin
//!                 [--ooc-dir d]   # crash-safe: rerun the same command to resume
//!                 [--telemetry t.jsonl]
//! pkgm train      --preset small --mem-budget 1000000 --out svc.bin
//!                 [--ooc-dir d] [--snapshot-out base]   # out-of-core blocks
//! pkgm train      --synthetic 2000000 --entities 1000000 --mem-budget 50000000 \
//!                 --ooc-dir d [--report-out r.json]     # streamed, no catalog
//! pkgm serve      --preset small --seed 42 --service svc.bin --item 0
//! pkgm snapshot   --service svc.bin --out serving.snap [--shards 4] [--quantize true]
//! pkgm snapshot   --synthetic 10000000 --dim 16 --seed 42 \
//!                 --shards 8 --out big.snap         # streamed, O(1) memory
//! pkgm eval      --preset small --seed 42 --service svc.bin --max-facts 300
//! pkgm faultcheck [--dir scratch] [--seed 42]
//! pkgm netcheck   [--seed 42]                             # network chaos battery
//! pkgm daemon serve  --snapshot s.snap [--addr 127.0.0.1:7071]   # serves the file alone
//!                    [--max-conns 1024] [--stall-timeout-ms 2000]
//! pkgm daemon serve  --service svc.bin …   # builds the snapshot once, drops the model
//! pkgm daemon reload --addr HOST:PORT --snapshot s.snap   # hot-swap, daemon-local path
//! pkgm daemon lookup --addr HOST:PORT --items 0,1,2       # rows as bit patterns (CI diff)
//! pkgm daemon stats  --addr HOST:PORT
//! pkgm daemon health --addr HOST:PORT                     # liveness + restart counters
//! pkgm daemon ready  --addr HOST:PORT                     # readiness gates, exit 1 if not
//! pkgm daemon stop   --addr HOST:PORT
//! pkgm router route  --addrs a:1,b:2 --items 0,1,2   # split/merge, bit-identical
//! pkgm router map    --addrs a:1,b:2                 # assembled shard topology
//! pkgm router supervise --snapshot base [--items 0,1]
//! ```
//!
//! All artifacts are written atomically (temp file + fsync + rename) and
//! CRC32-checksummed: models, services and out-of-core training state
//! inside the `PKGMAF1` container, serving snapshots as `PKGMSS3` files.
//! Loads of corrupt, truncated or unframed files fail with typed errors.

mod args;

use args::Args;
use pkgm_core::{
    eval, fault, obs, serialize, Daemon, DaemonClient, DaemonConfig, KnowledgeService, OocConfig,
    OocReport, OocTrainer, PkgmConfig, PkgmModel, RetryPolicy, ServiceSnapshot, ShardRouter, StdIo,
    Supervisor, SyntheticTriples, TrainConfig, TrainRecord, Trainer, TripleSource,
};
use pkgm_store::{EntityId, KgStats};
use pkgm_synth::{Catalog, CatalogConfig};
use std::path::PathBuf;

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.is_empty() || argv[0] == "help" || argv[0] == "--help" {
        print_help();
        return;
    }
    match run(argv) {
        Ok(()) => {}
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!();
            print_help();
            std::process::exit(2);
        }
    }
}

fn run(argv: Vec<String>) -> Result<(), Box<dyn std::error::Error>> {
    // `daemon` alone takes an action positional before its flags:
    // `pkgm daemon [serve|reload|stats|stop] --flag value …`.
    if argv.first().map(String::as_str) == Some("daemon") {
        return daemon_cmd(argv);
    }
    // `router` follows the same action-positional shape:
    // `pkgm router [route|map|supervise] --flag value …`.
    if argv.first().map(String::as_str) == Some("router") {
        return router_cmd(argv);
    }
    let args = Args::parse(argv)?;
    match args.command.as_str() {
        "stats" => stats(&args),
        "generate" => generate(&args),
        // `train` is the primary name; `pretrain` stays as an alias.
        "train" | "pretrain" => pretrain(&args),
        "serve" => serve(&args),
        "snapshot" => snapshot(&args),
        "eval" => evaluate(&args),
        "faultcheck" => faultcheck(&args),
        "netcheck" => netcheck(&args),
        "simd" => simd_info(),
        other => Err(format!("unknown subcommand: {other}").into()),
    }
}

/// Print the kernel dispatch report (the same line the daemon and the
/// benches log, and CI's `simd-smoke` job asserts on).
fn simd_info() -> Result<(), Box<dyn std::error::Error>> {
    println!("{}", pkgm_core::simd::describe());
    Ok(())
}

fn daemon_cmd(argv: Vec<String>) -> Result<(), Box<dyn std::error::Error>> {
    let (action, rest) = match argv.get(1) {
        Some(tok) if !tok.starts_with("--") => (tok.clone(), argv[2..].to_vec()),
        _ => ("serve".to_string(), argv[1..].to_vec()),
    };
    let args = Args::parse(std::iter::once(format!("daemon-{action}")).chain(rest))?;
    match action.as_str() {
        "serve" => daemon_serve(&args),
        "reload" => daemon_reload(&args),
        "lookup" => daemon_lookup(&args),
        "stats" => daemon_stats(&args),
        "health" => daemon_health(&args),
        "ready" => daemon_ready(&args),
        "stop" => daemon_stop(&args),
        other => Err(format!(
            "unknown daemon action: {other} (serve|reload|lookup|stats|health|ready|stop)"
        )
        .into()),
    }
}

/// A daemon serves one snapshot: `--snapshot FILE` as it is (a given
/// `--service` is not read), else the table built once from `--service`,
/// whose model is dropped before the daemon starts.
fn daemon_serve(args: &Args) -> Result<(), Box<dyn std::error::Error>> {
    let addr = args.get("addr").unwrap_or("127.0.0.1:7071");
    let (snap, source) = match args.get("snapshot") {
        Some(path) => (
            serialize::open_snapshot_file(std::path::Path::new(path))?,
            path.to_string(),
        ),
        None => {
            let path = args.require("service")?;
            let built = ServiceSnapshot::build(&load_service(args)?);
            (built, format!("built from {path}"))
        }
    };
    let shard = snap.shard();
    let shard_note = if shard.is_whole_table() {
        String::new()
    } else {
        format!(
            ", shard {} of {} covering ids {}..{}",
            shard.shard_id,
            shard.n_shards,
            shard.row_start,
            shard.row_start + snap.n_rows() as u64
        )
    };
    eprintln!(
        "[pkgm] snapshot {source}: {} rows × {} dims, backing {}{shard_note}",
        snap.n_rows(),
        2 * snap.dim(),
        snap.backing().label()
    );
    let defaults = DaemonConfig::default();
    let cfg = DaemonConfig {
        workers: args.get_or("workers", defaults.workers)?,
        max_batch_items: args.get_or("max-batch-items", defaults.max_batch_items)?,
        queue_capacity: args.get_or("queue-capacity", defaults.queue_capacity)?,
        cache_capacity: args.get_or("cache-capacity", defaults.cache_capacity)?,
        max_conns: args.get_or("max-conns", defaults.max_conns)?,
        stall_timeout: std::time::Duration::from_millis(args.get_or(
            "stall-timeout-ms",
            defaults.stall_timeout.as_millis() as u64,
        )?),
    };
    eprintln!("[pkgm] {}", pkgm_core::simd::describe());
    let daemon = Daemon::start(addr, snap, cfg.clone())?;
    let local = daemon.local_addr();
    // Scripts and CI start the daemon with `--addr 127.0.0.1:0` and read
    // the resolved ephemeral address back from this file.
    if let Some(path) = args.get("addr-file") {
        std::fs::write(path, local.to_string())?;
    }
    eprintln!(
        "[pkgm] daemon listening on {local} ({} workers, batch ≤ {}, queue ≤ {}); \
         stop with `pkgm daemon stop --addr {local}`",
        cfg.workers, cfg.max_batch_items, cfg.queue_capacity
    );
    daemon.wait();
    eprintln!("[pkgm] daemon stopped");
    Ok(())
}

fn daemon_client(args: &Args) -> Result<DaemonClient, Box<dyn std::error::Error>> {
    Ok(DaemonClient::connect(args.require("addr")?)?)
}

fn daemon_reload(args: &Args) -> Result<(), Box<dyn std::error::Error>> {
    let snapshot = args.require("snapshot")?;
    let summary = daemon_client(args)?.reload(snapshot)?;
    println!("{}", serde_json::to_string_pretty(&summary)?);
    Ok(())
}

/// Look up items over the wire and print their rows as deterministic JSON:
/// each float as its IEEE-754 bit pattern (u32), so two daemons serving the
/// same table produce byte-identical output — the CI bit-exactness gate
/// diffs this directly.
fn daemon_lookup(args: &Args) -> Result<(), Box<dyn std::error::Error>> {
    let items = parse_items(args.require("items")?)?;
    let rows = daemon_client(args)?.lookup(&items)?;
    println!("{}", serde_json::to_string(&rows_bits_json(&items, &rows))?);
    Ok(())
}

/// A comma-separated `--items` list as ids.
fn parse_items(spec: &str) -> Result<Vec<u32>, Box<dyn std::error::Error>> {
    let items: Vec<u32> = spec
        .split(',')
        .map(|t| {
            t.trim()
                .parse::<u32>()
                .map_err(|_| format!("bad item id: {t}"))
        })
        .collect::<Result<_, _>>()?;
    if items.is_empty() {
        return Err("--items must name at least one id".into());
    }
    Ok(items)
}

/// Rows as IEEE-754 bit patterns in the `daemon lookup` JSON shape — the
/// router's output must diff byte-identical against a whole-table daemon's.
fn rows_bits_json(items: &[u32], rows: &[Vec<f32>]) -> serde_json::Value {
    let rows_bits: Vec<Vec<u32>> = rows
        .iter()
        .map(|r| r.iter().map(|x| x.to_bits()).collect())
        .collect();
    serde_json::json!({
        "items": items,
        "row_len": rows.first().map(Vec::len).unwrap_or(0),
        "rows_bits": rows_bits,
    })
}

fn daemon_stats(args: &Args) -> Result<(), Box<dyn std::error::Error>> {
    let stats = daemon_client(args)?.stats()?;
    println!("{}", serde_json::to_string_pretty(&stats)?);
    Ok(())
}

fn daemon_health(args: &Args) -> Result<(), Box<dyn std::error::Error>> {
    let health = daemon_client(args)?.health()?;
    println!("{}", serde_json::to_string_pretty(&health)?);
    Ok(())
}

fn daemon_ready(args: &Args) -> Result<(), Box<dyn std::error::Error>> {
    let ready = daemon_client(args)?.ready_json()?;
    println!("{}", serde_json::to_string_pretty(&ready)?);
    if ready.get("ready").and_then(serde_json::Value::as_bool) != Some(true) {
        // Exit nonzero without usage noise: readiness probes gate on codes.
        std::process::exit(1);
    }
    Ok(())
}

fn daemon_stop(args: &Args) -> Result<(), Box<dyn std::error::Error>> {
    daemon_client(args)?.shutdown()?;
    println!("daemon at {} stopped", args.require("addr")?);
    Ok(())
}

fn router_cmd(argv: Vec<String>) -> Result<(), Box<dyn std::error::Error>> {
    let (action, rest) = match argv.get(1) {
        Some(tok) if !tok.starts_with("--") => (tok.clone(), argv[2..].to_vec()),
        _ => ("route".to_string(), argv[1..].to_vec()),
    };
    let args = Args::parse(std::iter::once(format!("router-{action}")).chain(rest))?;
    match action.as_str() {
        "route" => router_route(&args),
        "map" => router_map(&args),
        "supervise" => router_supervise(&args),
        other => Err(format!("unknown router action: {other} (route|map|supervise)").into()),
    }
}

/// The comma-separated `--addrs` list of shard-daemon addresses.
fn router_addrs(args: &Args) -> Result<Vec<String>, Box<dyn std::error::Error>> {
    let addrs: Vec<String> = args
        .require("addrs")?
        .split(',')
        .map(|a| a.trim().to_string())
        .filter(|a| !a.is_empty())
        .collect();
    if addrs.is_empty() {
        return Err("--addrs must name at least one daemon".into());
    }
    Ok(addrs)
}

fn connect_router(
    addrs: &[String],
    args: &Args,
) -> Result<ShardRouter, Box<dyn std::error::Error>> {
    let mut router = ShardRouter::connect(addrs, RetryPolicy::default())?;
    router.max_redirects = args.get_or("max-redirects", router.max_redirects)?;
    Ok(router)
}

/// Route one batch lookup across the shard fleet and print it in the exact
/// `daemon lookup` JSON shape — CI diffs the two outputs for bit-identity.
fn router_route(args: &Args) -> Result<(), Box<dyn std::error::Error>> {
    let addrs = router_addrs(args)?;
    let items = parse_items(args.require("items")?)?;
    let mut router = connect_router(&addrs, args)?;
    eprintln!(
        "[pkgm] router: {} shard(s) mapping {} rows",
        router.map().n_shards(),
        router.map().total_rows()
    );
    let rows = router.lookup(&items)?;
    println!("{}", serde_json::to_string(&rows_bits_json(&items, &rows))?);
    let stats = router.stats();
    eprintln!(
        "[pkgm] routed as {} sub-lookup(s), {} redirect(s), {} map load(s), \
         {} retries, {} give-ups",
        stats.sub_lookups, stats.redirects, stats.map_loads, stats.retries, stats.give_ups
    );
    Ok(())
}

/// Print the assembled shard topology as JSON.
fn router_map(args: &Args) -> Result<(), Box<dyn std::error::Error>> {
    let addrs = router_addrs(args)?;
    let router = connect_router(&addrs, args)?;
    let map = router.map();
    let shards: Vec<serde_json::Value> = map
        .entries()
        .iter()
        .map(|e| {
            serde_json::json!({
                "shard_id": e.shard_id,
                "addr": e.addr,
                "row_start": e.row_start,
                "rows": e.n_rows,
            })
        })
        .collect();
    let out = serde_json::json!({
        "n_shards": map.n_shards(),
        "total_rows": map.total_rows(),
        "shards": shards,
    });
    println!("{}", serde_json::to_string_pretty(&out)?);
    Ok(())
}

/// Spawn one `pkgm daemon serve` per discovered `base.shard{K}of{N}` file
/// and gate on every daemon's readiness probe. With `--items`, route one
/// batch through the fleet, print it in `daemon lookup` shape, and tear the
/// fleet down (the self-contained CI smoke); otherwise supervise until
/// stdin closes.
fn router_supervise(args: &Args) -> Result<(), Box<dyn std::error::Error>> {
    let base = PathBuf::from(args.require("snapshot")?);
    let shard_files = pkgm_core::router::discover_shard_files(&base)?;
    eprintln!(
        "[pkgm] supervisor: spawning {} shard daemon(s)…",
        shard_files.len()
    );
    let exe = std::env::current_exe()?;
    let fleet = Supervisor::spawn(&exe, &shard_files)?;
    let addrs = fleet.addrs();
    for (d, addr) in fleet.daemons().iter().zip(&addrs) {
        eprintln!("[pkgm]   {} → {addr}", d.snapshot.display());
    }
    if let Some(path) = args.get("addrs-out") {
        std::fs::write(path, addrs.join(",") + "\n")?;
    }
    match args.get("items") {
        Some(spec) => {
            let items = parse_items(spec)?;
            let mut router = connect_router(&addrs, args)?;
            let rows = router.lookup(&items)?;
            println!("{}", serde_json::to_string(&rows_bits_json(&items, &rows))?);
            fleet.shutdown()?;
        }
        None => {
            eprintln!("[pkgm] fleet ready; supervising until stdin closes…");
            let _ = std::io::read_to_string(std::io::stdin());
            fleet.shutdown()?;
            eprintln!("[pkgm] fleet stopped");
        }
    }
    Ok(())
}

fn catalog_from(args: &Args) -> Result<Catalog, Box<dyn std::error::Error>> {
    let seed: u64 = args.get_or("seed", 42)?;
    let preset = args.get("preset").unwrap_or("small");
    let cfg = match preset {
        "tiny" => CatalogConfig::tiny(seed),
        "small" => CatalogConfig::small(seed),
        "bench" => CatalogConfig::bench(seed),
        other => return Err(format!("unknown preset: {other} (tiny|small|bench)").into()),
    };
    eprintln!(
        "[pkgm] generating catalog preset={preset} seed={seed} ({} items)…",
        cfg.n_items()
    );
    Ok(Catalog::generate(&cfg))
}

fn stats(args: &Args) -> Result<(), Box<dyn std::error::Error>> {
    let catalog = catalog_from(args)?;
    let stats = KgStats::of(&catalog.store);
    println!("| | # items | # entity | # relation | # Triples |");
    println!("|---|---|---|---|---|");
    println!("{}", stats.table_row("catalog"));
    println!(
        "\nheld-out (true but missing) facts: {}",
        catalog.heldout.len()
    );
    println!("categories: {}", catalog.n_categories);
    Ok(())
}

fn generate(args: &Args) -> Result<(), Box<dyn std::error::Error>> {
    let catalog = catalog_from(args)?;
    let out = args.require("out")?;
    let file = std::io::BufWriter::new(std::fs::File::create(out)?);
    pkgm_store::io::write_tsv(&catalog.store, &catalog.entities, &catalog.relations, file)?;
    println!("wrote {} triples to {out}", catalog.store.len());
    if let Some(meta) = args.get("items-out") {
        let items: Vec<serde_json::Value> = catalog
            .items
            .iter()
            .map(|m| {
                serde_json::json!({
                    "entity": m.entity.0,
                    "category": m.category,
                    "product": m.product,
                    "title": m.title.join(" "),
                })
            })
            .collect();
        std::fs::write(meta, serde_json::to_string_pretty(&items)?)?;
        println!("wrote {} item records to {meta}", items.len());
    }
    Ok(())
}

fn pretrain(args: &Args) -> Result<(), Box<dyn std::error::Error>> {
    // The resident checkpoint flags are gone; a script still passing one
    // must not train without the crash safety it asked for.
    for flag in ["checkpoint-dir", "checkpoint-every", "keep-last", "resume"] {
        if args.get(flag).is_some() {
            return Err(format!(
                "--{flag} was removed: pass --ooc-dir DIR to train crash-safe \
                 (rerunning the same command resumes from DIR)"
            )
            .into());
        }
    }
    // `--ooc-dir` trains crash-safe through the out-of-core trainer, and
    // `--mem-budget BYTES` pages the embedding table under the budget (at
    // most two partitions per block).
    if ["ooc-dir", "mem-budget", "synthetic"]
        .iter()
        .any(|flag| args.get(flag).is_some())
    {
        return ooc_pretrain(args);
    }
    let catalog = catalog_from(args)?;
    let dim: usize = args.get_or("dim", 32)?;
    let epochs: usize = args.get_or("epochs", 8)?;
    let k: usize = args.get_or("k", 10)?;
    let out = args.require("out")?;
    let seed: u64 = args.get_or("seed", 42)?;
    let mut model = PkgmModel::new(
        catalog.store.n_entities() as usize,
        catalog.store.n_relations() as usize,
        PkgmConfig::new(dim).with_seed(seed),
    );
    let cfg = train_config(args, epochs, seed)?;
    eprintln!(
        "[pkgm] pre-training d={dim} epochs={epochs} lr={} margin={}…",
        cfg.lr, cfg.margin
    );
    let mut trainer = Trainer::new(&model, cfg);
    if args.get("telemetry").is_some() {
        trainer.record_telemetry();
    }
    let report = trainer.train(&mut model, &catalog.store);
    write_telemetry(args, &trainer.take_records())?;
    for (i, e) in report.epochs.iter().enumerate() {
        eprintln!(
            "[pkgm] epoch {}: mean loss {:.4}, violations {:.1}%",
            i + 1,
            e.mean_loss,
            e.violation_rate * 100.0
        );
    }
    if let Some(why) = &report.halted {
        // The guard tripped: refuse to write a garbage service.
        return Err(format!("training halted without writing {out}: {why}").into());
    }
    write_service(
        out,
        KnowledgeService::new(model, catalog.key_relation_selector(k)),
        report.wall_secs,
    )
}

/// `records` as JSONL into `--telemetry FILE`, when the flag is given.
fn write_telemetry(args: &Args, records: &[TrainRecord]) -> Result<(), Box<dyn std::error::Error>> {
    if let Some(path) = args.get("telemetry") {
        std::fs::write(path, obs::to_jsonl(records))?;
        eprintln!(
            "[pkgm] wrote {} telemetry record(s) to {path}",
            records.len()
        );
    }
    Ok(())
}

/// The training hyper-parameters the command line sets.
fn train_config(
    args: &Args,
    epochs: usize,
    seed: u64,
) -> Result<TrainConfig, Box<dyn std::error::Error>> {
    Ok(TrainConfig {
        epochs,
        lr: args.get_or("lr", 5e-3)?,
        margin: args.get_or("margin", 4.0)?,
        seed,
        parallel: args.get_or("parallel", true)?,
        // Serial and parallel runs of the same chunk layout are
        // bit-identical; `--chunk-size N` pins the layout (and with it the
        // corruption RNG streams) so runs reproduce across hosts with
        // different thread counts. Unset, the layout adapts to the batch
        // and thread count.
        chunk_size: args.get("chunk-size").map(str::parse).transpose()?,
        ..TrainConfig::default()
    })
}

/// Write `service` to `out` and report its size.
fn write_service(
    out: &str,
    service: KnowledgeService,
    wall_secs: f64,
) -> Result<(), Box<dyn std::error::Error>> {
    serialize::write_service_file(&StdIo, std::path::Path::new(out), &service)?;
    println!(
        "wrote service snapshot to {out} ({:.1} MiB, {wall_secs:.1}s)",
        std::fs::metadata(out)?.len() as f64 / (1024.0 * 1024.0),
    );
    Ok(())
}

/// Crash-safe pre-training through the out-of-core trainer (`train
/// --ooc-dir D`, `--mem-budget BYTES`): the embedding table lives in
/// entity-range partition files under `--ooc-dir`, with at most two
/// partitions resident per training block, and training commits to it as
/// it goes. Without `--mem-budget` the budget is the whole table: one
/// partition, bit-identical to the resident trainer, committing once per
/// epoch. Rerunning the same command after a kill resumes from the last
/// commit (its predecessor if that one fails its checks); `--epochs` is
/// the target, everything else comes from the manifest in `D`.
///
/// `--synthetic N` trains on N streamed deterministic triples over
/// `--entities`/`--relations` id spaces — no catalog, no service output;
/// this is the 1M+-entity regime the RSS-budget bench exercises.
fn ooc_pretrain(args: &Args) -> Result<(), Box<dyn std::error::Error>> {
    let mem_budget: Option<usize> = args
        .get("mem-budget")
        .map(|b| b.parse().map_err(|_| "bad value for --mem-budget (bytes)"))
        .transpose()?;
    let dim: usize = args.get_or("dim", 32)?;
    let epochs: usize = args.get_or("epochs", 8)?;
    let seed: u64 = args.get_or("seed", 42)?;
    let train = train_config(args, epochs, seed)?;
    let model_cfg = PkgmConfig::new(dim).with_seed(seed);

    if let Some(n_triples) = args.get("synthetic") {
        let source = SyntheticTriples {
            n_entities: args.get_or("entities", 100_000u32)?,
            n_relations: args.get_or("relations", 16u32)?,
            n_triples: n_triples
                .parse()
                .map_err(|_| format!("bad value for --synthetic: {n_triples}"))?,
            seed,
        };
        let dir = PathBuf::from(args.require("ooc-dir")?);
        let mut trainer = ooc_open(dir, model_cfg, train, mem_budget, &source)?;
        let report = run_ooc(args, &mut trainer, &source)?;
        if let Some(out) = args.get("report-out") {
            std::fs::write(out, serde_json::to_string_pretty(&report)?)?;
            eprintln!("[pkgm] wrote {out}");
        }
        return Ok(());
    }

    let catalog = catalog_from(args)?;
    let out = args.require("out")?;
    let dir = args
        .get("ooc-dir")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(format!("{out}.ooc")));
    let mut trainer = ooc_open(dir, model_cfg, train, mem_budget, &catalog.store)?;
    let report = run_ooc(args, &mut trainer, &catalog.store)?;
    if let Some(why) = &report.halted {
        // Never write a garbage service. The halted epoch committed
        // nothing: the last commit is the recovery point.
        return Err(format!(
            "training halted without writing {out}: {why} (last commit in {})",
            trainer.config().dir.display()
        )
        .into());
    }
    let k: usize = args.get_or("k", 10)?;
    let selector = catalog.key_relation_selector(k);
    if let Some(base) = args.get("snapshot-out") {
        // Streamed per-partition PKGMSS3 shards: the full table is never
        // resident, so this path works at any scale the training did.
        for p in trainer.write_snapshots(&selector, std::path::Path::new(base))? {
            println!("wrote PKGMSS3 shard {}", p.display());
        }
    }
    // The service file assembles the full table once — only useful for
    // catalogs that fit RAM, which is exactly where a resident service is
    // wanted (eval, the parity gates).
    let model = trainer.assemble_model()?;
    write_service(
        out,
        KnowledgeService::new(model, selector),
        report.wall_secs,
    )
}

/// Open out-of-core state in `dir`: resume the manifest if one exists (the
/// persisted config wins, bar the epoch target — bit-exact continuation),
/// else initialize fresh under `mem_budget`, by default the whole table.
fn ooc_open<S: TripleSource + ?Sized>(
    dir: PathBuf,
    model: PkgmConfig,
    train: TrainConfig,
    mem_budget: Option<usize>,
    source: &S,
) -> Result<OocTrainer, Box<dyn std::error::Error>> {
    // The manifest name is part of the on-disk contract (see `ooc`'s docs).
    if dir.join("ooc-manifest.pkgm").exists() {
        let mut trainer = OocTrainer::resume(&dir)?;
        for (path, why) in trainer.take_skipped() {
            eprintln!("[pkgm] warning: skipping commit {}: {why}", path.display());
        }
        eprintln!(
            "[pkgm] resuming out-of-core state in {} (its recorded config wins, \
             --epochs sets the target)",
            dir.display()
        );
        trainer.set_epochs(train.epochs);
        return Ok(trainer);
    }
    eprintln!(
        "[pkgm] no out-of-core state in {}: starting fresh",
        dir.display()
    );
    let table = source.n_entities() as usize * 3 * model.dim * 4;
    let cfg = OocConfig {
        model,
        train,
        mem_budget: mem_budget.unwrap_or(table),
        dir,
    };
    Ok(OocTrainer::new(source, cfg)?)
}

/// Run the out-of-core trainer to its epoch target, echoing per-epoch
/// stats (and writing `--telemetry`). A mid-epoch resume reports a partial
/// first entry covering only the blocks it ran.
fn run_ooc<S: TripleSource + ?Sized>(
    args: &Args,
    trainer: &mut OocTrainer,
    source: &S,
) -> Result<OocReport, Box<dyn std::error::Error>> {
    eprintln!(
        "[pkgm] out-of-core pre-training: {} partition(s) under {} B budget, epoch {} → {}…",
        trainer.n_partitions(),
        trainer.config().mem_budget,
        trainer.epochs_done(),
        trainer.config().train.epochs
    );
    let first = trainer.epochs_done();
    if args.get("telemetry").is_some() {
        trainer.record_telemetry();
    }
    let report = trainer.train(source)?;
    write_telemetry(args, &trainer.take_records())?;
    for (i, e) in report.epochs.iter().enumerate() {
        eprintln!(
            "[pkgm] epoch {}: mean loss {:.4}, violations {:.1}%",
            first + i + 1,
            e.mean_loss,
            e.violation_rate * 100.0
        );
    }
    eprintln!(
        "[pkgm] ran {} block(s) in {:.1}s",
        report.blocks, report.wall_secs
    );
    if let Some(why) = &report.halted {
        eprintln!("[pkgm] warning: training halted: {why}");
    }
    Ok(report)
}

fn load_service(args: &Args) -> Result<KnowledgeService, Box<dyn std::error::Error>> {
    let path = args.require("service")?;
    Ok(serialize::read_service_file(
        &StdIo,
        std::path::Path::new(path),
    )?)
}

fn serve(args: &Args) -> Result<(), Box<dyn std::error::Error>> {
    let catalog = catalog_from(args)?;
    let service = load_service(args)?;
    let item = EntityId(args.get_or("item", 0u32)?);
    // Degraded mode: an unknown item is served the documented fallback
    // instead of an error — a serving fleet must answer every query.
    let known = (item.0 as usize) < service.model().n_entities();
    match catalog.items.get(item.index()) {
        Some(meta) => println!(
            "item {} — category {} — title: {}",
            item,
            meta.category,
            meta.title.join(" ")
        ),
        None => eprintln!("[pkgm] warning: item {item} not in catalog — serving fallback"),
    }
    if known {
        println!("key relations (k = {}):", service.k());
        for &r in service.selector().for_item(item) {
            let rname = catalog.relations.name(r.0).unwrap_or("?");
            let preds = service.predict_tail(item, r, 3);
            let pred_names: Vec<String> = preds
                .iter()
                .map(|(e, d)| format!("{} ({d:.2})", catalog.entities.name(e.0).unwrap_or("?")))
                .collect();
            println!(
                "  {rname:<18} f_R = {:>7.3}  S_T top-3: {}",
                service.relation_exists_score(item, r),
                pred_names.join(", ")
            );
        }
    }
    let (condensed, source): (Vec<f32>, String) = match args.get("snapshot") {
        Some(path) => {
            // Announce the source before touching the file: a mapped open
            // is O(header), but even a slow resident load should not leave
            // the user staring at an unexplained stall.
            eprintln!("[pkgm] serving from snapshot {path}…");
            let snap = serialize::open_snapshot_file(std::path::Path::new(path))?;
            let shard = snap.shard();
            let detail = if shard.is_whole_table() {
                snap.backing().label().to_string()
            } else {
                format!(
                    "{}, shard {} of {} covering ids {}..{}",
                    snap.backing().label(),
                    shard.shard_id,
                    shard.n_shards,
                    shard.row_start,
                    shard.row_start + snap.n_rows() as u64
                )
            };
            eprintln!(
                "[pkgm] snapshot: {} rows × {} dims ({detail})",
                snap.n_rows(),
                2 * snap.dim()
            );
            let (row, degraded) = snap.condensed_or_fallback(item);
            if degraded {
                eprintln!(
                    "[pkgm] warning: item {item} outside snapshot coverage ({} rows) — \
                     serving mean-row fallback",
                    snap.n_rows()
                );
            }
            let source = if degraded {
                "snapshot fallback".to_string()
            } else if snap.is_quantized() {
                format!("quantized snapshot, {detail}")
            } else {
                format!("precomputed snapshot, {detail}")
            };
            (row.to_vec(), source)
        }
        None if known => (service.condensed_service(item), "live compute".to_string()),
        None => (vec![0.0; 2 * service.dim()], "zero fallback".to_string()),
    };
    println!(
        "condensed service ({source}): {} dims, ‖S‖₂ = {:.3}",
        condensed.len(),
        condensed.iter().map(|x| x * x).sum::<f32>().sqrt()
    );
    Ok(())
}

/// The on-disk path of shard `shard_id` of `n_shards` for base path `out`:
/// the base itself for a single shard, `{out}.shard{K}of{N}` otherwise.
fn shard_path(out: &str, shard_id: u32, n_shards: u32) -> String {
    if n_shards <= 1 {
        out.to_string()
    } else {
        format!("{out}.shard{shard_id}of{n_shards}")
    }
}

/// Where `pkgm snapshot` reads its rows.
enum RowSource {
    /// `--synthetic N`: rows regenerated from (seed, global id) on demand.
    Synthetic(pkgm_synth::StreamingRows),
    /// `--service`: the table built once from the service.
    Built(ServiceSnapshot),
}

impl RowSource {
    /// Write the rows of global ids `first..` into `buf` (whole rows).
    fn fill(&self, first: u64, buf: &mut [f32]) {
        match self {
            RowSource::Synthetic(rows) => {
                for (i, slot) in buf.chunks_exact_mut(rows.row_len()).enumerate() {
                    rows.row_into((first + i as u64) as u32, slot);
                }
            }
            RowSource::Built(snap) => {
                let table = snap.dense_table().expect("a built table is dense");
                let at = first as usize * 2 * snap.dim();
                buf.copy_from_slice(&table[at..at + buf.len()]);
            }
        }
    }
}

/// `pkgm snapshot`: write the condensed table as `--shards` PKGMSS3 files,
/// dense or `--quantize`d, streaming every shard through one writer loop.
/// With `--synthetic N` the rows are regenerated per chunk, so the table
/// is never resident at any size.
fn snapshot(args: &Args) -> Result<(), Box<dyn std::error::Error>> {
    let out = args.require("out")?;
    let quantize: bool = args.get_or("quantize", false)?;
    let n_shards: u32 = args.get_or("shards", 1u32)?;
    if n_shards == 0 {
        return Err("--shards must be >= 1".into());
    }
    let start = std::time::Instant::now();
    let (source, dim, k, n_rows) = match args.get("synthetic") {
        Some(n_items) => {
            let n_rows = n_items
                .parse()
                .map_err(|_| format!("bad value for --synthetic: {n_items}"))?;
            let dim = args.get_or("dim", 16)?;
            let rows = pkgm_synth::StreamingRows::new(args.get_or("seed", 42)?, dim);
            (
                RowSource::Synthetic(rows),
                dim,
                args.get_or("k", 0)?,
                n_rows,
            )
        }
        None => {
            let built = ServiceSnapshot::build(&load_service(args)?);
            let (dim, k, n_rows) = (built.dim(), built.k(), built.n_rows() as u64);
            (RowSource::Built(built), dim, k, n_rows)
        }
    };
    let row_len = 2 * dim;
    // Stream in ~4 MiB chunks: bounded memory at any table size.
    let chunk_rows = ((4 << 20) / (row_len * 4)).max(1);
    let mut buf = vec![0.0f32; chunk_rows * row_len];
    // Quantized table bytes written, for the size report.
    let mut stored_bytes = 0;
    let kind = if quantize {
        "quantized serving snapshot"
    } else {
        "serving snapshot"
    };
    for (spec, len) in pkgm_core::shard_ranges(n_rows, n_shards) {
        let path = shard_path(out, spec.shard_id, n_shards);
        let dest = std::path::Path::new(&path);
        let mut stream = |write: &mut dyn FnMut(&[f32]) -> std::io::Result<()>| {
            let mut written = 0u64;
            while written < len {
                let rows = &mut buf[..((len - written) as usize).min(chunk_rows) * row_len];
                source.fill(spec.row_start + written, rows);
                write(rows)?;
                written += (rows.len() / row_len) as u64;
            }
            std::io::Result::Ok(())
        };
        if quantize {
            let mut writer = pkgm_core::Ss3QuantWriter::create(dest, dim, k, len, spec)?;
            stream(&mut |rows| writer.write_rows(rows))?;
            // Escape rows come from the source again, verbatim.
            writer.finish(|local, slot| source.fill(spec.row_start + local, slot))?;
            stored_bytes += serialize::open_snapshot_file(dest)?.storage_bytes();
        } else {
            let mut writer = pkgm_core::Ss3DenseWriter::create(dest, dim, k, len, spec)?;
            stream(&mut |rows| writer.write_rows(rows))?;
            writer.finish()?;
        }
        let shard_note = if n_shards > 1 {
            format!(" shard {} of {n_shards}", spec.shard_id)
        } else {
            String::new()
        };
        println!(
            "wrote {kind}{shard_note} to {path}: {len} rows × {row_len} dims ({:.1} MiB)",
            std::fs::metadata(dest)?.len() as f64 / (1024.0 * 1024.0)
        );
    }
    println!(
        "wrote {n_rows} rows in {:.2}s",
        start.elapsed().as_secs_f64()
    );
    if quantize {
        let dense_bytes = n_rows as usize * row_len * 4;
        println!(
            "quantized table: {stored_bytes} bytes, {:.1}% of the dense table's {dense_bytes}",
            100.0 * stored_bytes as f64 / dense_bytes as f64
        );
    }
    Ok(())
}

fn faultcheck(args: &Args) -> Result<(), Box<dyn std::error::Error>> {
    let seed: u64 = args.get_or("seed", 42)?;
    let dir = match args.get("dir") {
        Some(d) => PathBuf::from(d),
        None => std::env::temp_dir().join(format!("pkgm-faultcheck-{}", std::process::id())),
    };
    eprintln!(
        "[pkgm] running fault-injection battery in {} (seed {seed})…",
        dir.display()
    );
    let report = fault::run_faultcheck(&dir, seed);
    for s in &report.scenarios {
        println!(
            "{} {:<36} {}",
            if s.passed { "PASS" } else { "FAIL" },
            s.name,
            s.detail
        );
    }
    let failed = report.scenarios.iter().filter(|s| !s.passed).count();
    if failed > 0 {
        // Not a usage error: report and exit nonzero without the help text.
        eprintln!(
            "faultcheck: {failed}/{} scenarios failed",
            report.scenarios.len()
        );
        std::process::exit(1);
    }
    println!(
        "faultcheck: all {} scenarios passed",
        report.scenarios.len()
    );
    Ok(())
}

fn netcheck(args: &Args) -> Result<(), Box<dyn std::error::Error>> {
    let seed: u64 = args.get_or("seed", 42)?;
    eprintln!("[pkgm] running network chaos battery (seed {seed})…");
    let report = pkgm_core::netcheck::run_netcheck(seed);
    for s in &report.scenarios {
        println!(
            "{} {:<36} {}",
            if s.passed { "PASS" } else { "FAIL" },
            s.name,
            s.detail
        );
    }
    let failed = report.scenarios.iter().filter(|s| !s.passed).count();
    if failed > 0 {
        // Not a usage error: report and exit nonzero without the help text.
        eprintln!(
            "netcheck: {failed}/{} scenarios failed (seed {seed})",
            report.scenarios.len()
        );
        std::process::exit(1);
    }
    println!("netcheck: all {} scenarios passed", report.scenarios.len());
    Ok(())
}

fn evaluate(args: &Args) -> Result<(), Box<dyn std::error::Error>> {
    let catalog = catalog_from(args)?;
    let service = load_service(args)?;
    let max_facts: usize = args.get_or("max-facts", 300)?;
    let test: Vec<_> = catalog.heldout.iter().copied().take(max_facts).collect();
    eprintln!("[pkgm] ranking {} held-out facts…", test.len());
    let report = eval::rank_tails(service.model(), &test, Some(&catalog.store), &[1, 3, 10])?;
    println!("completion of {} held-out facts:", report.n);
    println!("  MRR       {:.4}", report.mrr);
    println!("  mean rank {:.1}", report.mean_rank);
    for (k, h) in &report.hits {
        println!("  Hits@{k:<3}  {:.2}%", h * 100.0);
    }
    let mut rng = <rand::rngs::SmallRng as rand::SeedableRng>::seed_from_u64(7);
    let auc = eval::relation_existence_auc(service.model(), &catalog.store, 1000, &mut rng);
    println!("relation-existence AUC: {:.4}", auc.auc);
    Ok(())
}

fn print_help() {
    eprintln!(
        "pkgm — Pre-trained Knowledge Graph Model (ICDE 2021 reproduction)\n\n\
         USAGE: pkgm <command> [--flag value]…\n\n\
         COMMANDS\n\
         \u{20}  stats       --preset tiny|small|bench --seed N\n\
         \u{20}  generate    --preset P --seed N --out kg.tsv [--items-out items.json]\n\
         \u{20}  train       --preset P --seed N --dim 32 --epochs 8 --k 10 [--lr 0.005]\n\
         \u{20}              [--margin 4] --out service.bin (alias: pretrain)\n\
         \u{20}              [--ooc-dir D  # crash-safe: commit training state to D;\n\
         \u{20}              the same command after a kill resumes from the last\n\
         \u{20}              commit, to --epochs, with D's recorded config]\n\
         \u{20}              [--parallel false] [--chunk-size N  # pin the gradient\n\
         \u{20}              chunk layout for cross-host bit-reproducible runs]\n\
         \u{20}              [--telemetry t.jsonl  # one line per epoch (and per\n\
         \u{20}              out-of-core block): wall seconds per phase, loss]\n\
         \u{20}              [--mem-budget BYTES  # out-of-core: page the embedding\n\
         \u{20}              table in entity-range blocks under the budget (default\n\
         \u{20}              the whole table); state in --ooc-dir (default\n\
         \u{20}              {{out}}.ooc); --snapshot-out base streams per-partition\n\
         \u{20}              PKGMSS3 shards]\n\
         \u{20}              [--synthetic N --entities E --relations R --ooc-dir D\n\
         \u{20}              [--mem-budget B] [--report-out r.json]  # train on N\n\
         \u{20}              streamed deterministic triples, no catalog or service\n\
         \u{20}              output]\n\
         \u{20}  serve       --preset P --seed N --service service.bin --item 0\n\
         \u{20}              [--snapshot serving.snap  # dense or quantized]\n\
         \u{20}  snapshot    --service service.bin --out serving.snap — page-aligned\n\
         \u{20}              PKGMSS3, served memory-mapped and zero-copy\n\
         \u{20}              [--quantize true  # int8 blockwise table, ~¼ the bytes,\n\
         \u{20}              exact lookups] [--shards N  # entity-range shards, one\n\
         \u{20}              file each] [--synthetic N --dim 16 --seed 42  # stream N\n\
         \u{20}              deterministic rows with O(1) memory, no --service needed]\n\
         \u{20}  eval        --preset P --seed N --service service.bin [--max-facts 300]\n\
         \u{20}  faultcheck  [--dir scratch] [--seed 42] — crash/corruption recovery battery\n\
         \u{20}  netcheck    [--seed 42] — network chaos battery: a deterministic chaos\n\
         \u{20}              proxy drops/truncates/delays/corrupts/slowloris-writes frames\n\
         \u{20}              between a real client and daemon; asserts bit-exact successes,\n\
         \u{20}              typed failures, no double-execution, watchdog recovery\n\
         \u{20}  simd        — print the runtime kernel dispatch line (detected\n\
         \u{20}              AVX-512/AVX2 level; PKGM_FORCE_SCALAR=1 pins the scalar twins)\n\
         \u{20}  daemon      serve --snapshot serving.snap | --service service.bin\n\
         \u{20}              # serves exactly one snapshot: --snapshot as it is (a given\n\
         \u{20}              --service is accepted and not read), else the table built\n\
         \u{20}              once from --service, whose model is then dropped\n\
         \u{20}              [--addr 127.0.0.1:7071] [--workers 2] [--max-batch-items 1024]\n\
         \u{20}              [--queue-capacity 16384] [--cache-capacity 65536]\n\
         \u{20}              [--max-conns 1024  # shed connects past this with Overloaded]\n\
         \u{20}              [--stall-timeout-ms 2000  # watchdog wedge threshold]\n\
         \u{20}              [--addr-file f  # write the bound address, for --addr …:0]\n\
         \u{20}              — TCP serving daemon: CRC-framed binary protocol, dynamic\n\
         \u{20}              batching, deadline propagation, shed-not-stall admission\n\
         \u{20}              control, and a watchdog that restarts dead threads\n\
         \u{20}  daemon reload --addr HOST:PORT --snapshot path — hot-swap the serving\n\
         \u{20}              snapshot (daemon-local PKGMSS3 path) under live traffic,\n\
         \u{20}              memory-mapped (zero-copy, O(header) open)\n\
         \u{20}  daemon lookup --addr HOST:PORT --items 0,1,2 — rows as IEEE-754 bit\n\
         \u{20}              patterns in JSON (deterministic; CI diffs this for\n\
         \u{20}              bit-exactness across backings); off-shard ids fail typed\n\
         \u{20}  daemon stats --addr HOST:PORT — daemon counters as JSON\n\
         \u{20}  daemon health --addr HOST:PORT — liveness JSON (uptime, restarts)\n\
         \u{20}  daemon ready --addr HOST:PORT — readiness gates as JSON, exit 1 if not\n\
         \u{20}  daemon stop  --addr HOST:PORT — graceful shutdown\n\
         \u{20}  router route --addrs a:1,b:2,… --items 0,1,2 [--max-redirects 4]\n\
         \u{20}              — split a batch by entity range across shard daemons,\n\
         \u{20}              merge rows back into request order, follow WrongShard\n\
         \u{20}              redirects via map refresh; output is bit-identical to\n\
         \u{20}              `daemon lookup` against one whole-table daemon\n\
         \u{20}  router map  --addrs a:1,b:2,… — the assembled shard topology as JSON\n\
         \u{20}  router supervise --snapshot base [--items 0,1,2]\n\
         \u{20}              [--addrs-out f] — spawn one daemon per base.shardKofN\n\
         \u{20}              file, gate on readiness; with --items route one batch\n\
         \u{20}              and exit, else supervise until stdin closes\n"
    );
}
