//! Bit-identity across processes: the same bytes out of `pkgm` whatever
//! the SIMD level, the rayon thread count, the snapshot backing, the shard
//! count or the route a lookup takes. Each test runs the binary as a user
//! would and compares files or `daemon lookup` output byte for byte.
//!
//! Environment goes on each child: a native child drops
//! `PKGM_FORCE_SCALAR`, which the forced-scalar test leg sets for the whole
//! suite.

mod common;

use common::{assert_ok, at, files_in, json, num, pkgm, pkgm_ok, run, spawn_daemon, stop, tmpdir};
use std::path::{Path, PathBuf};
use std::process::Command;

/// `pkgm train` on the tiny preset, as `--seed S --dim D --epochs E --k 3`.
fn train(seed: &str, dim: &str, epochs: &str) -> Command {
    let mut cmd = pkgm();
    cmd.args(["train", "--preset", "tiny", "--seed", seed, "--dim", dim])
        .args(["--epochs", epochs, "--k", "3"]);
    cmd
}

/// A native child: runtime detection, whatever the suite's leg.
fn native(mut cmd: Command) -> Command {
    cmd.env_remove("PKGM_FORCE_SCALAR");
    cmd
}

fn forced_scalar(mut cmd: Command) -> Command {
    cmd.env("PKGM_FORCE_SCALAR", "1");
    cmd
}

/// `cmd` with the rayon pool at `threads`.
fn on_threads(mut cmd: Command, threads: usize) -> Command {
    cmd.env("RAYON_NUM_THREADS", threads.to_string());
    cmd
}

/// A service file trained at seed 11, `--dim 8 --epochs 2`.
fn service(dir: &Path) -> PathBuf {
    let svc = dir.join("svc.bin");
    run(train("11", "8", "2").arg("--out").arg(&svc));
    svc
}

/// `pkgm snapshot --service SVC --out OUT EXTRA…`.
fn snapshot(svc: &Path, out: &Path, extra: &[&str]) -> Command {
    let mut cmd = pkgm();
    cmd.args(["snapshot", "--service"])
        .arg(svc)
        .arg("--out")
        .arg(out)
        .args(extra);
    cmd
}

/// `base.shardKofN`.
fn shard(base: &Path, k: u32, n: u32) -> PathBuf {
    let mut name = base.as_os_str().to_owned();
    name.push(format!(".shard{k}of{n}"));
    name.into()
}

fn read(path: &Path) -> Vec<u8> {
    std::fs::read(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// `pkgm daemon serve --snapshot FILE` on an ephemeral port.
fn serve_snapshot(snapshot: &Path) -> (common::KillOnDrop, String) {
    let mut cmd = pkgm();
    cmd.args(["daemon", "serve", "--snapshot"]).arg(snapshot);
    let mut addr_file = snapshot.as_os_str().to_owned();
    addr_file.push(".addr");
    spawn_daemon(cmd, Path::new(&addr_file))
}

/// `pkgm daemon lookup` JSON: rows as IEEE-754 bit patterns.
fn lookup(addr: &str, items: &str) -> String {
    pkgm_ok(&["daemon", "lookup", "--addr", addr, "--items", items])
}

fn stats(addr: &str) -> serde_json::Value {
    json(&pkgm_ok(&["daemon", "stats", "--addr", addr]))
}

/// The level the host's CPU supports, read from `/proc/cpuinfo`'s flags
/// rather than from the dispatch code under test.
fn cpu_level() -> &'static str {
    let info = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let flags: Vec<&str> = (info.lines())
        .filter(|l| l.starts_with("flags"))
        .flat_map(|l| l.split_whitespace())
        .collect();
    let has = |f: &str| flags.contains(&f);
    match (has("avx2"), has("avx512f") && has("avx512bw")) {
        (true, true) => "avx512",
        (true, false) => "avx2",
        _ => "scalar",
    }
}

#[test]
fn dispatch_line_matches_the_host_cpu() {
    let line = run(native(pkgm()).arg("simd"));
    let want = format!("simd dispatch: {} (", cpu_level());
    assert!(line.starts_with(&want), "{line}");
    let line = run(forced_scalar(pkgm()).arg("simd"));
    assert!(line.starts_with("simd dispatch: scalar ("), "{line}");
}

#[test]
fn forced_scalar_and_native_training_write_identical_models() {
    // The trainer's gradient pass and Adam step are compiled once per SIMD
    // level; no level may change a trained bit.
    let dir = tmpdir("simd-train");
    let (a, b) = (dir.join("native.bin"), dir.join("scalar.bin"));
    run(native(train("11", "16", "2")).arg("--out").arg(&a));
    run(forced_scalar(train("11", "16", "2")).arg("--out").arg(&b));
    assert!(read(&a) == read(&b), "the SIMD level moved a trained bit");
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn forced_scalar_and_native_daemons_serve_identical_bytes() {
    let dir = tmpdir("simd-serve");
    let svc = service(&dir);
    let daemon = |mut cmd: Command, name: &str| {
        let log = std::fs::File::create(dir.join(format!("{name}.log"))).unwrap();
        cmd.args(["daemon", "serve", "--service"])
            .arg(&svc)
            .stderr(log);
        spawn_daemon(cmd, &dir.join(format!("{name}.addr")))
    };
    let (native_daemon, native_addr) = daemon(native(pkgm()), "native");
    let (scalar_daemon, scalar_addr) = daemon(forced_scalar(pkgm()), "scalar");
    // Each daemon logs its resolved dispatch level before it binds.
    let logged = |name: &str| std::fs::read_to_string(dir.join(format!("{name}.log"))).unwrap();
    let want = match cpu_level() {
        "scalar" => "simd dispatch: scalar (",
        _ => "simd dispatch: avx",
    };
    assert!(logged("native").contains(want), "{}", logged("native"));
    assert!(logged("scalar").contains("simd dispatch: scalar ("));
    // Lookup responses carry IEEE-754 bit patterns: equal output means the
    // dispatch level cannot change a served byte.
    let items = "0,1,2,3,4,5,6,7,8,9,10,11";
    assert_eq!(lookup(&native_addr, items), lookup(&scalar_addr, items));
    stop(native_daemon, &native_addr);
    stop(scalar_daemon, &scalar_addr);
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn snapshot_files_do_not_depend_on_the_thread_count() {
    // Table rows are built across the rayon pool; the bytes must not show
    // the thread count, dense or quantized and sharded.
    let dir = tmpdir("snap-threads");
    let svc = service(&dir);
    let out = |name: &str| dir.join(name);
    for t in [1, 3] {
        let dense = snapshot(&svc, &out(&format!("t{t}.snap")), &[]);
        run(&mut on_threads(dense, t));
        let quant = ["--quantize", "true", "--shards", "2"];
        run(&mut on_threads(
            snapshot(&svc, &out(&format!("q{t}.snap")), &quant),
            t,
        ));
    }
    assert!(read(&out("t1.snap")) == read(&out("t3.snap")));
    for k in 0..2 {
        let [q1, q3] = ["q1.snap", "q3.snap"].map(|q| read(&shard(&out(q), k, 2)));
        assert!(q1 == q3, "quantized shard {k} moved with the thread count");
    }
    // A synthetic table streams into its shards with no resident build.
    let syn = out("syn.snap");
    run(pkgm()
        .args(["snapshot", "--synthetic", "50000", "--shards", "4", "--out"])
        .arg(&syn));
    for k in 0..4 {
        assert!(shard(&syn, k, 4).is_file(), "shard {k} of 4");
    }
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn a_shard_daemon_serves_its_range_and_refuses_the_rest() {
    // Daemons started from a snapshot hold that snapshot alone: no
    // --service, no model.
    let dir = tmpdir("shard-serve");
    let svc = service(&dir);
    let (whole, sharded) = (dir.join("mapped.snap"), dir.join("sharded.snap"));
    run(&mut snapshot(&svc, &whole, &[]));
    run(&mut snapshot(&svc, &sharded, &["--shards", "2"]));
    let (whole_daemon, whole_addr) = serve_snapshot(&whole);
    let (shard_daemon, shard_addr) = serve_snapshot(&shard(&sharded, 1, 2));

    let whole_stats = stats(&whole_addr);
    assert_eq!(
        at(&whole_stats, "snapshot.backing").as_str(),
        Some("mapped")
    );
    assert_eq!(num(&whole_stats, "snapshot.shard.n_shards"), 1);
    let shard_stats = stats(&shard_addr);
    assert_eq!(
        at(&shard_stats, "snapshot.backing").as_str(),
        Some("mapped")
    );
    assert_eq!(num(&shard_stats, "snapshot.shard.n_shards"), 2);
    assert_eq!(num(&shard_stats, "snapshot.shard.shard_id"), 1);
    let start = num(&shard_stats, "snapshot.shard.row_start");
    let items = format!("{start},{},{}", start + 1, start + 2);
    assert_eq!(lookup(&shard_addr, &items), lookup(&whole_addr, &items));

    // Item 0 lives in shard 0: a typed wrong-shard error, not a wrong row
    // and not a hang.
    let out = (pkgm().args(["daemon", "lookup", "--addr", &shard_addr, "--items", "0"]))
        .output()
        .unwrap();
    assert!(!out.status.success(), "the shard answered an id it lacks");
    assert!(String::from_utf8_lossy(&out.stderr).contains("wrong shard"));
    stop(shard_daemon, &shard_addr);
    stop(whole_daemon, &whole_addr);
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn reloading_a_file_that_is_not_a_snapshot_is_refused_and_serving_is_unchanged() {
    let dir = tmpdir("bad-reload");
    let svc = service(&dir);
    let snap = dir.join("mapped.snap");
    run(&mut snapshot(&svc, &snap, &[]));
    let (daemon, addr) = serve_snapshot(&snap);
    let before = lookup(&addr, "0,1,2,3");
    // The service file is a framed service artifact, not a snapshot.
    let out = pkgm()
        .args(["daemon", "reload", "--addr", &addr, "--snapshot"])
        .arg(&svc)
        .output()
        .unwrap();
    assert!(
        !out.status.success(),
        "a reload of a service file succeeded"
    );
    assert!(String::from_utf8_lossy(&out.stderr).contains("not a PKGMSS3 snapshot"));
    assert_eq!(lookup(&addr, "0,1,2,3"), before);
    assert_eq!(num(&stats(&addr), "swaps"), 0);
    stop(daemon, &addr);
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn a_supervised_quantized_fleet_routes_byte_identical_to_one_daemon() {
    // The direct daemon serves the whole-table *quantized* snapshot:
    // quantization is row-local, so shard-local and whole-table quantized
    // tables hold the same bytes per row, and the comparison isolates the
    // router tier (split, per-shard round trips, merge).
    let dir = tmpdir("router-fleet");
    let svc = service(&dir);
    let (wholeq, table) = (dir.join("wholeq.snap"), dir.join("table.snap"));
    run(&mut snapshot(&svc, &wholeq, &["--quantize", "true"]));
    run(&mut snapshot(
        &svc,
        &table,
        &["--shards", "4", "--quantize", "true"],
    ));
    let (daemon, addr) = serve_snapshot(&wholeq);
    let rows = num(&stats(&addr), "snapshot.rows");
    // One id per shard quarter plus both table edges: every sub-batch and
    // every merge boundary.
    let items = [0, rows / 4, rows / 2, 3 * rows / 4, rows - 1].map(|i| i.to_string());
    let items = items.join(",");
    // Shard daemons are spawned with --snapshot only.
    let routed = run(pkgm()
        .args(["router", "supervise", "--snapshot"])
        .arg(&table)
        .args(["--items", &items]));
    assert_eq!(routed, lookup(&addr, &items));
    stop(daemon, &addr);
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn routed_lookups_over_started_shards_match_one_dense_daemon() {
    let dir = tmpdir("router-pair");
    let svc = service(&dir);
    let (whole, pair) = (dir.join("whole.snap"), dir.join("pair.snap"));
    run(&mut snapshot(&svc, &whole, &[]));
    run(&mut snapshot(&svc, &pair, &["--shards", "2"]));
    let (s0, s0_addr) = serve_snapshot(&shard(&pair, 0, 2));
    let (s1, s1_addr) = serve_snapshot(&shard(&pair, 1, 2));
    let (dense, dense_addr) = serve_snapshot(&whole);
    let addrs = format!("{s0_addr},{s1_addr}");

    let map = json(&pkgm_ok(&["router", "map", "--addrs", &addrs]));
    assert_eq!(num(&map, "n_shards"), 2);
    let shards = at(&map, "shards").as_array().unwrap();
    assert_eq!(shards.len(), 2);
    assert_eq!(num(&shards[0], "row_start"), 0);
    let rows = num(&map, "total_rows");
    let route = |items: &str| pkgm_ok(&["router", "route", "--addrs", &addrs, "--items", items]);
    let items = [0, rows / 2 - 1, rows / 2, rows - 1].map(|i| i.to_string());
    let items = items.join(",");
    assert_eq!(route(&items), lookup(&dense_addr, &items));
    // Every row, in large groups on both shards: the router writes both
    // sub-lookups before it reads either reply, then merges them.
    let all: Vec<String> = (0..rows).map(|i| i.to_string()).collect();
    let all = all.join(",");
    assert_eq!(route(&all), lookup(&dense_addr, &all));
    stop(s0, &s0_addr);
    stop(s1, &s1_addr);
    stop(dense, &dense_addr);
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn one_block_out_of_core_training_is_the_resident_bytes() {
    let dir = tmpdir("ooc-one-block");
    let out = |name: &str| dir.join(name);
    run(train("11", "16", "3").arg("--out").arg(out("resident.bin")));
    // A budget that holds the whole table: one partition, one block per
    // epoch. Without --mem-budget the budget is the whole table: the same
    // one block, committed per epoch.
    run(train("11", "16", "3")
        .args(["--mem-budget", "1000000000", "--ooc-dir"])
        .arg(out("one-block.ooc"))
        .arg("--out")
        .arg(out("ooc.bin")));
    run(train("11", "16", "3")
        .arg("--ooc-dir")
        .arg(out("no-budget.ooc"))
        .arg("--out")
        .arg(out("no-budget.bin")));
    let resident = read(&out("resident.bin"));
    assert!(read(&out("ooc.bin")) == resident);
    assert!(read(&out("no-budget.bin")) == resident);
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn paged_training_streams_shards_that_do_not_depend_on_the_thread_count() {
    let dir = tmpdir("ooc-threads");
    let out = |name: &str| dir.join(name);
    let paged = |name: &str| {
        let mut cmd = train("7", "16", "2");
        cmd.args(["--mem-budget", "8000", "--ooc-dir"])
            .arg(out(&format!("{name}.ooc")))
            .arg("--snapshot-out")
            .arg(out(&format!("{name}.snap")))
            .arg("--out")
            .arg(out(&format!("{name}.bin")));
        cmd
    };
    // A tight budget forces a block schedule and one streamed PKGMSS3
    // shard per partition.
    let said = run(&mut paged("blocked"));
    let n = said
        .lines()
        .filter(|l| l.starts_with("wrote PKGMSS3 shard"))
        .count() as u32;
    assert!(n >= 2, "{said}");
    for k in 0..n {
        assert!(
            shard(&out("blocked.snap"), k, n).is_file(),
            "shard {k} of {n}"
        );
    }
    assert!(out("blocked.bin").is_file());

    // --chunk-size pins the gradient chunk layout, which otherwise follows
    // the thread count by design; then no byte may show the thread count.
    for t in 1..=3 {
        let mut cmd = paged(&format!("threads{t}"));
        cmd.args(["--chunk-size", "64"]);
        run(&mut on_threads(cmd, t));
    }
    for t in 2..=3 {
        let name = format!("threads{t}");
        for k in 0..n {
            let [a, b] =
                ["threads1", &name].map(|m| read(&shard(&out(&format!("{m}.snap")), k, n)));
            assert!(a == b, "shard {k} at {t} threads");
        }
        assert!(read(&out("threads1.bin")) == read(&out(&format!("{name}.bin"))));
        assert!(files_in(&out("threads1.ooc")) == files_in(&out(&format!("{name}.ooc"))));
    }
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn resident_training_does_not_depend_on_the_thread_count() {
    // The Adam step runs as one contiguous id range per thread (three
    // threads cut every block unevenly); the model bytes must not show it.
    let dir = tmpdir("resident-threads");
    let bin = |t: usize| dir.join(format!("resident{t}.bin"));
    for t in 1..=3 {
        let mut cmd = train("7", "16", "2");
        cmd.args(["--chunk-size", "64", "--out"]).arg(bin(t));
        let out = on_threads(cmd, t).output().unwrap();
        assert_ok(&out);
    }
    assert!(read(&bin(1)) == read(&bin(2)));
    assert!(read(&bin(1)) == read(&bin(3)));
    std::fs::remove_dir_all(dir).ok();
}
