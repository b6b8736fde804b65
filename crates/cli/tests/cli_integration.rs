//! End-to-end tests of the `pkgm` binary: generate → pretrain → serve → eval.

mod common;

use common::{assert_ok, at, files_in, json, num, pkgm, pkgm_ok, run, spawn_daemon, stop, tmpdir};
use std::process::Command;

#[test]
fn help_prints_usage() {
    let out = pkgm().arg("help").output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stderr);
    assert!(text.contains("USAGE"));
    assert!(text.contains("pretrain"));
}

#[test]
fn unknown_subcommand_fails_with_help() {
    // The fault and chaos batteries are tests, not verbs.
    for verb in ["frobnicate", "faultcheck", "netcheck"] {
        let out = pkgm().arg(verb).output().unwrap();
        assert_eq!(out.status.code(), Some(2), "{verb}");
        assert!(String::from_utf8_lossy(&out.stderr).contains("unknown subcommand"));
    }
}

#[test]
fn stats_reports_counts() {
    let out = pkgm()
        .args(["stats", "--preset", "tiny", "--seed", "3"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("# Triples"));
    assert!(text.contains("held-out"));
}

#[test]
fn generate_writes_tsv_and_items_json() {
    let dir = tmpdir("gen");
    let kg = dir.join("kg.tsv");
    let items = dir.join("items.json");
    let out = pkgm()
        .args([
            "generate",
            "--preset",
            "tiny",
            "--seed",
            "4",
            "--out",
            kg.to_str().unwrap(),
            "--items-out",
            items.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let tsv = std::fs::read_to_string(&kg).unwrap();
    assert!(tsv.lines().count() > 100);
    assert!(tsv.lines().all(|l| l.split('\t').count() == 3));
    let parsed: serde_json::Value =
        serde_json::from_str(&std::fs::read_to_string(&items).unwrap()).unwrap();
    assert_eq!(parsed.as_array().unwrap().len(), 60); // tiny = 60 items
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn pretrain_serve_eval_roundtrip() {
    let dir = tmpdir("roundtrip");
    let svc = dir.join("svc.bin");
    let out = pkgm()
        .args([
            "pretrain",
            "--preset",
            "tiny",
            "--seed",
            "5",
            "--dim",
            "8",
            "--epochs",
            "2",
            "--k",
            "3",
            "--out",
            svc.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(svc.exists());

    let out = pkgm()
        .args([
            "serve",
            "--preset",
            "tiny",
            "--seed",
            "5",
            "--service",
            svc.to_str().unwrap(),
            "--item",
            "0",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("key relations (k = 3)"));
    assert!(text.contains("condensed service (live compute): 16 dims"));
    let live_norm = text
        .split("‖S‖₂ = ")
        .nth(1)
        .map(str::trim)
        .unwrap()
        .to_string();

    let snap = dir.join("serving.snap");
    let out = pkgm()
        .args([
            "snapshot",
            "--service",
            svc.to_str().unwrap(),
            "--out",
            snap.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(snap.exists());
    assert!(String::from_utf8_lossy(&out.stdout).contains("wrote serving snapshot"));

    let out = pkgm()
        .args([
            "serve",
            "--preset",
            "tiny",
            "--seed",
            "5",
            "--service",
            svc.to_str().unwrap(),
            "--item",
            "0",
            "--snapshot",
            snap.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("condensed service (precomputed snapshot, mapped): 16 dims"));
    let snap_norm = text.split("‖S‖₂ = ").nth(1).map(str::trim).unwrap();
    assert_eq!(snap_norm, live_norm, "snapshot must match live compute");

    let out = pkgm()
        .args([
            "eval",
            "--preset",
            "tiny",
            "--seed",
            "5",
            "--service",
            svc.to_str().unwrap(),
            "--max-facts",
            "50",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("MRR"));
    assert!(text.contains("relation-existence AUC"));
    std::fs::remove_dir_all(dir).ok();
}

fn train_tiny(seed: &str, epochs: &str) -> Command {
    let mut cmd = pkgm();
    cmd.args(["train", "--preset", "tiny", "--seed", seed, "--dim", "8"])
        .args(["--k", "3", "--epochs", epochs]);
    cmd
}

#[test]
fn checkpoint_resume_matches_straight_run() {
    let dir = tmpdir("ckpt-resume");
    // Straight 4-epoch run, resident.
    let svc_a = dir.join("a.bin");
    assert_ok(
        &train_tiny("6", "4")
            .arg("--out")
            .arg(&svc_a)
            .output()
            .unwrap(),
    );

    // 2 epochs committed to --ooc-dir, then the same directory to 4: the
    // command line's --epochs is the target.
    let svc_b = dir.join("b.bin");
    let ckpts = dir.join("ckpts");
    for epochs in ["2", "4"] {
        let out = train_tiny("6", epochs)
            .arg("--out")
            .arg(&svc_b)
            .arg("--ooc-dir")
            .arg(&ckpts)
            .output()
            .unwrap();
        assert_ok(&out);
        let resumed = String::from_utf8_lossy(&out.stderr).contains("resuming");
        assert_eq!(resumed, epochs == "4");
        // One partition: each epoch commits once.
        let committed = format!("ooc-resident.g0000{epochs}.pkgm");
        assert!(ckpts.join(committed).exists());
    }

    // Same artifact bytes: the resumed run is bit-for-bit the straight run.
    let a = std::fs::read(&svc_a).unwrap();
    let b = std::fs::read(&svc_b).unwrap();
    assert_eq!(a, b, "resumed service differs from straight run");
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn retired_checkpoint_flags_are_refused() {
    let dir = tmpdir("retired");
    let svc = dir.join("svc.bin");
    for flag in [
        "--checkpoint-dir",
        "--checkpoint-every",
        "--keep-last",
        "--resume",
    ] {
        let out = train_tiny("7", "1")
            .arg("--out")
            .arg(&svc)
            .args([flag, "1"])
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(2), "{flag}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains(flag) && err.contains("--ooc-dir"), "{err}");
        assert!(!svc.exists(), "{flag}: trained anyway");
    }
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn killed_after_a_commit_resumes_to_the_straight_bytes() {
    use std::os::unix::process::ExitStatusExt;
    let dir = tmpdir("kill");
    let tiny = ["--preset", "tiny", "--seed", "5", "--dim", "8", "--k", "3"];
    let tiny = [&tiny[..], &["--epochs", "300"]].concat();
    // A streamed source at 1/100 of the triples and entities of a
    // 4M-triple, 200k-entity run under an 8 MB budget: the same ten
    // partitions, so every epoch pages and commits at partition swaps.
    let synthetic = [
        "--synthetic",
        "40000",
        "--entities",
        "2000",
        "--dim",
        "16",
        "--epochs",
        "10",
        "--mem-budget",
        "80000",
    ];
    // One partition (a commit per epoch), a paging budget (commits at
    // partition swaps), and the streamed source.
    for (tag, args) in [
        ("p1", tiny.clone()),
        (
            "paged",
            [&tiny[..], &["--mem-budget", "8000", "--chunk-size", "64"]].concat(),
        ),
        ("synthetic", synthetic.to_vec()),
    ] {
        let run = |name: &str| {
            let mut cmd = pkgm();
            cmd.arg("train")
                .args(&args)
                .arg("--ooc-dir")
                .arg(dir.join(format!("{tag}-{name}.ooc")));
            match tag {
                "synthetic" => cmd.arg("--report-out"),
                _ => cmd.arg("--out"),
            };
            cmd.arg(dir.join(format!("{tag}-{name}.out")));
            cmd
        };
        assert_ok(&run("straight").output().unwrap());

        // Kill once a second commit has landed: `new`'s and one more.
        let ooc = dir.join(format!("{tag}-killed.ooc"));
        let mut child = run("killed")
            .stderr(std::process::Stdio::null())
            .spawn()
            .unwrap();
        let committed = || {
            let files = std::fs::read_dir(&ooc).into_iter().flatten();
            let names = files.map(|e| e.unwrap().file_name().to_string_lossy().into_owned());
            names.filter(|n| n.starts_with("ooc-resident.g")).count()
        };
        while committed() < 2 {
            assert!(child.try_wait().unwrap().is_none(), "{tag}: exited first");
            std::thread::sleep(std::time::Duration::from_micros(200));
        }
        child.kill().unwrap();
        let status = child.wait().unwrap();
        assert_eq!(
            status.signal(),
            Some(9),
            "{tag}: the run ended before the kill"
        );
        assert!(!dir.join(format!("{tag}-killed.out")).exists());

        let out = run("killed").output().unwrap();
        assert_ok(&out);
        assert!(String::from_utf8_lossy(&out.stderr).contains("resuming"));
        let read = |name: &str| std::fs::read(dir.join(format!("{tag}-{name}.out"))).unwrap();
        let (straight, resumed) = (read("straight"), read("killed"));
        if tag == "synthetic" {
            let report = json(&String::from_utf8(resumed).unwrap());
            assert_eq!(*at(&report, "halted"), serde_json::Value::Null);
            assert!(num(&report, "n_partitions") >= 2, "{report:?}");
        } else {
            assert!(straight == resumed, "{tag}: resumed service differs");
        }
        // The directories end the same, byte for byte.
        let files = |name: &str| files_in(&dir.join(format!("{tag}-{name}.ooc")));
        assert!(
            files("straight") == files("killed"),
            "{tag}: the files differ"
        );
    }
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn telemetry_writes_one_line_per_epoch_and_moves_no_model_byte() {
    let dir = tmpdir("telemetry");
    let (with, without, lines) = (dir.join("a.bin"), dir.join("b.bin"), dir.join("t.jsonl"));
    // With telemetry, committing to --ooc-dir at P = 1; without either,
    // resident: the same model bytes.
    let run = train_tiny("9", "3")
        .arg("--out")
        .arg(&with)
        .arg("--ooc-dir")
        .arg(dir.join("a.ooc"))
        .arg("--telemetry")
        .arg(&lines)
        .output()
        .unwrap();
    assert_ok(&run);
    assert_ok(
        &train_tiny("9", "3")
            .arg("--out")
            .arg(&without)
            .output()
            .unwrap(),
    );
    assert_eq!(
        std::fs::read(&with).unwrap(),
        std::fs::read(&without).unwrap(),
        "telemetry changed the trained model"
    );

    let text = std::fs::read_to_string(&lines).unwrap();
    let records: Vec<pkgm_core::TrainRecord> = text
        .lines()
        .map(|l| serde_json::from_str(l).expect("every line parses"))
        .collect();
    // One partition: each epoch is one block, then the epoch's line.
    assert_eq!(records.len(), 6, "{text}");
    let epochs: Vec<_> = records.iter().filter(|r| r.block.is_none()).collect();
    for (epoch, r) in epochs.iter().enumerate() {
        assert_eq!((r.epoch, r.block), (epoch, None), "{r:?}");
        assert_eq!(r.pairs, epochs[0].pairs);
        assert!(r.phases_s().iter().all(|&p| p >= 0.0), "{r:?}");
        assert!(r.commit_s > 0.0, "every epoch commits: {r:?}");
        assert!(r.write_s > 0.0 && r.write_bytes > 0, "{r:?}");
        let sum: f64 = r.phases_s().iter().sum();
        assert!(
            sum >= 0.95 * r.wall_s && sum <= r.wall_s,
            "phases cover {sum} of {} s",
            r.wall_s
        );
    }

    // Paging: one line per block, then one per epoch, and the epoch lines
    // carry the writer thread's busy seconds and bytes beside the phases.
    let ooc_lines = dir.join("ooc.jsonl");
    let run = train_tiny("9", "3")
        .args(["--mem-budget", "8000", "--chunk-size", "64", "--ooc-dir"])
        .arg(dir.join("t.ooc"))
        .args(["--out", dir.join("ooc.bin").to_str().unwrap()])
        .args(["--telemetry", ooc_lines.to_str().unwrap()])
        .output()
        .unwrap();
    assert_ok(&run);
    let text = std::fs::read_to_string(&ooc_lines).unwrap();
    let records: Vec<pkgm_core::TrainRecord> = text
        .lines()
        .map(|l| serde_json::from_str(l).expect("every line parses"))
        .collect();
    let epochs: Vec<_> = records.iter().filter(|r| r.block.is_none()).collect();
    assert_eq!(epochs.len(), 3, "one record per epoch:\n{text}");
    assert!(records.len() > 3 * 2, "block records too:\n{text}");
    for e in epochs {
        let blocks: Vec<_> = records
            .iter()
            .filter(|r| r.block.is_some() && r.epoch == e.epoch)
            .collect();
        let written: f64 = blocks.iter().map(|b| b.write_s).sum();
        assert!(e.write_s > written && written > 0.0, "{e:?}");
        // The epoch hands over its blocks' page-outs and commits, then
        // its closing commit.
        let handed: u64 = blocks.iter().map(|b| b.write_bytes).sum();
        assert!(e.write_bytes > handed && handed > 0, "{e:?}");
    }
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn resume_from_empty_dir_warns_and_starts_fresh() {
    let dir = tmpdir("ckpt-fresh");
    let svc = dir.join("svc.bin");
    let out = train_tiny("7", "1")
        .arg("--out")
        .arg(&svc)
        .arg("--ooc-dir")
        .arg(dir.join("nonexistent"))
        .output()
        .unwrap();
    assert_ok(&out);
    assert!(String::from_utf8_lossy(&out.stderr).contains("starting fresh"));
    assert!(svc.exists());
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn corrupt_service_file_is_a_typed_error_not_a_panic() {
    let dir = tmpdir("corrupt-svc");
    let svc = dir.join("svc.bin");
    std::fs::write(&svc, b"PKGMAF1\0garbage that is not a valid artifact").unwrap();
    let out = pkgm()
        .args([
            "serve",
            "--preset",
            "tiny",
            "--seed",
            "5",
            "--service",
            svc.to_str().unwrap(),
            "--item",
            "0",
        ])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("error:"), "stderr: {err}");
    assert!(!err.contains("panicked"), "loader panicked: {err}");
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn serve_degrades_gracefully_for_unknown_items() {
    let dir = tmpdir("degraded-serve");
    let svc = dir.join("svc.bin");
    let out = pkgm()
        .args([
            "train",
            "--preset",
            "tiny",
            "--seed",
            "5",
            "--dim",
            "8",
            "--epochs",
            "1",
            "--k",
            "3",
            "--out",
            svc.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(out.status.success());
    // An item id far beyond the catalog must be answered, not crash.
    let out = pkgm()
        .args([
            "serve",
            "--preset",
            "tiny",
            "--seed",
            "5",
            "--service",
            svc.to_str().unwrap(),
            "--item",
            "4000000000",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stderr).contains("serving fallback"));
    assert!(String::from_utf8_lossy(&out.stdout).contains("zero fallback"));
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn missing_required_flag_is_reported() {
    let out = pkgm()
        .args(["pretrain", "--preset", "tiny"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--out"));
}

#[test]
fn quantized_and_dense_snapshots_serve_through_the_cli() {
    let dir = tmpdir("quant_snap");
    let svc = dir.join("svc.bin");
    let out = pkgm()
        .args([
            "train",
            "--preset",
            "tiny",
            "--seed",
            "11",
            "--dim",
            "8",
            "--epochs",
            "2",
            "--k",
            "3",
            "--out",
            svc.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );

    // Dense and quantized PKGMSS3 snapshots of the same service.
    let dense = dir.join("dense.snap");
    let quant = dir.join("quant.snap");
    let out = pkgm()
        .args([
            "snapshot",
            "--service",
            svc.to_str().unwrap(),
            "--out",
            dense.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let out = pkgm()
        .args([
            "snapshot",
            "--service",
            svc.to_str().unwrap(),
            "--out",
            quant.to_str().unwrap(),
            "--quantize",
            "true",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("wrote quantized serving snapshot"));
    // The quantized table must be materially smaller. (Compared as stored
    // table bytes: PKGMSS3 pads each section to 4 KiB, so at this size the
    // files' lengths measure padding.)
    let line = text
        .lines()
        .find(|l| l.starts_with("quantized table: "))
        .expect("quantized table line");
    let numbers: Vec<u64> = line
        .split_whitespace()
        .filter_map(|w| w.parse().ok())
        .collect();
    let [quant_len, dense_len] = numbers[..] else {
        panic!("unexpected line: {line}")
    };
    assert!(
        quant_len * 10 < dense_len * 4,
        "quantized table {quant_len} B should be well under 40% of dense {dense_len} B"
    );

    let serve_norm = |snapshot: Option<&std::path::Path>| -> (String, String) {
        let mut args = vec![
            "serve".to_string(),
            "--preset".into(),
            "tiny".into(),
            "--seed".into(),
            "11".into(),
            "--service".into(),
            svc.to_str().unwrap().into(),
            "--item".into(),
            "0".into(),
        ];
        if let Some(p) = snapshot {
            args.push("--snapshot".into());
            args.push(p.to_str().unwrap().into());
        }
        let out = pkgm().args(&args).output().unwrap();
        assert!(
            out.status.success(),
            "stderr: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let text = String::from_utf8_lossy(&out.stdout).to_string();
        let norm = text.split("‖S‖₂ = ").nth(1).map(str::trim).unwrap();
        (text.clone(), norm.to_string())
    };

    let (live_text, live_norm) = serve_norm(None);
    assert!(live_text.contains("condensed service (live compute): 16 dims"));
    // Dense snapshots serve bit-identically.
    let (dense_text, dense_norm) = serve_norm(Some(&dense));
    assert!(dense_text.contains("condensed service (precomputed snapshot, mapped): 16 dims"));
    assert_eq!(dense_norm, live_norm, "dense snapshot must match live");
    // The quantized table serves within quantization tolerance and is
    // labeled as such.
    let (quant_text, quant_norm) = serve_norm(Some(&quant));
    assert!(quant_text.contains("condensed service (quantized snapshot, mapped): 16 dims"));
    let live: f64 = live_norm.parse().unwrap();
    let q: f64 = quant_norm.parse().unwrap();
    assert!(
        (live - q).abs() <= 0.05 * live.abs() + 0.05,
        "quantized norm {q} too far from live {live}"
    );
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn daemon_help_and_action_errors() {
    let out = pkgm().arg("help").output().unwrap();
    let text = String::from_utf8_lossy(&out.stderr);
    assert!(text.contains("daemon"));
    assert!(text.contains("hot-swap"));

    let out = pkgm().args(["daemon", "frobnicate"]).output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown daemon action"));

    // Client actions require --addr.
    let out = pkgm().args(["daemon", "stats"]).output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("missing required flag --addr"));

    // Serving requires a service artifact.
    let out = pkgm().args(["daemon", "serve"]).output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("missing required flag --service"));
}

#[test]
fn daemon_serve_reload_stats_stop_across_processes() {
    let dir = tmpdir("daemon-e2e");
    let svc = dir.join("svc.bin");
    run(train_tiny("8", "1").arg("--out").arg(&svc));
    let snap = dir.join("serving.snap");
    run(pkgm()
        .args(["snapshot", "--service"])
        .arg(&svc)
        .arg("--out")
        .arg(&snap));

    let mut built = pkgm();
    built.args(["daemon", "serve", "--service"]).arg(&svc);
    let (daemon, addr) = spawn_daemon(built, &dir.join("addr"));
    // A --snapshot daemon never opens --service: a path to no file is fine.
    let mut mapped = pkgm();
    mapped
        .args(["daemon", "serve", "--snapshot"])
        .arg(&snap)
        .arg("--service")
        .arg(dir.join("no-such-service.bin"));
    let (from_snap, snap_addr) = spawn_daemon(mapped, &dir.join("snap-addr"));

    // Liveness, readiness and a clean slate, read across processes;
    // `daemon ready` exits nonzero when the daemon is not ready.
    let health = json(&pkgm_ok(&["daemon", "health", "--addr", &addr]));
    assert_eq!(at(&health, "status").as_str(), Some("ok"));
    assert_eq!(num(&health, "worker_restarts"), 0);
    let ready = json(&pkgm_ok(&["daemon", "ready", "--addr", &addr]));
    assert_eq!(at(&ready, "ready").as_bool(), Some(true));
    assert_eq!(at(&ready, "batcher_accepting").as_bool(), Some(true));
    let stats = json(&pkgm_ok(&["daemon", "stats", "--addr", &addr]));
    assert_eq!(num(&stats, "conns_rejected"), 0);
    assert_eq!(num(&stats, "batch.expired_enqueue"), 0);
    assert_eq!(num(&stats, "swaps"), 0);

    // The table built from --service and the --snapshot file serve the same
    // bytes: items, a value entity (items are numbered first, so the last
    // row is one: an all-zero row, a miss) and an id past the table (an
    // all-zero row, degraded).
    let rows = num(&stats, "snapshot.rows");
    let items = format!("0,1,2,3,{},{}", rows - 1, rows + 5);
    let lookup = |addr: &str| pkgm_ok(&["daemon", "lookup", "--addr", addr, "--items", &items]);
    let served = lookup(&addr);
    assert_eq!(served, lookup(&snap_addr));
    let served = json(&served);
    let zero_rows = &at(&served, "rows_bits").as_array().unwrap()[4..];
    let bits = zero_rows.iter().flat_map(|r| r.as_array().unwrap());
    assert!(bits.map(|b| b.as_u64()).all(|b| b == Some(0)));
    let stats = json(&pkgm_ok(&["daemon", "stats", "--addr", &snap_addr]));
    assert_eq!(num(&stats, "cache.degraded"), 1);
    assert_eq!(num(&stats, "cache.misses"), 5);
    stop(from_snap, &snap_addr);

    let reload = pkgm_ok(&[
        "daemon",
        "reload",
        "--addr",
        &addr,
        "--snapshot",
        snap.to_str().unwrap(),
    ]);
    let reload = json(&reload);
    assert_eq!(num(&reload, "swaps"), 1);
    assert!(num(&reload, "snapshot.rows") >= 1);
    let stats = json(&pkgm_ok(&["daemon", "stats", "--addr", &addr]));
    assert_eq!(num(&stats, "swaps"), 1);
    stop(daemon, &addr);
    std::fs::remove_dir_all(dir).ok();
}
