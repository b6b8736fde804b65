//! The PKGM pipeline benchmark. Run from the repository root:
//!
//! ```text
//! benchmark --workload W [--seed 11] [--seconds 10] [--trace 0|1]   one workload, in this process
//! benchmark trace --workload W [--seed 11]                         the same as --trace 1
//! benchmark suite [--seed 11] [--seconds 10] [--trace 0|1] [--out F]  every workload, each in its own process
//! benchmark agree A.json B.json                                    B against A under the declared bounds
//! ```
//!
//! One workload run prints its metrics as a table on stderr and, as the
//! last line of stdout, one JSON object `{correct, attempted, failed,
//! metrics}`; see `README.md` beside this package.

mod agree;
mod keys;
mod layers;
mod linkpred;
mod pretrain;
mod report;
mod serve;
mod spec;
mod stats;
mod sys;
mod trace;
mod world;

use serde_json::{json, Value};
use spec::Spec;
use std::path::Path;
use std::process::{Command, Stdio};

/// What every workload is told.
pub struct RunArgs {
    pub seed: u64,
    /// Length of the timed phase.
    pub seconds: f64,
    /// Traced run: fixed-count, spans recorded, per-layer metrics out.
    pub trace: bool,
}

const DEFAULT_SEED: u64 = 11;

struct Cli {
    command: Option<String>,
    positional: Vec<String>,
    flags: Vec<(String, String)>,
}

impl Cli {
    fn parse(argv: &[String]) -> Result<Cli, String> {
        let mut cli = Cli {
            command: None,
            positional: Vec::new(),
            flags: Vec::new(),
        };
        let mut it = argv.iter();
        while let Some(arg) = it.next() {
            if let Some(name) = arg.strip_prefix("--") {
                let value = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
                cli.flags.push((name.to_string(), value.clone()));
            } else if cli.command.is_none() {
                cli.command = Some(arg.clone());
            } else {
                cli.positional.push(arg.clone());
            }
        }
        Ok(cli)
    }

    fn flag(&self, name: &str) -> Option<&str> {
        self.flags
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    fn number<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.flag(name) {
            Some(v) => v.parse().map_err(|_| format!("--{name} {v}: not a number")),
            None => Ok(default),
        }
    }
}

fn run_workload(spec: &Spec, workload: &str, args: &RunArgs) -> i32 {
    let outcome = match workload {
        "pretrain-resident" => pretrain::run(args, false),
        "pretrain-ooc" => pretrain::run(args, true),
        "serve-hot" => serve::run(args, serve::Kind::Hot),
        "serve-cold" => serve::run(args, serve::Kind::Cold),
        "serve-routed" => serve::run(args, serve::Kind::Routed),
        "linkpred-eval" => linkpred::run(args),
        other => Err(format!(
            "unknown workload {other}; BENCHMARK.json lists {:?}",
            spec.workloads
        )),
    };
    // The tables, models and partitions the workload wrote are inputs of
    // this run only; the records and span files beside them stay.
    for scratch in [workload, "tmp"] {
        let _ = std::fs::remove_dir_all(Path::new(sys::OUT_DIR).join(scratch));
    }
    match outcome {
        Ok(out) => report::emit(
            spec,
            workload,
            args.seed,
            args.trace,
            sys::env_stamp(args.seed, world::CALLERS),
            out,
        ),
        Err(e) => {
            eprintln!("{workload}: {e}");
            2
        }
    }
}

/// Run every workload, each in a child process of its own, and gather the
/// records they write into one result set.
fn run_suite(spec: &Spec, cli: &Cli, args: &RunArgs) -> Result<i32, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut results = Vec::new();
    let mut worst = 0;
    for workload in &spec.workloads {
        let status = Command::new(&exe)
            .args(["--workload", workload])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .stdout(Stdio::null())
            .status()
            .map_err(|e| format!("cannot start {workload}: {e}"))?;
        worst = worst.max(status.code().unwrap_or(2));
        let suffix = if args.trace { ".trace.json" } else { ".json" };
        let path = Path::new(sys::OUT_DIR).join(format!("{workload}{suffix}"));
        let record: Value = std::fs::read_to_string(&path)
            .map_err(|e| e.to_string())
            .and_then(|t| serde_json::from_str(&t).map_err(|e| e.to_string()))
            .map_err(|e| format!("{workload} left no record at {}: {e}", path.display()))?;
        results.push((workload.clone(), record));
    }

    println!("| workload | metric | value | unit | IQR | n |");
    println!("|---|---|---|---|---|---|");
    for (workload, record) in &results {
        let num = |v: &Value, k: &str| v.get(k).and_then(Value::as_f64).unwrap_or(0.0);
        for (name, m) in record
            .get("metrics")
            .and_then(Value::as_object)
            .into_iter()
            .flatten()
        {
            let unit = m.get("unit").and_then(Value::as_str).unwrap_or("");
            println!(
                "| {workload} | {name} | {:.6} | {unit} | {:.6} | {} |",
                num(m, "value"),
                num(m, "iqr"),
                num(m, "n")
            );
        }
        for (name, v) in record
            .get("extras")
            .and_then(Value::as_object)
            .into_iter()
            .flatten()
        {
            println!(
                "| {workload} | {name} | {} | | | |",
                serde_json::to_string(v).unwrap_or_default()
            );
        }
        let (attempted, failed) = (num(record, "attempted"), num(record, "failed"));
        println!(
            "| {workload} | failed_share | {:.6} | ratio | | {attempted} |",
            failed / attempted.max(1.0)
        );
    }
    let set = json!({
        "env": sys::env_stamp(args.seed, world::CALLERS),
        "seconds": args.seconds,
        "trace": args.trace,
        "results": Value::Object(results),
    });
    let out = cli.flag("out").map_or_else(
        || Path::new(sys::OUT_DIR).join("suite.json"),
        |p| Path::new(p).to_path_buf(),
    );
    std::fs::write(
        &out,
        serde_json::to_string_pretty(&set).map_err(|e| e.to_string())?,
    )
    .map_err(|e| format!("{}: {e}", out.display()))?;
    eprintln!("result set written to {}", out.display());
    Ok(worst)
}

fn real_main() -> Result<i32, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let cli = Cli::parse(&argv)?;
    let spec = Spec::load()?;
    if cli.command.as_deref() == Some("agree") {
        let [a, b] = cli.positional.as_slice() else {
            return Err("usage: benchmark agree A.json B.json".to_string());
        };
        return Ok(agree::run(&spec, a, b));
    }

    // The load comes from one process with no more threads than cores:
    // two closed-loop callers, and a rayon pool pinned to the core count.
    let nproc = sys::nproc();
    if nproc < 2 || world::CALLERS > nproc {
        return Err(format!(
            "{nproc} core(s): the benchmark drives {} caller threads against the system under test and needs at least 2",
            world::CALLERS
        ));
    }
    std::env::set_var("RAYON_NUM_THREADS", nproc.to_string());
    // Everything the benchmark and its children write stays in here,
    // temporary files of the nested `cargo build` and the daemons included.
    let tmp = sys::scratch_dir("tmp").map_err(|e| format!("{}: {e}", sys::OUT_DIR))?;
    std::env::set_var("TMPDIR", tmp);

    let args = RunArgs {
        seed: cli.number("seed", DEFAULT_SEED)?,
        seconds: cli.number("seconds", spec.run_seconds as f64)?,
        trace: cli.command.as_deref() == Some("trace") || cli.number("trace", 0u8)? != 0,
    };
    match (cli.command.as_deref(), cli.flag("workload")) {
        (Some("suite"), _) => run_suite(&spec, &cli, &args),
        (None | Some("trace"), Some(workload)) => Ok(run_workload(&spec, workload, &args)),
        _ => Err("usage: benchmark [trace] --workload W [--seed N] [--seconds S] [--trace 0|1] | suite | agree A B".to_string()),
    }
}

fn main() {
    let code = real_main().unwrap_or_else(|e| {
        eprintln!("benchmark: {e}");
        2
    });
    std::process::exit(code);
}
