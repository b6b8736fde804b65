//! Spawning the `pkgm` binary from tests: one command builder, one
//! run-and-expect-success, and daemons on ephemeral ports that die with
//! the test.

use serde_json::Value;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Output};
use std::time::{Duration, Instant};

/// A `pkgm` command. Environment goes on the command, never on the test
/// process: tests run in parallel threads of one process.
pub fn pkgm() -> Command {
    Command::new(env!("CARGO_BIN_EXE_pkgm"))
}

/// A fresh scratch directory for one test.
pub fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pkgm-cli-test-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Fail the test, showing stderr, unless `out` exited 0.
pub fn assert_ok(out: &Output) {
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
}

/// Run `cmd` to completion, expect exit 0, and return its stdout.
pub fn run(cmd: &mut Command) -> String {
    let out = cmd.output().unwrap();
    assert!(
        out.status.success(),
        "{cmd:?} failed\nstdout: {}\nstderr: {}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).unwrap()
}

/// `pkgm ARGS`, run to a zero exit; its stdout.
pub fn pkgm_ok<S: AsRef<std::ffi::OsStr>>(args: &[S]) -> String {
    run(pkgm().args(args))
}

/// A child process killed when the guard drops, so a failed assertion
/// never leaves a daemon running.
pub struct KillOnDrop(pub Child);

impl Drop for KillOnDrop {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// Spawn `cmd`, a `pkgm daemon serve …` without `--addr`, on an ephemeral
/// port, and wait for the address it writes to `addr_file`.
pub fn spawn_daemon(mut cmd: Command, addr_file: &Path) -> (KillOnDrop, String) {
    cmd.args(["--addr", "127.0.0.1:0", "--addr-file"])
        .arg(addr_file);
    let daemon = KillOnDrop(cmd.spawn().unwrap());
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        if let Ok(addr) = std::fs::read_to_string(addr_file) {
            if !addr.is_empty() {
                return (daemon, addr);
            }
        }
        assert!(
            Instant::now() < deadline,
            "daemon never wrote its address file"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// Every file under `dir`, by name, with its bytes.
pub fn files_in(dir: &Path) -> Vec<(std::ffi::OsString, Vec<u8>)> {
    let entries = std::fs::read_dir(dir).unwrap().map(|e| e.unwrap());
    let mut files: Vec<_> =
        (entries.map(|e| (e.file_name(), std::fs::read(e.path()).unwrap()))).collect();
    files.sort();
    files
}

/// Parse one JSON document printed by `pkgm`.
pub fn json(text: &str) -> Value {
    serde_json::from_str(text).unwrap_or_else(|e| panic!("{e}: {text}"))
}

/// The member of `v` at the dotted `path` (`"snapshot.shard.n_shards"`).
pub fn at<'a>(v: &'a Value, path: &str) -> &'a Value {
    path.split('.').fold(v, |m, key| {
        m.get(key).unwrap_or_else(|| panic!("no {path} in {v:?}"))
    })
}

/// The non-negative integer at `path`.
pub fn num(v: &Value, path: &str) -> u64 {
    at(v, path)
        .as_u64()
        .unwrap_or_else(|| panic!("{path} in {v:?}"))
}

/// `pkgm daemon stop`, then wait for the daemon to exit 0.
pub fn stop(mut daemon: KillOnDrop, addr: &str) {
    let said = pkgm_ok(&["daemon", "stop", "--addr", addr]);
    assert!(said.contains("stopped"), "{said}");
    let status = daemon.0.wait().unwrap();
    assert!(status.success(), "daemon exited {status:?}");
}
