//! Where `all_experiments` writes: `RESULTS.md`, a file it owns, and never
//! EXPERIMENTS.md, the hand-kept performance ledger beside it.

use std::path::PathBuf;
use std::process::Command;

/// A fresh directory under the system temp dir, removed on drop.
struct TempDir(PathBuf);

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[test]
fn report_goes_to_results_md_and_the_ledger_is_untouched() {
    let dir =
        TempDir(std::env::temp_dir().join(format!("pkgm-all-experiments-{}", std::process::id())));
    std::fs::create_dir_all(&dir.0).expect("create temp dir");
    let ledger = "# EXPERIMENTS\n\nA hand-written ledger entry.\n";
    std::fs::write(dir.0.join("EXPERIMENTS.md"), ledger).expect("write ledger");

    let out = Command::new(env!("CARGO_BIN_EXE_all_experiments"))
        .current_dir(&dir.0)
        .env("PKGM_SCALE", "smoke")
        .output()
        .expect("run all_experiments");
    assert!(
        out.status.success(),
        "all_experiments failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );

    let kept = std::fs::read_to_string(dir.0.join("EXPERIMENTS.md")).expect("read ledger");
    assert_eq!(kept, ledger, "all_experiments rewrote EXPERIMENTS.md");
    let results = std::fs::read_to_string(dir.0.join("RESULTS.md")).expect("read RESULTS.md");
    assert!(results.starts_with("# RESULTS"), "{results}");
    assert!(results.contains("### Table I "), "{results}");
}
