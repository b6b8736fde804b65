//! Deterministic fault injection for the artifact layer, for tests.
//!
//! Crash-safety claims are only as good as their tests. [`FaultPlan`] scripts
//! failures by write index — "fail the 3rd write", "truncate at byte N",
//! "flip a bit" — and [`FaultyIo`] plays the script underneath any code that
//! talks to disk through [`ArtifactIo`]: the out-of-core crash sweeps
//! (`ooc::tests`) fail, tear and flip every write of a run with it.

use crate::artifact::{ArtifactError, ArtifactIo, StdIo};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// One scripted failure, applied to a single `write_atomic` call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// The write fails before any byte reaches the destination (e.g. ENOSPC
    /// on the temp file, or a kill before the rename). The destination keeps
    /// its previous contents — the atomic-writer guarantee.
    FailWrite,
    /// A crash mid-write with a *non-atomic* writer: only the first `keep`
    /// bytes land at the destination path. This is the torn state the
    /// atomic path prevents; loaders must still reject it.
    TornWrite {
        /// Bytes that reach the destination before the "crash".
        keep: usize,
    },
    /// Silent corruption: the write "succeeds" but one bit is flipped.
    /// The CRC32 in the artifact header must catch it on load.
    FlipBit {
        /// Byte offset (taken modulo the write length).
        byte: usize,
        /// Bit index 0..8.
        bit: u8,
    },
}

/// A deterministic schedule of [`Fault`]s keyed by write index (0-based,
/// counted across all `write_atomic` calls through one [`FaultyIo`]).
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    faults: BTreeMap<u64, Fault>,
}

impl FaultPlan {
    /// An empty plan (all writes succeed).
    pub fn new() -> Self {
        Self::default()
    }

    /// Script `fault` for the `nth` write (0-based).
    pub fn with_fault(mut self, nth: u64, fault: Fault) -> Self {
        self.faults.insert(nth, fault);
        self
    }
}

/// An [`ArtifactIo`] that executes a [`FaultPlan`] on top of the real
/// filesystem. Reads, removes and listings pass through untouched; writes
/// consult the plan by global write index.
pub struct FaultyIo {
    plan: FaultPlan,
    writes: AtomicU64,
    injected: AtomicU64,
}

impl FaultyIo {
    /// Fault the real filesystem according to `plan`.
    pub fn new(plan: FaultPlan) -> Self {
        Self {
            plan,
            writes: AtomicU64::new(0),
            injected: AtomicU64::new(0),
        }
    }

    /// Writes attempted so far.
    pub fn writes(&self) -> u64 {
        self.writes.load(Ordering::Relaxed)
    }

    /// Faults actually fired so far.
    pub fn injected(&self) -> u64 {
        self.injected.load(Ordering::Relaxed)
    }
}

impl ArtifactIo for FaultyIo {
    fn write_atomic(&self, path: &Path, bytes: &[u8]) -> Result<(), ArtifactError> {
        let n = self.writes.fetch_add(1, Ordering::Relaxed);
        match self.plan.faults.get(&n) {
            None => StdIo.write_atomic(path, bytes),
            Some(Fault::FailWrite) => {
                self.injected.fetch_add(1, Ordering::Relaxed);
                Err(ArtifactError::Injected {
                    path: path.to_path_buf(),
                    what: format!("write #{n} failed before reaching disk"),
                })
            }
            Some(Fault::TornWrite { keep }) => {
                self.injected.fetch_add(1, Ordering::Relaxed);
                // Deliberately bypass atomicity: a prefix lands at the final
                // path, as a crashed non-atomic writer would leave it.
                let keep = (*keep).min(bytes.len());
                std::fs::write(path, &bytes[..keep]).map_err(|e| ArtifactError::Io {
                    path: path.to_path_buf(),
                    source: e,
                })?;
                Err(ArtifactError::Injected {
                    path: path.to_path_buf(),
                    what: format!("process killed after {keep} of {} bytes", bytes.len()),
                })
            }
            Some(Fault::FlipBit { byte, bit }) => {
                self.injected.fetch_add(1, Ordering::Relaxed);
                let mut corrupted = bytes.to_vec();
                if !corrupted.is_empty() {
                    let i = byte % corrupted.len();
                    corrupted[i] ^= 1 << (bit % 8);
                }
                // The write itself "succeeds" — the corruption is silent
                // until load time.
                StdIo.write_atomic(path, &corrupted)
            }
        }
    }

    fn read(&self, path: &Path) -> Result<Vec<u8>, ArtifactError> {
        StdIo.read(path)
    }

    fn remove(&self, path: &Path) -> Result<(), ArtifactError> {
        StdIo.remove(path)
    }

    fn list(&self, dir: &Path) -> Result<Vec<PathBuf>, ArtifactError> {
        StdIo.list(dir)
    }
}

#[test]
fn faulty_io_counts_writes_and_injections() {
    let dir = std::env::temp_dir().join(format!("pkgm-faultyio-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let io = FaultyIo::new(FaultPlan::new().with_fault(1, Fault::FailWrite));
    let p = dir.join("a.pkgm");
    assert!(io.write_atomic(&p, b"ok").is_ok());
    assert!(matches!(
        io.write_atomic(&p, b"fails"),
        Err(ArtifactError::Injected { .. })
    ));
    // The failed write never touched the file.
    assert_eq!(io.read(&p).unwrap(), b"ok");
    assert!(io.write_atomic(&p, b"ok again").is_ok());
    assert_eq!(io.writes(), 3);
    assert_eq!(io.injected(), 1);
    assert_eq!(io.read(&p).unwrap(), b"ok again");
    std::fs::remove_dir_all(&dir).ok();
}
