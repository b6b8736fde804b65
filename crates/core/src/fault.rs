//! Deterministic fault injection for the artifact layer, plus the
//! `pkgm faultcheck` recovery battery.
//!
//! Crash-safety claims are only as good as their tests. [`FaultPlan`] scripts
//! failures by write index — "fail the 3rd write", "truncate at byte N",
//! "flip a bit" — and [`FaultyIo`] plays the script underneath any code that
//! talks to disk through [`ArtifactIo`]. Everything is seeded and
//! reproducible: a failing scenario can be replayed exactly.
//!
//! [`run_faultcheck`] is the end-to-end battery behind `pkgm faultcheck`: it
//! builds a tiny deterministic model/service/snapshot, then proves that
//!
//! * every artifact kind round-trips through atomic writes;
//! * torn writes and bit flips are rejected on load (typed errors, no
//!   panics — each scenario runs under `catch_unwind`), except flips in
//!   the unchecksummed zero padding of a `PKGMSS3` file, which must leave
//!   the served snapshot unchanged;
//! * a torn write of an out-of-core commit ([`crate::ooc`], one partition)
//!   costs at most that commit: resume falls back to the previous commit
//!   and reaches the same parameters bit-for-bit as an uninterrupted run;
//! * degraded-mode serving answers unknown ids with fallback vectors.

use crate::artifact::{ArtifactError, ArtifactIo, StdIo};
use crate::model::{PkgmConfig, PkgmModel};
use crate::ooc::{OocConfig, OocTrainer};
use crate::serialize;
use crate::service::KnowledgeService;
use crate::serving::CachedService;
use crate::snapshot::ServiceSnapshot;
use crate::snapshot3::{is_padding, snapshot_to_ss3_bytes};
use crate::trainer::{TrainConfig, Trainer};
use pkgm_store::{EntityId, KeyRelationSelector, StoreBuilder, TripleStore};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

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

    /// A seeded random plan: one fault of a random kind at a random write
    /// index below `n_writes`. Same seed, same plan.
    pub fn seeded(seed: u64, n_writes: u64) -> Self {
        let mut rng = SmallRng::seed_from_u64(seed ^ 0xFA17);
        let nth = rng.gen_range(0..n_writes.max(1));
        let fault = match rng.gen_range(0u32..3) {
            0 => Fault::FailWrite,
            1 => Fault::TornWrite {
                keep: rng.gen_range(0..4096),
            },
            _ => Fault::FlipBit {
                byte: rng.gen_range(0..4096),
                bit: rng.gen_range(0u32..8) as u8,
            },
        };
        Self::new().with_fault(nth, fault)
    }
}

/// An [`ArtifactIo`] that executes a [`FaultPlan`] on top of an inner
/// implementation. Reads, removes and listings pass through untouched;
/// writes consult the plan by global write index.
pub struct FaultyIo<I: ArtifactIo = StdIo> {
    inner: I,
    plan: FaultPlan,
    writes: AtomicU64,
    injected: AtomicU64,
}

impl FaultyIo<StdIo> {
    /// Fault the real filesystem according to `plan`.
    pub fn new(plan: FaultPlan) -> Self {
        Self::over(StdIo, plan)
    }
}

impl<I: ArtifactIo> FaultyIo<I> {
    /// Fault an arbitrary inner [`ArtifactIo`].
    pub fn over(inner: I, plan: FaultPlan) -> Self {
        Self {
            inner,
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

impl<I: ArtifactIo> ArtifactIo for FaultyIo<I> {
    fn write_atomic(&self, path: &Path, bytes: &[u8]) -> Result<(), ArtifactError> {
        let n = self.writes.fetch_add(1, Ordering::Relaxed);
        match self.plan.faults.get(&n) {
            None => self.inner.write_atomic(path, bytes),
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
                self.inner.write_atomic(path, &corrupted)
            }
        }
    }

    fn read(&self, path: &Path) -> Result<Vec<u8>, ArtifactError> {
        self.inner.read(path)
    }

    fn remove(&self, path: &Path) -> Result<(), ArtifactError> {
        self.inner.remove(path)
    }

    fn list(&self, dir: &Path) -> Result<Vec<PathBuf>, ArtifactError> {
        self.inner.list(dir)
    }
}

// --- the faultcheck battery -------------------------------------------------

/// Outcome of one faultcheck scenario.
#[derive(Debug)]
pub struct Scenario {
    /// Scenario identifier (stable, used by CI greps).
    pub name: &'static str,
    /// Did the recovery path hold?
    pub passed: bool,
    /// What happened (failure detail, or a one-line summary on success).
    pub detail: String,
}

/// Results of the full battery.
#[derive(Debug, Default)]
pub struct FaultCheckReport {
    /// Every scenario, in execution order.
    pub scenarios: Vec<Scenario>,
}

impl FaultCheckReport {
    /// True iff every scenario passed.
    pub fn passed(&self) -> bool {
        self.scenarios.iter().all(|s| s.passed)
    }

    fn run(&mut self, name: &'static str, f: impl FnOnce() -> Result<String, String>) {
        // A panic inside a scenario is itself a failed recovery path — the
        // whole point is that bad bytes must surface as typed errors.
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f));
        let (passed, detail) = match outcome {
            Ok(Ok(summary)) => (true, summary),
            Ok(Err(why)) => (false, why),
            Err(panic) => {
                let msg = panic
                    .downcast_ref::<&str>()
                    .map(|s| s.to_string())
                    .or_else(|| panic.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "non-string panic payload".into());
                (false, format!("PANIC: {msg}"))
            }
        };
        self.scenarios.push(Scenario {
            name,
            passed,
            detail,
        });
    }
}

/// Deterministic tiny fixture: a toy catalog store, a service over it, and
/// its serving snapshot.
fn fixture(seed: u64) -> (TripleStore, KnowledgeService, ServiceSnapshot) {
    let mut b = StoreBuilder::new();
    for i in 0..8u32 {
        b.add_raw(i, 0, 8 + i % 2);
        b.add_raw(i, 1, 10 + (i / 4) % 2);
    }
    let store = b.build();
    let pairs: Vec<(EntityId, u32)> = (0..8).map(|i| (EntityId(i), 0)).collect();
    let selector = KeyRelationSelector::build(&store, &pairs, 2, 2);
    let model = PkgmModel::new(
        store.n_entities() as usize,
        store.n_relations() as usize,
        PkgmConfig::new(8).with_seed(seed),
    );
    let service = KnowledgeService::new(model, selector);
    let snapshot = ServiceSnapshot::build(&service);
    (store, service, snapshot)
}

fn quick_train_cfg(seed: u64, epochs: usize) -> TrainConfig {
    TrainConfig {
        lr: 0.05,
        margin: 2.0,
        batch_size: 16,
        epochs,
        negatives: 1,
        seed,
        normalize_entities: true,
        parallel: false,
        // Pinned layout: replay must not depend on the host's thread count.
        chunk_size: Some(16),
    }
}

/// Run the full recovery battery inside `dir` (created if missing, reused if
/// present). `seed` drives every RNG; the battery is fully deterministic.
pub fn run_faultcheck(dir: &Path, seed: u64) -> FaultCheckReport {
    let mut report = FaultCheckReport::default();
    let io = StdIo;
    std::fs::create_dir_all(dir).ok();
    let (store, service, snapshot) = fixture(seed);

    report.run("roundtrip-all-kinds", || {
        let model = service.model().clone();
        let mp = dir.join("fc-model.pkgm");
        serialize::write_model_file(&io, &mp, &model).map_err(|e| e.to_string())?;
        let back = serialize::read_model_file(&io, &mp).map_err(|e| e.to_string())?;
        if back.ent != model.ent {
            return Err("model roundtrip mismatch".into());
        }
        let sp = dir.join("fc-service.pkgm");
        serialize::write_service_file(&io, &sp, &service).map_err(|e| e.to_string())?;
        serialize::read_service_file(&io, &sp).map_err(|e| e.to_string())?;
        let np = dir.join("fc-snapshot.ss3");
        serialize::write_snapshot_ss3_file(&io, &np, &snapshot).map_err(|e| e.to_string())?;
        let back = serialize::open_snapshot_file(&np).map_err(|e| e.to_string())?;
        if back != snapshot {
            return Err("snapshot roundtrip mismatch".into());
        }
        Ok("model, service and snapshot artifacts roundtrip exactly".into())
    });

    let ss3 = snapshot_to_ss3_bytes(&snapshot).expect("fixture snapshot has rows");
    // Both loaders must agree: the mapped open that serves, and the resident
    // decoder that verifies every CRC.
    let load = |path: &Path| -> Result<ServiceSnapshot, String> {
        let mapped = serialize::open_snapshot_file(path).map_err(|e| e.to_string());
        let bytes = io.read(path).map_err(|e| e.to_string())?;
        let resident = serialize::snapshot_from_bytes(&bytes).map_err(|e| e.to_string());
        match (mapped, resident) {
            (Ok(m), Ok(r)) if m == r => Ok(m),
            (Err(e), Err(_)) => Err(e),
            (m, r) => panic!("mapped and resident loads disagree: {m:?} vs {r:?}"),
        }
    };

    report.run("torn-write-rejected", || {
        // Inside the magic, inside the fixed header, at its end, at the
        // first section boundary, mid-file and one byte short.
        let cuts = [0, 1, 63, 64, 4096, ss3.len() / 2, ss3.len() - 1];
        for &keep in &cuts {
            let path = dir.join("fc-torn.ss3");
            let faulty = FaultyIo::new(FaultPlan::new().with_fault(0, Fault::TornWrite { keep }));
            if serialize::write_snapshot_ss3_file(&faulty, &path, &snapshot).is_ok() {
                return Err(format!("torn write at {keep} bytes reported success"));
            }
            if load(&path).is_ok() {
                return Err(format!("torn snapshot ({keep} bytes) loaded as valid"));
            }
            io.remove(&path).ok();
        }
        Ok(format!(
            "{} torn-write points all rejected on load",
            cuts.len()
        ))
    });

    report.run("bit-flip-rejected", || {
        let mut rng = SmallRng::seed_from_u64(seed ^ 0xB17);
        let samples = 16;
        let (mut detected, mut padding) = (0, 0);
        for i in 0..samples {
            // Padding is most of a small file: every other flip is aimed at
            // checksummed bytes, so each run exercises detection.
            let byte = loop {
                let byte = rng.gen_range(0..ss3.len());
                if i % 2 == 0 || !is_padding(&ss3, byte) {
                    break byte;
                }
            };
            let bit = rng.gen_range(0u32..8) as u8;
            let path = dir.join("fc-flip.ss3");
            let faulty =
                FaultyIo::new(FaultPlan::new().with_fault(0, Fault::FlipBit { byte, bit }));
            serialize::write_snapshot_ss3_file(&faulty, &path, &snapshot)
                .map_err(|e| e.to_string())?;
            // PKGMSS3 does not checksum the zero padding between sections:
            // a flip there is harmless, anywhere else it must be caught.
            match load(&path) {
                Err(_) => detected += 1,
                Ok(back) if back == snapshot && is_padding(&ss3, byte) => padding += 1,
                Ok(_) => return Err(format!("flipped bit {bit} of byte {byte} went undetected")),
            }
            io.remove(&path).ok();
        }
        Ok(format!(
            "{samples} random single-bit flips: {detected} detected, \
             {padding} in unchecked padding served unchanged"
        ))
    });

    report.run("kill-during-checkpoint-resumes", || {
        let ooc_dir = dir.join("fc-ooc");
        std::fs::remove_dir_all(&ooc_dir).ok();
        let model_cfg = PkgmConfig::new(8).with_seed(seed ^ 1);
        let total_epochs = 6;
        let cfg = OocConfig {
            model: model_cfg.clone(),
            train: quick_train_cfg(seed, total_epochs),
            // The whole table fits: one partition, P = 1.
            mem_budget: usize::MAX,
            dir: ooc_dir.clone(),
        };

        // Reference: an uninterrupted resident run, the same bits at P = 1.
        let mut m_ref = PkgmModel::new(
            store.n_entities() as usize,
            store.n_relations() as usize,
            model_cfg,
        );
        Trainer::new(&m_ref, quick_train_cfg(seed, total_epochs)).train(&mut m_ref, &store);

        // Interrupted run: `new` writes three files, then each epoch
        // commits its partition file and its resident file. The 4th
        // commit's resident write (write 10) is torn mid-file.
        let plan = FaultPlan::new().with_fault(10, Fault::TornWrite { keep: 40 });
        let faulty = Arc::new(FaultyIo::new(plan));
        let crashed =
            OocTrainer::new_with_io(&store, cfg, faulty).and_then(|mut t| t.train(&store));
        if crashed.is_ok() {
            return Err("training survived a torn commit write".into());
        }

        // Restart: the torn 4th commit must be skipped, the 3rd opens.
        let mut resumed = OocTrainer::resume(&ooc_dir).map_err(|e| e.to_string())?;
        let skipped = resumed.take_skipped();
        if resumed.epochs_done() != 3 {
            return Err(format!(
                "expected resume at epoch 3, got {} (skipped: {skipped:?})",
                resumed.epochs_done()
            ));
        }
        if skipped.is_empty() {
            return Err("torn commit was not detected".into());
        }
        resumed.train(&store).map_err(|e| e.to_string())?;
        let m2 = resumed.assemble_model().map_err(|e| e.to_string())?;
        if m2.ent != m_ref.ent || m2.rel != m_ref.rel || m2.mats != m_ref.mats {
            return Err("resumed run diverged from uninterrupted run".into());
        }
        Ok("kill at commit 4/6 → resumed from 3, final params bit-identical".into())
    });

    report.run("failed-write-keeps-previous-artifact", || {
        let path = dir.join("fc-stable.ss3");
        serialize::write_snapshot_ss3_file(&io, &path, &snapshot).map_err(|e| e.to_string())?;
        let faulty = FaultyIo::new(FaultPlan::new().with_fault(0, Fault::FailWrite));
        let second = serialize::write_snapshot_ss3_file(&faulty, &path, &snapshot);
        if second.is_ok() {
            return Err("failed write reported success".into());
        }
        let back = load(&path)
            .map_err(|e| format!("previous artifact lost after failed overwrite: {e}"))?;
        if back != snapshot {
            return Err("previous artifact corrupted by failed overwrite".into());
        }
        Ok("failed overwrite left the previous valid artifact intact".into())
    });

    report.run("degraded-serving-no-panic", || {
        let cached = CachedService::new(snapshot.clone(), 16);
        let unknown = EntityId(u32::MAX);
        let v = cached.condensed_service(unknown);
        if v.iter().any(|&x| x != 0.0) {
            return Err("fallback condensed vector is not the documented zero vector".into());
        }
        let batch = cached.condensed_service_batch(&[EntityId(0), unknown, EntityId(1)]);
        if batch.len() != 3 {
            return Err("degraded batch dropped items".into());
        }
        let stats = cached.stats();
        if stats.degraded != 2 {
            return Err(format!(
                "expected 2 degraded requests counted, got {}",
                stats.degraded
            ));
        }
        let row = snapshot.condensed_or_fallback(EntityId(u32::MAX));
        if row.1 {
            // degraded flag set — expected; the row must be the mean row.
            if row.0 != snapshot.fallback_row() {
                return Err("snapshot fallback row mismatch".into());
            }
        } else {
            return Err("out-of-range snapshot row not flagged degraded".into());
        }
        Ok(format!(
            "unknown ids served fallbacks, degraded counter at {}",
            stats.degraded
        ))
    });

    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_plans_are_deterministic() {
        let a = FaultPlan::seeded(7, 10);
        let b = FaultPlan::seeded(7, 10);
        assert_eq!(a.faults, b.faults);
        assert_eq!(a.faults.len(), 1);
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
        assert!(io.write_atomic(&p, b"ok again").is_ok());
        assert_eq!(io.writes(), 3);
        assert_eq!(io.injected(), 1);
        // The failed write never touched the file.
        assert_eq!(io.read(&p).unwrap(), b"ok again");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn full_battery_passes() {
        let dir = std::env::temp_dir().join(format!("pkgm-faultcheck-test-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let report = run_faultcheck(&dir, 42);
        for s in &report.scenarios {
            assert!(s.passed, "scenario {} failed: {}", s.name, s.detail);
        }
        assert!(report.scenarios.len() >= 6);
        std::fs::remove_dir_all(&dir).ok();
    }
}
