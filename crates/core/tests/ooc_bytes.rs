//! What the out-of-core trainer leaves on disk, byte for byte.
//!
//! The trainer frames partition and resident files in place (one reused
//! buffer, checksum computed where the payload lies) and emits each
//! partition's PKGMSS3 shard from rows computed across the rayon pool.
//! Neither may change a byte or weaken a check:
//!
//! * every `ooc-*.pkgm` file is exactly the documented artifact frame
//!   around its payload — rebuilt here field by field with a bit-at-a-time
//!   CRC — and exactly `artifact::encode` of that payload;
//! * every streamed shard is exactly `snapshot_to_ss3_bytes` of the
//!   resident `ServiceSnapshot::build` + `shard_slice` over the assembled
//!   model;
//! * all of it is identical between `RAYON_NUM_THREADS=1` and `2`;
//! * a single flipped byte anywhere in a partition or the resident file is
//!   reported as the typed artifact error before any value is decoded.
//!
//! One `#[test]` for all of that: the thread count is a process-wide
//! environment variable, so the sections must not run beside each other.
//! A second pins the digests of every `ooc-*.pkgm` file and of the trained
//! model, so a change to how the trainer commits (its framing, its order,
//! its threads) cannot move a byte unnoticed; those bytes do not depend on
//! the thread count.

use pkgm_core::artifact::{self, ArtifactError, ArtifactKind, HEADER_LEN};
use pkgm_core::serialize::model_to_bytes;
use pkgm_core::{
    snapshot_to_ss3_bytes, KnowledgeService, OocConfig, OocError, OocTrainer, PkgmConfig,
    ServiceSnapshot, ShardSpec, TrainConfig,
};
use pkgm_store::{EntityId, KeyRelationSelector};
use pkgm_synth::{Catalog, CatalogConfig};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

const DIM: usize = 8;
const K: usize = 3;

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pkgm-ooc-bytes-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn config(catalog: &Catalog, dir: &Path) -> OocConfig {
    // Two rows' state over a quarter of the table: at least four partitions.
    let row_state = (3 * DIM * 4) as u64;
    let n = catalog.store.n_entities() as u64;
    OocConfig {
        model: PkgmConfig::new(DIM).with_seed(5),
        train: TrainConfig {
            epochs: 2,
            batch_size: 256,
            seed: 5,
            parallel: true,
            // Pinned: an unpinned chunk size follows the thread count.
            chunk_size: Some(32),
            ..TrainConfig::default()
        },
        mem_budget: (2 * row_state * n.div_ceil(4)) as usize,
        dir: dir.join("ooc"),
    }
}

/// Every file under `dir`, by path relative to it.
fn files_under(dir: &Path) -> BTreeMap<PathBuf, Vec<u8>> {
    let mut out = BTreeMap::new();
    let mut pending = vec![dir.to_path_buf()];
    while let Some(d) = pending.pop() {
        for entry in std::fs::read_dir(&d).unwrap() {
            let path = entry.unwrap().path();
            if path.is_dir() {
                pending.push(path);
            } else {
                let rel = path.strip_prefix(dir).unwrap().to_path_buf();
                out.insert(rel, std::fs::read(&path).unwrap());
            }
        }
    }
    out
}

/// Train two epochs and stream the shards with `threads` rayon workers.
fn run(
    catalog: &Catalog,
    selector: &KeyRelationSelector,
    dir: &Path,
    threads: usize,
) -> OocTrainer {
    std::env::set_var("RAYON_NUM_THREADS", threads.to_string());
    let mut trainer = OocTrainer::new(&catalog.store, config(catalog, dir)).unwrap();
    assert!(
        trainer.n_partitions() >= 4,
        "the budget must page: {} partition(s)",
        trainer.n_partitions()
    );
    let report = trainer.train(&catalog.store).unwrap();
    assert!(report.halted.is_none() && report.blocks > trainer.n_partitions());
    let shards = trainer
        .write_snapshots(selector, &dir.join("trained.pkgmss3"))
        .unwrap();
    assert_eq!(shards.len(), trainer.n_partitions());
    trainer
}

/// The IEEE CRC32, one message bit per step.
fn crc32_bitwise(bytes: &[u8]) -> u32 {
    let mut c = !0u32;
    for &b in bytes {
        c ^= u32::from(b);
        for _ in 0..8 {
            c = if c & 1 != 0 {
                (c >> 1) ^ 0xEDB8_8320
            } else {
                c >> 1
            };
        }
    }
    !c
}

/// The artifact frame as `artifact`'s module docs lay it out, for a
/// checkpoint payload (kind 4).
fn reference_frame(payload: &[u8]) -> Vec<u8> {
    let mut out = b"PKGMAF1\0".to_vec();
    out.extend_from_slice(&1u32.to_le_bytes());
    out.extend_from_slice(&4u32.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(&crc32_bitwise(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

fn bits(xs: &[f32]) -> Vec<u8> {
    xs.iter().flat_map(|x| x.to_le_bytes()).collect()
}

fn is_checksum_error(err: &OocError) -> bool {
    matches!(
        err,
        OocError::Artifact(ArtifactError::ChecksumMismatch { .. })
    )
}

/// Flip each byte of `path` in turn; `probe` must fail with a typed
/// artifact error every time — the checksum error for every payload byte.
fn every_flipped_byte_is_caught(path: &Path, probe: impl Fn() -> Option<OocError>) {
    let pristine = std::fs::read(path).unwrap();
    let mut hurt = pristine.clone();
    for at in 0..pristine.len() {
        hurt[at] ^= 0x40;
        std::fs::write(path, &hurt).unwrap();
        hurt[at] = pristine[at];
        let err =
            probe().unwrap_or_else(|| panic!("{}: flip at {at} went unnoticed", path.display()));
        assert!(
            matches!(err, OocError::Artifact(_)),
            "{}: flip at {at}: {err}",
            path.display()
        );
        if at >= HEADER_LEN {
            assert!(
                is_checksum_error(&err),
                "{}: payload flip at {at}: {err}",
                path.display()
            );
        }
    }
    std::fs::write(path, &pristine).unwrap();
}

#[test]
fn ooc_files_are_canonical_thread_invariant_and_checked() {
    let catalog = Catalog::generate(&CatalogConfig::tiny(7));
    let selector = catalog.key_relation_selector(K);

    // --- one thread vs two: the same bytes in every file ------------------
    let (dir_1, dir_2) = (scratch("t1"), scratch("t2"));
    let trainer = run(&catalog, &selector, &dir_1, 1);
    run(&catalog, &selector, &dir_2, 2);
    let files = files_under(&dir_1);
    assert_eq!(
        files.keys().collect::<Vec<_>>(),
        files_under(&dir_2).keys().collect::<Vec<_>>()
    );
    for (name, bytes) in &files_under(&dir_2) {
        assert!(
            files[name] == *bytes,
            "{} differs between 1 and 2 rayon threads",
            name.display()
        );
    }

    // --- ooc-*.pkgm: the documented frame, and encode()'s ------------------
    let model = trainer.assemble_model().unwrap();
    let parts = trainer.partitions().to_vec();
    let mut framed = 0;
    for (name, bytes) in &files {
        if !name.starts_with("ooc") {
            continue;
        }
        let payload = artifact::decode(name, ArtifactKind::Checkpoint, bytes).unwrap();
        assert!(
            reference_frame(payload) == *bytes,
            "{}: not the documented frame",
            name.display()
        );
        assert!(artifact::encode(ArtifactKind::Checkpoint, payload) == *bytes);
        framed += 1;
    }
    assert_eq!(framed, parts.len() + 2, "partitions + resident + manifest");
    for (k, &(start, len)) in parts.iter().enumerate() {
        let name = format!("ooc/ooc-part-{k:05}of{:05}.pkgm", parts.len());
        let payload = &files[Path::new(&name)][HEADER_LEN..];
        let n_values = len as usize * DIM;
        for (i, stamp) in [start, len, DIM as u64].into_iter().enumerate() {
            assert_eq!(payload[8 + 8 * i..16 + 8 * i], stamp.to_le_bytes());
        }
        assert_eq!(payload.len(), 32 + 3 * n_values * 4);
        let ent: Vec<u8> = (start..start + len)
            .flat_map(|e| bits(model.ent(EntityId(e as u32))))
            .collect();
        assert!(payload[32..32 + n_values * 4] == ent[..]);
    }

    // --- shards: the resident build, sliced --------------------------------
    let whole = ServiceSnapshot::build(&KnowledgeService::new(model, selector.clone()));
    for (k, &(start, len)) in parts.iter().enumerate() {
        let spec = ShardSpec {
            n_shards: parts.len() as u32,
            shard_id: k as u32,
            row_start: start,
        };
        let want = snapshot_to_ss3_bytes(&whole.shard_slice(spec, len).unwrap()).unwrap();
        let name = format!("trained.pkgmss3.shard{k}of{}", parts.len());
        assert!(
            files[Path::new(&name)] == want,
            "{name}: streamed shard differs from the resident build"
        );
    }

    // --- faults: every byte of a partition, of the resident file ----------
    let ooc_dir = dir_1.join("ooc");
    let last = parts.len() - 1;
    // Partition 0 is the first page-in of a fresh epoch: `train` must stop
    // there, before it commits anything.
    let fresh = scratch("fresh");
    std::env::set_var("RAYON_NUM_THREADS", "1");
    drop(OocTrainer::new(&catalog.store, config(&catalog, &fresh)).unwrap());
    every_flipped_byte_is_caught(
        &fresh.join(format!("ooc/ooc-part-00000of{:05}.pkgm", parts.len())),
        || {
            OocTrainer::resume(&fresh.join("ooc"))
                .unwrap()
                .train(&catalog.store)
                .err()
        },
    );
    every_flipped_byte_is_caught(
        &ooc_dir.join(format!("ooc-part-{last:05}of{:05}.pkgm", parts.len())),
        || trainer.assemble_model().err(),
    );
    every_flipped_byte_is_caught(&ooc_dir.join("ooc-resident.pkgm"), || {
        OocTrainer::resume(&ooc_dir).err()
    });

    for dir in [dir_1, dir_2, fresh] {
        let _ = std::fs::remove_dir_all(dir);
    }
}

/// FNV-1a: one identity per file.
fn fnv64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

#[test]
fn ooc_bytes_match_golden_digests() {
    let catalog = Catalog::generate(&CatalogConfig::tiny(7));
    let dir = scratch("golden");
    let mut trainer = OocTrainer::new(&catalog.store, config(&catalog, &dir)).unwrap();
    let report = trainer.train(&catalog.store).unwrap();
    assert!(report.halted.is_none() && report.blocks > trainer.n_partitions());
    let mut got: Vec<(String, u64)> = files_under(&dir.join("ooc"))
        .iter()
        .map(|(name, bytes)| (name.display().to_string(), fnv64(bytes)))
        .collect();
    let model = trainer.assemble_model().unwrap();
    got.push(("model".into(), fnv64(&model_to_bytes(&model))));
    let _ = std::fs::remove_dir_all(&dir);

    let want = [
        ("ooc-manifest.pkgm", 0x2118_b159_4b2f_9388),
        ("ooc-part-00000of00004.pkgm", 0xc4d0_a93c_a088_86eb),
        ("ooc-part-00001of00004.pkgm", 0xed9b_067a_b773_c9cd),
        ("ooc-part-00002of00004.pkgm", 0x899c_9a5f_eaf9_8cc9),
        ("ooc-part-00003of00004.pkgm", 0xbbb1_7346_0087_9d48),
        ("ooc-resident.pkgm", 0x3ef0_8771_d445_486d),
        ("model", 0xc3f5_c063_b30d_8227),
    ];
    let want: Vec<(String, u64)> = want.iter().map(|&(n, d)| (n.to_string(), d)).collect();
    let hex: Vec<_> = got
        .iter()
        .map(|(n, d)| format!("(\"{n}\", {d:#018x}),"))
        .collect();
    assert_eq!(got, want, "{hex:#?}");
}
