//! Compact binary snapshots of trained models and services.
//!
//! Layout (little-endian):
//!
//! ```text
//! magic "PKGMMD1\0"      8 bytes
//! dim                    u32
//! flags                  u32   (bit 0: relation module)
//! n_entities             u64
//! n_relations            u64
//! ent                    n_entities × dim × f32
//! rel                    n_relations × dim × f32
//! mats                   n_relations × dim² × f32  (iff relation module)
//! ```
//!
//! A [`KnowledgeService`] snapshot appends the selector as a length-prefixed
//! JSON blob (the selector is tiny compared to the parameters). On disk
//! both live inside the checksummed `PKGMAF1` frame of [`crate::artifact`].
//!
//! Serving snapshots have one format, `PKGMSS3` ([`crate::snapshot3`]):
//! [`write_snapshot_ss3_file`] writes it, [`open_snapshot_file`] maps it,
//! and [`snapshot_from_bytes`] decodes it resident, verifying every CRC.

use crate::artifact::{self, ArtifactError, ArtifactIo, ArtifactKind};
use crate::model::{PkgmConfig, PkgmModel};
use crate::service::KnowledgeService;
use crate::snapshot::ServiceSnapshot;
use bytes::{Buf, BufMut, Bytes, BytesMut};
use pkgm_store::KeyRelationSelector;
use std::path::Path;

pub use crate::snapshot3::snapshot_from_bytes;

const MAGIC: &[u8; 8] = b"PKGMMD1\0";

/// Serialization errors.
#[derive(Debug)]
pub enum SerializeError {
    /// Payload malformed or truncated.
    Corrupt(String),
}

impl std::fmt::Display for SerializeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SerializeError::Corrupt(what) => write!(f, "corrupt model snapshot: {what}"),
        }
    }
}

impl std::error::Error for SerializeError {}

/// Serialize a model.
pub fn model_to_bytes(model: &PkgmModel) -> Bytes {
    let mut buf = BytesMut::with_capacity(32 + model.param_bytes());
    buf.put_slice(MAGIC);
    buf.put_u32_le(model.dim() as u32);
    buf.put_u32_le(if model.cfg.relation_module { 1 } else { 0 });
    buf.put_u64_le(model.n_entities() as u64);
    buf.put_u64_le(model.n_relations() as u64);
    for &x in &model.ent {
        buf.put_f32_le(x);
    }
    for &x in &model.rel {
        buf.put_f32_le(x);
    }
    for &x in &model.mats {
        buf.put_f32_le(x);
    }
    buf.freeze()
}

/// Deserialize a model. Consumes exactly the model's bytes from the front of
/// `bytes` and returns the remainder offset.
pub fn model_from_bytes(bytes: &[u8]) -> Result<(PkgmModel, usize), SerializeError> {
    let mut b = bytes;
    if b.len() < 32 || &b[..8] != MAGIC {
        return Err(SerializeError::Corrupt(
            "bad magic or truncated header".into(),
        ));
    }
    b.advance(8);
    let dim = b.get_u32_le() as usize;
    let flags = b.get_u32_le();
    let relation_module = flags & 1 != 0;
    let n_entities = b.get_u64_le() as usize;
    let n_relations = b.get_u64_le() as usize;
    // Checked arithmetic throughout: a short buffer with huge declared counts
    // must be rejected here, not overflow the size computation and slice (or
    // allocate) out of range below.
    let n_floats = n_entities
        .checked_mul(dim)
        .and_then(|ent| n_relations.checked_mul(dim).map(|rel| (ent, rel)))
        .and_then(|(ent, rel)| {
            let mat = if relation_module {
                n_relations.checked_mul(dim)?.checked_mul(dim)?
            } else {
                0
            };
            ent.checked_add(rel)?.checked_add(mat)
        });
    let n_bytes = n_floats.and_then(|n| n.checked_mul(4));
    let Some(n_bytes) = n_bytes else {
        return Err(SerializeError::Corrupt(
            "declared entity/relation counts overflow".into(),
        ));
    };
    if b.remaining() < n_bytes {
        return Err(SerializeError::Corrupt(format!(
            "expected {} parameter bytes, found {}",
            n_bytes,
            b.remaining()
        )));
    }
    let mut read_block = |n: usize| -> Vec<f32> {
        let mut v = Vec::with_capacity(n);
        for _ in 0..n {
            v.push(b.get_f32_le());
        }
        v
    };
    let ent = read_block(n_entities * dim);
    let rel = read_block(n_relations * dim);
    let mats = if relation_module {
        read_block(n_relations * dim * dim)
    } else {
        Vec::new()
    };
    let consumed = bytes.len() - b.remaining();
    let cfg = PkgmConfig {
        dim,
        relation_module,
        ..PkgmConfig::new(dim)
    };
    Ok((
        PkgmModel {
            cfg,
            n_entities,
            n_relations,
            ent,
            rel,
            mats,
        },
        consumed,
    ))
}

/// Serialize a knowledge service (model + selector).
pub fn service_to_bytes(service: &KnowledgeService) -> Bytes {
    let model_bytes = model_to_bytes(service.model());
    let selector_json = serde_json::to_vec(service.selector()).expect("selector serializes");
    let mut buf = BytesMut::with_capacity(model_bytes.len() + selector_json.len() + 8);
    buf.put_slice(&model_bytes);
    buf.put_u64_le(selector_json.len() as u64);
    buf.put_slice(&selector_json);
    buf.freeze()
}

/// Deserialize a knowledge service.
pub fn service_from_bytes(bytes: &[u8]) -> Result<KnowledgeService, SerializeError> {
    let (model, consumed) = model_from_bytes(bytes)?;
    let mut rest = &bytes[consumed..];
    if rest.len() < 8 {
        return Err(SerializeError::Corrupt("missing selector length".into()));
    }
    let len = rest.get_u64_le() as usize;
    if rest.remaining() < len {
        return Err(SerializeError::Corrupt("truncated selector blob".into()));
    }
    let selector: KeyRelationSelector = serde_json::from_slice(&rest[..len])
        .map_err(|e| SerializeError::Corrupt(format!("selector json: {e}")))?;
    // Typed error, not the constructor's assert: corrupt bytes must never
    // panic a loader.
    if !model.cfg.relation_module {
        return Err(SerializeError::Corrupt(
            "serialized service lacks the relation module".into(),
        ));
    }
    Ok(KnowledgeService::new(model, selector))
}

// --- file I/O ---------------------------------------------------------------
//
// The byte-level codecs above are payload formats; on disk every model and
// service is wrapped in the checksummed, versioned container from
// [`crate::artifact`] and written atomically (temp file + fsync + rename).
// Serving snapshots are `PKGMSS3` files ([`crate::snapshot3`]), which carry
// their own header and section CRCs.

fn corrupt(path: &Path, e: SerializeError) -> ArtifactError {
    ArtifactError::Corrupt {
        path: path.to_path_buf(),
        what: e.to_string(),
    }
}

/// Atomically write `model` to `path` inside a checksummed artifact frame.
pub fn write_model_file(
    io: &dyn ArtifactIo,
    path: &Path,
    model: &PkgmModel,
) -> Result<(), ArtifactError> {
    artifact::write_artifact(io, path, ArtifactKind::Model, &model_to_bytes(model))
}

/// Load a model artifact, validating checksum and framing.
pub fn read_model_file(io: &dyn ArtifactIo, path: &Path) -> Result<PkgmModel, ArtifactError> {
    let payload = artifact::read_artifact(io, path, ArtifactKind::Model)?;
    let (model, consumed) = model_from_bytes(&payload).map_err(|e| corrupt(path, e))?;
    if consumed != payload.len() {
        return Err(ArtifactError::Corrupt {
            path: path.to_path_buf(),
            what: format!("{} trailing bytes after model", payload.len() - consumed),
        });
    }
    Ok(model)
}

/// Atomically write `service` to `path` inside a checksummed artifact frame.
pub fn write_service_file(
    io: &dyn ArtifactIo,
    path: &Path,
    service: &KnowledgeService,
) -> Result<(), ArtifactError> {
    artifact::write_artifact(io, path, ArtifactKind::Service, &service_to_bytes(service))
}

/// Load a service artifact, validating checksum and framing.
pub fn read_service_file(
    io: &dyn ArtifactIo,
    path: &Path,
) -> Result<KnowledgeService, ArtifactError> {
    let payload = artifact::read_artifact(io, path, ArtifactKind::Service)?;
    service_from_bytes(&payload).map_err(|e| corrupt(path, e))
}

/// Atomically write `snapshot` to `path` as a `PKGMSS3` file: its image,
/// as it is (a snapshot *is* its `PKGMSS3` bytes), replacing any file at
/// `path` by rename, so a process serving the old file keeps its rows.
///
/// `PKGMSS3` is deliberately *not* wrapped in the `PKGMAF1` container:
/// the 28-byte container header would shift every section off its page
/// boundary, breaking the zero-copy mapping. The format carries its own
/// header CRC and per-section CRCs instead.
pub fn write_snapshot_ss3_file(
    io: &dyn ArtifactIo,
    path: &Path,
    snapshot: &ServiceSnapshot,
) -> Result<(), ArtifactError> {
    let bytes = snapshot.ss3_bytes().map_err(|e| corrupt(path, e))?;
    io.write_atomic(path, bytes)
}

/// Open a `PKGMSS3` snapshot file memory-mapped for zero-copy serving
/// (O(header) startup). Any other file is
/// [`ArtifactError::NotSnapshot`].
pub fn open_snapshot_file(path: &Path) -> Result<ServiceSnapshot, ArtifactError> {
    crate::snapshot3::open_mapped_snapshot(path, false)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pkgm_store::{EntityId, StoreBuilder};

    fn model() -> PkgmModel {
        PkgmModel::new(6, 2, PkgmConfig::new(4).with_seed(3))
    }

    #[test]
    fn model_roundtrip_is_exact() {
        let m = model();
        let bytes = model_to_bytes(&m);
        let (back, consumed) = model_from_bytes(&bytes).unwrap();
        assert_eq!(consumed, bytes.len());
        assert_eq!(back.ent, m.ent);
        assert_eq!(back.rel, m.rel);
        assert_eq!(back.mats, m.mats);
        assert_eq!(back.dim(), m.dim());
    }

    #[test]
    fn transe_model_roundtrip() {
        let m = PkgmModel::new(6, 2, PkgmConfig::transe(4).with_seed(3));
        let bytes = model_to_bytes(&m);
        let (back, _) = model_from_bytes(&bytes).unwrap();
        assert!(!back.cfg.relation_module);
        assert!(back.mats.is_empty());
        assert_eq!(back.ent, m.ent);
    }

    #[test]
    fn corrupt_snapshots_are_rejected() {
        let bytes = model_to_bytes(&model());
        assert!(model_from_bytes(&bytes[..10]).is_err());
        let mut bad = bytes.to_vec();
        bad[0] = b'X';
        assert!(model_from_bytes(&bad).is_err());
        assert!(model_from_bytes(&bytes[..bytes.len() - 2]).is_err());
    }

    #[test]
    fn service_roundtrip_preserves_vectors() {
        let mut b = StoreBuilder::new();
        for i in 0..4u32 {
            b.add_raw(i, 0, 4 + i % 2);
            b.add_raw(i, 1, 6);
        }
        let store = b.build();
        let pairs: Vec<(EntityId, u32)> = (0..4).map(|i| (EntityId(i), 0)).collect();
        let selector = pkgm_store::KeyRelationSelector::build(&store, &pairs, 1, 2);
        let model = PkgmModel::new(
            store.n_entities() as usize,
            store.n_relations() as usize,
            PkgmConfig::new(4).with_seed(5),
        );
        let svc = KnowledgeService::new(model, selector);
        let bytes = service_to_bytes(&svc);
        let back = service_from_bytes(&bytes).unwrap();
        assert_eq!(back.k(), svc.k());
        assert_eq!(
            back.sequence_service(EntityId(1)),
            svc.sequence_service(EntityId(1))
        );
        assert_eq!(
            back.condensed_service(EntityId(2)),
            svc.condensed_service(EntityId(2))
        );
    }

    fn test_service() -> KnowledgeService {
        let mut b = StoreBuilder::new();
        for i in 0..4u32 {
            b.add_raw(i, 0, 4 + i % 2);
            b.add_raw(i, 1, 6);
        }
        let store = b.build();
        let pairs: Vec<(EntityId, u32)> = (0..4).map(|i| (EntityId(i), 0)).collect();
        let selector = pkgm_store::KeyRelationSelector::build(&store, &pairs, 1, 2);
        let model = PkgmModel::new(
            store.n_entities() as usize,
            store.n_relations() as usize,
            PkgmConfig::new(4).with_seed(5),
        );
        KnowledgeService::new(model, selector)
    }

    #[test]
    fn huge_declared_counts_are_rejected_not_sliced() {
        // A 32-byte header declaring ~u64::MAX entities must fail cleanly:
        // before the checked arithmetic fix the size computation overflowed
        // and the short buffer passed the length check.
        let mut bad = Vec::new();
        bad.extend_from_slice(MAGIC);
        bad.extend_from_slice(&8u32.to_le_bytes()); // dim
        bad.extend_from_slice(&1u32.to_le_bytes()); // flags: relation module
        bad.extend_from_slice(&(u64::MAX / 2).to_le_bytes()); // n_entities
        bad.extend_from_slice(&(u64::MAX / 2).to_le_bytes()); // n_relations
        bad.extend_from_slice(&[0u8; 64]); // a little tail data
        assert!(model_from_bytes(&bad).is_err());

        // A PKGMSS3 header declaring u64::MAX rows, correctly re-signed,
        // fails the checked section-size math.
        let snap = ServiceSnapshot::build(&test_service());
        let mut bad = crate::snapshot3::snapshot_to_ss3_bytes(&snap).unwrap();
        bad[24..32].copy_from_slice(&u64::MAX.to_le_bytes()); // n_rows
        let table_end = 64 + 2 * 24; // fixed header + two dense sections
        let crc = crate::artifact::crc32(&bad[..table_end]);
        bad[table_end..table_end + 4].copy_from_slice(&crc.to_le_bytes());
        assert!(snapshot_from_bytes(&bad).is_err());
    }

    fn temp_dir(name: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("pkgm-serialize-{name}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn file_roundtrips_are_framed_and_exact() {
        use crate::artifact::StdIo;
        let dir = temp_dir("files");

        let m = model();
        let mp = dir.join("m.pkgm");
        write_model_file(&StdIo, &mp, &m).unwrap();
        let back = read_model_file(&StdIo, &mp).unwrap();
        assert_eq!(back.ent, m.ent);

        let svc = test_service();
        let sp = dir.join("s.pkgm");
        write_service_file(&StdIo, &sp, &svc).unwrap();
        let back = read_service_file(&StdIo, &sp).unwrap();
        assert_eq!(
            back.condensed_service(EntityId(1)),
            svc.condensed_service(EntityId(1))
        );

        for snap in [
            ServiceSnapshot::build(&svc),
            ServiceSnapshot::build(&svc).quantize(),
        ] {
            let np = dir.join("n.ss3");
            write_snapshot_ss3_file(&StdIo, &np, &snap).unwrap();
            assert_eq!(open_snapshot_file(&np).unwrap(), snap);
        }

        // Kind confusion is a typed error, not a mis-decode.
        assert!(matches!(
            read_model_file(&StdIo, &sp),
            Err(ArtifactError::WrongKind { .. })
        ));
        assert!(matches!(
            open_snapshot_file(&sp),
            Err(ArtifactError::NotSnapshot { .. })
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Retired inputs — the SS1/SS2 row-stream snapshots, a
    /// `PKGMAF1` frame of the retired snapshot kind 3, and an unframed
    /// payload — are typed errors from every loader, never panics or
    /// unchecksummed loads.
    #[test]
    fn retired_inputs_are_typed_errors() {
        use crate::artifact::{StdIo, ARTIFACT_MAGIC, ARTIFACT_VERSION};
        let dir = temp_dir("retired");
        // Magic "PKGMSS{n}\0", dim, k, n_rows, rows.
        let stream_snapshot = |n: u32| {
            let mut b = format!("PKGMSS{n}\0").into_bytes();
            b.extend_from_slice(&4u32.to_le_bytes()); // dim
            b.extend_from_slice(&2u32.to_le_bytes()); // k
            b.extend_from_slice(&1u64.to_le_bytes()); // n_rows
            b.extend_from_slice(&[0u8; 8 * 4]); // one 2·dim row
            b
        };
        let payload = model_to_bytes(&model());
        let mut kind3 = ARTIFACT_MAGIC.to_vec();
        kind3.extend_from_slice(&ARTIFACT_VERSION.to_le_bytes());
        kind3.extend_from_slice(&3u32.to_le_bytes());
        kind3.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        kind3.extend_from_slice(&crate::artifact::crc32(&payload).to_le_bytes());
        kind3.extend_from_slice(&payload);
        let cases = [
            ("ss1", stream_snapshot(1)),
            ("ss2", stream_snapshot(2)),
            ("kind3", kind3),
            ("raw-model", payload.to_vec()),
        ];
        for (name, bytes) in &cases {
            let path = dir.join(name);
            std::fs::write(&path, bytes).unwrap();
            assert!(
                matches!(
                    open_snapshot_file(&path),
                    Err(ArtifactError::NotSnapshot { .. })
                ),
                "{name}: open_snapshot_file"
            );
            assert!(snapshot_from_bytes(bytes).is_err(), "{name}: decode");
            let unknown_kind = *name == "kind3";
            for loaded in [
                read_model_file(&StdIo, &path).err(),
                read_service_file(&StdIo, &path).err(),
            ] {
                match loaded {
                    Some(ArtifactError::WrongKind { found: None, .. }) => assert!(unknown_kind),
                    Some(ArtifactError::BadMagic { .. }) => assert!(!unknown_kind),
                    other => panic!("{name}: expected a typed framing error, got {other:?}"),
                }
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
