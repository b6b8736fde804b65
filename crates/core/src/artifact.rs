//! Atomic, checksummed artifact container for everything PKGM puts on disk.
//!
//! Multi-day pre-training runs and always-on serving fleets both die on torn
//! writes: a `kill -9` halfway through `fs::write` leaves a prefix of the
//! bytes at the destination path, and the next load either panics mid-slice
//! or silently serves garbage. This module gives every artifact (model,
//! service, training checkpoint) the same two defenses (serving snapshots
//! are `PKGMSS3` files with their own CRCs, see [`crate::snapshot3`]):
//!
//! 1. **Atomic durability** — [`ArtifactIo::write_atomic`] writes to a temp
//!    file in the destination directory, `fsync`s it, renames it over the
//!    destination, and best-effort-`fsync`s the directory. A crash at any
//!    point leaves either the old file or the new file, never a prefix.
//! 2. **Integrity framing** — [`encode`] prepends a fixed 28-byte header
//!    (magic, format version, payload kind, payload length, CRC32 of the
//!    payload); [`decode`] rejects truncation, tail garbage, bit flips and
//!    kind confusion with typed [`ArtifactError`]s instead of panicking.
//!    Writers of large payloads build the frame in place instead
//!    ([`frame_begin`] → append → [`frame_seal`], which is also all
//!    [`encode`] does), so a payload is serialized, checksummed and written
//!    from one buffer.
//!
//! All I/O goes through the [`ArtifactIo`] trait so the tests' fault
//! injection can deterministically simulate crashes and corruption.
//!
//! ```text
//! magic  "PKGMAF1\0"     8 bytes
//! version                u32   (currently 1)
//! kind                   u32   (ArtifactKind discriminant)
//! payload_len            u64
//! payload_crc32          u32   (IEEE, over the payload bytes only)
//! payload                payload_len bytes
//! ```

use std::fmt;
use std::io::Write;
use std::path::{Path, PathBuf};

use crate::simd;

/// Leading bytes of every framed artifact file.
pub const ARTIFACT_MAGIC: &[u8; 8] = b"PKGMAF1\0";
/// Current container format version.
pub const ARTIFACT_VERSION: u32 = 1;
/// Fixed header size preceding the payload.
pub const HEADER_LEN: usize = 8 + 4 + 4 + 8 + 4;

/// What an artifact's payload contains. The kind is part of the header so a
/// service file handed to `--snapshot` fails loudly instead of mis-decoding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArtifactKind {
    /// A bare [`crate::PkgmModel`] (`model_to_bytes`).
    Model,
    /// A [`crate::KnowledgeService`] — model + selector (`service_to_bytes`).
    Service,
    /// A training checkpoint: model + optimizer + progress state.
    Checkpoint,
}

impl ArtifactKind {
    fn as_u32(self) -> u32 {
        match self {
            ArtifactKind::Model => 1,
            ArtifactKind::Service => 2,
            // 3 framed the retired stream snapshots; it stays unassigned
            // so such a file fails as an unknown kind.
            ArtifactKind::Checkpoint => 4,
        }
    }

    fn from_u32(v: u32) -> Option<Self> {
        match v {
            1 => Some(ArtifactKind::Model),
            2 => Some(ArtifactKind::Service),
            4 => Some(ArtifactKind::Checkpoint),
            _ => None,
        }
    }

    /// Human-readable kind name for error messages.
    pub fn name(self) -> &'static str {
        match self {
            ArtifactKind::Model => "model",
            ArtifactKind::Service => "service",
            ArtifactKind::Checkpoint => "checkpoint",
        }
    }
}

impl fmt::Display for ArtifactKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Typed failures for artifact I/O and validation. Every load failure is an
/// `Err`, never a panic — the serve path must survive bad bytes.
#[derive(Debug)]
pub enum ArtifactError {
    /// Underlying filesystem operation failed.
    Io {
        /// Path the operation targeted.
        path: PathBuf,
        /// The OS error.
        source: std::io::Error,
    },
    /// File does not start with [`ARTIFACT_MAGIC`].
    BadMagic {
        /// Offending file.
        path: PathBuf,
    },
    /// A snapshot path does not hold a `PKGMSS3` file (e.g. a retired
    /// stream snapshot, or a framed artifact handed to `--snapshot`).
    NotSnapshot {
        /// Offending file.
        path: PathBuf,
    },
    /// Header declares a container version this build cannot read.
    UnsupportedVersion {
        /// Offending file.
        path: PathBuf,
        /// Version found in the header.
        found: u32,
    },
    /// Header kind differs from what the caller expected.
    WrongKind {
        /// Offending file.
        path: PathBuf,
        /// Kind the caller asked for.
        expected: ArtifactKind,
        /// Kind the header declares (`None` = unknown discriminant).
        found: Option<ArtifactKind>,
    },
    /// Fewer (or more) payload bytes than the header declares.
    Truncated {
        /// Offending file.
        path: PathBuf,
        /// Payload bytes the header promised.
        expected: u64,
        /// Payload bytes actually present.
        found: u64,
    },
    /// Payload bytes do not match the header checksum (bit rot / torn write).
    ChecksumMismatch {
        /// Offending file.
        path: PathBuf,
        /// CRC32 recorded in the header.
        expected: u32,
        /// CRC32 of the bytes on disk.
        found: u32,
    },
    /// Framing was intact but the payload failed to decode.
    Corrupt {
        /// Offending file.
        path: PathBuf,
        /// Decoder's description of the failure.
        what: String,
    },
    /// A fault-injection plan deliberately failed this operation (tests
    /// only).
    Injected {
        /// Path the faulted operation targeted.
        path: PathBuf,
        /// Which fault fired.
        what: String,
    },
}

impl fmt::Display for ArtifactError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArtifactError::Io { path, source } => {
                write!(f, "artifact I/O failed for {}: {source}", path.display())
            }
            ArtifactError::BadMagic { path } => {
                write!(f, "{}: not a PKGM artifact (bad magic)", path.display())
            }
            ArtifactError::NotSnapshot { path } => write!(
                f,
                "{}: not a PKGMSS3 snapshot; rebuild it with \
                 `pkgm snapshot --service SVC --out FILE`",
                path.display()
            ),
            ArtifactError::UnsupportedVersion { path, found } => write!(
                f,
                "{}: unsupported artifact version {found} (this build reads {ARTIFACT_VERSION})",
                path.display()
            ),
            ArtifactError::WrongKind {
                path,
                expected,
                found,
            } => write!(
                f,
                "{}: expected a {expected} artifact, found {}",
                path.display(),
                found.map_or("an unknown kind", ArtifactKind::name)
            ),
            ArtifactError::Truncated {
                path,
                expected,
                found,
            } => write!(
                f,
                "{}: truncated artifact (header declares {expected} payload bytes, found {found})",
                path.display()
            ),
            ArtifactError::ChecksumMismatch {
                path,
                expected,
                found,
            } => write!(
                f,
                "{}: checksum mismatch (header {expected:#010x}, payload {found:#010x})",
                path.display()
            ),
            ArtifactError::Corrupt { path, what } => {
                write!(f, "{}: corrupt payload: {what}", path.display())
            }
            ArtifactError::Injected { path, what } => {
                write!(f, "{}: injected fault: {what}", path.display())
            }
        }
    }
}

impl std::error::Error for ArtifactError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ArtifactError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

// --- CRC32 (IEEE 802.3, reflected) -----------------------------------------

/// CRC32 (IEEE) of `bytes`. Detects all single-bit flips and all burst
/// errors shorter than 32 bits — sufficient for torn-write and bit-rot
/// detection on model artifacts.
pub fn crc32(bytes: &[u8]) -> u32 {
    !crc32_update(!0u32, bytes)
}

/// Incremental CRC32: feed chunks into `state` (start from `!0u32`) and
/// finish with a final bitwise-not. Lets the streaming snapshot writer
/// checksum sections it never holds in memory at once;
/// `crc32(b) == !crc32_update(!0, b)`. The arithmetic lives in
/// [`crate::simd`] (slice-by-8 scalar twin, carry-less-multiply folding
/// where the CPU has it); the value is the same on every path.
pub fn crc32_update(state: u32, bytes: &[u8]) -> u32 {
    simd::crc32_update(state, bytes)
}

// --- framing ----------------------------------------------------------------

/// Start a frame in `buf`: clear it, reserve room for `payload_len` payload
/// bytes and leave [`HEADER_LEN`] placeholder bytes at the front. The
/// caller appends the payload directly behind them, then calls
/// [`frame_seal`] — the payload is never copied into a second buffer.
pub fn frame_begin(buf: &mut Vec<u8>, payload_len: usize) {
    buf.clear();
    buf.reserve(HEADER_LEN + payload_len);
    buf.resize(HEADER_LEN, 0);
}

/// Seal the frame [`frame_begin`] started: checksum the payload where it
/// lies (`frame[HEADER_LEN..]`) and write the header over the placeholder.
/// Only a sealed frame may be handed to [`ArtifactIo::write_atomic`].
///
/// # Panics
/// If `frame` is shorter than the header [`frame_begin`] reserves.
pub fn frame_seal(kind: ArtifactKind, frame: &mut [u8]) {
    let (header, payload) = frame
        .split_first_chunk_mut::<HEADER_LEN>()
        .expect("frame_begin reserved the header");
    header[..8].copy_from_slice(ARTIFACT_MAGIC);
    header[8..12].copy_from_slice(&ARTIFACT_VERSION.to_le_bytes());
    header[12..16].copy_from_slice(&kind.as_u32().to_le_bytes());
    header[16..24].copy_from_slice(&(payload.len() as u64).to_le_bytes());
    header[24..28].copy_from_slice(&crc32(payload).to_le_bytes());
}

/// Frame `payload` with the versioned, checksummed artifact header.
pub fn encode(kind: ArtifactKind, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
    frame_begin(&mut out, payload.len());
    out.extend_from_slice(payload);
    frame_seal(kind, &mut out);
    out
}

/// Validate the frame around `bytes` and return the payload slice.
///
/// `path` is used only for error messages. Rejects bad magic, unknown
/// versions, kind mismatches, truncation, tail garbage and checksum
/// failures; never panics on any input.
pub fn decode<'a>(
    path: &Path,
    expected: ArtifactKind,
    bytes: &'a [u8],
) -> Result<&'a [u8], ArtifactError> {
    if bytes.len() < HEADER_LEN || &bytes[..8] != ARTIFACT_MAGIC {
        return Err(ArtifactError::BadMagic {
            path: path.to_path_buf(),
        });
    }
    let u32_at = |off: usize| u32::from_le_bytes(bytes[off..off + 4].try_into().expect("4 bytes"));
    let version = u32_at(8);
    if version != ARTIFACT_VERSION {
        return Err(ArtifactError::UnsupportedVersion {
            path: path.to_path_buf(),
            found: version,
        });
    }
    let kind = ArtifactKind::from_u32(u32_at(12));
    if kind != Some(expected) {
        return Err(ArtifactError::WrongKind {
            path: path.to_path_buf(),
            expected,
            found: kind,
        });
    }
    let declared = u64::from_le_bytes(bytes[16..24].try_into().expect("8 bytes"));
    let actual = (bytes.len() - HEADER_LEN) as u64;
    if declared != actual {
        return Err(ArtifactError::Truncated {
            path: path.to_path_buf(),
            expected: declared,
            found: actual,
        });
    }
    let payload = &bytes[HEADER_LEN..];
    let recorded = u32_at(24);
    let computed = crc32(payload);
    if recorded != computed {
        return Err(ArtifactError::ChecksumMismatch {
            path: path.to_path_buf(),
            expected: recorded,
            found: computed,
        });
    }
    Ok(payload)
}

// --- I/O abstraction --------------------------------------------------------

/// Filesystem operations the artifact layer needs, as a trait so the
/// tests' fault-injecting implementation can deterministically simulate
/// crashes, torn writes and bit rot underneath real callers.
pub trait ArtifactIo {
    /// Durably replace `path` with `bytes`: temp file + fsync + rename.
    /// After a crash at any point, `path` holds either its previous contents
    /// or all of `bytes` — never a prefix.
    fn write_atomic(&self, path: &Path, bytes: &[u8]) -> Result<(), ArtifactError>;

    /// Read the whole file at `path`.
    fn read(&self, path: &Path) -> Result<Vec<u8>, ArtifactError>;

    /// Delete the file at `path` (used when an out-of-core commit retires
    /// the files its predecessor superseded, and by resume).
    fn remove(&self, path: &Path) -> Result<(), ArtifactError>;

    /// List the files directly inside `dir`.
    fn list(&self, dir: &Path) -> Result<Vec<PathBuf>, ArtifactError>;
}

/// The real filesystem implementation of [`ArtifactIo`].
#[derive(Debug, Default, Clone, Copy)]
pub struct StdIo;

impl StdIo {
    fn io_err(path: &Path, source: std::io::Error) -> ArtifactError {
        ArtifactError::Io {
            path: path.to_path_buf(),
            source,
        }
    }
}

impl ArtifactIo for StdIo {
    fn write_atomic(&self, path: &Path, bytes: &[u8]) -> Result<(), ArtifactError> {
        let dir = path.parent().filter(|p| !p.as_os_str().is_empty());
        if let Some(dir) = dir {
            std::fs::create_dir_all(dir).map_err(|e| Self::io_err(path, e))?;
        }
        // Temp file in the destination directory so the rename cannot cross
        // filesystems (cross-device renames are not atomic).
        let file_name = path
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_else(|| "artifact".to_string());
        let tmp = path.with_file_name(format!(".{file_name}.tmp.{}", std::process::id()));
        let result = (|| {
            let mut f = std::fs::File::create(&tmp).map_err(|e| Self::io_err(&tmp, e))?;
            f.write_all(bytes).map_err(|e| Self::io_err(&tmp, e))?;
            // Data must be on disk before the rename publishes it, else the
            // rename can survive a crash while the contents do not.
            f.sync_all().map_err(|e| Self::io_err(&tmp, e))?;
            drop(f);
            std::fs::rename(&tmp, path).map_err(|e| Self::io_err(path, e))?;
            // Durable directory entry: best-effort (not all platforms allow
            // opening directories for sync).
            if let Some(dir) = dir {
                if let Ok(d) = std::fs::File::open(dir) {
                    let _ = d.sync_all();
                }
            }
            Ok(())
        })();
        if result.is_err() {
            let _ = std::fs::remove_file(&tmp);
        }
        result
    }

    fn read(&self, path: &Path) -> Result<Vec<u8>, ArtifactError> {
        std::fs::read(path).map_err(|e| Self::io_err(path, e))
    }

    fn remove(&self, path: &Path) -> Result<(), ArtifactError> {
        std::fs::remove_file(path).map_err(|e| Self::io_err(path, e))
    }

    fn list(&self, dir: &Path) -> Result<Vec<PathBuf>, ArtifactError> {
        let mut out = Vec::new();
        for entry in std::fs::read_dir(dir).map_err(|e| Self::io_err(dir, e))? {
            let entry = entry.map_err(|e| Self::io_err(dir, e))?;
            out.push(entry.path());
        }
        out.sort();
        Ok(out)
    }
}

/// Frame `payload` as `kind` and atomically write it to `path`.
pub fn write_artifact(
    io: &dyn ArtifactIo,
    path: &Path,
    kind: ArtifactKind,
    payload: &[u8],
) -> Result<(), ArtifactError> {
    io.write_atomic(path, &encode(kind, payload))
}

/// Read `path`, validate its frame as `kind`, and return the payload.
pub fn read_artifact(
    io: &dyn ArtifactIo,
    path: &Path,
    kind: ArtifactKind,
) -> Result<Vec<u8>, ArtifactError> {
    let mut bytes = io.read(path)?;
    decode(path, kind, &bytes)?;
    bytes.drain(..HEADER_LEN);
    Ok(bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p() -> PathBuf {
        PathBuf::from("test.pkgm")
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard IEEE CRC32 check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn encode_decode_roundtrip() {
        let payload = b"hello artifact".to_vec();
        let framed = encode(ArtifactKind::Model, &payload);
        assert_eq!(framed.len(), HEADER_LEN + payload.len());
        let back = decode(&p(), ArtifactKind::Model, &framed).unwrap();
        assert_eq!(back, &payload[..]);
    }

    #[test]
    fn decode_rejects_every_truncation_point() {
        let framed = encode(ArtifactKind::Service, b"some payload bytes");
        for cut in 0..framed.len() {
            let err = decode(&p(), ArtifactKind::Service, &framed[..cut]);
            assert!(err.is_err(), "truncation at {cut} must be rejected");
        }
    }

    #[test]
    fn decode_rejects_every_single_bit_flip() {
        let framed = encode(ArtifactKind::Checkpoint, b"payload under test");
        for byte in 0..framed.len() {
            for bit in 0..8 {
                let mut bad = framed.clone();
                bad[byte] ^= 1 << bit;
                assert!(
                    decode(&p(), ArtifactKind::Checkpoint, &bad).is_err(),
                    "bit flip at byte {byte} bit {bit} must be rejected"
                );
            }
        }
    }

    #[test]
    fn decode_rejects_tail_garbage() {
        let mut framed = encode(ArtifactKind::Model, b"abc");
        framed.extend_from_slice(b"junk");
        assert!(matches!(
            decode(&p(), ArtifactKind::Model, &framed),
            Err(ArtifactError::Truncated { .. })
        ));
    }

    #[test]
    fn decode_rejects_kind_confusion_and_version_skew() {
        let framed = encode(ArtifactKind::Model, b"abc");
        assert!(matches!(
            decode(&p(), ArtifactKind::Service, &framed),
            Err(ArtifactError::WrongKind { .. })
        ));
        let mut future = framed.clone();
        future[8..12].copy_from_slice(&99u32.to_le_bytes());
        assert!(matches!(
            decode(&p(), ArtifactKind::Model, &future),
            Err(ArtifactError::UnsupportedVersion { .. })
        ));
    }

    #[test]
    fn std_io_write_is_atomic_and_readable() {
        let dir = std::env::temp_dir().join(format!("pkgm-artifact-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("m.pkgm");
        write_artifact(&StdIo, &path, ArtifactKind::Model, b"v1").unwrap();
        assert_eq!(
            read_artifact(&StdIo, &path, ArtifactKind::Model).unwrap(),
            b"v1"
        );
        // Overwrite replaces contents and leaves no temp droppings.
        write_artifact(&StdIo, &path, ArtifactKind::Model, b"v2").unwrap();
        assert_eq!(
            read_artifact(&StdIo, &path, ArtifactKind::Model).unwrap(),
            b"v2"
        );
        let leftovers: Vec<_> = StdIo
            .list(&dir)
            .unwrap()
            .into_iter()
            .filter(|p| {
                p.file_name()
                    .is_some_and(|n| n.to_string_lossy().contains(".tmp."))
            })
            .collect();
        assert!(
            leftovers.is_empty(),
            "temp files left behind: {leftovers:?}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn read_missing_file_is_typed_io_error() {
        let err = read_artifact(
            &StdIo,
            Path::new("/nonexistent/x.pkgm"),
            ArtifactKind::Model,
        );
        assert!(matches!(err, Err(ArtifactError::Io { .. })));
    }
}
