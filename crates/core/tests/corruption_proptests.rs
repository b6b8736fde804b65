//! Property-based corruption tests for every deserializer in pkgm-core.
//!
//! The crash-safety contract: bad bytes surface as typed errors, never as
//! panics. Raw (unframed) decoders may accept a corrupted buffer when the
//! flipped byte is indistinguishable from data — f32 payload bytes carry no
//! redundancy — but they must not panic, and truncation must always error.
//! The artifact framing adds a CRC32, which upgrades the guarantee: *any*
//! single corrupted byte and *any* truncation is rejected on load.
//!
//! Serving snapshots are `PKGMSS3` files, checked through both loaders:
//! a corrupted file is a typed error, or serves exactly the original rows
//! when the changed byte is in the unchecksummed zero padding between
//! sections.

mod common;

use common::{
    find_section, lookup_bits, probe_ids, resign_header, HEADER_FIXED, OFF_N_SECTIONS,
    SECTION_ENTRY,
};
use pkgm_core::artifact::{self, crc32, ArtifactKind};
use pkgm_core::serialize::{
    model_from_bytes, model_to_bytes, service_from_bytes, service_to_bytes, snapshot_from_bytes,
};
use pkgm_core::{
    open_mapped_snapshot, snapshot_to_ss3_bytes, KnowledgeService, PkgmConfig, PkgmModel,
    ServiceSnapshot,
};
use pkgm_store::{EntityId, KeyRelationSelector, StoreBuilder};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

/// `PKGMSS3` section kind of the quantization scales.
const SEC_SCALES_F32: u32 = 4;

fn fixture() -> (PkgmModel, KnowledgeService, ServiceSnapshot) {
    let mut b = StoreBuilder::new();
    for i in 0..6u32 {
        b.add_raw(i, 0, 6 + i % 2);
        b.add_raw(i, 1, 8);
    }
    let store = b.build();
    let pairs: Vec<(EntityId, u32)> = (0..6).map(|i| (EntityId(i), 0)).collect();
    let selector = KeyRelationSelector::build(&store, &pairs, 2, 2);
    let model = PkgmModel::new(
        store.n_entities() as usize,
        store.n_relations() as usize,
        PkgmConfig::new(8).with_seed(11),
    );
    let service = KnowledgeService::new(model.clone(), selector);
    let snapshot = ServiceSnapshot::build(&service);
    (model, service, snapshot)
}

/// Whether byte `at` of the valid `PKGMSS3` file `bytes` is padding: past
/// the CRC'd header and section table, and in no section.
fn is_padding(bytes: &[u8], at: usize) -> bool {
    let word = |i: usize, n: usize| {
        bytes[i..i + n]
            .iter()
            .rev()
            .fold(0u64, |w, &b| w << 8 | b as u64)
    };
    let n_sections = word(OFF_N_SECTIONS, 4) as usize;
    let in_section = (0..n_sections).any(|i| {
        let e = HEADER_FIXED + i * SECTION_ENTRY;
        (word(e + 8, 8)..word(e + 8, 8) + word(e + 16, 8)).contains(&(at as u64))
    });
    at >= HEADER_FIXED + n_sections * SECTION_ENTRY + 4 && !in_section
}

/// Truncation must error; one corrupted byte must not panic; garbage
/// appended after the payload is the caller's concern for raw buffers
/// (the framed path rejects it via the declared length).
fn check_raw<T>(
    bytes: &[u8],
    decode: impl Fn(&[u8]) -> Result<T, pkgm_core::serialize::SerializeError>,
    cut: usize,
    at: usize,
    to: u8,
) -> Result<(), TestCaseError> {
    let cut = cut.min(bytes.len().saturating_sub(1));
    prop_assert!(
        decode(&bytes[..cut]).is_err(),
        "truncation at {cut} accepted"
    );
    let mut mangled = bytes.to_vec();
    let at = at % mangled.len();
    mangled[at] = to;
    let _ = decode(&mangled); // must not panic; Ok is allowed for payload bytes
    Ok(())
}

/// With artifact framing the CRC must catch every corrupted byte (unless
/// the write is a no-op) and every truncation.
fn check_framed(
    kind: ArtifactKind,
    payload: &[u8],
    cut: usize,
    at: usize,
    to: u8,
) -> Result<(), TestCaseError> {
    let framed = artifact::encode(kind, payload);
    let p = std::path::Path::new("prop");
    let cut = cut.min(framed.len().saturating_sub(1));
    prop_assert!(artifact::decode(p, kind, &framed[..cut]).is_err());
    let mut mangled = framed.clone();
    let at = at % mangled.len();
    if mangled[at] != to {
        mangled[at] = to;
        prop_assert!(
            artifact::decode(p, kind, &mangled).is_err(),
            "byte {at} set to {to} went undetected"
        );
    }
    // Tail garbage is rejected too: the header declares the exact length.
    let mut longer = framed;
    longer.extend_from_slice(&[to, to ^ 0xFF, 0x5A]);
    prop_assert!(artifact::decode(p, kind, &longer).is_err());
    Ok(())
}

/// A `PKGMSS3` file cut to `cut` bytes, or with byte `at` set to `to`,
/// through the resident decoder and the mapped open: a typed error, or
/// (never for a cut, and for a changed byte only in padding) lookups
/// bit-equal to the original over [`probe_ids`]. Any panic fails the test.
fn check_ss3(
    snapshot: &ServiceSnapshot,
    cut: usize,
    at: usize,
    to: u8,
) -> Result<(), TestCaseError> {
    let bytes = snapshot_to_ss3_bytes(snapshot).expect("fixture snapshot has rows");
    let ids = probe_ids(snapshot);
    let want = lookup_bits(snapshot, &ids);
    let mut mangled = bytes.clone();
    let at = at % bytes.len();
    mangled[at] = to;
    let path = std::env::temp_dir().join(format!(
        "pkgm-corruption-{}-{at}-{to}.ss3",
        std::process::id()
    ));
    for (truncated, b) in [(true, &bytes[..cut % bytes.len()]), (false, &mangled[..])] {
        std::fs::write(&path, b).unwrap();
        let loads = [
            snapshot_from_bytes(b).ok(),
            open_mapped_snapshot(&path, true).ok(),
        ];
        for snap in loads.into_iter().flatten() {
            prop_assert!(!truncated, "a file cut to {} bytes loaded", b.len());
            prop_assert!(
                bytes[at] == to || is_padding(&bytes, at),
                "byte {} set to {} went undetected",
                at,
                to
            );
            prop_assert!(
                lookup_bits(&snap, &ids) == want,
                "byte {} set to {} changed a served row",
                at,
                to
            );
        }
    }
    let _ = std::fs::remove_file(&path);
    Ok(())
}

/// Cuts and single flips at the layout edges, which random offsets may
/// miss: inside the magic, inside the fixed header, at its end, in the
/// section table and its CRC, at the first section, mid-file and the last
/// byte. Both loaders reject every cut, and a flip anywhere but padding.
#[test]
fn snapshot_cuts_and_flips_at_the_layout_edges_are_caught() {
    let (_, _, snapshot) = fixture();
    let bytes = snapshot_to_ss3_bytes(&snapshot).unwrap();
    let len = bytes.len();
    let table_end = HEADER_FIXED + SECTION_ENTRY * (bytes[OFF_N_SECTIONS] as usize);
    let edges = [
        0,
        1,
        63,
        64,
        table_end - 1,
        table_end,
        table_end + 3,
        table_end + 4,
    ];
    for at in edges.into_iter().chain([4096, len / 2, len - 1]) {
        check_ss3(&snapshot, at, at, bytes[at] ^ 0x10).unwrap();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn model_decoder_never_panics(cut in 0usize..4096, at in 0usize..4096, to in 0u32..256) {
        let (model, _, _) = fixture();
        let bytes = model_to_bytes(&model);
        check_raw(&bytes, model_from_bytes, cut, at, to as u8)?;
        check_framed(ArtifactKind::Model, &bytes, cut, at, to as u8)?;
    }

    #[test]
    fn service_decoder_never_panics(cut in 0usize..4096, at in 0usize..4096, to in 0u32..256) {
        let (_, service, _) = fixture();
        let bytes = service_to_bytes(&service);
        check_raw(&bytes, service_from_bytes, cut, at, to as u8)?;
        check_framed(ArtifactKind::Service, &bytes, cut, at, to as u8)?;
    }

    #[test]
    fn snapshot_decoder_never_panics(cut in 0usize..1 << 16, at in 0usize..1 << 16, to in 0u32..256) {
        let (_, _, snapshot) = fixture();
        check_ss3(&snapshot, cut, at, to as u8)?;
    }

    /// The quantized file takes the same contract as the dense one — and
    /// its resident decoder validates values, not just CRCs: a scale whose
    /// sign is flipped, with both CRCs re-signed to match, must still be
    /// a typed error rather than a silently wrong table.
    #[test]
    fn quantized_snapshot_decoder_never_panics(
        cut in 0usize..1 << 16,
        at in 0usize..1 << 16,
        to in 0u32..256,
    ) {
        let (_, _, snapshot) = fixture();
        let quant = snapshot.quantize();
        check_ss3(&quant, cut, at, to as u8)?;
        let mut mangled = snapshot_to_ss3_bytes(&quant).unwrap();
        let (entry, offset, len) = find_section(&mangled, SEC_SCALES_F32);
        let slot = offset as usize + (at % (len as usize / 4)) * 4 + 3;
        // A zero scale sign-flips to -0.0, which still satisfies `>= 0`;
        // require exponent bits so the flip lands strictly below zero.
        if mangled[slot] & 0x7F != 0 {
            mangled[slot] ^= 0x80;
            let body = &mangled[offset as usize..(offset + len) as usize];
            let crc = crc32(body);
            mangled[entry + 4..entry + 8].copy_from_slice(&crc.to_le_bytes());
            resign_header(&mut mangled);
            prop_assert!(
                snapshot_from_bytes(&mangled).is_err(),
                "negative scale at byte {} went undetected",
                slot
            );
        }
    }
}
