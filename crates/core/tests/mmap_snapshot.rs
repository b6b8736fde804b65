//! Corruption battery for the memory-mapped `PKGMSS3` snapshot path.
//!
//! The out-of-core contract: hostile bytes surface as **typed errors
//! through both backings** — the zero-copy mapped open (real mmap and its
//! heap fallback) and the fully-resident decoder — and never as panics.
//! A second property pins backing interchange: a snapshot written as
//! `PKGMSS3` answers `lookup_exact` bit-identically to the in-memory
//! table, whichever backing serves it. A third pins the mapped-file
//! contract: files are replaced by rename, never rewritten in place.

mod common;

use common::{
    find_section, lookup_bits, probe_ids, resign_header, HEADER_FIXED, OFF_N_SECTIONS,
    SECTION_ENTRY,
};
use pkgm_core::serialize::{snapshot_from_bytes, write_snapshot_ss3_file};
use pkgm_core::{
    open_mapped_snapshot, snapshot_to_ss3_bytes, KnowledgeService, PkgmConfig, PkgmModel,
    ServiceSnapshot, StdIo,
};
use pkgm_store::{EntityId, KeyRelationSelector, StoreBuilder};
use proptest::prelude::*;
use std::path::PathBuf;

// PKGMSS3 fixed-header field offsets (see snapshot3.rs layout docs).
const OFF_VERSION: usize = 8;
const OFF_FLAGS: usize = 12;
const OFF_DIM: usize = 16;
const OFF_N_ROWS: usize = 24;
const OFF_ROW_START: usize = 32;
const OFF_N_SHARDS: usize = 40;
const OFF_BLOCK: usize = 48;
const SEC_FALLBACK_F32: u32 = 2;
const SEC_QDATA_I8: u32 = 3;
const SEC_SCALES_F32: u32 = 4;
const SEC_ROWERR_F32: u32 = 5;
const SEC_EXACT_ROWS_F32: u32 = 7;

fn fixture(seed: u64) -> ServiceSnapshot {
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
        PkgmConfig::new(8).with_seed(seed),
    );
    ServiceSnapshot::build(&KnowledgeService::new(model, selector))
}

fn tmpfile(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pkgm-mmap-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

/// Every backing must reject `bytes` with a typed error: the resident
/// decoder, the real mmap open, and the heap-fallback open.
fn assert_rejected_everywhere(name: &str, bytes: &[u8], why: &str) {
    assert!(
        snapshot_from_bytes(bytes).is_err(),
        "resident decode accepted {why}"
    );
    let path = tmpfile(name);
    std::fs::write(&path, bytes).unwrap();
    assert!(
        open_mapped_snapshot(&path, false).is_err(),
        "mmap open accepted {why}"
    );
    assert!(
        open_mapped_snapshot(&path, true).is_err(),
        "heap-fallback open accepted {why}"
    );
    let _ = std::fs::remove_file(&path);
}

fn ss3_bytes(snapshot: &ServiceSnapshot) -> Vec<u8> {
    snapshot_to_ss3_bytes(snapshot).expect("fixture snapshot serializes")
}

#[test]
fn truncation_errors_at_every_layer() {
    let full = ss3_bytes(&fixture(3));
    let (_, fb_off, _) = find_section(&full, SEC_FALLBACK_F32);
    // Cut inside the fixed header, inside the section table, at the first
    // section boundary, mid-section, and one byte short of complete.
    let cuts = [
        0,
        7,
        HEADER_FIXED - 1,
        HEADER_FIXED + SECTION_ENTRY / 2,
        4096,
        fb_off as usize + 1,
        full.len() - 1,
    ];
    for &cut in &cuts {
        let cut = cut.min(full.len() - 1);
        assert_rejected_everywhere(
            "trunc.ss3",
            &full[..cut],
            &format!("a file truncated to {cut} bytes"),
        );
    }
}

#[test]
fn bit_flips_in_section_data_are_detected() {
    for quantized in [false, true] {
        let snap = if quantized {
            fixture(5).quantize()
        } else {
            fixture(5)
        };
        let full = ss3_bytes(&snap);
        // Flip one byte in every section's data; every section in this
        // fixture is below the eager-CRC limit, so the mapped open must
        // catch each flip just like the resident decoder does.
        let n_sections =
            u32::from_le_bytes(full[OFF_N_SECTIONS..OFF_N_SECTIONS + 4].try_into().unwrap())
                as usize;
        for i in 0..n_sections {
            let e = HEADER_FIXED + i * SECTION_ENTRY;
            let kind = u32::from_le_bytes(full[e..e + 4].try_into().unwrap());
            let off = u64::from_le_bytes(full[e + 8..e + 16].try_into().unwrap()) as usize;
            let len = u64::from_le_bytes(full[e + 16..e + 24].try_into().unwrap()) as usize;
            if len == 0 {
                continue;
            }
            let mut bad = full.clone();
            bad[off + len / 2] ^= 0x40;
            assert_rejected_everywhere(
                "flip.ss3",
                &bad,
                &format!("a bit flip inside section kind {kind}"),
            );
        }
    }
}

#[test]
fn header_crc_and_section_crc_flips_are_detected() {
    let full = ss3_bytes(&fixture(7));
    let n_sections =
        u32::from_le_bytes(full[OFF_N_SECTIONS..OFF_N_SECTIONS + 4].try_into().unwrap()) as usize;
    let table_end = HEADER_FIXED + n_sections * SECTION_ENTRY;
    // Flip a byte of the stored header CRC itself.
    let mut bad = full.clone();
    bad[table_end] ^= 0x01;
    assert_rejected_everywhere("hcrc.ss3", &bad, "a flipped header-CRC byte");
    // Flip a stored *section* CRC in the table without re-signing: the
    // header CRC covers the table, so this must fail at the header check.
    let mut bad = full.clone();
    bad[HEADER_FIXED + 4] ^= 0x80;
    assert_rejected_everywhere("scrc.ss3", &bad, "a flipped section-CRC table entry");
    // Same flip, re-signed: the header now parses, but the section data no
    // longer matches its declared CRC.
    resign_header(&mut bad);
    assert_rejected_everywhere("scrc2.ss3", &bad, "a re-signed stale section CRC");
}

#[test]
fn misaligned_section_offsets_are_rejected() {
    let full = ss3_bytes(&fixture(9));
    let (entry, off, _) = find_section(&full, SEC_FALLBACK_F32);
    // Knock the fallback section off its page boundary by 4 bytes and
    // re-sign, so only the alignment validation can catch it.
    let mut bad = full.clone();
    bad[entry + 8..entry + 16].copy_from_slice(&(off + 4).to_le_bytes());
    resign_header(&mut bad);
    assert_rejected_everywhere("align.ss3", &bad, "a page-misaligned section offset");
    // An offset pointing past the end of the file, re-signed.
    let mut bad = full.clone();
    let huge = (full.len() as u64).next_multiple_of(4096) + 4096;
    bad[entry + 8..entry + 16].copy_from_slice(&huge.to_le_bytes());
    resign_header(&mut bad);
    assert_rejected_everywhere("oob.ss3", &bad, "a section offset past EOF");
}

#[test]
fn degenerate_headers_are_rejected() {
    let full = ss3_bytes(&fixture(11));
    // Zero-entity shard.
    let mut bad = full.clone();
    bad[OFF_N_ROWS..OFF_N_ROWS + 8].copy_from_slice(&0u64.to_le_bytes());
    resign_header(&mut bad);
    assert_rejected_everywhere("zrows.ss3", &bad, "a zero-row shard header");
    // Garbage flags (unknown bits set).
    let mut bad = full.clone();
    bad[OFF_FLAGS..OFF_FLAGS + 4].copy_from_slice(&0xFFu32.to_le_bytes());
    resign_header(&mut bad);
    assert_rejected_everywhere("flags.ss3", &bad, "unknown header flags");
    // Unsupported version.
    let mut bad = full.clone();
    bad[OFF_VERSION..OFF_VERSION + 4].copy_from_slice(&99u32.to_le_bytes());
    resign_header(&mut bad);
    assert_rejected_everywhere("ver.ss3", &bad, "an unsupported version");
    // Zero shards in the shard spec.
    let mut bad = full.clone();
    bad[OFF_N_SHARDS..OFF_N_SHARDS + 4].copy_from_slice(&0u32.to_le_bytes());
    resign_header(&mut bad);
    assert_rejected_everywhere("nshard.ss3", &bad, "a zero-shard spec");
    // A shard whose global row range overflows the u32 entity-id space.
    let mut bad = full.clone();
    bad[OFF_ROW_START..OFF_ROW_START + 8].copy_from_slice(&u64::MAX.to_le_bytes());
    resign_header(&mut bad);
    assert_rejected_everywhere("idspace.ss3", &bad, "a shard range outside u32 id space");
    // Wrong magic entirely.
    let mut bad = full;
    bad[..8].copy_from_slice(b"PKGMZZZ\0");
    assert_rejected_everywhere("magic.ss3", &bad, "a wrong magic");
}

/// A quantized file whose header disagrees with its own shape: a block of
/// 0 or wider than a row, a zero dim or one the sections do not fit, a
/// payload that is not whole rows, one scale or row error too few, and a
/// stray float of escape rows. Each header is re-signed, so only the
/// shape checks object.
#[test]
fn quantized_shape_headers_are_rejected() {
    let full = ss3_bytes(&fixture(13).quantize());
    let set_u32 = |off: usize, v: u32| {
        let mut bad = full.clone();
        bad[off..off + 4].copy_from_slice(&v.to_le_bytes());
        resign_header(&mut bad);
        bad
    };
    let dim = u32::from_le_bytes(full[OFF_DIM..OFF_DIM + 4].try_into().unwrap());
    assert_rejected_everywhere("qblock0.ss3", &set_u32(OFF_BLOCK, 0), "a zero quant block");
    let wide = set_u32(OFF_BLOCK, 2 * dim + 1);
    assert_rejected_everywhere("qwide.ss3", &wide, "a block wider than a row");
    let dim_up = set_u32(OFF_DIM, dim + 1);
    assert_rejected_everywhere("qdim.ss3", &dim_up, "a dim the sections do not fit");
    assert_rejected_everywhere("qdim0.ss3", &set_u32(OFF_DIM, 0), "a zero dim");
    for (kind, delta, why) in [
        (SEC_QDATA_I8, -1i64, "a payload that is not whole rows"),
        (SEC_SCALES_F32, -4, "one scale too few"),
        (SEC_ROWERR_F32, -4, "one row error too few"),
        (
            SEC_EXACT_ROWS_F32,
            4,
            "escape rows that do not match the escape ids",
        ),
    ] {
        let (entry, _, len) = find_section(&full, kind);
        let mut bad = full.clone();
        let len = (len as i64 + delta) as u64;
        bad[entry + 16..entry + 24].copy_from_slice(&len.to_le_bytes());
        resign_header(&mut bad);
        assert_rejected_everywhere("qshape.ss3", &bad, why);
    }
}

/// A published file is replaced only by rename: a snapshot open on the
/// old file keeps serving its rows bit for bit after
/// `write_snapshot_ss3_file` puts a different table at the same path, and
/// a fresh open serves the new one.
#[test]
fn replacing_a_mapped_file_by_rename_keeps_open_snapshots_intact() {
    let (old, new) = (fixture(21), fixture(22).quantize());
    let ids = probe_ids(&old);
    let path = tmpfile("replaced.ss3");
    write_snapshot_ss3_file(&StdIo, &path, &old).unwrap();
    for force_heap in [false, true] {
        let open = open_mapped_snapshot(&path, force_heap).unwrap();
        write_snapshot_ss3_file(&StdIo, &path, &new).unwrap();
        assert_eq!(lookup_bits(&open, &ids), lookup_bits(&old, &ids));
        let fresh = open_mapped_snapshot(&path, force_heap).unwrap();
        assert_eq!(lookup_bits(&fresh, &ids), lookup_bits(&new, &ids));
        assert_ne!(lookup_bits(&new, &ids), lookup_bits(&old, &ids));
        write_snapshot_ss3_file(&StdIo, &path, &old).unwrap();
    }
    let _ = std::fs::remove_file(&path);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// `PKGMSS3` under every backing answers `lookup_exact` with the
    /// in-memory table's rows, bit for bit, and its exact/fallback verdicts.
    #[test]
    fn ss3_lookup_exact_matches_the_built_table_bit_for_bit(
        seed in 0u64..1000,
        quant in 0u32..2,
    ) {
        let quantized = quant == 1;
        let snap = if quantized { fixture(seed).quantize() } else { fixture(seed) };
        let ids = probe_ids(&snap);
        let want = lookup_bits(&snap, &ids);

        // SS3 bytes → resident decode.
        let bytes = snapshot_to_ss3_bytes(&snap).unwrap();
        let resident = snapshot_from_bytes(&bytes).unwrap();
        prop_assert_eq!(&lookup_bits(&resident, &ids), &want);

        // SS3 file → mapped open, real mmap and heap fallback.
        let path = tmpfile(&format!("parity-{seed}-{quantized}.ss3"));
        std::fs::write(&path, &bytes).unwrap();
        for force_heap in [false, true] {
            let mapped = open_mapped_snapshot(&path, force_heap).unwrap();
            prop_assert_eq!(&lookup_bits(&mapped, &ids), &want);
        }
        let _ = std::fs::remove_file(&path);
    }
}
