//! `PKGMSS3` byte surgery and lookup probes shared by the corruption
//! suites.

use pkgm_core::artifact::crc32;
use pkgm_core::ServiceSnapshot;
use pkgm_store::EntityId;

// PKGMSS3 fixed-header layout (see snapshot3.rs layout docs).
pub const OFF_N_SECTIONS: usize = 52;
pub const HEADER_FIXED: usize = 64;
pub const SECTION_ENTRY: usize = 24;

fn n_sections(bytes: &[u8]) -> usize {
    u32::from_le_bytes(
        bytes[OFF_N_SECTIONS..OFF_N_SECTIONS + 4]
            .try_into()
            .unwrap(),
    ) as usize
}

/// Recompute the header CRC after a deliberate header patch, so the test
/// exercises the *semantic* validation rather than the checksum.
pub fn resign_header(bytes: &mut [u8]) {
    let table_end = HEADER_FIXED + n_sections(bytes) * SECTION_ENTRY;
    let crc = crc32(&bytes[..table_end]);
    bytes[table_end..table_end + 4].copy_from_slice(&crc.to_le_bytes());
}

/// Section-table entry for `kind`: (entry offset, data offset, data len).
pub fn find_section(bytes: &[u8], kind: u32) -> (usize, u64, u64) {
    for i in 0..n_sections(bytes) {
        let e = HEADER_FIXED + i * SECTION_ENTRY;
        if u32::from_le_bytes(bytes[e..e + 4].try_into().unwrap()) == kind {
            let offset = u64::from_le_bytes(bytes[e + 8..e + 16].try_into().unwrap());
            let len = u64::from_le_bytes(bytes[e + 16..e + 24].try_into().unwrap());
            return (e, offset, len);
        }
    }
    panic!("section kind {kind} not present");
}

/// All ids a fixture snapshot can answer, plus misses on either side.
pub fn probe_ids(snap: &ServiceSnapshot) -> Vec<u32> {
    let n = snap.n_rows() as u32;
    (0..n).chain([n, n + 17, u32::MAX]).collect()
}

/// `lookup_exact` over `ids`: the served/fallback verdict and row bits.
pub fn lookup_bits(snap: &ServiceSnapshot, ids: &[u32]) -> Vec<(bool, Vec<u32>)> {
    let mut row = Vec::new();
    ids.iter()
        .map(|&id| {
            let exact = snap.lookup_exact(EntityId(id), &mut row);
            (exact, row.iter().map(|x| x.to_bits()).collect())
        })
        .collect()
}
