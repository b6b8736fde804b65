//! Minimal read-only memory mapping with a heap fallback.
//!
//! The out-of-core serving path ([`crate::snapshot3`]) wants snapshot
//! sections mapped straight from disk so a row lookup is pointer
//! arithmetic into the page cache — no per-row decode, no heap copy, and
//! startup cost independent of table size. The container ships no `libc`
//! crate, so the three syscalls we need (`mmap`/`munmap`/`madvise`) are
//! declared directly against the C ABI on unix targets.
//!
//! Everything is wrapped in [`MmapRegion`], which presents the file as a
//! plain `&[u8]` regardless of backing:
//!
//! * **Mapped** — a private read-only mapping of the whole file. Dropped
//!   with `munmap`. Advised `MADV_RANDOM` because snapshot lookups are
//!   point reads, not scans; `MADV_DONTNEED` when a retired table should
//!   leave the resident set before its last reader lets go.
//! * **Heap** — an owned 8-byte-aligned buffer: a file read in (on
//!   non-unix targets, when the mapping syscall fails, or when forced by
//!   tests or the `PKGM_NO_MMAP` environment variable), or the image an
//!   in-memory snapshot build writes, or a copy of bytes to decode. The
//!   writers in [`crate::snapshot3`] fill it through
//!   [`MmapRegion::heap_bytes_mut`].
//!
//! The buffer alignment matters: snapshot sections are reinterpreted as
//! `&[f32]`/`&[u32]` slices, so the heap backing stores `Vec<u64>` (8-byte
//! aligned) rather than `Vec<u8>` (1-byte aligned). Mapped memory is
//! page-aligned by definition.
//!
//! ## Mapped files are immutable
//!
//! A mapping shares the file's pages. A published `PKGMSS3` file is never
//! written again: it is replaced only by writing a new file and renaming
//! it over the old path (every writer here does exactly that), which
//! leaves the old inode, and every mapping of it, intact until the last
//! reader drops it. Rewriting or truncating a mapped file in place is not
//! a typed error: a read past a truncation raises `SIGBUS`, and a read of
//! a rewritten page sees torn bytes that no CRC re-checks.

use std::fs::File;
use std::io::Read;
use std::path::Path;

#[cfg(unix)]
mod sys {
    use std::ffi::c_void;

    pub const PROT_READ: i32 = 1;
    pub const MAP_PRIVATE: i32 = 2;
    /// Expect point lookups; don't read ahead aggressively.
    pub const MADV_RANDOM: i32 = 1;
    /// Unmap the pages from the resident set; the next read refaults them.
    pub const MADV_DONTNEED: i32 = 4;

    extern "C" {
        pub fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: i32,
            flags: i32,
            fd: i32,
            offset: i64,
        ) -> *mut c_void;
        pub fn munmap(addr: *mut c_void, len: usize) -> i32;
        pub fn madvise(addr: *mut c_void, len: usize, advice: i32) -> i32;
    }
}

enum Backing {
    /// Start pointer + length of a live `mmap` region (unix only).
    #[cfg(unix)]
    Mapped { ptr: *const u8, len: usize },
    /// File contents copied into an 8-byte-aligned heap buffer. The
    /// `u64` element type guarantees the alignment that section slices
    /// (`f32`/`u32`) require; `len` is the byte length (the last word
    /// may be padding).
    Heap { buf: Vec<u64>, len: usize },
}

/// A read-only view of a whole file, mapped when possible.
pub struct MmapRegion {
    backing: Backing,
}

// SAFETY: both backings are owned uniquely by this struct. A mapping is
// read-only for its whole lifetime, and a heap buffer is written only
// through `&mut self`, so threads sharing a reference only read.
unsafe impl Send for MmapRegion {}
unsafe impl Sync for MmapRegion {}

impl MmapRegion {
    /// Open `path`, preferring a read-only mapping. Set `force_heap` to
    /// skip the syscall entirely (tests exercise the fallback this way;
    /// the public entry points also honor the `PKGM_NO_MMAP` environment
    /// variable).
    pub fn open(path: &Path, force_heap: bool) -> std::io::Result<Self> {
        let mut file = File::open(path)?;
        let len = file.metadata()?.len();
        let len = usize::try_from(len).map_err(|_| {
            std::io::Error::new(std::io::ErrorKind::InvalidData, "file too large to map")
        })?;
        if !force_heap && !no_mmap_env() {
            #[cfg(unix)]
            if len > 0 {
                if let Some(region) = Self::try_map(&file, len) {
                    return Ok(region);
                }
            }
        }
        // Fallback: read into an 8-byte-aligned buffer.
        let mut region = Self::heap(len, len);
        file.read_exact(region.heap_bytes_mut())?;
        Ok(region)
    }

    /// A zeroed heap region of `len` bytes with room reserved for
    /// `capacity`, so [`Self::grow_heap`] up to it never moves the bytes.
    pub(crate) fn heap(len: usize, capacity: usize) -> Self {
        let mut buf = Vec::with_capacity(capacity.max(len).div_ceil(8));
        buf.resize(len.div_ceil(8), 0u64);
        Self {
            backing: Backing::Heap { buf, len },
        }
    }

    /// A heap region holding a copy of `bytes`.
    pub(crate) fn copy_of(bytes: &[u8]) -> Self {
        let mut region = Self::heap(bytes.len(), bytes.len());
        region.heap_bytes_mut().copy_from_slice(bytes);
        region
    }

    /// Extend a heap region with zeros to `len` bytes (never shrinks).
    ///
    /// # Panics
    /// On a mapping.
    pub(crate) fn grow_heap(&mut self, new_len: usize) {
        let Backing::Heap { buf, len } = &mut self.backing else {
            panic!("a mapping cannot grow");
        };
        if new_len > *len {
            buf.resize(new_len.div_ceil(8), 0);
            *len = new_len;
        }
    }

    /// The bytes of a heap region, writable.
    ///
    /// # Panics
    /// On a mapping: mapped files are immutable (see the module docs).
    pub(crate) fn heap_bytes_mut(&mut self) -> &mut [u8] {
        let Backing::Heap { buf, len } = &mut self.backing else {
            panic!("mapped bytes are read-only");
        };
        // SAFETY: `buf` owns at least `len` initialized bytes (`len.div_ceil(8)`
        // words), u8 has no invalid bit patterns and alignment 1, and the
        // buffer stays exclusively borrowed for the slice's lifetime.
        unsafe { std::slice::from_raw_parts_mut(buf.as_mut_ptr().cast::<u8>(), *len) }
    }

    #[cfg(unix)]
    fn try_map(file: &File, len: usize) -> Option<Self> {
        use std::os::fd::AsRawFd;
        let ptr = unsafe {
            sys::mmap(
                std::ptr::null_mut(),
                len,
                sys::PROT_READ,
                sys::MAP_PRIVATE,
                file.as_raw_fd(),
                0,
            )
        };
        if ptr as usize == usize::MAX {
            return None; // MAP_FAILED — fall back to the heap read.
        }
        // Advisory only; ignore failure.
        unsafe { sys::madvise(ptr, len, sys::MADV_RANDOM) };
        Some(Self {
            backing: Backing::Mapped {
                ptr: ptr as *const u8,
                len,
            },
        })
    }

    /// The file contents. Guaranteed 8-byte aligned at offset 0.
    pub fn bytes(&self) -> &[u8] {
        match &self.backing {
            #[cfg(unix)]
            Backing::Mapped { ptr, len } => unsafe { std::slice::from_raw_parts(*ptr, *len) },
            Backing::Heap { buf, len } => unsafe {
                std::slice::from_raw_parts(buf.as_ptr() as *const u8, *len)
            },
        }
    }

    /// Drop the mapped pages from this process's resident set. The next
    /// read faults the same bytes back in from the file (the mapping is
    /// private and never written), so concurrent readers stay correct.
    /// A no-op for the heap fallback.
    pub fn release_resident(&self) {
        #[cfg(unix)]
        if let Backing::Mapped { ptr, len } = self.backing {
            // Advisory only; ignore failure.
            unsafe { sys::madvise(ptr as *mut std::ffi::c_void, len, sys::MADV_DONTNEED) };
        }
    }

    /// True when backed by a live `mmap` (false for the heap fallback).
    pub fn is_mapped(&self) -> bool {
        match &self.backing {
            #[cfg(unix)]
            Backing::Mapped { .. } => true,
            Backing::Heap { .. } => false,
        }
    }
}

impl Drop for MmapRegion {
    fn drop(&mut self) {
        #[cfg(unix)]
        if let Backing::Mapped { ptr, len } = self.backing {
            unsafe { sys::munmap(ptr as *mut std::ffi::c_void, len) };
        }
    }
}

impl std::fmt::Debug for MmapRegion {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MmapRegion")
            .field("len", &self.bytes().len())
            .field("mapped", &self.is_mapped())
            .finish()
    }
}

/// True when the `PKGM_NO_MMAP` environment variable disables mapping
/// (any non-empty value other than `0`).
fn no_mmap_env() -> bool {
    match std::env::var("PKGM_NO_MMAP") {
        Ok(v) => !v.is_empty() && v != "0",
        Err(_) => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;

    fn temp_file(name: &str, contents: &[u8]) -> std::path::PathBuf {
        let path = std::env::temp_dir().join(format!("pkgm-mmap-{}-{name}", std::process::id()));
        let mut f = File::create(&path).unwrap();
        f.write_all(contents).unwrap();
        f.sync_all().unwrap();
        path
    }

    #[test]
    fn mapped_and_heap_agree() {
        let data: Vec<u8> = (0..=255u8).cycle().take(10_000).collect();
        let path = temp_file("agree", &data);
        let mapped = MmapRegion::open(&path, false).unwrap();
        let heap = MmapRegion::open(&path, true).unwrap();
        assert!(!heap.is_mapped());
        assert_eq!(mapped.bytes(), &data[..]);
        assert_eq!(heap.bytes(), &data[..]);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn released_pages_read_back_unchanged() {
        let data: Vec<u8> = (0..=255u8).rev().cycle().take(3 * 4096 + 5).collect();
        let path = temp_file("release", &data);
        for force_heap in [false, true] {
            let region = MmapRegion::open(&path, force_heap).unwrap();
            assert_eq!(region.bytes(), &data[..]);
            region.release_resident();
            assert_eq!(region.bytes(), &data[..]);
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn heap_fallback_is_eight_byte_aligned() {
        // Odd length: the last word is padded, alignment must still hold.
        let path = temp_file("align", &[7u8; 4097]);
        let heap = MmapRegion::open(&path, true).unwrap();
        assert_eq!(heap.bytes().len(), 4097);
        assert_eq!(heap.bytes().as_ptr() as usize % 8, 0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn heap_regions_grow_in_place_with_zeros() {
        let mut region = MmapRegion::heap(5, 4096);
        region.heap_bytes_mut().copy_from_slice(&[1, 2, 3, 4, 5]);
        let base = region.bytes().as_ptr();
        region.grow_heap(4096);
        assert_eq!(region.bytes().as_ptr(), base, "within capacity: no move");
        assert_eq!(&region.bytes()[..6], &[1, 2, 3, 4, 5, 0]);
        assert!(region.bytes()[5..].iter().all(|&b| b == 0));
        region.grow_heap(3);
        assert_eq!(region.bytes().len(), 4096, "never shrinks");
        assert_eq!(MmapRegion::copy_of(&[9; 13]).bytes(), &[9; 13]);
    }

    #[test]
    fn empty_file_opens() {
        let path = temp_file("empty", &[]);
        let region = MmapRegion::open(&path, false).unwrap();
        assert!(region.bytes().is_empty());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_file_is_io_error() {
        let path = std::env::temp_dir().join("pkgm-mmap-definitely-missing");
        assert!(MmapRegion::open(&path, false).is_err());
    }
}
