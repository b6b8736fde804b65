//! The crate's one little-endian codec for raw `f32` / `u32` tables.
//!
//! Every on-disk and on-wire format here stores its tables as packed
//! little-endian 4-byte words. On little-endian targets that *is* the
//! in-memory layout, so encoding is a byte view (no copy at all, or one
//! `memcpy` into the destination buffer) and decoding is one `memcpy`;
//! big-endian targets additionally swap each word. Same bytes either way.

use std::borrow::Cow;

/// A 4-byte plain value: no padding, every bit pattern valid. Implemented
/// for `f32` and `u32` only (nothing outside this module can add a type),
/// which the byte views rely on.
pub(crate) trait Word: Copy + Default + sealed::Sealed {}
impl Word for f32 {}
impl Word for u32 {}

mod sealed {
    pub trait Sealed {}
    impl Sealed for f32 {}
    impl Sealed for u32 {}
}

fn native_bytes<T: Word>(xs: &[T]) -> &[u8] {
    // SAFETY: a `Word` is 4 initialized bytes without padding and `u8` has
    // alignment 1, so the elements' memory is readable as bytes for as
    // long as `xs` is borrowed, which the returned lifetime enforces.
    unsafe { std::slice::from_raw_parts(xs.as_ptr().cast(), std::mem::size_of_val(xs)) }
}

fn native_bytes_mut<T: Word>(xs: &mut [T]) -> &mut [u8] {
    // SAFETY: as for `native_bytes`, and every bit pattern is a valid
    // `Word`, so writes through the view leave `xs` initialized and valid;
    // `xs` stays exclusively borrowed for the view's lifetime.
    unsafe { std::slice::from_raw_parts_mut(xs.as_mut_ptr().cast(), std::mem::size_of_val(xs)) }
}

fn swap_words(bytes: &[u8]) -> Vec<u8> {
    bytes
        .chunks_exact(4)
        .flat_map(|w| [w[3], w[2], w[1], w[0]])
        .collect()
}

/// The little-endian bytes of `xs` — borrowed (zero-copy) on little-endian
/// targets.
pub(crate) fn as_bytes<T: Word>(xs: &[T]) -> Cow<'_, [u8]> {
    let native = native_bytes(xs);
    if cfg!(target_endian = "little") {
        Cow::Borrowed(native)
    } else {
        Cow::Owned(swap_words(native))
    }
}

/// Append `xs` to `out` as little-endian bytes.
pub(crate) fn extend<T: Word>(out: &mut Vec<u8>, xs: &[T]) {
    out.extend_from_slice(&as_bytes(xs));
}

/// Decode `src` into `dst`. The caller has already validated the length:
/// panics unless `src` is exactly `4 · dst.len()` bytes.
pub(crate) fn copy_from<T: Word>(dst: &mut [T], src: &[u8]) {
    let native = native_bytes_mut(dst);
    native.copy_from_slice(src);
    if cfg!(target_endian = "big") {
        native.chunks_exact_mut(4).for_each(<[u8]>::reverse);
    }
}

/// Decode `src` into a new vector; panics unless it is whole words.
pub(crate) fn to_vec<T: Word>(src: &[u8]) -> Vec<T> {
    let mut out = vec![T::default(); src.len() / 4];
    copy_from(&mut out, src);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f32s_round_trip_through_the_per_element_definition() {
        let xs = [0.0f32, -0.0, 1.5, f32::MIN_POSITIVE, f32::NAN, -3.25e9];
        let want: Vec<u8> = xs.iter().flat_map(|x| x.to_le_bytes()).collect();
        assert_eq!(&*as_bytes(&xs), &want[..]);
        let mut out = vec![0xAAu8];
        extend(&mut out, &xs);
        assert_eq!(&out[1..], &want[..]);
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&to_vec::<f32>(&want)), bits(&xs));
        let mut dst = [0.0f32; 2];
        copy_from(&mut dst, &want[8..16]);
        assert_eq!(dst, [1.5, f32::MIN_POSITIVE]);
    }

    #[test]
    fn u32s_round_trip_through_the_per_element_definition() {
        let xs = [0u32, 1, 0x0102_0304, u32::MAX];
        let want: Vec<u8> = xs.iter().flat_map(|x| x.to_le_bytes()).collect();
        assert_eq!(&*as_bytes(&xs), &want[..]);
        let mut out = Vec::new();
        extend(&mut out, &xs);
        assert_eq!(out, want);
        assert_eq!(to_vec::<u32>(&want), xs);
        assert!(to_vec::<f32>(&[]).is_empty());
    }

    #[test]
    fn the_big_endian_fallback_swaps_each_word() {
        assert_eq!(
            swap_words(&[1, 2, 3, 4, 5, 6, 7, 8]),
            [4, 3, 2, 1, 8, 7, 6, 5]
        );
    }

    #[test]
    #[should_panic(expected = "does not match")]
    fn length_mismatch_panics_instead_of_overrunning() {
        let mut dst = [0.0f32; 2];
        copy_from(&mut dst, &[0u8; 7]);
    }
}
