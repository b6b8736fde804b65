//! Property tests for the daemon wire protocol: decoding is *total*.
//!
//! Whatever bytes arrive — truncated frames, oversized length prefixes,
//! garbage opcodes, random payloads — decoding must return a typed
//! [`ProtocolError`], never panic, and never read past the frame. Valid
//! messages must survive an encode → frame → decode round trip unchanged.

use pkgm_core::protocol::{
    self, decode_request, decode_response, encode_request, encode_response, op, read_frame,
    ProtocolError, Request, Response, FRAME_FLAG_CRC, MAX_FRAME_LEN, MAX_LOOKUP_ITEMS,
};
use proptest::prelude::*;

/// Map the u16 strategy output (ranges are half-open, so `0u8..255` would
/// never produce 255) down to full-range bytes.
fn as_bytes(v: Vec<u16>) -> Vec<u8> {
    v.into_iter().map(|x| x as u8).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn arbitrary_bodies_never_panic(raw in prop::collection::vec(0u16..256, 0..64)) {
        let body = as_bytes(raw);
        // Either decodes or yields a typed error — the assertion is that
        // neither call panics and errors are well-formed Display strings.
        if let Err(e) = decode_request(&body) {
            prop_assert!(!e.to_string().is_empty());
        }
        if let Err(e) = decode_response(&body) {
            prop_assert!(!e.to_string().is_empty());
        }
    }

    #[test]
    fn arbitrary_streams_never_panic_or_overread(raw in prop::collection::vec(0u16..256, 0..96)) {
        let bytes = as_bytes(raw);
        let mut cursor = &bytes[..];
        match read_frame(&mut cursor) {
            // A parsed frame must have come entirely from the stream.
            Ok(Some(body)) => prop_assert!(body.len() + 8 <= bytes.len()),
            Ok(None) => prop_assert!(bytes.is_empty()),
            Err(e) => prop_assert!(!e.to_string().is_empty()),
        }
    }

    #[test]
    fn truncated_frames_yield_truncated_errors(
        items in prop::collection::vec(0u32..1_000_000, 0..12),
        path_len in 1usize..24,
    ) {
        let reqs = [
            Request::Lookup(items),
            Request::Reload("p".repeat(path_len)),
            Request::Stats,
        ];
        for req in reqs {
            let framed = encode_request(&req);
            for cut in 1..framed.len() {
                match read_frame(&mut &framed[..cut]) {
                    Err(ProtocolError::Truncated { expected, got }) => {
                        prop_assert!(got < expected, "cut {cut}: got {got} >= expected {expected}");
                    }
                    other => prop_assert!(false, "cut {cut}: expected Truncated, got {other:?}"),
                }
            }
            // Cut at zero is a clean close, not an error.
            prop_assert!(read_frame(&mut &framed[..0]).unwrap().is_none());
        }
    }

    #[test]
    fn oversized_length_prefixes_rejected_before_allocation(
        excess in 1u32..1_000_000,
        tail in prop::collection::vec(0u16..256, 0..8),
    ) {
        let len = MAX_FRAME_LEN + excess;
        let mut bytes = (len | FRAME_FLAG_CRC).to_le_bytes().to_vec();
        bytes.extend(as_bytes(tail));
        match read_frame(&mut &bytes[..]) {
            Err(ProtocolError::FrameTooLarge { len: l, max }) => {
                prop_assert_eq!(l, len);
                prop_assert_eq!(max, MAX_FRAME_LEN);
            }
            other => prop_assert!(false, "expected FrameTooLarge, got {other:?}"),
        }
    }

    #[test]
    fn unknown_opcodes_are_typed(
        opcode in 9u16..256,
        payload in prop::collection::vec(0u16..256, 0..16),
    ) {
        let mut body = vec![opcode as u8];
        body.extend(as_bytes(payload));
        match decode_request(&body) {
            Err(ProtocolError::UnknownOpcode(op)) => prop_assert_eq!(op, opcode as u8),
            other => prop_assert!(false, "expected UnknownOpcode, got {other:?}"),
        }
    }

    #[test]
    fn lookup_count_mismatches_are_typed(
        declared in 0u32..64,
        actual in 0usize..64,
    ) {
        let mut body = vec![op::LOOKUP];
        body.extend_from_slice(&declared.to_le_bytes());
        body.resize(body.len() + actual * 4, 0);
        let decoded = decode_request(&body);
        if declared as usize == actual {
            prop_assert_eq!(decoded.unwrap(), Request::Lookup(vec![0; actual]));
        } else {
            prop_assert!(matches!(decoded.unwrap_err(), ProtocolError::Malformed(_)));
        }
    }

    #[test]
    fn lookup_counts_above_cap_are_shed_in_decode(excess in 1u32..1_000_000) {
        let mut body = vec![op::LOOKUP];
        body.extend_from_slice(&(MAX_LOOKUP_ITEMS + excess).to_le_bytes());
        prop_assert!(
            matches!(
                decode_request(&body).unwrap_err(),
                ProtocolError::TooManyItems { .. }
            ),
            "expected TooManyItems"
        );
    }

    #[test]
    fn requests_round_trip_through_framing(
        items in prop::collection::vec(0u32..4_000_000_000, 0..32),
        which in prop::sample::select(vec![0u8, 1, 2, 3, 4, 5, 6, 7]),
        budget in 0u64..10_000_000,
    ) {
        let req = match which {
            0 => Request::Lookup(items),
            1 => Request::Ping,
            2 => Request::Stats,
            3 => Request::Reload(format!("snap-{}.pkgmss", items.len())),
            4 => Request::LookupDeadline { budget_micros: budget, items },
            5 => Request::Health,
            6 => Request::Ready,
            _ => Request::Shutdown,
        };
        let framed = encode_request(&req);
        let body = read_frame(&mut &framed[..]).unwrap().unwrap();
        prop_assert_eq!(decode_request(&body).unwrap(), req);
    }

    #[test]
    fn unflagged_prefixes_are_refused_before_the_body(
        word in 0u32..FRAME_FLAG_CRC,
        tail in prop::collection::vec(0u16..256, 0..64),
    ) {
        // Whatever length an unchecksummed prefix claims — zero, a real
        // body's, over the cap — it is refused on the prefix alone: nothing
        // behind it is read.
        let mut bytes = word.to_le_bytes().to_vec();
        bytes.extend(as_bytes(tail));
        let mut cursor = &bytes[..];
        prop_assert!(matches!(
            read_frame(&mut cursor),
            Err(ProtocolError::Malformed(_))
        ));
        prop_assert_eq!(cursor.len(), bytes.len() - 4);
    }

    #[test]
    fn any_single_bitflip_is_detected(
        items in prop::collection::vec(0u32..4_000_000_000, 1..24),
        byte_seed in 0usize..10_000,
        bit in 0u8..8,
    ) {
        // No bit of a frame is outside the check: bit 31 of the prefix
        // clears the CRC flag (refused), any other prefix bit changes the
        // length (over the cap, past the end of the stream, or short of
        // the checksummed body), and the rest is under the checksum.
        let framed = encode_request(&Request::Lookup(items));
        let byte = byte_seed % framed.len();
        let mut hurt = framed;
        hurt[byte] ^= 1 << bit;
        let got = read_frame(&mut &hurt[..]);
        let detected = match &got {
            Err(ProtocolError::CrcMismatch { .. }) => true,
            Err(
                ProtocolError::Malformed(_)
                | ProtocolError::FrameTooLarge { .. }
                | ProtocolError::Truncated { .. },
            ) => byte < 4,
            _ => false,
        };
        prop_assert!(detected, "byte {byte} bit {bit}: got {got:?}");
    }

    #[test]
    fn unknown_statuses_are_typed(
        tag in 7u16..256,
        payload in prop::collection::vec(0u16..256, 0..16),
    ) {
        let mut body = vec![tag as u8];
        body.extend(as_bytes(payload));
        match decode_response(&body) {
            Err(ProtocolError::UnknownStatus(s)) => prop_assert_eq!(s, tag as u8),
            other => prop_assert!(false, "expected UnknownStatus, got {other:?}"),
        }
    }

    #[test]
    fn rows_responses_round_trip_bit_exactly(
        // Past 256 so the count's little-endian low byte sweeps every
        // value — including b'{' (123), which once tripped JSON sniffing.
        n_rows in 0usize..600,
        row_len in 1u32..12,
        seed in 0u32..1_000_000,
    ) {
        let rows: Vec<Vec<f32>> = (0..n_rows)
            .map(|r| {
                (0..row_len)
                    .map(|c| (seed as f32) + (r as f32) * 0.5 - (c as f32) * 1.25)
                    .collect()
            })
            .collect();
        let resp = Response::Rows { row_len, rows: rows.clone() };
        let framed = encode_response(&resp);
        let body = read_frame(&mut &framed[..]).unwrap().unwrap();
        match decode_response(&body).unwrap() {
            Response::Rows { row_len: rl, rows: got } => {
                prop_assert_eq!(rl, row_len);
                prop_assert_eq!(got.len(), rows.len());
                for (g, w) in got.iter().zip(&rows) {
                    let g_bits: Vec<u32> = g.iter().map(|x| x.to_bits()).collect();
                    let w_bits: Vec<u32> = w.iter().map(|x| x.to_bits()).collect();
                    prop_assert_eq!(g_bits, w_bits);
                }
            }
            other => prop_assert!(false, "expected rows, got {other:?}"),
        }
    }

    #[test]
    fn derived_item_cap_always_fits_one_frame(row_len in 0u32..100_000) {
        let cap = protocol::max_lookup_items_for_row_len(row_len);
        prop_assert!(cap <= MAX_LOOKUP_ITEMS);
        let bytes = protocol::ROWS_HEADER_LEN as u64 + cap as u64 * row_len as u64 * 4;
        prop_assert!(bytes <= MAX_FRAME_LEN as u64);
        // The cap is tight: one more row would overflow the frame (unless
        // the protocol-wide item cap dominates).
        if cap < MAX_LOOKUP_ITEMS && row_len > 0 {
            let one_more = bytes + row_len as u64 * 4;
            prop_assert!(one_more > MAX_FRAME_LEN as u64);
        }
    }

    #[test]
    fn borrowed_rows_encoder_matches_owned_encoder(
        n_rows in 0usize..6,
        row_len in 1u32..10,
    ) {
        let rows: Vec<Vec<f32>> = (0..n_rows)
            .map(|r| (0..row_len).map(|c| (r * 31 + c as usize) as f32 * 0.125).collect())
            .collect();
        let owned = encode_response(&Response::Rows { row_len, rows: rows.clone() });
        let borrowed = protocol::encode_rows_response(row_len, rows.iter().map(|r| r.as_slice()));
        prop_assert_eq!(owned, borrowed);
    }
}
