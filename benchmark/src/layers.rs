//! Probes of single layers that more than one workload's traced run uses:
//! the SIMD primitives and the wire protocol.

use crate::report::Outcome;
use crate::stats;
use crate::trace::Recorder;
use crate::world::{bits_equal, DIM};
use pkgm_core::protocol::{
    decode_request, decode_response, encode_request, encode_rows_response, read_frame, write_frame,
    Request,
};
use pkgm_core::simd;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Median nanoseconds per call of `f`, over 5 timings of 50 000 calls.
fn ns_per_call(mut f: impl FnMut()) -> f64 {
    const CALLS: u32 = 50_000;
    let timings: Vec<f64> = (0..5)
        .map(|_| {
            let started = Instant::now();
            for _ in 0..CALLS {
                f();
            }
            started.elapsed().as_nanos() as f64 / f64::from(CALLS)
        })
        .collect();
    stats::median(&timings)
}

/// `simd.*_ns`: every dispatched primitive at the benchmark's dimension,
/// through the table the kernels themselves use. The comparators run with
/// an unreachable bound, so they scan the whole row.
pub fn simd_probe(out: &mut Outcome) {
    let ramp = |phase: f32| -> Vec<f32> {
        (0..DIM)
            .map(|i| ((i as f32 + phase) * 0.37).sin())
            .collect()
    };
    let (a, b, c) = (ramp(0.0), ramp(1.0), ramp(2.0));
    let qa: Vec<i8> = a.iter().map(|x| (x * 100.0) as i8).collect();
    let qb: Vec<i8> = b.iter().map(|x| (x * 100.0) as i8).collect();
    let t = simd::active();
    let far = f32::MAX;
    out.set(
        "simd.kernel_dot_ns",
        ns_per_call(|| {
            black_box((t.kernel_dot)(black_box(&a), black_box(&b)));
        }),
    );
    out.set(
        "simd.blocked_l1_ns",
        ns_per_call(|| {
            black_box((t.blocked_l1)(black_box(&a), black_box(&b)));
        }),
    );
    out.set(
        "simd.blocked_l1_translation_ns",
        ns_per_call(|| {
            black_box((t.blocked_l1_translation)(
                black_box(&a),
                black_box(&b),
                black_box(&c),
            ));
        }),
    );
    out.set(
        "simd.l1_beats_ns",
        ns_per_call(|| {
            black_box((t.l1_beats)(black_box(&a), black_box(&b), 0.0, far));
        }),
    );
    out.set(
        "simd.translation_beats_ns",
        ns_per_call(|| {
            black_box((t.translation_beats)(
                black_box(&a),
                black_box(&b),
                black_box(&c),
                0.0,
                far,
            ));
        }),
    );
    out.set(
        "simd.sad_i8_ns",
        ns_per_call(|| {
            black_box((t.sad_i8)(black_box(&qa), black_box(&qb)));
        }),
    );
}

/// One lookup's trip through the wire format, both directions, with no
/// socket: three spans under `parent` — `protocol.request_codec`
/// (`encode_request` + `decode_request`), `protocol.rows_codec`
/// (`encode_rows_response` + `decode_response`) and `protocol.frame_crc`
/// (`write_frame` + `read_frame` of both frames through a memory buffer).
/// Returns whether the decoded messages equal what was encoded.
pub fn protocol_spans(
    rec: &mut Recorder,
    parent: usize,
    request_id: u64,
    items: &[u32],
    rows: &[Arc<Vec<f32>>],
) -> bool {
    let row_len = rows.first().map_or(0, |r| r.len()) as u32;
    let request = Request::Lookup(items.to_vec());
    let encode_rows = || encode_rows_response(row_len, rows.iter().map(|r| r.as_slice()));
    let (request_frame, rows_frame) = (encode_request(&request), encode_rows());

    let (_, bodies) = rec.span("protocol.frame_crc", Some(parent), request_id, || {
        let mut wire = Vec::with_capacity(rows_frame.len());
        let mut through = |frame: &[u8]| {
            wire.clear();
            write_frame(&mut wire, frame).ok()?;
            read_frame(&mut wire.as_slice()).ok()?
        };
        Some((through(&request_frame)?, through(&rows_frame)?))
    });
    let Some((request_body, rows_body)) = bodies else {
        return false;
    };
    let (_, request_ok) = rec.span("protocol.request_codec", Some(parent), request_id, || {
        black_box(encode_request(black_box(&request)));
        decode_request(&request_body).is_ok_and(|r| r == request)
    });
    let (_, decoded) = rec.span("protocol.rows_codec", Some(parent), request_id, || {
        black_box(encode_rows());
        decode_response(&rows_body)
    });
    let rows_ok = match decoded {
        Ok(pkgm_core::Response::Rows { rows: got, .. }) => {
            got.len() == rows.len() && got.iter().zip(rows).all(|(g, w)| bits_equal(g, w))
        }
        _ => false,
    };
    request_ok && rows_ok
}
