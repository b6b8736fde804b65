//! Microbench of the dispatched SIMD primitives: scalar twin vs the
//! host-detected table.
//!
//! Times each entry of [`SimdDispatch`] — the f32 dot / blocked-L1
//! kernels, the early-exit comparators (with an infinite bound, so the
//! full scan is what's measured), and the i8 SAD behind the quantized
//! pruning scan — over a batch of candidate vectors at the repo's
//! standard `d = 64`, once through [`SimdDispatch::scalar`] and once
//! through [`SimdDispatch::detected`]. Both tables compute the same
//! bit-identical function (enforced by `tests/simd_parity.rs`), so the
//! ratio is pure instruction-selection speedup.
//!
//! The CRC32 under every artifact, snapshot section and wire frame gets
//! its own rows ([`crc_rows`]): MB/s of the table-driven bytewise loop
//! (what the repo ran before the kernel was dispatched), the slice-by-8
//! scalar twin and the dispatched kernel, at a small frame (64 B), a
//! lookup reply (16 KiB, 128 KiB) and a partition-sized buffer (8 MiB).
//!
//! The scaling binaries embed [`primitive_report`] as the `"simd"`
//! section of `BENCH_training.json` / `BENCH_eval.json`.

use pkgm_core::simd::{self, scalar, SimdDispatch};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::time::Instant;

/// Vector width used for every primitive (the repo's standard dim).
pub const DIM: usize = 64;
/// Candidate vectors per timing pass — large enough that the loop body,
/// not the loop, dominates; small enough to stay L1/L2-resident like the
/// tiled ranking scans.
const CANDIDATES: usize = 1024;
/// Best-of reps per primitive per table.
const REPS: usize = 3;

/// Best-of-`REPS` nanoseconds per call for `pass`, which performs
/// `calls_per_pass` primitive calls; `passes` passes are timed per rep.
fn bench_ns(passes: usize, calls_per_pass: usize, mut pass: impl FnMut()) -> f64 {
    pass(); // warm-up: page in the buffers, settle the dispatch table
    let mut best = f64::INFINITY;
    for _ in 0..REPS {
        let start = Instant::now();
        for _ in 0..passes {
            pass();
        }
        let ns = start.elapsed().as_nanos() as f64 / (passes * calls_per_pass) as f64;
        best = best.min(ns);
    }
    best
}

/// Time every [`SimdDispatch`] primitive on `table`, returning
/// `(name, ns_per_call)` rows in a fixed order.
fn time_table(table: &SimdDispatch, passes: usize) -> Vec<(&'static str, f64)> {
    let mut rng = SmallRng::seed_from_u64(0x51B0_BEAC);
    let q: Vec<f32> = (0..DIM).map(|_| rng.gen_range(-1.0..1.0)).collect();
    let r: Vec<f32> = (0..DIM).map(|_| rng.gen_range(-1.0..1.0)).collect();
    let cands: Vec<f32> = (0..CANDIDATES * DIM)
        .map(|_| rng.gen_range(-1.0..1.0))
        .collect();
    let qi: Vec<i8> = (0..DIM).map(|_| rng.gen_range(i8::MIN..=i8::MAX)).collect();
    let candsi: Vec<i8> = (0..CANDIDATES * DIM)
        .map(|_| rng.gen_range(i8::MIN..=i8::MAX))
        .collect();

    type Pass<'a> = Box<dyn FnMut() + 'a>;
    let mut rows = Vec::new();
    let f32_rows: [(&'static str, Pass); 5] = [
        ("kernel_dot", {
            let (f, q, c) = (table.kernel_dot, &q, &cands);
            Box::new(move || {
                let mut acc = 0.0f32;
                for cand in c.chunks_exact(DIM) {
                    acc += f(q, cand);
                }
                black_box(acc);
            })
        }),
        ("blocked_l1", {
            let (f, q, c) = (table.blocked_l1, &q, &cands);
            Box::new(move || {
                let mut acc = 0.0f32;
                for cand in c.chunks_exact(DIM) {
                    acc += f(q, cand);
                }
                black_box(acc);
            })
        }),
        ("blocked_l1_translation", {
            let (f, q, r, c) = (table.blocked_l1_translation, &q, &r, &cands);
            Box::new(move || {
                let mut acc = 0.0f32;
                for cand in c.chunks_exact(DIM) {
                    acc += f(q, r, cand);
                }
                black_box(acc);
            })
        }),
        ("l1_beats_full_scan", {
            let (f, q, c) = (table.l1_beats, &q, &cands);
            Box::new(move || {
                let mut hits = 0usize;
                for cand in c.chunks_exact(DIM) {
                    hits += usize::from(f(q, cand, 0.0, f32::INFINITY));
                }
                black_box(hits);
            })
        }),
        ("translation_beats_full_scan", {
            let (f, q, r, c) = (table.translation_beats, &q, &r, &cands);
            Box::new(move || {
                let mut hits = 0usize;
                for cand in c.chunks_exact(DIM) {
                    hits += usize::from(f(q, r, cand, 0.0, f32::INFINITY));
                }
                black_box(hits);
            })
        }),
    ];
    for (name, mut pass) in f32_rows {
        rows.push((name, bench_ns(passes, CANDIDATES, &mut *pass)));
    }
    let (f, q, c) = (table.sad_i8, &qi, &candsi);
    rows.push((
        "sad_i8",
        bench_ns(passes, CANDIDATES, move || {
            let mut acc = 0u64;
            for cand in c.chunks_exact(DIM) {
                acc += u64::from(f(q, cand));
            }
            black_box(acc);
        }),
    ));
    rows
}

/// Buffer sizes of the CRC rows: a control frame, two lookup replies
/// (batch 32 and batch 256 at d = 64) and one out-of-core partition.
const CRC_SIZES: [usize; 4] = [64, 16 << 10, 128 << 10, 8 << 20];

/// MB/s of each CRC32 kernel at each of [`CRC_SIZES`]: the bytewise table
/// loop, the slice-by-8 scalar twin and the dispatched kernel (carry-less
/// multiply folding where the host has it, else the scalar twin again).
pub fn crc_rows(passes: usize) -> Vec<serde_json::Value> {
    let mut rng = SmallRng::seed_from_u64(0xC4C3_2B3C);
    let buf: Vec<u8> = (0..CRC_SIZES[CRC_SIZES.len() - 1])
        .map(|_| rng.gen_range(0..=u8::MAX))
        .collect();
    let kernels: [fn(u32, &[u8]) -> u32; 3] = [
        scalar::crc32_update_bytewise,
        scalar::crc32_update,
        simd::crc32_update,
    ];
    CRC_SIZES
        .iter()
        .map(|&size| {
            let data = &buf[..size];
            // About 32 KiB of input per pass, at least one call.
            let calls = ((32 << 10) / size).max(1);
            let [bytewise, scalar, dispatched] = kernels.map(|kernel| {
                let ns = bench_ns(passes, calls, || {
                    let mut state = !0u32;
                    for _ in 0..calls {
                        state = kernel(state, black_box(data));
                    }
                    black_box(state);
                });
                size as f64 / ns * 1e3
            });
            serde_json::json!({
                "bytes": size,
                "bytewise_mb_per_s": bytewise,
                "scalar_mb_per_s": scalar,
                "dispatched_mb_per_s": dispatched,
            })
        })
        .collect()
}

/// Per-primitive scalar-vs-detected timing report (the `"simd"` section
/// of the `BENCH_*.json` files). `passes` scales the measurement length;
/// the binaries use [`primitive_report`]'s default.
pub fn primitive_report_with(passes: usize) -> serde_json::Value {
    let scalar = SimdDispatch::scalar();
    let detected = SimdDispatch::detected();
    let scalar_rows = time_table(scalar, passes);
    let detected_rows = time_table(detected, passes);
    let primitives: Vec<serde_json::Value> = scalar_rows
        .iter()
        .zip(&detected_rows)
        .map(|(&(name, s_ns), &(_, d_ns))| {
            serde_json::json!({
                "primitive": name,
                "scalar_ns_per_call": s_ns,
                "detected_ns_per_call": d_ns,
                "speedup": s_ns / d_ns,
            })
        })
        .collect();
    serde_json::json!({
        "detected_level": detected.level.name(),
        "dim": DIM,
        "candidates_per_pass": CANDIDATES,
        "reps_best_of": REPS,
        "primitives": primitives,
        "crc32": crc_rows(passes),
    })
}

/// [`primitive_report_with`] at the binaries' measurement length
/// (~tens of milliseconds per primitive per table).
pub fn primitive_report() -> serde_json::Value {
    primitive_report_with(96)
}

/// One-line `name 1.23×, …` digest of a [`primitive_report`] value, for
/// the binaries' progress logs; the CRC entry is dispatched ÷ bytewise at
/// the largest buffer.
pub fn summary_line(report: &serde_json::Value) -> String {
    let mut parts: Vec<String> = report
        .get("primitives")
        .and_then(|p| p.as_array())
        .map(|rows| {
            rows.iter()
                .map(|r| {
                    format!(
                        "{} {:.2}×",
                        r.get("primitive").and_then(|v| v.as_str()).unwrap_or("?"),
                        r.get("speedup").and_then(|v| v.as_f64()).unwrap_or(0.0)
                    )
                })
                .collect()
        })
        .unwrap_or_default();
    let mb_per_s = |row: &serde_json::Value, key: &str| row.get(key).and_then(|v| v.as_f64());
    if let Some(row) = report
        .get("crc32")
        .and_then(|c| c.as_array())
        .and_then(|rows| rows.last())
    {
        if let (Some(fast), Some(slow)) = (
            mb_per_s(row, "dispatched_mb_per_s"),
            mb_per_s(row, "bytewise_mb_per_s"),
        ) {
            parts.push(format!("crc32 {:.2}×", fast / slow));
        }
    }
    parts.join(", ")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_covers_every_primitive_with_positive_times() {
        let report = primitive_report_with(1);
        let rows = report.get("primitives").unwrap().as_array().unwrap();
        let names: Vec<&str> = rows
            .iter()
            .map(|r| r.get("primitive").unwrap().as_str().unwrap())
            .collect();
        assert_eq!(
            names,
            [
                "kernel_dot",
                "blocked_l1",
                "blocked_l1_translation",
                "l1_beats_full_scan",
                "translation_beats_full_scan",
                "sad_i8",
            ]
        );
        for row in rows {
            for field in ["scalar_ns_per_call", "detected_ns_per_call", "speedup"] {
                assert!(row.get(field).unwrap().as_f64().unwrap() > 0.0);
            }
        }
        let level = report.get("detected_level").unwrap().as_str().unwrap();
        assert!(["scalar", "sse4.1", "avx2"].contains(&level));
        let crc = report.get("crc32").unwrap().as_array().unwrap();
        let sizes: Vec<u64> = crc
            .iter()
            .map(|r| r.get("bytes").unwrap().as_u64().unwrap())
            .collect();
        assert_eq!(sizes, [64, 16 << 10, 128 << 10, 8 << 20]);
        for row in crc {
            for field in [
                "bytewise_mb_per_s",
                "scalar_mb_per_s",
                "dispatched_mb_per_s",
            ] {
                assert!(row.get(field).unwrap().as_f64().unwrap() > 0.0);
            }
        }
        let line = summary_line(&report);
        assert!(line.contains("sad_i8") && line.contains("crc32") && line.contains("×"));
    }
}
