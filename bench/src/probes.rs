//! Off-the-clock micro-probes of the two innermost layers — scan kernels and
//! segment codecs — on a slice of the workload's own column, so a traced run
//! can say what a kernel costs on the data the end-to-end numbers came from.

use std::hint::black_box;
use std::time::Instant;

use socdb::adaptive::compress::{self, PiecePayload, SegmentEncoding};
use socdb::adaptive::kernels;
use socdb::prelude::{ColumnValue, ValueRange};

use crate::metrics::Outcome;
use crate::stats;

/// Elements probed (the first this many of the column).
const PROBE_ELEMS: usize = 1 << 20;
/// Repetitions per probe; the median is reported.
const REPS: usize = 7;
/// Rows in the synthetic delta run the delta kernels are probed with.
const DELTA_ROWS: usize = 1024;

/// Median wall time of `REPS` runs of `f`, in nanoseconds.
fn median_run_ns(mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..REPS)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_nanos() as f64
        })
        .collect();
    stats::median(&samples)
}

/// Runs every `kernels.*` and `compress.*` probe on `column`.
pub fn run<V: ColumnValue>(column: &[V], domain: &ValueRange<V>, out: &mut Outcome) {
    let data = &column[..column.len().min(PROBE_ELEMS)];
    if data.is_empty() {
        return;
    }
    let n = data.len() as f64;
    // The middle tenth of the domain: a selective predicate, like the reads.
    let (lo, hi) = (domain.lo().to_f64(), domain.hi().to_f64());
    let q = ValueRange::must(
        V::from_f64(lo + 0.45 * (hi - lo)),
        V::from_f64(lo + 0.55 * (hi - lo)),
    );

    out.put(
        "kernels.count_ns_per_elem",
        median_run_ns(|| {
            black_box(kernels::count_range(black_box(data), &q));
        }) / n,
    );
    out.put(
        "kernels.sum_ns_per_elem",
        median_run_ns(|| {
            black_box(kernels::sum_range(black_box(data), &q));
        }) / n,
    );
    let mut buf: Vec<V> = Vec::with_capacity(data.len());
    out.put(
        "kernels.collect_ns_per_elem",
        median_run_ns(|| {
            buf.clear();
            kernels::collect_range(black_box(data), &q, &mut buf);
            black_box(buf.len());
        }) / n,
    );

    let mut sorted = data.to_vec();
    sorted.sort_unstable();
    // 1024 narrow ranges spread over the run: binary searches, no scan.
    let step = sorted.len() / 1024;
    let narrow: Vec<ValueRange<V>> = (0..1024)
        .filter(|_| step > 0)
        .map(|i| ValueRange::must(sorted[i * step], sorted[i * step + step / 2]))
        .collect();
    if !narrow.is_empty() {
        out.put(
            "kernels.sorted_run_ns",
            median_run_ns(|| {
                for r in &narrow {
                    black_box(kernels::sorted_run(black_box(&sorted), r));
                }
            }) / narrow.len() as f64,
        );
    }

    // A delta run shaped like the ones serve_mixed writes: three inserts per
    // tombstone, values drawn from the column itself.
    let stride = (sorted.len() / DELTA_ROWS).max(1);
    let picks: Vec<V> = sorted
        .iter()
        .step_by(stride)
        .take(DELTA_ROWS)
        .copied()
        .collect();
    let (tombs, inserts): (Vec<V>, Vec<V>) = {
        let mut t = Vec::new();
        let mut i = Vec::new();
        for (k, v) in picks.iter().enumerate() {
            if k % 4 == 3 { &mut t } else { &mut i }.push(*v);
        }
        (t, i)
    };
    if !narrow.is_empty() {
        out.put(
            "kernels.delta_count_ns_per_row",
            median_run_ns(|| {
                for r in &narrow {
                    black_box(kernels::delta_count(&inserts, &tombs, r));
                }
            }) / narrow.len() as f64
                / picks.len() as f64,
        );
    }
    let mut merged: Vec<V> = Vec::with_capacity(sorted.len() + inserts.len());
    out.put(
        "kernels.merge_sorted_ns_per_elem",
        median_run_ns(|| {
            merged.clear();
            kernels::merge_sorted(black_box(&sorted), &inserts, &mut merged);
            black_box(merged.len());
        }) / (sorted.len() + inserts.len()) as f64,
    );
    drop(merged);
    drop(sorted);

    // Codecs: the same slice quantized to 1024 levels, in storage order — a
    // column a dictionary or frame-of-reference code can actually shrink.
    let level = (hi - lo) / 1024.0;
    let quantized: Vec<V> = data
        .iter()
        .map(|v| {
            let k = ((v.to_f64() - lo) / level).floor();
            V::from_f64(lo + k * level).clamp(domain.lo(), domain.hi())
        })
        .collect();
    for (enc, name) in [
        (SegmentEncoding::Rle, "compress.rle_count_ns_per_elem"),
        (SegmentEncoding::For, "compress.for_count_ns_per_elem"),
        (SegmentEncoding::Dict, "compress.dict_count_ns_per_elem"),
    ] {
        if let Some(packed) = compress::encode(&quantized, enc) {
            let payload: PiecePayload<V> = PiecePayload::Packed(packed);
            out.put(
                name,
                median_run_ns(|| {
                    black_box(black_box(&payload).count_range(&q));
                }) / n,
            );
        }
    }
    if let Some(best) = compress::best_encoding(&quantized) {
        let raw_bytes = quantized.len() as f64 * V::BYTES as f64;
        out.put("compress.best_ratio", raw_bytes / best.bytes() as f64);
    } else {
        // No codec beats raw on this column: the ratio is 1 by definition.
        out.put("compress.best_ratio", 1.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probes_fill_every_kernel_and_codec_metric() {
        let domain = ValueRange::must(0u32, 99_999_999);
        let column = socdb::workload::uniform_values(50_000, &domain, 3);
        let mut out = Outcome::default();
        run(&column, &domain, &mut out);
        let names: Vec<String> = crate::metrics::per_layer()
            .into_iter()
            .map(|d| d.name)
            .filter(|n| n.starts_with("kernels.") || n.starts_with("compress."))
            .collect();
        assert_eq!(names.len(), 10);
        for n in names {
            assert!(out.get(&n).is_some_and(|v| v > 0.0), "{n} missing");
        }
        assert!(out.unknown_names().is_empty());
        // 1024 levels of a 32-bit value pack to well under half the size.
        assert!(out.get("compress.best_ratio").unwrap() > 2.0);
    }
}
