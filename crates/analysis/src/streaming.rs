//! Single-pass, bounded-memory statistics over trace streams.
//!
//! Batch summaries ([`LatencySummary::from_latencies`]) need the whole
//! population in memory to take exact quantiles. A multi-hour idle-loop
//! trace has millions of samples, so the trace pipeline uses this module
//! instead: Welford accumulation for the moments plus a log-bucketed
//! histogram for quantiles with bounded *relative* error. Welford's
//! moments are rounded, not exact; they are bit-identical to the batch
//! path's because both push the same samples, in the same order,
//! through the same [`OnlineStats`]. Memory use is a fixed ~13 KB
//! regardless of stream length.
//!
//! The quantile error bound comes from the bucket geometry: with
//! [`SUBBUCKETS_PER_OCTAVE`] buckets per doubling, bucket boundaries are
//! a factor of `2^(1/32) ≈ 1.022` apart and the reported geometric
//! midpoint is within `2^(1/64) ≈ 1.1%` of any sample in the bucket.
//! Values outside `[2^-20, 2^30]` ms are clamped to the edge buckets.

use std::io::Read;

use latlab_des::OnlineStats;
use latlab_trace::{Record, StreamKind, TraceError, TraceMeta, TraceReader};
use serde::{Deserialize, Serialize};

use crate::summary::LatencySummary;

/// Histogram resolution: buckets per power of two.
pub const SUBBUCKETS_PER_OCTAVE: u32 = 32;

/// Smallest representable value: `2^MIN_EXP` ms (≈ 1 ns).
const MIN_EXP: i32 = -20;

/// Largest representable value: `2^MAX_EXP` ms (≈ 12 days).
const MAX_EXP: i32 = 30;

const BUCKETS: usize = ((MAX_EXP - MIN_EXP) as u32 * SUBBUCKETS_PER_OCTAVE) as usize;

/// Mantissa bits of `2^(i/32)` for `i = 1..32`: the sub-octave bucket
/// boundaries, expressed directly in IEEE-754 significand space so
/// [`StreamingHistogram::bucket_of`] can bucket a value with integer
/// compares on its bit pattern instead of a `log2` call per sample. A
/// test below checks each entry against `exp2`.
const SUB_BOUNDS: [u64; 31] = [
    0x059b0d3158574,
    0x0b5586cf9890f,
    0x11301d0125b51,
    0x172b83c7d517b,
    0x1d4873168b9aa,
    0x2387a6e756238,
    0x29e9df51fdee1,
    0x306fe0a31b715,
    0x371a7373aa9cb,
    0x3dea64c123422,
    0x44e086061892d,
    0x4bfdad5362a27,
    0x5342b569d4f82,
    0x5ab07dd485429,
    0x6247eb03a5585,
    0x6a09e667f3bcd,
    0x71f75e8ec5f74,
    0x7a11473eb0187,
    0x82589994cce13,
    0x8ace5422aa0db,
    0x93737b0cdc5e5,
    0x9c49182a3f090,
    0xa5503b23e255d,
    0xae89f995ad3ad,
    0xb7f76f2fb5e47,
    0xc199bdd85529c,
    0xcb720dcef9069,
    0xd5818dcfba487,
    0xdfc97337b9b5f,
    0xea4afa2a490da,
    0xf50765b6e4540,
];

/// Significand bits below the top seven, which pick one of 128 equal
/// slices of an octave.
const SLICE_SHIFT: u32 = 45;

/// The bound that ends sub-bucket `sub` of an octave: `SUB_BOUNDS[sub]`,
/// or `2^52`, which no significand reaches, for the last.
const fn upper_bound(sub: usize) -> u64 {
    if sub < SUB_BOUNDS.len() {
        SUB_BOUNDS[sub]
    } else {
        1 << 52
    }
}

/// The sub-bucket of each slice's smallest significand `k << SLICE_SHIFT`:
/// the count of [`SUB_BOUNDS`] entries at or below it.
const SLICE_SUB: [u8; 128] = {
    let mut table = [0u8; 128];
    let (mut k, mut sub) = (0, 0);
    while k < table.len() {
        while upper_bound(sub) <= (k as u64) << SLICE_SHIFT {
            sub += 1;
        }
        table[k] = sub as u8;
        k += 1;
    }
    table
};

/// The first bound above each slice's smallest significand.
const SLICE_NEXT: [u64; 128] = {
    let mut table = [0u64; 128];
    let mut k = 0;
    while k < table.len() {
        table[k] = upper_bound(SLICE_SUB[k] as usize);
        k += 1;
    }
    table
};

// Adjacent bounds, counting 0 and 2^52 as the octave's ends, are more
// than a slice apart, so at most one bound falls inside a slice and one
// compare against `SLICE_NEXT` finishes the index `SLICE_SUB` starts.
const _: () = {
    let mut below = 0u64;
    let mut sub = 0;
    while sub <= SUB_BOUNDS.len() {
        assert!(upper_bound(sub) - below > 1 << SLICE_SHIFT);
        below = upper_bound(sub);
        sub += 1;
    }
};

/// A fixed-size log-bucketed histogram of positive values (ms).
///
/// Quantiles are answered to within ~1.1% relative error for in-range
/// values; see the module docs for the geometry.
#[derive(Clone, Serialize, Deserialize)]
pub struct StreamingHistogram {
    counts: Vec<u64>,
    total: u64,
}

impl std::fmt::Debug for StreamingHistogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StreamingHistogram")
            .field("total", &self.total)
            .field(
                "nonzero_buckets",
                &self.counts.iter().filter(|&&c| c > 0).count(),
            )
            .finish()
    }
}

impl Default for StreamingHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl StreamingHistogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        StreamingHistogram {
            counts: vec![0; BUCKETS],
            total: 0,
        }
    }

    /// The bucket index of `v`: `floor((log2 v − MIN_EXP) · 32)`, clamped
    /// to the table — computed from the IEEE-754 bit pattern. The biased
    /// exponent gives the octave. The top seven significand bits pick a
    /// slice of it; [`SLICE_SUB`] gives the sub-bucket where that slice
    /// starts, and one compare against the bound after it ([`SLICE_NEXT`])
    /// says whether the significand has passed it. Two independent table
    /// loads, no search and no floating-point math per sample, so the
    /// bucket step runs beside the moment accumulator's divide chain in
    /// the fused fold (see `ClassSketch::update_batch`).
    fn bucket_of(v: f64) -> usize {
        if v.is_nan() || v <= 0.0 {
            // Zero, negative, and NaN values land in the lowest bucket.
            return 0;
        }
        let bits = v.to_bits();
        let biased = ((bits >> 52) & 0x7ff) as i32;
        if biased == 0 {
            // Subnormal: below 2^-1022, far under the 2^MIN_EXP floor.
            return 0;
        }
        if biased == 0x7ff {
            // +∞ (NaN was handled above): clamp to the top bucket, as the
            // log formulation did.
            return BUCKETS - 1;
        }
        let octave = biased - 1023 - MIN_EXP;
        if octave < 0 {
            return 0;
        }
        if octave >= (MAX_EXP - MIN_EXP) {
            return BUCKETS - 1;
        }
        let mantissa = bits & 0x000f_ffff_ffff_ffff;
        let slice = (mantissa >> SLICE_SHIFT) as usize;
        let sub = usize::from(SLICE_SUB[slice]) + usize::from(mantissa >= SLICE_NEXT[slice]);
        octave as usize * SUBBUCKETS_PER_OCTAVE as usize + sub
    }

    /// Geometric midpoint of bucket `i`.
    fn representative(i: usize) -> f64 {
        let exp = MIN_EXP as f64 + (i as f64 + 0.5) / SUBBUCKETS_PER_OCTAVE as f64;
        exp.exp2()
    }

    /// Adds one observation. Non-finite values are ignored.
    pub fn push(&mut self, v: f64) {
        if !v.is_finite() {
            return;
        }
        self.counts[Self::bucket_of(v)] += 1;
        self.total += 1;
    }

    /// Number of recorded observations.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// The `q`-quantile (`0.0..=1.0`), or `None` if empty.
    ///
    /// Uses the same rank convention as the batch
    /// [`quantile`](latlab_des::stats::quantile) — rank `q·(n−1)` — but
    /// answers with the containing bucket's geometric midpoint instead of
    /// interpolating between exact order statistics.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.total == 0 || !(0.0..=1.0).contains(&q) {
            return None;
        }
        let rank = (q * (self.total - 1) as f64).round() as u64;
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen > rank {
                return Some(Self::representative(i));
            }
        }
        None
    }

    /// Merges another histogram's counts into this one.
    pub fn merge(&mut self, other: &StreamingHistogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
    }

    /// Appends a sparse binary encoding to `out`: the total, then one
    /// `(bucket index u32, count u64)` pair per non-zero bucket, all
    /// little-endian. A histogram is almost entirely zeros (a latency
    /// population clusters in a few dozen of the 1600 buckets), so this
    /// is what checkpoint files persist instead of the dense table.
    pub fn encode_sparse(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.total.to_le_bytes());
        let nonzero = self.counts.iter().filter(|&&c| c > 0).count() as u32;
        out.extend_from_slice(&nonzero.to_le_bytes());
        for (i, &c) in self.counts.iter().enumerate() {
            if c > 0 {
                out.extend_from_slice(&(i as u32).to_le_bytes());
                out.extend_from_slice(&c.to_le_bytes());
            }
        }
    }

    /// Decodes an [`encode_sparse`](Self::encode_sparse) image from the
    /// front of `buf`, returning the histogram and the bytes consumed.
    /// Returns `None` on truncation, out-of-range bucket indices, or a
    /// total that disagrees with the bucket counts.
    pub fn decode_sparse(buf: &[u8]) -> Option<(Self, usize)> {
        let total = u64::from_le_bytes(buf.get(..8)?.try_into().ok()?);
        let nonzero = u32::from_le_bytes(buf.get(8..12)?.try_into().ok()?) as usize;
        let mut hist = StreamingHistogram::new();
        let mut at = 12usize;
        let mut sum = 0u64;
        for _ in 0..nonzero {
            let idx = u32::from_le_bytes(buf.get(at..at + 4)?.try_into().ok()?) as usize;
            let count = u64::from_le_bytes(buf.get(at + 4..at + 12)?.try_into().ok()?);
            at += 12;
            if idx >= BUCKETS || count == 0 {
                return None;
            }
            hist.counts[idx] = hist.counts[idx].checked_add(count)?;
            sum = sum.checked_add(count)?;
        }
        if sum != total {
            return None;
        }
        hist.total = total;
        Some((hist, at))
    }
}

/// Exact moments plus approximate quantiles, in one bounded-memory pass.
///
/// `count`, `mean`, `stddev`, `min`, `max` and `total` are *exactly* what
/// the batch [`LatencySummary`] computes (both push through
/// [`OnlineStats`] in stream order); `median` and `p90` carry the
/// histogram's relative-error bound.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct StreamingSummary {
    stats: OnlineStats,
    hist: StreamingHistogram,
}

impl Default for StreamingSummary {
    fn default() -> Self {
        Self::new()
    }
}

impl StreamingSummary {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        StreamingSummary {
            // Not `OnlineStats::default()`, whose min/max start at zero
            // rather than ±∞.
            stats: OnlineStats::new(),
            hist: StreamingHistogram::new(),
        }
    }

    /// Adds one observation (ms).
    pub fn push(&mut self, ms: f64) {
        self.stats.push(ms);
        self.hist.push(ms);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.stats.count()
    }

    /// The exact moment accumulator.
    pub fn stats(&self) -> &OnlineStats {
        &self.stats
    }

    /// The quantile histogram.
    pub fn histogram(&self) -> &StreamingHistogram {
        &self.hist
    }

    /// The `q`-quantile, clamped into the exact observed `[min, max]`.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        self.hist
            .quantile(q)
            .map(|v| v.clamp(self.stats.min(), self.stats.max()))
    }

    /// Merges another accumulator into this one.
    pub fn merge(&mut self, other: &StreamingSummary) {
        self.stats.merge(&other.stats);
        self.hist.merge(&other.hist);
    }

    /// Renders as a [`LatencySummary`] (approximate `median_ms`/`p90_ms`,
    /// everything else exact).
    pub fn to_latency_summary(&self) -> LatencySummary {
        if self.count() == 0 {
            return LatencySummary::default();
        }
        LatencySummary {
            count: self.stats.count(),
            mean_ms: self.stats.mean(),
            stddev_ms: self.stats.sample_stddev(),
            median_ms: self.quantile(0.5).unwrap_or(0.0),
            p90_ms: self.quantile(0.9).unwrap_or(0.0),
            min_ms: self.stats.min(),
            max_ms: self.stats.max(),
            total_ms: self.stats.mean() * self.stats.count() as f64,
        }
    }
}

/// One-pass summary of an idle-stamp trace stream.
#[derive(Clone, Debug)]
pub struct StampStreamSummary {
    /// The trace header.
    pub meta: TraceMeta,
    /// Stamp records seen.
    pub records: u64,
    /// Interval durations between consecutive stamps, ms.
    pub intervals: StreamingSummary,
    /// Per-interval excess over the calibrated baseline, ms
    /// (the paper's event-handling signal).
    pub excess: StreamingSummary,
    /// First stamp, if any.
    pub first_stamp: Option<u64>,
    /// Last stamp, if any.
    pub last_stamp: Option<u64>,
}

/// Streams an idle-stamp trace into interval/excess summaries without
/// ever materializing the stamp vector — O(1) memory in trace length.
///
/// # Errors
///
/// [`TraceError::KindMismatch`] if the file is not a stamp stream, plus
/// any decode error from the reader.
pub fn summarize_stamps<R: Read>(
    mut reader: TraceReader<R>,
) -> Result<StampStreamSummary, TraceError> {
    let meta = reader.meta().clone();
    if meta.kind != StreamKind::IdleStamps {
        return Err(TraceError::KindMismatch {
            expected: StreamKind::IdleStamps,
            got: meta.kind,
        });
    }
    let baseline_ms = meta.freq.to_ms(meta.baseline);
    let mut out = StampStreamSummary {
        meta,
        records: 0,
        intervals: StreamingSummary::new(),
        excess: StreamingSummary::new(),
        first_stamp: None,
        last_stamp: None,
    };
    let mut prev: Option<u64> = None;
    while let Some(rec) = reader.next()? {
        let Record::Stamp(s) = rec else {
            unreachable!("stamp stream yielded a non-stamp record");
        };
        out.records += 1;
        out.first_stamp.get_or_insert(s);
        out.last_stamp = Some(s);
        if let Some(p) = prev {
            let interval_ms = out
                .meta
                .freq
                .to_ms(latlab_des::SimDuration::from_cycles(s - p));
            out.intervals.push(interval_ms);
            out.excess.push((interval_ms - baseline_ms).max(0.0));
        }
        prev = Some(s);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn moments_match_batch_exactly() {
        let data: Vec<f64> = (1..=1000).map(|i| (i as f64).sqrt() * 3.7).collect();
        let batch = LatencySummary::from_latencies(&data);
        let mut s = StreamingSummary::new();
        for &x in &data {
            s.push(x);
        }
        let stream = s.to_latency_summary();
        // Both paths push through OnlineStats in the same order: the
        // moments are bit-identical, not merely close.
        assert_eq!(stream.count, batch.count);
        assert_eq!(stream.mean_ms, batch.mean_ms);
        assert_eq!(stream.stddev_ms, batch.stddev_ms);
        assert_eq!(stream.min_ms, batch.min_ms);
        assert_eq!(stream.max_ms, batch.max_ms);
        assert_eq!(stream.total_ms, batch.total_ms);
    }

    #[test]
    fn quantiles_within_relative_error_bound() {
        // Latency-shaped data: a 1 ms floor with a long multiplicative tail.
        let data: Vec<f64> = (0..10_000)
            .map(|i| 1.0 * (1.0 + (i % 97) as f64 / 10.0) * (1.0 + (i % 13) as f64))
            .collect();
        let mut s = StreamingSummary::new();
        for &x in &data {
            s.push(x);
        }
        for q in [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0] {
            let exact = latlab_des::stats::quantile(&data, q).unwrap();
            let approx = s.quantile(q).unwrap();
            let rel = (approx - exact).abs() / exact;
            // 2^(1/32) bucket width ⇒ ≤ ~2.2% once interpolation
            // differences between adjacent order statistics are included.
            assert!(
                rel < 0.023,
                "q={q}: exact {exact}, approx {approx}, rel {rel}"
            );
        }
    }

    #[test]
    fn out_of_range_values_clamp_to_edge_buckets() {
        let mut h = StreamingHistogram::new();
        h.push(0.0);
        h.push(-5.0);
        h.push(1e300);
        h.push(f64::NAN); // ignored
        h.push(f64::INFINITY); // ignored
        assert_eq!(h.total(), 3);
        assert!(h.quantile(0.0).unwrap() < 1e-5);
        assert!(h.quantile(1.0).unwrap() > 1e8);
    }

    #[test]
    fn merge_equals_single_pass() {
        let (a_data, b_data): (Vec<f64>, Vec<f64>) = (
            (1..500).map(|i| i as f64 * 0.31).collect(),
            (1..700).map(|i| i as f64 * 1.7).collect(),
        );
        let mut all = StreamingSummary::new();
        let mut a = StreamingSummary::new();
        let mut b = StreamingSummary::new();
        for &x in &a_data {
            all.push(x);
            a.push(x);
        }
        for &x in &b_data {
            all.push(x);
            b.push(x);
        }
        a.merge(&b);
        assert_eq!(a.count(), all.count());
        assert_eq!(a.quantile(0.5), all.quantile(0.5));
        assert!((a.stats().mean() - all.stats().mean()).abs() < 1e-9);
    }

    #[test]
    fn empty_summary_is_default() {
        let s = StreamingSummary::new();
        assert_eq!(s.count(), 0);
        assert!(s.quantile(0.5).is_none());
        assert_eq!(s.to_latency_summary().count, 0);
    }

    #[test]
    fn sub_bounds_are_exp2_mantissas() {
        for (i, &b) in SUB_BOUNDS.iter().enumerate() {
            let expect = ((i + 1) as f64 / SUBBUCKETS_PER_OCTAVE as f64)
                .exp2()
                .to_bits()
                & 0x000f_ffff_ffff_ffff;
            assert_eq!(b, expect, "SUB_BOUNDS[{i}]");
        }
    }

    /// The former formulation of `bucket_of`, via `log2`.
    fn bucket_of_log2(v: f64) -> usize {
        if v.is_nan() || v <= 0.0 {
            return 0;
        }
        let idx = ((v.log2() - MIN_EXP as f64) * SUBBUCKETS_PER_OCTAVE as f64).floor();
        if idx < 0.0 {
            0
        } else {
            (idx as usize).min(BUCKETS - 1)
        }
    }

    /// The former sub-octave step of `bucket_of`: a binary search of
    /// `SUB_BOUNDS` over the significand, the clamps unchanged.
    fn bucket_of_binary_search(v: f64) -> usize {
        if v.is_nan() || v <= 0.0 {
            return 0;
        }
        let bits = v.to_bits();
        let biased = ((bits >> 52) & 0x7ff) as i32;
        if biased == 0 {
            return 0;
        }
        if biased == 0x7ff {
            return BUCKETS - 1;
        }
        let octave = biased - 1023 - MIN_EXP;
        if octave < 0 {
            return 0;
        }
        if octave >= (MAX_EXP - MIN_EXP) {
            return BUCKETS - 1;
        }
        let mantissa = bits & 0x000f_ffff_ffff_ffff;
        let sub = SUB_BOUNDS.partition_point(|&b| b <= mantissa);
        octave as usize * SUBBUCKETS_PER_OCTAVE as usize + sub
    }

    #[test]
    fn table_bucket_index_matches_binary_search() {
        let mut vals: Vec<f64> = Vec::new();
        // Every bound ±1 and every slice start ±1, in every octave of
        // [2^-20, 2^30) and the one on either side.
        let edges = SUB_BOUNDS
            .iter()
            .copied()
            .chain((0..128u64).map(|k| k << SLICE_SHIFT))
            .chain([(1 << 52) - 1]);
        for m in edges {
            for biased in (1023 + MIN_EXP - 1) as u64..=(1023 + MAX_EXP) as u64 {
                for mantissa in [m.saturating_sub(1), m, (m + 1).min((1 << 52) - 1)] {
                    vals.push(f64::from_bits(biased << 52 | mantissa));
                }
            }
        }
        let ulp = |v: f64, by: i64| f64::from_bits(v.to_bits().wrapping_add_signed(by));
        let (lo, hi) = ((MIN_EXP as f64).exp2(), (MAX_EXP as f64).exp2());
        vals.extend_from_slice(&[
            0.0,
            -0.0,
            -1.0,
            -f64::MAX,
            f64::from_bits(1),
            ulp(f64::MIN_POSITIVE, -1),
            f64::MIN_POSITIVE,
            ulp(lo, -1),
            lo,
            ulp(lo, 1),
            ulp(hi, -1),
            hi,
            ulp(hi, 1),
            f64::MAX,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
        ]);
        // Seeded random bit patterns: all 64 bits, then significands
        // under exponents in and around the table's range.
        let mut state = 0x5eed_b0c4_e7a1_01e5_u64;
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _ in 0..600_000 {
            vals.push(f64::from_bits(next()));
            let biased = (1023 + MIN_EXP - 2) as u64 + next() % (MAX_EXP - MIN_EXP + 4) as u64;
            vals.push(f64::from_bits(biased << 52 | next() >> 12));
        }
        assert!(vals.len() > 1_000_000);
        for v in vals {
            assert_eq!(
                StreamingHistogram::bucket_of(v),
                bucket_of_binary_search(v),
                "bucket_of({v:e}, bits {:#x})",
                v.to_bits()
            );
        }
    }

    #[test]
    fn bit_bucketing_matches_log2_formulation() {
        // Pseudo-random values across the full dynamic range, plus exact
        // powers of two and near-boundary points.
        let mut state = 0x1234_5678_9abc_def0u64;
        let mut vals: Vec<f64> = Vec::new();
        for _ in 0..20_000 {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let exp = (state % 60) as i32 - 25; // 2^-25 .. 2^34
            let frac = 1.0 + (state >> 12) as f64 / (1u64 << 52) as f64;
            vals.push(frac * (exp as f64).exp2());
        }
        for e in -25..=34 {
            vals.push((e as f64).exp2());
        }
        vals.extend_from_slice(&[0.0, -1.0, f64::MIN_POSITIVE, 1e-300, 1e300]);
        for v in vals {
            assert_eq!(
                StreamingHistogram::bucket_of(v),
                bucket_of_log2(v),
                "bucket_of({v}) diverged from the log2 formulation"
            );
        }
    }

    #[test]
    fn representative_round_trips_through_bucket_of() {
        for i in 0..BUCKETS {
            assert_eq!(
                StreamingHistogram::bucket_of(StreamingHistogram::representative(i)),
                i,
                "representative of bucket {i} fell outside it"
            );
        }
    }

    #[test]
    fn sparse_codec_round_trips() {
        let mut h = StreamingHistogram::new();
        for i in 0..10_000u64 {
            h.push((i % 313) as f64 * 0.37 + 0.004);
        }
        let mut buf = vec![0xAAu8; 3]; // leading junk the encoder must append after
        h.encode_sparse(&mut buf);
        let (back, used) = StreamingHistogram::decode_sparse(&buf[3..]).expect("decodes");
        assert_eq!(used, buf.len() - 3);
        assert_eq!(back.total(), h.total());
        assert_eq!(back.counts, h.counts);

        // Empty histogram round-trips too.
        let mut empty = Vec::new();
        StreamingHistogram::new().encode_sparse(&mut empty);
        let (back, used) = StreamingHistogram::decode_sparse(&empty).expect("decodes");
        assert_eq!(used, empty.len());
        assert_eq!(back.total(), 0);
    }

    #[test]
    fn sparse_decode_rejects_corruption() {
        let mut h = StreamingHistogram::new();
        h.push(1.0);
        h.push(250.0);
        let mut buf = Vec::new();
        h.encode_sparse(&mut buf);
        // Truncation at every prefix length must fail, not panic.
        for cut in 0..buf.len() {
            assert!(StreamingHistogram::decode_sparse(&buf[..cut]).is_none());
        }
        // A bucket index past the table must fail.
        let mut bad = buf.clone();
        bad[12..16].copy_from_slice(&(BUCKETS as u32).to_le_bytes());
        assert!(StreamingHistogram::decode_sparse(&bad).is_none());
        // A total that disagrees with the counts must fail.
        let mut bad = buf.clone();
        bad[0..8].copy_from_slice(&99u64.to_le_bytes());
        assert!(StreamingHistogram::decode_sparse(&bad).is_none());
    }

    #[test]
    fn push_batch_matches_repeated_push() {
        let vals: Vec<f64> = (0..5_000)
            .map(|i| match i % 7 {
                0 => f64::NAN,
                1 => f64::INFINITY,
                2 => -(i as f64),
                _ => (i as f64) * 0.173 + 0.001,
            })
            .collect();
        let mut one = StreamingHistogram::new();
        for &v in &vals {
            one.push(v);
        }
        // The former batch path: every finite value into its
        // binary-searched bucket, non-finite ones skipped.
        let mut batched = vec![0u64; BUCKETS];
        for &v in vals.iter().filter(|v| v.is_finite()) {
            batched[bucket_of_binary_search(v)] += 1;
        }
        assert_eq!(one.total(), batched.iter().sum::<u64>());
        assert_eq!(one.counts, batched);
    }
}
