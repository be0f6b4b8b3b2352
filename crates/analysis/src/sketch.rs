//! Mergeable latency sketches for distributed telemetry.
//!
//! The paper's position is that latency *distributions* — not averages or
//! throughput — characterize interactive performance. When latency
//! telemetry is collected from many machines (or many shards of one
//! ingest service), the per-stream distributions must combine into the
//! distribution of the union without shipping raw samples. This module
//! provides that mergeable form:
//!
//! * one fixed-size log-bucketed histogram ([`StreamingHistogram`]) plus
//!   exact moments per [`EventClass`], so percentiles stay class-aware
//!   (a 300 ms save is fine; a 300 ms keystroke echo is not);
//! * **deadline-miss counters** keyed off the [`PerceptionModel`]
//!   thresholds: for each class, how many samples crossed the
//!   imperceptibility threshold (`free_ms`) and how many saturated
//!   (`saturate_ms`) — the §3.1 responsiveness summation reduced to two
//!   exactly-mergeable integers per class.
//!
//! # Merge semantics
//!
//! [`LatencySketch::merge`] adds bucket counts and miss counters —
//! integer arithmetic, so merging K partial sketches is **exactly
//! order-independent**: any merge tree over the same partials yields
//! identical bucket counts, identical miss counters, and therefore
//! identical quantile answers. The moment accumulators merge through
//! [`OnlineStats::merge`], whose `mean`/`stddev` are order-*sensitive*
//! only in the last few floating-point ulps; `count`, `min`, and `max`
//! remain exact.
//!
//! # Accuracy
//!
//! Quantiles inherit the [`StreamingHistogram`] geometry: bucket
//! boundaries a factor of `2^(1/32)` apart, so any reported quantile is
//! within ~2.3% relative error of the exact order statistic (see
//! [`crate::streaming`]). Merging never widens the bound — the merged
//! histogram is bucket-for-bucket identical to the histogram of the
//! concatenated sample stream.

use latlab_des::OnlineStats;
use serde::{Deserialize, Serialize};

use crate::perception::{EventClass, PerceptionModel, ToleranceBand};
use crate::streaming::StreamingHistogram;

/// Per-class accumulator: histogram + exact moments + deadline misses.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ClassSketch {
    /// Log-bucketed latency histogram (ms).
    hist: StreamingHistogram,
    /// Exact count/mean/min/max moments.
    stats: OnlineStats,
    /// Samples that crossed the class's `free_ms` threshold.
    misses: u64,
    /// Samples that crossed the class's `saturate_ms` threshold.
    saturated: u64,
}

impl Default for ClassSketch {
    fn default() -> Self {
        Self::new()
    }
}

impl ClassSketch {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        ClassSketch {
            hist: StreamingHistogram::new(),
            stats: OnlineStats::new(),
            misses: 0,
            saturated: 0,
        }
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.hist.total()
    }

    /// The histogram itself.
    pub fn histogram(&self) -> &StreamingHistogram {
        &self.hist
    }

    /// The exact moment accumulator.
    pub fn stats(&self) -> &OnlineStats {
        &self.stats
    }

    /// Deadline misses (samples beyond the class's free threshold).
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Saturated samples (beyond the class's saturation threshold).
    pub fn saturated(&self) -> u64 {
        self.saturated
    }

    /// The `q`-quantile (ms), clamped into the exact observed range.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        self.hist
            .quantile(q)
            .map(|v| v.clamp(self.stats.min(), self.stats.max()))
    }

    fn push(&mut self, ms: f64, free_ms: Option<f64>, saturate_ms: Option<f64>) {
        self.hist.push(ms);
        self.stats.push(ms);
        if free_ms.is_some_and(|t| ms > t) {
            self.misses += 1;
        }
        if saturate_ms.is_some_and(|t| ms > t) {
            self.saturated += 1;
        }
    }

    /// Columnar fold of a sample batch, in one loop: each finite sample
    /// takes its bucket increment, its Welford push and its two threshold
    /// compares, in slice order, so the moments are bit-identical to
    /// repeated [`push`](Self::push). Welford's step is a serial chain
    /// through one divide; the bucket step and the compares do not
    /// depend on it, so the core runs them inside the divide's latency,
    /// and the fold costs about what Welford alone does. Equivalent to
    /// pushing each sample; the moments and miss counts stay in locals
    /// and the compares are branch-free, where a loop over `push` ran
    /// 1.1–1.3× slower (EXPERIMENTS.md, "Fused sketch fold").
    fn update_batch(&mut self, samples: &[f64], free_ms: Option<f64>, saturate_ms: Option<f64>) {
        let free = free_ms.unwrap_or(f64::INFINITY);
        let saturate = saturate_ms.unwrap_or(f64::INFINITY);
        let mut stats = self.stats;
        let (mut misses, mut saturated) = (0u64, 0u64);
        for &ms in samples {
            if ms.is_finite() {
                self.hist.push(ms);
                stats.push(ms);
                misses += u64::from(ms > free);
                saturated += u64::from(ms > saturate);
            }
        }
        self.stats = stats;
        self.misses += misses;
        self.saturated += saturated;
    }

    fn merge(&mut self, other: &ClassSketch) {
        self.hist.merge(&other.hist);
        self.stats.merge(&other.stats);
        self.misses += other.misses;
        self.saturated += other.saturated;
    }
}

/// A mergeable, class-aware latency sketch.
///
/// Fixed memory (~6 × 13 KB) regardless of how many samples it absorbs.
///
/// # Examples
///
/// ```
/// use latlab_analysis::{EventClass, LatencySketch};
///
/// let mut a = LatencySketch::new();
/// let mut b = LatencySketch::new();
/// a.push(EventClass::Keystroke, 12.0);
/// b.push(EventClass::Keystroke, 500.0); // a deadline miss
/// a.merge(&b);
/// assert_eq!(a.total(), 2);
/// assert_eq!(a.class(EventClass::Keystroke).misses(), 1);
/// ```
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct LatencySketch {
    /// One cell per [`EventClass`], in [`EventClass::ALL`] order.
    classes: Vec<ClassSketch>,
    /// The thresholds misses are counted against.
    model: PerceptionModel,
}

impl Default for LatencySketch {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencySketch {
    /// Creates an empty sketch using the default [`PerceptionModel`]
    /// thresholds for deadline-miss counting.
    pub fn new() -> Self {
        Self::with_model(PerceptionModel::default())
    }

    /// Creates an empty sketch with explicit thresholds.
    pub fn with_model(model: PerceptionModel) -> Self {
        LatencySketch {
            classes: EventClass::ALL.iter().map(|_| ClassSketch::new()).collect(),
            model,
        }
    }

    /// Adds one latency observation (ms) under a class. Non-finite values
    /// are ignored, matching [`StreamingHistogram::push`].
    pub fn push(&mut self, class: EventClass, ms: f64) {
        if !ms.is_finite() {
            return;
        }
        let band = self.model.band(class);
        self.classes[class.index()].push(ms, band.map(|b| b.free_ms), band.map(|b| b.saturate_ms));
    }

    /// Columnar fold of a sample batch under one class: one loop that
    /// takes each sample's bucket, moments and deadline misses together.
    /// Produces exactly the state repeated [`push`](Self::push) calls
    /// would — identical counts, miss counters, bucket contents, and
    /// bit-identical moments, so the [`encode`](Self::encode) images
    /// are byte-equal.
    pub fn update_batch(&mut self, class: EventClass, samples: &[f64]) {
        let band = self.model.band(class);
        self.classes[class.index()].update_batch(
            samples,
            band.map(|b| b.free_ms),
            band.map(|b| b.saturate_ms),
        );
    }

    /// The accumulator for one class.
    pub fn class(&self, class: EventClass) -> &ClassSketch {
        &self.classes[class.index()]
    }

    /// Total samples across all classes.
    pub fn total(&self) -> u64 {
        self.classes.iter().map(ClassSketch::count).sum()
    }

    /// Total deadline misses across all classes.
    pub fn total_misses(&self) -> u64 {
        self.classes.iter().map(|c| c.misses).sum()
    }

    /// The `q`-quantile over the union of all classes (ms).
    ///
    /// Computed by merging the per-class bucket counts, so it equals the
    /// quantile a single classless histogram of the same samples would
    /// report.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        let mut all = StreamingHistogram::new();
        let mut min = f64::INFINITY;
        let mut max = f64::NEG_INFINITY;
        for c in &self.classes {
            if c.count() > 0 {
                all.merge(&c.hist);
                min = min.min(c.stats.min());
                max = max.max(c.stats.max());
            }
        }
        all.quantile(q).map(|v| v.clamp(min, max))
    }

    /// Answers several quantiles over the union of all classes in one
    /// pass: the cross-class union histogram is built **once** and every
    /// `q` is read off it, instead of paying the ~13 KB histogram merge
    /// per quantile as repeated [`quantile`](Self::quantile) calls
    /// would. `out` is cleared first; slot `i` equals exactly what
    /// `self.quantile(qs[i])` returns.
    pub fn quantiles_into(&self, qs: &[f64], out: &mut Vec<Option<f64>>) {
        out.clear();
        let mut all = StreamingHistogram::new();
        let mut min = f64::INFINITY;
        let mut max = f64::NEG_INFINITY;
        for c in &self.classes {
            if c.count() > 0 {
                all.merge(&c.hist);
                min = min.min(c.stats.min());
                max = max.max(c.stats.max());
            }
        }
        out.extend(
            qs.iter()
                .map(|&q| all.quantile(q).map(|v| v.clamp(min, max))),
        );
    }

    /// Folds another sketch into this one. See the module docs for the
    /// order-independence guarantee.
    pub fn merge(&mut self, other: &LatencySketch) {
        for (a, b) in self.classes.iter_mut().zip(&other.classes) {
            a.merge(b);
        }
    }

    /// Merges an iterator of partial sketches into one: the first
    /// partial is cloned and the rest fold in through
    /// [`merge`](Self::merge), **in iteration order** — exactly the
    /// state a manual clone-then-merge loop produces, bit-identical
    /// moment accumulators included. This is the sub-sketch merge hook
    /// the serve query plane re-merges dirty scenarios with; keeping the
    /// fold order here is what lets its cached view stay bit-identical
    /// to the full-merge reference. `None` when the iterator is empty.
    pub fn merge_of<'a>(
        parts: impl IntoIterator<Item = &'a LatencySketch>,
    ) -> Option<LatencySketch> {
        let mut parts = parts.into_iter();
        let mut acc = parts.next()?.clone();
        for p in parts {
            acc.merge(p);
        }
        Some(acc)
    }

    /// Appends a self-delimiting binary encoding to `out`.
    ///
    /// The format is deliberately *not* JSON: an empty [`OnlineStats`]
    /// carries ±∞ min/max, which text codecs mangle. Every float is
    /// persisted via [`f64::to_bits`] little-endian, so decode
    /// round-trips bit-exactly — the property the serve checkpoint layer
    /// relies on for its recovered-sketch-equals-live-sketch invariant.
    ///
    /// Layout: magic `LSKB`, version byte, the five perception bands as
    /// `(free_ms, saturate_ms)` bit pairs, then one cell per
    /// [`EventClass::ALL`] entry — raw [`OnlineStats`] parts, miss and
    /// saturation counters, sparse histogram.
    pub fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(SKETCH_MAGIC);
        out.push(SKETCH_CODEC_VERSION);
        for band in [
            self.model.keystroke,
            self.model.navigation,
            self.model.screen_change,
            self.model.command,
            self.model.major_operation,
        ] {
            out.extend_from_slice(&band.free_ms.to_bits().to_le_bytes());
            out.extend_from_slice(&band.saturate_ms.to_bits().to_le_bytes());
        }
        for cell in &self.classes {
            let (count, mean, m2, min, max) = cell.stats.to_raw_parts();
            out.extend_from_slice(&count.to_le_bytes());
            for f in [mean, m2, min, max] {
                out.extend_from_slice(&f.to_bits().to_le_bytes());
            }
            out.extend_from_slice(&cell.misses.to_le_bytes());
            out.extend_from_slice(&cell.saturated.to_le_bytes());
            cell.hist.encode_sparse(out);
        }
    }

    /// Decodes an [`encode`](Self::encode) image from the front of
    /// `buf`, returning the sketch and the bytes consumed. `None` on
    /// truncation, bad magic/version, or a corrupt histogram section.
    pub fn decode(buf: &[u8]) -> Option<(Self, usize)> {
        if buf.get(..4)? != SKETCH_MAGIC || *buf.get(4)? != SKETCH_CODEC_VERSION {
            return None;
        }
        let mut at = 5usize;
        let f64_at = |at: &mut usize| -> Option<f64> {
            let v = f64::from_bits(u64::from_le_bytes(buf.get(*at..*at + 8)?.try_into().ok()?));
            *at += 8;
            Some(v)
        };
        let mut bands = [ToleranceBand {
            free_ms: 0.0,
            saturate_ms: 0.0,
        }; 5];
        for band in &mut bands {
            band.free_ms = f64_at(&mut at)?;
            band.saturate_ms = f64_at(&mut at)?;
        }
        let model = PerceptionModel {
            keystroke: bands[0],
            navigation: bands[1],
            screen_change: bands[2],
            command: bands[3],
            major_operation: bands[4],
        };
        let u64_at = |at: &mut usize| -> Option<u64> {
            let v = u64::from_le_bytes(buf.get(*at..*at + 8)?.try_into().ok()?);
            *at += 8;
            Some(v)
        };
        let mut classes = Vec::with_capacity(EventClass::ALL.len());
        for _ in EventClass::ALL {
            let count = u64_at(&mut at)?;
            let mean = f64_at(&mut at)?;
            let m2 = f64_at(&mut at)?;
            let min = f64_at(&mut at)?;
            let max = f64_at(&mut at)?;
            let misses = u64_at(&mut at)?;
            let saturated = u64_at(&mut at)?;
            let (hist, used) = StreamingHistogram::decode_sparse(buf.get(at..)?)?;
            at += used;
            classes.push(ClassSketch {
                hist,
                stats: OnlineStats::from_raw_parts(count, mean, m2, min, max),
                misses,
                saturated,
            });
        }
        Some((LatencySketch { classes, model }, at))
    }
}

/// Magic prefix of the [`LatencySketch::encode`] image.
const SKETCH_MAGIC: &[u8; 4] = b"LSKB";

/// Version byte of the [`LatencySketch::encode`] image.
const SKETCH_CODEC_VERSION: u8 = 1;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn misses_follow_perception_thresholds() {
        let mut s = LatencySketch::new();
        // Keystroke band: free 100 ms, saturate 2000 ms.
        s.push(EventClass::Keystroke, 50.0);
        s.push(EventClass::Keystroke, 150.0);
        s.push(EventClass::Keystroke, 5_000.0);
        // MajorOperation band: free 2000 ms — 150 ms is not a miss there.
        s.push(EventClass::MajorOperation, 150.0);
        // Background has no band: nothing is ever a miss.
        s.push(EventClass::Background, 60_000.0);
        let key = s.class(EventClass::Keystroke);
        assert_eq!(key.count(), 3);
        assert_eq!(key.misses(), 2);
        assert_eq!(key.saturated(), 1);
        assert_eq!(s.class(EventClass::MajorOperation).misses(), 0);
        assert_eq!(s.class(EventClass::Background).misses(), 0);
        assert_eq!(s.total(), 5);
        assert_eq!(s.total_misses(), 2);
    }

    #[test]
    fn merge_matches_single_sketch() {
        let mut whole = LatencySketch::new();
        let mut left = LatencySketch::new();
        let mut right = LatencySketch::new();
        for i in 0..1000u64 {
            let ms = 0.5 + (i % 317) as f64 * 1.7;
            let class = EventClass::ALL[(i % 6) as usize];
            whole.push(class, ms);
            if i % 2 == 0 {
                left.push(class, ms);
            } else {
                right.push(class, ms);
            }
        }
        left.merge(&right);
        assert_eq!(left.total(), whole.total());
        assert_eq!(left.total_misses(), whole.total_misses());
        for class in EventClass::ALL {
            assert_eq!(
                left.class(class).quantile(0.9),
                whole.class(class).quantile(0.9),
                "{class:?}"
            );
        }
        assert_eq!(left.quantile(0.99), whole.quantile(0.99));
    }

    #[test]
    fn overall_quantile_spans_classes() {
        let mut s = LatencySketch::new();
        for ms in [1.0, 2.0, 3.0] {
            s.push(EventClass::Keystroke, ms);
        }
        for ms in [1_000.0, 2_000.0, 3_000.0] {
            s.push(EventClass::Command, ms);
        }
        let p0 = s.quantile(0.0).unwrap();
        let p100 = s.quantile(1.0).unwrap();
        // Within the bucket-geometry error bound of the exact extremes,
        // and clamped into the exact observed range.
        assert!((1.0..1.03).contains(&p0), "p0 {p0}");
        assert!((2_935.0..=3_000.0).contains(&p100), "p100 {p100}");
        let median = s.quantile(0.5).unwrap();
        assert!((2.9..1_050.0).contains(&median), "median {median}");
    }

    #[test]
    fn update_batch_matches_per_record_push_for_every_class() {
        // Samples straddling every interesting regime: below/above the
        // free threshold, above saturation, plus non-finite values the
        // scalar path filters out.
        let mut samples: Vec<f64> = (0..2_000u64)
            .map(|i| match i % 11 {
                0 => f64::NAN,
                1 => f64::INFINITY,
                2 => f64::NEG_INFINITY,
                3 => 0.0,
                _ => 0.05 + (i % 431) as f64 * 23.7,
            })
            .collect();
        // Every bucket bound `2^(e + i/32)` of the table's octaves and
        // the one on either side, and its neighbours one ulp away.
        for e in -21..=30 {
            for i in 0..32 {
                let bound = (i as f64 / 32.0).exp2() * (e as f64).exp2();
                let bits = bound.to_bits();
                samples.extend([bits - 1, bits, bits + 1].map(f64::from_bits));
            }
        }
        for class in EventClass::ALL {
            let mut scalar = LatencySketch::new();
            for &ms in &samples {
                scalar.push(class, ms);
            }
            let mut batched = LatencySketch::new();
            batched.update_batch(class, &samples);
            let (s, b) = (scalar.class(class), batched.class(class));
            assert_eq!(b.count(), s.count(), "{class:?} count");
            assert_eq!(b.misses(), s.misses(), "{class:?} misses");
            assert_eq!(b.saturated(), s.saturated(), "{class:?} saturated");
            assert_eq!(b.stats().count(), s.stats().count(), "{class:?} n");
            assert_eq!(b.stats().mean(), s.stats().mean(), "{class:?} mean");
            assert_eq!(
                b.stats().sample_stddev(),
                s.stats().sample_stddev(),
                "{class:?} stddev"
            );
            assert_eq!(b.stats().min(), s.stats().min(), "{class:?} min");
            assert_eq!(b.stats().max(), s.stats().max(), "{class:?} max");
            for q in [0.0, 0.25, 0.5, 0.9, 0.99, 1.0] {
                assert_eq!(b.quantile(q), s.quantile(q), "{class:?} q{q}");
            }
            // Every bucket and moment bit, through the checkpoint image.
            let (mut si, mut bi) = (Vec::new(), Vec::new());
            scalar.encode(&mut si);
            batched.encode(&mut bi);
            assert!(bi == si, "{class:?}: encode images differ");
        }
    }

    #[test]
    fn update_batch_matches_scalar_push_batch() {
        let samples: Vec<f64> = (1..1_500u64).map(|i| (i % 613) as f64 * 3.1).collect();
        let mut scalar = LatencySketch::new();
        let mut batched = LatencySketch::new();
        for chunk in samples.chunks(97) {
            for &ms in chunk {
                scalar.push(EventClass::Keystroke, ms);
            }
            batched.update_batch(EventClass::Keystroke, chunk);
        }
        assert_eq!(batched.total(), scalar.total());
        assert_eq!(batched.total_misses(), scalar.total_misses());
        assert_eq!(batched.quantile(0.99), scalar.quantile(0.99));
        let (s, b) = (
            scalar.class(EventClass::Keystroke),
            batched.class(EventClass::Keystroke),
        );
        assert_eq!(b.stats().mean(), s.stats().mean());
    }

    #[test]
    fn quantiles_into_matches_repeated_quantile_calls() {
        let mut s = LatencySketch::new();
        for i in 0..3_000u64 {
            let class = EventClass::ALL[(i % 6) as usize];
            s.push(class, 0.2 + (i % 509) as f64 * 7.9);
        }
        let qs = [0.0, 0.1, 0.5, 0.9, 0.99, 0.999, 1.0];
        let mut batch = Vec::new();
        s.quantiles_into(&qs, &mut batch);
        assert_eq!(batch.len(), qs.len());
        for (&q, got) in qs.iter().zip(&batch) {
            assert_eq!(*got, s.quantile(q), "q={q}");
        }
        // Empty sketch: every slot is None, same as quantile().
        let empty = LatencySketch::new();
        empty.quantiles_into(&qs, &mut batch);
        assert!(batch.iter().all(Option::is_none));
    }

    #[test]
    fn merge_of_is_bit_identical_to_clone_then_merge() {
        let mut parts = Vec::new();
        for p in 0..4u64 {
            let mut s = LatencySketch::new();
            for i in 0..500u64 {
                let class = EventClass::ALL[((i + p) % 6) as usize];
                s.push(class, 0.5 + ((i * 31 + p * 7) % 401) as f64 * 2.3);
            }
            parts.push(s);
        }
        let mut reference = parts[0].clone();
        for p in &parts[1..] {
            reference.merge(p);
        }
        let merged = LatencySketch::merge_of(parts.iter()).expect("non-empty");
        assert_eq!(merged.total(), reference.total());
        assert_eq!(merged.total_misses(), reference.total_misses());
        for class in EventClass::ALL {
            let (a, b) = (merged.class(class), reference.class(class));
            assert_eq!(a.count(), b.count(), "{class:?}");
            assert_eq!(a.misses(), b.misses(), "{class:?}");
            assert_eq!(a.saturated(), b.saturated(), "{class:?}");
            // Moments merge in the same order, so they agree to the bit.
            assert_eq!(a.stats().mean().to_bits(), b.stats().mean().to_bits());
            assert_eq!(
                a.stats().sample_variance().to_bits(),
                b.stats().sample_variance().to_bits()
            );
            assert_eq!(a.stats().min().to_bits(), b.stats().min().to_bits());
            assert_eq!(a.stats().max().to_bits(), b.stats().max().to_bits());
            assert_eq!(a.quantile(0.99), b.quantile(0.99), "{class:?}");
        }
        assert!(LatencySketch::merge_of(std::iter::empty()).is_none());
        // A single contributor is just a clone.
        let one = LatencySketch::merge_of(std::iter::once(&parts[2])).unwrap();
        assert_eq!(one.total(), parts[2].total());
    }

    #[test]
    fn empty_sketch_answers_none() {
        let s = LatencySketch::new();
        assert_eq!(s.total(), 0);
        assert!(s.quantile(0.5).is_none());
        assert!(s.class(EventClass::Keystroke).quantile(0.5).is_none());
    }

    #[test]
    fn binary_codec_round_trips_bit_exactly() {
        let mut s = LatencySketch::new();
        for i in 0..5_000u64 {
            let class = EventClass::ALL[(i % 6) as usize];
            s.push(class, 0.03 + (i % 577) as f64 * 4.3);
        }
        // An empty sketch must round-trip too — its stats carry ±∞.
        for sketch in [s, LatencySketch::new()] {
            let mut buf = Vec::new();
            sketch.encode(&mut buf);
            let (back, used) = LatencySketch::decode(&buf).expect("decodes");
            assert_eq!(used, buf.len());
            assert_eq!(back.total(), sketch.total());
            assert_eq!(back.total_misses(), sketch.total_misses());
            for class in EventClass::ALL {
                let (a, b) = (sketch.class(class), back.class(class));
                assert_eq!(b.count(), a.count(), "{class:?}");
                assert_eq!(b.misses(), a.misses(), "{class:?}");
                assert_eq!(b.saturated(), a.saturated(), "{class:?}");
                assert_eq!(b.stats().count(), a.stats().count());
                assert_eq!(b.stats().mean().to_bits(), a.stats().mean().to_bits());
                assert_eq!(
                    b.stats().sample_variance().to_bits(),
                    a.stats().sample_variance().to_bits()
                );
                assert_eq!(b.stats().min().to_bits(), a.stats().min().to_bits());
                assert_eq!(b.stats().max().to_bits(), a.stats().max().to_bits());
                for q in [0.0, 0.5, 0.99, 1.0] {
                    assert_eq!(b.quantile(q), a.quantile(q), "{class:?} q{q}");
                }
            }
        }
    }

    #[test]
    fn binary_codec_rejects_corruption() {
        let mut s = LatencySketch::new();
        s.push(EventClass::Keystroke, 5.0);
        let mut buf = Vec::new();
        s.encode(&mut buf);
        for cut in 0..buf.len() {
            assert!(LatencySketch::decode(&buf[..cut]).is_none(), "cut {cut}");
        }
        let mut bad = buf.clone();
        bad[0] = b'X';
        assert!(LatencySketch::decode(&bad).is_none());
        let mut bad = buf.clone();
        bad[4] = 99;
        assert!(LatencySketch::decode(&bad).is_none());
    }
}
