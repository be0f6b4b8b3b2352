//! The server-side ingest pipeline — decode → sample extraction → sketch
//! fold — factored out of the connection handler so it can run over an
//! in-memory corpus with no sockets attached.
//!
//! Two shapes of the same pipeline live here:
//!
//! * the **scalar reference path**: a [`StreamDecoder::new_scalar`]
//!   decoder materializes one `Record` per stamp, [`StreamDecoder::poll`]
//!   hands them back one at a time, each stamp gap becomes at most one
//!   sample, and every sample updates the [`LatencySketch`] individually
//!   — exactly the shape the service shipped with, kept here as the
//!   in-process test oracle (the server itself runs only the batch path);
//! * the **columnar batch path**: [`StreamDecoder::poll_batch`] drains
//!   whole decoded chunks into a stamp column, gaps are converted in one
//!   tight loop, and samples fold through
//!   [`LatencySketch::update_batch`] a batch at a time.
//!
//! [`fold_corpus`] runs either shape start-to-finish over a `.ltrc` byte
//! stream; the perf harness times both over the same corpus to report
//! the batch-over-scalar speedup, and the tests assert the two produce
//! bit-identical sketches.

use latlab_analysis::{EventClass, LatencySketch};
use latlab_trace::{StreamDecoder, StreamKind};

/// Samples accumulated before a batch is offered to a shard (or, here,
/// folded into the sketch). Large enough to amortize channel traffic,
/// small enough that snapshots stay fresh during a long upload.
pub(crate) const INGEST_BATCH: usize = 4096;

/// Per-connection trace-record → latency-sample conversion.
///
/// * `IdleStamps`: consecutive stamp gaps are compared to the trace's
///   calibrated baseline interval; any *excess* is event-handling time
///   and becomes one sample (ms). Baseline-pace gaps contribute nothing
///   — idle is not latency.
/// * `ApiLog` / `Counters`: records are counted (they carry no single
///   latency number at this layer); uploads of these kinds are accepted
///   so a corpus can be shipped wholesale.
pub(crate) struct SampleExtractor {
    prev_stamp: Option<u64>,
}

impl SampleExtractor {
    pub(crate) fn new() -> Self {
        SampleExtractor { prev_stamp: None }
    }

    /// Rebuilds an extractor from a checkpointed previous stamp.
    pub(crate) fn with_prev(prev_stamp: Option<u64>) -> Self {
        SampleExtractor { prev_stamp }
    }

    /// The previous stamp, for checkpointing mid-stream state.
    pub(crate) fn prev(&self) -> Option<u64> {
        self.prev_stamp
    }

    /// Drains decoded records into `out` as latency samples, one record
    /// at a time (the scalar reference path).
    pub(crate) fn pull(&mut self, decoder: &mut StreamDecoder, out: &mut Vec<f64>) {
        let Some(meta) = decoder.meta().cloned() else {
            return;
        };
        if meta.kind != StreamKind::IdleStamps {
            while decoder.poll().is_some() {}
            return;
        }
        let baseline = meta.baseline.cycles();
        while let Some(rec) = decoder.poll() {
            let at = rec.at_cycles();
            if let Some(prev) = self.prev_stamp {
                let gap = at.saturating_sub(prev);
                if gap > baseline {
                    let excess = latlab_des::SimDuration::from_cycles(gap - baseline);
                    out.push(meta.freq.to_ms(excess));
                }
            }
            self.prev_stamp = Some(at);
        }
    }

    /// Columnar variant of [`pull`](Self::pull): drains the decoder's
    /// whole stamp column at once, then converts gaps to samples in one
    /// tight loop. Uses the exact same float operations in the same
    /// order as the scalar path, so the resulting samples are
    /// bit-identical. Non-stamp streams fall back to the scalar drain.
    pub(crate) fn pull_batch(
        &mut self,
        decoder: &mut StreamDecoder,
        column: &mut Vec<u64>,
        out: &mut Vec<f64>,
    ) {
        let Some(meta) = decoder.meta().cloned() else {
            return;
        };
        if meta.kind != StreamKind::IdleStamps {
            while decoder.poll().is_some() {}
            return;
        }
        column.clear();
        if decoder.poll_batch(column) == 0 {
            return;
        }
        let baseline = meta.baseline.cycles();
        let mut prev = self.prev_stamp;
        for &at in column.iter() {
            if let Some(p) = prev {
                let gap = at.saturating_sub(p);
                if gap > baseline {
                    let excess = latlab_des::SimDuration::from_cycles(gap - baseline);
                    out.push(meta.freq.to_ms(excess));
                }
            }
            prev = Some(at);
        }
        self.prev_stamp = prev;
    }
}

/// What one [`fold_corpus`] pass produced.
#[derive(Debug)]
pub struct FoldOutcome {
    /// Corpus bytes pushed through the decoder.
    pub bytes: u64,
    /// Trace records decoded.
    pub records: u64,
    /// Latency samples extracted and folded.
    pub samples: u64,
    /// The folded sketch (identical between the two paths).
    pub sketch: LatencySketch,
}

/// Runs the full server-side ingest pipeline — decode, sample
/// extraction, sketch fold — over one in-memory `.ltrc` corpus, fed in
/// `frame_len`-byte fragments as a socket would deliver it.
///
/// `scalar` selects the per-record reference path (`poll` + one
/// [`LatencySketch::push`] per sample); otherwise the columnar batch
/// path runs (`poll_batch` + [`LatencySketch::update_batch`] every
/// [`INGEST_BATCH`] samples). Both fold orders are identical, so the
/// returned sketches are bit-identical — the perf harness times the two
/// over the same corpus for the batch-over-scalar figure.
///
/// # Panics
///
/// Panics if `corpus` is not a valid `.ltrc` byte stream — this is a
/// measurement harness for generated corpora, not an ingest frontend.
pub fn fold_corpus(
    corpus: &[u8],
    frame_len: usize,
    class: EventClass,
    scalar: bool,
) -> FoldOutcome {
    assert!(frame_len > 0, "frame_len must be positive");
    let mut decoder = if scalar {
        StreamDecoder::new_scalar()
    } else {
        StreamDecoder::new()
    };
    let mut extractor = SampleExtractor::new();
    let mut sketch = LatencySketch::new();
    let mut column: Vec<u64> = Vec::new();
    let mut pending: Vec<f64> = Vec::with_capacity(INGEST_BATCH);
    let mut samples = 0u64;
    for frame in corpus.chunks(frame_len) {
        decoder.feed(frame).expect("valid corpus");
        if scalar {
            extractor.pull(&mut decoder, &mut pending);
            for &ms in &pending {
                sketch.push(class, ms);
            }
        } else {
            extractor.pull_batch(&mut decoder, &mut column, &mut pending);
            if pending.len() >= INGEST_BATCH {
                sketch.update_batch(class, &pending);
            } else {
                continue;
            }
        }
        samples += pending.len() as u64;
        pending.clear();
    }
    if !pending.is_empty() {
        if scalar {
            for &ms in &pending {
                sketch.push(class, ms);
            }
        } else {
            sketch.update_batch(class, &pending);
        }
        samples += pending.len() as u64;
    }
    assert!(
        decoder.is_clean_boundary(),
        "corpus ended mid-chunk — not a finished trace"
    );
    FoldOutcome {
        bytes: decoder.bytes_fed(),
        records: decoder.records_decoded(),
        samples,
        sketch,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::slam::{idle_corpus, synthetic_corpus};

    #[test]
    fn batch_and_scalar_folds_are_bit_identical() {
        for corpus in [
            synthetic_corpus(30_000, 0xf01d, 40),
            idle_corpus(30_000, 0xf01d, 40),
        ] {
            let b = fold_corpus(&corpus, 64 * 1024, EventClass::Keystroke, false);
            let s = fold_corpus(&corpus, 64 * 1024, EventClass::Keystroke, true);
            assert_eq!(b.bytes, s.bytes);
            assert_eq!(b.records, s.records);
            assert_eq!(b.samples, s.samples);
            assert_eq!(b.records, 30_000);
            assert!(b.samples > 0);
            assert_eq!(b.sketch.total(), s.sketch.total());
            assert_eq!(b.sketch.total_misses(), s.sketch.total_misses());
            let (bc, sc) = (
                b.sketch.class(EventClass::Keystroke),
                s.sketch.class(EventClass::Keystroke),
            );
            assert_eq!(bc.stats().mean(), sc.stats().mean());
            assert_eq!(bc.stats().min(), sc.stats().min());
            assert_eq!(bc.stats().max(), sc.stats().max());
            for q in [0.0, 0.5, 0.9, 0.99, 1.0] {
                assert_eq!(bc.quantile(q), sc.quantile(q), "q{q}");
            }
        }
    }

    #[test]
    fn fragmentation_does_not_change_the_fold() {
        let corpus = idle_corpus(20_000, 0x0f0f, 64);
        let whole = fold_corpus(&corpus, corpus.len(), EventClass::Keystroke, false);
        let tiny = fold_corpus(&corpus, 977, EventClass::Keystroke, false);
        assert_eq!(whole.samples, tiny.samples);
        assert_eq!(whole.sketch.total(), tiny.sketch.total());
        let (wc, tc) = (
            whole.sketch.class(EventClass::Keystroke),
            tiny.sketch.class(EventClass::Keystroke),
        );
        assert_eq!(wc.stats().mean(), tc.stats().mean());
    }
}
