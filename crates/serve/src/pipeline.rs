//! The server-side ingest pipeline — decode → sample extraction → sketch
//! fold — factored out of the connection handler so it can run over an
//! in-memory corpus with no sockets attached.
//!
//! The server runs the **fused path** (`fold_frame`, or its two halves
//! on two threads): [`StreamDecoder::feed_gaps`] decodes each frame
//! straight to the excess cycles of over-baseline stamp gaps without
//! storing a stamp, each excess becomes one sample in milliseconds
//! (`decode_samples`), and the frame's samples fold through one
//! [`LatencySketch::update_batch`].
//!
//! [`fold_corpus`] runs that path start-to-finish over a `.ltrc` byte
//! stream, or runs the **reference fold** the tests hold it to:
//! [`TraceReader`] decodes the whole corpus one record at a time, each
//! stamp gap becomes at most one sample, and every sample updates the
//! sketch with its own [`LatencySketch::push`]. The tests assert the two
//! produce bit-identical sketches; the perf harness times both over the
//! same corpus for the fused-over-reference speedup.

use latlab_analysis::{EventClass, LatencySketch};
use latlab_des::SimDuration;
use latlab_trace::{StreamDecoder, StreamKind, TraceError, TraceReader};

/// Decodes one frame through the fused gap kernel and folds its samples
/// into the sketch `sketch` returns — asked for only when the frame
/// yielded a sample. `excess` and `samples` are caller-owned scratch
/// ([`decode_samples`]), so a steady-state frame allocates nothing.
/// Returns the samples folded.
///
/// Uses the same float operations, in the same order, as the reference
/// fold of [`fold_corpus`] (one [`LatencySketch::push`] per sample), so
/// the sketch is bit-identical to it.
///
/// # Errors
///
/// The decoder's error; a frame that fails to decode folds none of its
/// samples (the decoder is poisoned, and the caller fails the upload).
pub(crate) fn fold_frame<'a>(
    decoder: &mut StreamDecoder,
    excess: &mut Vec<u64>,
    samples: &mut Vec<f64>,
    bytes: &[u8],
    class: EventClass,
    sketch: impl FnOnce() -> &'a mut LatencySketch,
) -> Result<u64, TraceError> {
    decode_samples(decoder, bytes, excess, samples)?;
    if samples.is_empty() {
        return Ok(0);
    }
    sketch().update_batch(class, samples);
    Ok(samples.len() as u64)
}

/// Decodes one frame to its latency samples: [`StreamDecoder::feed_gaps`]
/// into `excess`, then each excess converted to milliseconds of the
/// trace's clock into `samples`, with the reference fold's float
/// operations. Both buffers are cleared first. On an error `samples`
/// stays empty.
///
/// # Errors
///
/// The decoder's error.
pub(crate) fn decode_samples(
    decoder: &mut StreamDecoder,
    bytes: &[u8],
    excess: &mut Vec<u64>,
    samples: &mut Vec<f64>,
) -> Result<(), TraceError> {
    excess.clear();
    samples.clear();
    decoder.feed_gaps(bytes, excess)?;
    // Stamp gaps follow a header, so `excess` is empty without one.
    if let Some(meta) = decoder.meta() {
        let freq = meta.freq;
        samples.extend(
            excess
                .iter()
                .map(|&c| freq.to_ms(SimDuration::from_cycles(c))),
        );
    }
    Ok(())
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
    /// The folded sketch (bit-identical between the two folds).
    pub sketch: LatencySketch,
}

/// Runs the full server-side ingest pipeline — decode, sample
/// extraction, sketch fold — over one in-memory `.ltrc` corpus, fed in
/// `frame_len`-byte fragments as a socket would deliver it.
///
/// `reference` selects the reference fold instead: [`TraceReader`]
/// over the whole corpus (`frame_len` is then unused), a walk over its
/// stamp gaps, and one [`LatencySketch::push`] per sample. Otherwise the
/// server's fused path runs (`fold_frame` per fragment). Both fold
/// orders are identical, so the returned sketches are bit-identical —
/// the perf harness times the two over the same corpus for the
/// fused-over-reference figure.
///
/// # Panics
///
/// Panics if `corpus` is not a valid `.ltrc` byte stream — this is a
/// measurement harness for generated corpora, not an ingest frontend.
pub fn fold_corpus(
    corpus: &[u8],
    frame_len: usize,
    class: EventClass,
    reference: bool,
) -> FoldOutcome {
    assert!(frame_len > 0, "frame_len must be positive");
    if reference {
        return reference_fold(corpus, class);
    }
    let mut decoder = StreamDecoder::new();
    let mut sketch = LatencySketch::new();
    let (mut excess, mut ms) = (Vec::new(), Vec::new());
    let mut samples = 0u64;
    for frame in corpus.chunks(frame_len) {
        samples += fold_frame(&mut decoder, &mut excess, &mut ms, frame, class, || {
            &mut sketch
        })
        .expect("valid corpus");
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

/// The reference fold: every idle-stamp gap longer than the trace's
/// calibrated baseline is event-handling time and becomes one sample
/// (ms); baseline-pace gaps contribute nothing — idle is not latency.
/// Records of other stream kinds are only counted.
fn reference_fold(corpus: &[u8], class: EventClass) -> FoldOutcome {
    let mut reader = TraceReader::open(corpus).expect("valid corpus");
    let meta = reader.meta().clone();
    let stamps = meta.kind == StreamKind::IdleStamps;
    let baseline = meta.baseline.cycles();
    let mut sketch = LatencySketch::new();
    let mut samples = 0u64;
    let mut prev: Option<u64> = None;
    while let Some(rec) = reader.next().expect("valid corpus") {
        let at = rec.at_cycles();
        match prev.replace(at) {
            Some(prev) if stamps && at - prev > baseline => {
                let excess = SimDuration::from_cycles(at - prev - baseline);
                sketch.push(class, meta.freq.to_ms(excess));
                samples += 1;
            }
            _ => {}
        }
    }
    FoldOutcome {
        bytes: corpus.len() as u64,
        records: reader.records_read(),
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
        // The fused batch fold against the reference fold: the file
        // reader's records and one scalar push per sample.
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
            // Every bucket and moment bit, through the checkpoint image.
            let (mut bi, mut si) = (Vec::new(), Vec::new());
            b.sketch.encode(&mut bi);
            s.sketch.encode(&mut si);
            assert!(bi == si, "fused and reference encode images differ");
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
