//! The shared record codec: one implementation of the chunk-payload
//! record layout, used by every decoder in the crate.
//!
//! [`TraceReader`](crate::TraceReader) (pull, from files) and
//! [`StreamDecoder`](crate::StreamDecoder) (push, from sockets) decode
//! the same bytes under the same rules; before this module each carried
//! its own copy of the field-layout walk. Both now call
//! [`decode_record`]. Idle-stamp chunks have two bulk kernels, each a
//! single tight loop over a whole varint-delta chunk with no per-record
//! enum or queue bookkeeping: [`decode_stamp_chunk`] expands deltas into
//! a column of absolute stamps (the columnar path, and the oracle the
//! fused kernel is tested against), and [`decode_stamp_gaps`] turns
//! them straight into the latency samples the server folds. All varint
//! work goes through [`crate::varint`]; there is no second varint
//! implementation anywhere in the crate.

use crate::error::TraceError;
use crate::meta::StreamKind;
use crate::record::{ApiRecord, CounterRecord, Record};
use crate::varint;

/// Decodes one record from a chunk payload at `payload[*pos..]`,
/// advancing `*pos`. `any_read`/`prev_at` carry the delta-decoding state
/// across records; `index` is the stream-wide record index used in
/// monotonicity errors.
///
/// # Errors
///
/// Corrupt field encodings, truncated payloads, timestamp overflow, and
/// (for idle stamps) zero deltas, exactly as the file reader reports
/// them.
pub fn decode_record(
    payload: &[u8],
    pos: &mut usize,
    kind: StreamKind,
    any_read: bool,
    prev_at: u64,
    index: usize,
) -> Result<Record, TraceError> {
    let delta = varint::decode(payload, pos)?;
    let at = if any_read {
        if kind == StreamKind::IdleStamps && delta == 0 {
            return Err(TraceError::NonMonotonic { index });
        }
        prev_at.checked_add(delta).ok_or(TraceError::Corrupt {
            what: "timestamp delta overflows 64 bits",
        })?
    } else {
        delta
    };
    let decode_u32 = |payload: &[u8], pos: &mut usize, what: &'static str| {
        let v = varint::decode(payload, pos)?;
        u32::try_from(v).map_err(|_| TraceError::Corrupt { what })
    };
    let decode_byte = |payload: &[u8], pos: &mut usize, what: &'static str| {
        let Some(&b) = payload.get(*pos) else {
            return Err(TraceError::Corrupt { what });
        };
        *pos += 1;
        Ok(b)
    };
    Ok(match kind {
        StreamKind::IdleStamps => Record::Stamp(at),
        StreamKind::ApiLog => {
            let thread = decode_u32(payload, pos, "thread id exceeds 32 bits")?;
            let entry = decode_byte(payload, pos, "API record missing entry byte")?;
            let outcome = decode_byte(payload, pos, "API record missing outcome byte")?;
            let a = varint::decode(payload, pos)?;
            let b = varint::decode(payload, pos)?;
            let queue_len = decode_u32(payload, pos, "queue length exceeds 32 bits")?;
            Record::Api(ApiRecord {
                at_cycles: at,
                thread,
                entry,
                outcome,
                a,
                b,
                queue_len,
            })
        }
        StreamKind::Counters => {
            let counter = decode_u32(payload, pos, "counter id exceeds 32 bits")?;
            let value = varint::decode(payload, pos)?;
            Record::Counter(CounterRecord {
                at_cycles: at,
                counter,
                value,
            })
        }
    })
}

/// Columnar bulk decode of one idle-stamp chunk payload: `count`
/// varint deltas become `count` absolute stamps appended to `out`, in
/// one pass with no per-record dispatch.
///
/// The delta-decoding state (`prev_at`, `any_read`, `records`) is
/// updated *through the references as each stamp decodes*, so on error
/// every stamp decoded before the failure is already in `out` and the
/// state reflects exactly what a scalar decoder would hold at the same
/// point — the batch path fails at the identical record with the
/// identical error.
///
/// Returns the payload bytes consumed.
///
/// # Errors
///
/// Same contract as [`decode_record`] over idle stamps: truncated or
/// overflowing varints, zero deltas ([`TraceError::NonMonotonic`] at the
/// stream-wide record index), timestamp overflow.
pub fn decode_stamp_chunk(
    payload: &[u8],
    count: u32,
    out: &mut Vec<u64>,
    prev_at: &mut u64,
    any_read: &mut bool,
    records: &mut u64,
) -> Result<usize, TraceError> {
    out.reserve(count as usize);
    let mut pos = 0usize;
    // Delta state lives in locals for the duration of the loop and is
    // written back on every exit, so the contract above holds on error
    // without forcing a store per record.
    let (mut prev, mut any, mut n) = (*prev_at, *any_read, *records);
    let result = (|| -> Result<(), TraceError> {
        for _ in 0..count {
            let delta = read_delta(payload, &mut pos)?;
            let at = advance(prev, any, n, delta)?;
            out.push(at);
            prev = at;
            any = true;
            n += 1;
        }
        Ok(())
    })();
    *prev_at = prev;
    *any_read = any;
    *records = n;
    result.map(|()| pos)
}

/// The fused idle-gap kernel: decodes one idle-stamp chunk payload
/// straight to latency, appending `gap − baseline` cycles to `out` for
/// every stamp gap longer than `baseline` (the paper's idle-loop rule:
/// a baseline-pace gap carries no latency). No stamp is stored; the
/// first stamp of a stream has no gap and yields nothing.
///
/// Equivalent to [`decode_stamp_chunk`] followed by a walk over the
/// column that compares each stamp to its predecessor — same state
/// updates through the references, same excess sequence, same error at
/// the same record index, with every excess before a failure already in
/// `out` — but in one pass. Each record takes the same step as in
/// [`decode_stamp_chunk`], so errors are reported exactly as there.
/// Excesses are staged in a stack buffer of 64 records so that
/// keeping or dropping one is arithmetic rather than a branch.
///
/// Returns the payload bytes consumed.
///
/// # Errors
///
/// Same contract as [`decode_stamp_chunk`].
pub fn decode_stamp_gaps(
    payload: &[u8],
    count: u32,
    baseline: u64,
    out: &mut Vec<u64>,
    prev_at: &mut u64,
    any_read: &mut bool,
    records: &mut u64,
) -> Result<usize, TraceError> {
    let mut pos = 0usize;
    // As in `decode_stamp_chunk`, the delta state lives in locals and is
    // written back on every exit.
    let (mut prev, mut any, mut n) = (*prev_at, *any_read, *records);
    let result = (|| -> Result<(), TraceError> {
        let mut left = count;
        // The first stamp of a stream has no gap.
        if !any && left > 0 {
            prev = read_delta(payload, &mut pos)?;
            any = true;
            n += 1;
            left -= 1;
        }
        // Whether a gap carries latency is data, not a pattern a branch
        // predictor learns, so every gap's excess is written to a stack
        // buffer and kept only when the gap is over the baseline; each
        // buffer is appended to `out`, a partial one before an error.
        let mut staged = [0u64; STAGED];
        while left > 0 {
            let block = left.min(STAGED as u32);
            let mut kept = 0usize;
            let mut step = Ok(());
            for _ in 0..block {
                let stamp = read_delta(payload, &mut pos)
                    .and_then(|delta| advance(prev, true, n, delta).map(|at| (delta, at)));
                let (delta, at) = match stamp {
                    Ok(stamp) => stamp,
                    Err(e) => {
                        step = Err(e);
                        break;
                    }
                };
                // `kept` is below `block`, so the mask never wraps it; it
                // only spares the bounds check.
                staged[kept % STAGED] = delta.wrapping_sub(baseline);
                kept += usize::from(delta > baseline);
                prev = at;
                n += 1;
            }
            out.extend_from_slice(&staged[..kept]);
            step?;
            left -= block;
        }
        Ok(())
    })();
    *prev_at = prev;
    *any_read = any;
    *records = n;
    result.map(|()| pos)
}

/// Records per stack buffer of staged excesses in [`decode_stamp_gaps`].
const STAGED: usize = 64;

/// Reads one stamp delta at `payload[*pos..]`. One- to three-byte
/// varints cover every delta below 2^21 cycles (about 21 ms at
/// 100 MHz): the 1 ms baseline of a recorded trace and its jitter take
/// three bytes, a short synthetic baseline one or two. The general
/// decoder handles longer encodings and reports the exact errors for
/// truncated or overlong ones.
#[inline(always)]
fn read_delta(payload: &[u8], pos: &mut usize) -> Result<u64, TraceError> {
    let at = *pos;
    match payload.get(at) {
        Some(&b0) if b0 < 0x80 => {
            *pos += 1;
            Ok(u64::from(b0))
        }
        Some(&b0) => match payload.get(at + 1) {
            Some(&b1) if b1 < 0x80 => {
                *pos += 2;
                Ok(u64::from(b0 & 0x7f) | (u64::from(b1) << 7))
            }
            Some(&b1) => match payload.get(at + 2) {
                Some(&b2) if b2 < 0x80 => {
                    *pos += 3;
                    Ok(u64::from(b0 & 0x7f) | (u64::from(b1 & 0x7f) << 7) | (u64::from(b2) << 14))
                }
                _ => varint::decode(payload, pos),
            },
            None => varint::decode(payload, pos),
        },
        None => varint::decode(payload, pos),
    }
}

/// The absolute stamp `delta` after `prev`, under [`decode_record`]'s
/// idle-stamp rules; `index` is the stream-wide index of the record.
#[inline(always)]
fn advance(prev: u64, any: bool, index: u64, delta: u64) -> Result<u64, TraceError> {
    if !any {
        return Ok(delta);
    }
    if delta == 0 {
        return Err(TraceError::NonMonotonic {
            index: index as usize,
        });
    }
    prev.checked_add(delta).ok_or(TraceError::Corrupt {
        what: "timestamp delta overflows 64 bits",
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stamp_chunk_matches_scalar_decode() {
        // Encode a payload by hand, decode it both ways.
        let stamps = [100u64, 350, 351, 1_000_000, 1_000_001];
        let mut payload = Vec::new();
        let mut prev = 0u64;
        for (i, &s) in stamps.iter().enumerate() {
            varint::encode(if i == 0 { s } else { s - prev }, &mut payload);
            prev = s;
        }

        let mut scalar = Vec::new();
        let (mut pos, mut prev_at, mut any) = (0usize, 0u64, false);
        for i in 0..stamps.len() {
            let rec =
                decode_record(&payload, &mut pos, StreamKind::IdleStamps, any, prev_at, i).unwrap();
            prev_at = rec.at_cycles();
            any = true;
            scalar.push(prev_at);
        }
        assert_eq!(pos, payload.len());

        let mut batch = Vec::new();
        let (mut prev_at, mut any, mut n) = (0u64, false, 0u64);
        let used = decode_stamp_chunk(
            &payload,
            stamps.len() as u32,
            &mut batch,
            &mut prev_at,
            &mut any,
            &mut n,
        )
        .unwrap();
        assert_eq!(used, payload.len());
        assert_eq!(batch, scalar);
        assert_eq!(batch, stamps);
        assert_eq!(n, stamps.len() as u64);
    }

    #[test]
    fn stamp_chunk_error_preserves_decoded_prefix() {
        // Second delta is zero: the batch decode must fail at index 1
        // with the first stamp already delivered.
        let mut payload = Vec::new();
        varint::encode(500, &mut payload);
        varint::encode(0, &mut payload);
        let mut out = Vec::new();
        let (mut prev_at, mut any, mut n) = (0u64, false, 0u64);
        let err =
            decode_stamp_chunk(&payload, 2, &mut out, &mut prev_at, &mut any, &mut n).unwrap_err();
        assert!(
            matches!(err, TraceError::NonMonotonic { index: 1 }),
            "{err}"
        );
        assert_eq!(out, vec![500]);
        assert_eq!((prev_at, any, n), (500, true, 1));
    }

    /// Delta state across a kernel call: `(prev_at, any_read, records)`.
    type State = (u64, bool, u64);

    /// What a gap kernel left behind: its result (error as `Debug`), the
    /// excess cycles it produced, and the delta state.
    type GapOutcome = (Result<usize, String>, Vec<u64>, State);

    /// The oracle: the column kernel, then a walk comparing each stamp
    /// with its predecessor — the path the fused kernel replaces.
    fn gaps_via_column(payload: &[u8], count: u32, baseline: u64, state: State) -> GapOutcome {
        let (mut prev, mut any, mut n) = state;
        let mut last = any.then_some(prev);
        let mut column = Vec::new();
        let r = decode_stamp_chunk(payload, count, &mut column, &mut prev, &mut any, &mut n);
        let mut excess = Vec::new();
        for &at in &column {
            if let Some(p) = last {
                let gap = at - p;
                if gap > baseline {
                    excess.push(gap - baseline);
                }
            }
            last = Some(at);
        }
        (r.map_err(|e| format!("{e:?}")), excess, (prev, any, n))
    }

    fn gaps_fused(payload: &[u8], count: u32, baseline: u64, state: State) -> GapOutcome {
        let (mut prev, mut any, mut n) = state;
        let mut excess = Vec::new();
        let r = decode_stamp_gaps(
            payload,
            count,
            baseline,
            &mut excess,
            &mut prev,
            &mut any,
            &mut n,
        );
        (r.map_err(|e| format!("{e:?}")), excess, (prev, any, n))
    }

    /// Asserts the fused kernel matches the oracle exactly; returns the
    /// shared outcome.
    fn check(payload: &[u8], count: u32, baseline: u64, state: State) -> GapOutcome {
        let fused = gaps_fused(payload, count, baseline, state);
        assert_eq!(
            fused,
            gaps_via_column(payload, count, baseline, state),
            "baseline {baseline}, state {state:?}"
        );
        fused
    }

    fn encode_deltas(deltas: &[u64]) -> Vec<u8> {
        let mut payload = Vec::new();
        for &d in deltas {
            varint::encode(d, &mut payload);
        }
        payload
    }

    /// Baselines under test: a short synthetic one, whose deltas are
    /// one- and two-byte varints, and the 1 ms baseline a recorded trace
    /// carries at 100 MHz, whose deltas are three-byte varints.
    const BASELINES: [u64; 2] = [250, 100_000];

    #[test]
    fn gaps_keep_only_the_excess_over_baseline() {
        for b in BASELINES {
            let deltas = [b, b, b + 1, b, b, 3, b + 650, b, u64::from(u32::MAX), b];
            let payload = encode_deltas(&deltas);
            let (r, excess, state) = check(&payload, deltas.len() as u32, b, (1_000, true, 7));
            assert_eq!(r, Ok(payload.len()));
            assert_eq!(excess, vec![1, 650, u64::from(u32::MAX) - b]);
            let total: u64 = deltas.iter().sum();
            assert_eq!(state, (1_000 + total, true, 7 + deltas.len() as u64));
        }
    }

    #[test]
    fn a_zero_delta_is_non_monotonic_at_its_record() {
        // A zero delta encodes as one byte, or as the overlong `80 00`
        // or `80 80 00`. Every gap before it carries ten cycles of
        // latency, all delivered before the error, on either side of the
        // kernel's staging-buffer boundary.
        for zero in [&[0x00][..], &[0x80, 0x00], &[0x80, 0x80, 0x00]] {
            for at in [0usize, 1, 2, 3, 63, 64, 65, 69] {
                let mut payload = Vec::new();
                for i in 0..70 {
                    if i == at {
                        payload.extend_from_slice(zero);
                    } else {
                        varint::encode(260, &mut payload);
                    }
                }
                let (r, excess, state) = check(&payload, 70, 250, (5_000, true, 100));
                let index = 100 + at;
                assert_eq!(r, Err(format!("NonMonotonic {{ index: {index} }}")));
                assert_eq!(excess, vec![10; at]);
                assert_eq!(state, (5_000 + 260 * at as u64, true, index as u64));
            }
        }
    }

    #[test]
    fn overflow_near_u64_max_fails_at_its_record() {
        for b in BASELINES {
            // The third delta crosses u64::MAX.
            let payload = encode_deltas(&[b; 4]);
            let start = u64::MAX - (3 * b - 1);
            let (r, excess, state) = check(&payload, 4, b, (start, true, 0));
            assert!(r.unwrap_err().contains("overflows 64 bits"));
            assert!(excess.is_empty());
            assert_eq!(state, (start + 2 * b, true, 2));
            // Exactly reaching u64::MAX is fine.
            let (r, _, state) = check(&payload, 4, b, (u64::MAX - 4 * b, true, 0));
            assert_eq!(r, Ok(payload.len()));
            assert_eq!(state, (u64::MAX, true, 4));
        }
    }

    #[test]
    fn a_gap_of_exactly_the_baseline_carries_no_latency() {
        // Baselines at each varint width's edge, and the usual ones.
        let edges = [127, 128, (1 << 14) - 1, 1 << 14, (1 << 21) - 1, 1 << 21];
        for b in [1u64, 250, 100_000, u64::MAX].into_iter().chain(edges) {
            let payload = encode_deltas(&[b; 4]);
            let (_, excess, _) = check(&payload, 4, b, (0, true, 0));
            assert!(excess.is_empty(), "baseline {b}");
            if b < u64::MAX {
                let payload = encode_deltas(&[b, b + 1, b]);
                let (r, excess, _) = check(&payload, 3, b, (0, true, 0));
                assert!(r.is_ok());
                assert_eq!(excess, vec![1], "baseline {b}");
            }
        }
    }

    #[test]
    fn a_miscounted_chunk_stops_where_the_column_kernel_does() {
        for b in BASELINES {
            let deltas = [b, b + 10, b, b];
            let payload = encode_deltas(&deltas);
            let last = payload.len() - encode_deltas(&[b]).len();
            // A count one short leaves trailing bytes for the caller to
            // reject; one too many runs off the payload.
            let (r, excess, _) = check(&payload, 3, b, (0, true, 0));
            assert_eq!((r, excess), (Ok(last), vec![10]));
            let (r, _, _) = check(&payload, 5, b, (0, true, 0));
            assert!(r.unwrap_err().contains("varint runs past"));
        }
    }

    #[test]
    fn a_varint_cut_short_runs_past_the_payload() {
        for tail in [&[0x80][..], &[0x80, 0x80], &[0x80, 0x80, 0x80]] {
            let mut payload = encode_deltas(&[100_000]);
            payload.extend_from_slice(tail);
            let (r, _, state) = check(&payload, 2, 100_000, (0, true, 0));
            assert!(r.unwrap_err().contains("varint runs past"));
            assert_eq!(state, (100_000, true, 1));
        }
    }

    #[test]
    fn first_stamp_of_a_stream_has_no_gap() {
        // The first delta is an absolute stamp (here zero, which is
        // legal), and the next record anchors on it.
        let payload = encode_deltas(&[0, 250, 250, 300]);
        let (r, excess, state) = check(&payload, 4, 250, (0, false, 0));
        assert_eq!(r, Ok(payload.len()));
        assert_eq!(excess, vec![50]);
        assert_eq!(state, (800, true, 4));
        let payload = encode_deltas(&[1_000_000, 250]);
        let (_, excess, state) = check(&payload, 2, 250, (0, false, 0));
        assert!(excess.is_empty());
        assert_eq!(state, (1_000_250, true, 2));
    }
}
