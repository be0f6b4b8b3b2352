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
//! work goes through `crate::varint`; there is no second varint
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
/// state reflects exactly what [`decode_record`], record by record as
/// [`TraceReader`](crate::TraceReader) runs it, would hold at the same
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
/// `out` — but in one pass.
///
/// Records go in blocks of 64. A full block with its worst case of four
/// bytes per record still in the payload decodes under one check for
/// the whole block (see `gap_block`): its reads are bounded once, and
/// a zero delta, a varint of five or more bytes, or a block sum that
/// would overflow the stamp flags it instead of failing. A flagged
/// block, the tail block and a stream's first stamp take the per-record
/// step of [`decode_stamp_chunk`] — a flagged block re-walked from its
/// start — so errors are reported exactly as there. Excesses are staged
/// in a stack buffer (`Staged`) so that keeping or dropping one is
/// arithmetic rather than a branch.
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
        let mut staged: Staged = [0; 256];
        while left > 0 {
            if left >= STAGED as u32 {
                if let Some(win) = payload[pos..].first_chunk::<BLOCK_BYTES>() {
                    let block = gap_block(win, baseline, &mut staged);
                    let end = block.and_then(|b| prev.checked_add(b.sum).map(|end| (b, end)));
                    if let Some((block, end)) = end {
                        out.extend_from_slice(&staged[..usize::from(block.kept)]);
                        prev = end;
                        n += STAGED as u64;
                        pos += block.used;
                        left -= STAGED as u32;
                        continue;
                    }
                }
            }
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

/// Records per stack buffer of staged excesses in [`decode_stamp_gaps`],
/// and per block of its once-checked path.
const STAGED: usize = 64;

/// The payload bytes a block of [`STAGED`] records may read when none
/// takes more than four.
const BLOCK_BYTES: usize = 4 * STAGED;

/// The stack buffer of staged excesses. Either path stages at most one
/// block of [`STAGED`]; the 256 slots let the once-checked path index
/// it with a `u8` count and no bounds check.
type Staged = [u64; 256];

/// What [`gap_block`] made of one block: its running state while it
/// decodes, its result after.
#[derive(Default)]
struct GapBlock {
    /// Payload bytes the block's varints took.
    used: usize,
    /// Excesses staged at the front of the buffer.
    kept: u8,
    /// The block's deltas summed: the stamp advances by this much.
    sum: u64,
    /// Bit 31 is set when some varint took five or more bytes, or some
    /// delta was zero.
    flags: u32,
}

impl GapBlock {
    /// Decodes the delta at `win[self.used..]` and stages its excess.
    #[inline(always)]
    fn step(&mut self, win: &[u8; BLOCK_BYTES], baseline: u64, staged: &mut Staged) {
        // SAFETY: `gap_block` takes STAGED steps from `used = 0`, each
        // advancing `used` by at most four bytes, so the last read starts
        // at most 63·4 = 252 bytes in and ends inside the 256-byte window.
        let word = unsafe { load_word(win, self.used) };
        // The width is a branch rather than arithmetic on the word: a
        // predicted branch lets the next record's read start before this
        // one decodes, where a computed width would chain them.
        let low = (word & 0x7f) | ((word >> 1) & 0x3f80);
        let (delta, width) = if word & 0x80 == 0 {
            (word & 0x7f, 1)
        } else if word & 0x8000 == 0 {
            (low, 2)
        } else if word & 0x80_0000 == 0 {
            (low | ((word >> 2) & 0x1f_c000), 3)
        } else {
            // Four bytes; the fourth byte's top bit is set when the
            // varint goes on.
            self.flags |= word;
            let high = ((word >> 2) & 0x1f_c000) | ((word >> 3) & 0xfe0_0000);
            (low | high, 4)
        };
        // A zero delta wraps to all ones; any other is below 2^28.
        self.flags |= delta.wrapping_sub(1);
        self.used += width;
        let delta = u64::from(delta);
        self.sum += delta;
        staged[usize::from(self.kept)] = delta.wrapping_sub(baseline);
        self.kept += u8::from(delta > baseline);
    }
}

/// Decodes the [`STAGED`] deltas at the start of `win` as one unit,
/// staging each excess over `baseline` as [`decode_stamp_gaps`] does.
/// Returns `None` when the block is flagged: some varint took five or
/// more bytes, or some delta was zero. The caller then re-walks the
/// block record by record, which reports exactly what is wrong, if
/// anything.
///
/// Every varint of one to four bytes decodes here, from one
/// little-endian word. A longer one counts as four bytes, which keeps
/// every read inside `win`. Four bytes hold every delta below 2^28
/// cycles (2.7 s at 100 MHz), so 64 of them sum far below `u64::MAX`;
/// the caller adds the sum to the stamp once.
#[inline(always)]
fn gap_block(win: &[u8; BLOCK_BYTES], baseline: u64, staged: &mut Staged) -> Option<GapBlock> {
    let mut block = GapBlock::default();
    // Two steps a turn halve the loop's own overhead.
    for _ in 0..STAGED / 2 {
        block.step(win, baseline, staged);
        block.step(win, baseline, staged);
    }
    (block.flags & 0x8000_0000 == 0).then_some(block)
}

/// The four bytes at `win[at..at + 4]` as a little-endian word, read
/// without a bounds check: the one unchecked read of the gap kernel.
///
/// # Safety
///
/// `at + 4 <= BLOCK_BYTES`.
#[inline(always)]
unsafe fn load_word(win: &[u8; BLOCK_BYTES], at: usize) -> u32 {
    debug_assert!(at + 4 <= BLOCK_BYTES, "block read at {at}");
    // SAFETY: the caller keeps `win[at..at + 4]` in bounds, and
    // `read_unaligned` has no alignment requirement.
    u32::from_le(unsafe { win.as_ptr().add(at).cast::<u32>().read_unaligned() })
}

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

    /// A value of each varint width, one to four bytes.
    const WIDTHS: [u64; 4] = [100, 300, 100_000, 3_000_000];

    /// A delta that takes five varint bytes.
    const FIVE_BYTES: u64 = (1 << 28) + 5;

    /// Record `i` of a stream that mixes every varint width, baseline
    /// pace and gaps over it inside each block.
    fn mixed(baseline: u64, i: usize) -> u64 {
        let w = WIDTHS;
        [baseline, w[0], baseline + 9, w[1], w[2], baseline, w[3]][i % 7]
    }

    /// `records` deltas whose varints take `bytes` bytes in all.
    fn deltas_taking(records: usize, bytes: usize) -> Vec<u64> {
        assert!(records <= bytes && bytes <= 4 * records);
        let mut extra = bytes - records;
        (0..records)
            .map(|_| {
                let w = extra.min(3);
                extra -= w;
                WIDTHS[w]
            })
            .collect()
    }

    #[test]
    fn a_flagging_record_anywhere_in_a_block_decodes_as_the_column_walk_does() {
        // Three blocks of mixed widths; record `at` of the second is a
        // zero delta (one byte, or overlong in two or four), a five-byte
        // varint, or the delta that overflows the stamp. The first
        // block's excesses are out before the error, and the state stops
        // at the record.
        for b in BASELINES {
            let deltas: Vec<u64> = (0..192).map(|i| mixed(b, i)).collect();
            for at in 64..128 {
                let encode = |middle: &[u8]| {
                    let mut payload = encode_deltas(&deltas[..at]);
                    payload.extend_from_slice(middle);
                    payload.extend(encode_deltas(&deltas[at + 1..]));
                    payload
                };
                let zeros = [&[0x00][..], &[0x80, 0x00], &[0x80, 0x80, 0x80, 0x00]];
                for zero in zeros {
                    let (r, excess, state) = check(&encode(zero), 192, b, (1_000, true, 10));
                    let index = 10 + at;
                    assert_eq!(r, Err(format!("NonMonotonic {{ index: {index} }}")));
                    assert_eq!(state.2, index as u64);
                    assert!(!excess.is_empty());
                }
                let payload = encode(&encode_deltas(&[FIVE_BYTES]));
                let (r, _, state) = check(&payload, 192, b, (1_000, true, 10));
                assert_eq!(r, Ok(payload.len()));
                assert_eq!(state.2, 202);
                let payload = encode_deltas(&deltas);
                let start = u64::MAX - deltas[..=at].iter().sum::<u64>() + 1;
                let (r, _, state) = check(&payload, 192, b, (start, true, 10));
                assert!(r.unwrap_err().contains("overflows 64 bits"));
                assert_eq!(state.2, 10 + at as u64);
            }
        }
    }

    #[test]
    fn mixed_varint_widths_in_one_block_match_the_column_walk() {
        // Every width from one to four bytes, and the values on either
        // side of each width's edge, in every block.
        let edges = [
            1,
            127,
            128,
            16_383,
            16_384,
            2_097_151,
            2_097_152,
            (1 << 28) - 1,
        ];
        for b in BASELINES {
            for shift in 0..edges.len() {
                let deltas: Vec<u64> = (0..256)
                    .map(|i| {
                        if i % 3 == 0 {
                            b
                        } else {
                            edges[(i + shift) % 8]
                        }
                    })
                    .collect();
                let payload = encode_deltas(&deltas);
                let (r, excess, state) = check(&payload, 256, b, (0, true, 0));
                assert_eq!(r, Ok(payload.len()));
                assert_eq!(state, (deltas.iter().sum(), true, 256));
                assert_eq!(excess.len(), deltas.iter().filter(|&&d| d > b).count());
            }
        }
    }

    #[test]
    fn payloads_ending_anywhere_after_a_block_start_match_the_column_walk() {
        // Two full blocks, then a last one whose bytes run from 0 to 256:
        // under 64 bytes it holds fewer than 64 records, from 64 bytes on
        // it holds 64 that only at 256 bytes fit the once-checked path.
        for b in BASELINES {
            for after in 0..=BLOCK_BYTES {
                let mut deltas = deltas_taking(2 * STAGED, 6 * STAGED);
                deltas.extend(deltas_taking(after.min(STAGED), after));
                let payload = encode_deltas(&deltas);
                let count = deltas.len() as u32;
                let (r, _, state) = check(&payload, count, b, (7, true, 0));
                assert_eq!(r, Ok(payload.len()), "{after} bytes after the block start");
                assert_eq!(state.2, u64::from(count));
                // One record too many runs off the end on either path.
                let (r, _, _) = check(&payload, count + 1, b, (7, true, 0));
                assert!(r.unwrap_err().contains("varint runs past"));
            }
        }
    }
}
