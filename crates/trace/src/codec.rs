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
//! them straight into the latency samples the server folds.
//!
//! Varints decode in two layers. `crate::varint::decode` is the general
//! decoder, and the oracle for every error a varint can raise. The stamp
//! kernels inline the one- to four-byte deltas that make up nearly every
//! idle trace: `read_delta` per record, and per 64-record block either
//! the portable `gap_block` or, on x86-64 CPUs with AVX-512 VBMI and
//! VBMI2, a vector kernel that decodes sixteen records per step. Anything longer,
//! and any block that holds a zero delta, falls back to the per-record
//! step and so to `varint::decode`.

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
/// would overflow the stamp flags it instead of failing. Such a block
/// goes to the vector kernel where the CPU runs it, chosen once per
/// call, and to the portable `gap_block` elsewhere; the two return the
/// same for every block. A flagged block, the tail block and a stream's
/// first stamp take the per-record step of [`decode_stamp_chunk`] — a
/// flagged block re-walked from its start — so errors are reported
/// exactly as there. Excesses are staged in a stack buffer (`Staged`)
/// so that keeping or dropping one is arithmetic rather than a branch.
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
    let kernel = BlockKernel::detect();
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
                    let block = kernel.gap_block(win, baseline, &mut staged);
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
#[derive(Debug, Default, PartialEq)]
struct GapBlock {
    /// Payload bytes the block's varints took.
    used: usize,
    /// Excesses staged at the front of the buffer.
    kept: u8,
    /// The block's deltas summed: the stamp advances by this much.
    sum: u64,
    /// Bit 31 is set when some varint took five or more bytes, or some
    /// delta was zero; the other bits are scratch. Zero in a result.
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
    (block.flags & 0x8000_0000 == 0).then_some(GapBlock { flags: 0, ..block })
}

/// The kernel that takes a block on the once-checked path of
/// [`decode_stamp_gaps`].
#[derive(Clone, Copy)]
enum BlockKernel {
    /// [`gap_block`]: every target, and the oracle of the vector kernel.
    Portable,
    /// The AVX-512 kernel of `vector`, where this CPU runs it.
    #[cfg(target_arch = "x86_64")]
    Vector(vector::Vbmi),
}

impl BlockKernel {
    /// The vector kernel if this CPU runs it, else the portable one.
    fn detect() -> BlockKernel {
        #[cfg(target_arch = "x86_64")]
        if let Some(vbmi) = vector::Vbmi::detect() {
            return BlockKernel::Vector(vbmi);
        }
        BlockKernel::Portable
    }

    /// Decodes one block as [`gap_block`] does. Debug builds decode
    /// every vector block again with [`gap_block`] and assert that the
    /// two agree.
    #[inline(always)]
    fn gap_block(
        self,
        win: &[u8; BLOCK_BYTES],
        baseline: u64,
        staged: &mut Staged,
    ) -> Option<GapBlock> {
        match self {
            BlockKernel::Portable => gap_block(win, baseline, staged),
            #[cfg(target_arch = "x86_64")]
            BlockKernel::Vector(vbmi) => {
                let block = vbmi.gap_block(win, baseline, staged);
                if cfg!(debug_assertions) {
                    let mut oracle: Staged = [0; 256];
                    let want = gap_block(win, baseline, &mut oracle);
                    debug_assert_eq!(block, want, "vector gap kernel disagrees with gap_block");
                    let kept = block.as_ref().map_or(0, |b| usize::from(b.kept));
                    debug_assert_eq!(staged[..kept], oracle[..kept], "staged excesses differ");
                }
                block
            }
        }
    }
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

/// The vector block kernel: [`gap_block`]'s contract, sixteen records
/// per step, on x86-64 CPUs with AVX-512 F, BW, VBMI and VBMI2. It holds
/// all of the crate's `unsafe` code but the carry-less CRC kernel and
/// `load_word`.
///
/// A block decodes in two passes over its 256-byte window, after the
/// byte-mask decode of Masked VByte (Plaisance, Kurz and Lemire,
/// "Vectorized VByte Decoding", 2015). The first lists every record's
/// last byte, a byte whose top bit is clear: per 64-byte quarter, a
/// byte compress of the offsets under that mask, appended to one
/// register with a two-table permute. The second takes sixteen records
/// at a time: one 64-byte load from the first record's start, one byte
/// permute that gives each record its own bytes in a 32-bit lane and
/// zeroes the rest, and a multiply-add pair that packs the 7-bit
/// groups. Widths over four, zero deltas and fewer than 64 record ends
/// in the window flag the block, exactly where `gap_block` flags it.
/// The record ends stay in registers: in a stack array, each group's
/// reload would span several vector stores, which the store buffer
/// cannot forward, and the kernel would wait for them to reach the
/// cache (measured at over a third of its time).
#[cfg(target_arch = "x86_64")]
mod vector {
    use super::{GapBlock, Staged, BLOCK_BYTES, STAGED};
    use std::arch::x86_64::{
        _mm512_add_epi32, _mm512_add_epi64, _mm512_add_epi8, _mm512_and_si512,
        _mm512_castsi512_si256, _mm512_cmpge_epu8_mask, _mm512_cmpgt_epu32_mask,
        _mm512_cmpgt_epu8_mask, _mm512_cmple_epu8_mask, _mm512_cvtepu32_epi64,
        _mm512_cvtsi512_si32, _mm512_extracti32x4_epi32, _mm512_extracti64x4_epi64,
        _mm512_loadu_si512, _mm512_madd_epi16, _mm512_maddubs_epi16, _mm512_mask_sub_epi8,
        _mm512_maskz_compress_epi32, _mm512_maskz_compress_epi8, _mm512_maskz_permutexvar_epi8,
        _mm512_min_epu32, _mm512_movepi8_mask, _mm512_or_si512, _mm512_permutex2var_epi8,
        _mm512_permutexvar_epi8, _mm512_reduce_add_epi64, _mm512_set1_epi16, _mm512_set1_epi32,
        _mm512_set1_epi8, _mm512_set_epi64, _mm512_setr_epi32, _mm512_setzero_si512,
        _mm512_storeu_si512, _mm512_sub_epi32, _mm512_sub_epi8, _mm512_testn_epi32_mask,
        _mm_extract_epi8,
    };

    /// Proof that this CPU runs the kernel: only [`Vbmi::detect`] makes
    /// one.
    #[derive(Clone, Copy)]
    pub(super) struct Vbmi(());

    impl Vbmi {
        /// A `Vbmi` if this CPU has every feature [`block`] enables.
        pub(super) fn detect() -> Option<Vbmi> {
            let ok = is_x86_feature_detected!("avx512f")
                && is_x86_feature_detected!("avx512bw")
                && is_x86_feature_detected!("avx512vbmi")
                && is_x86_feature_detected!("avx512vbmi2");
            ok.then_some(Vbmi(()))
        }

        /// Decodes one block: the same result and staged excesses as
        /// [`super::gap_block`].
        #[inline]
        pub(super) fn gap_block(
            self,
            win: &[u8; BLOCK_BYTES],
            baseline: u64,
            staged: &mut Staged,
        ) -> Option<GapBlock> {
            // SAFETY: `self` exists only where `detect` found every
            // feature `block` enables.
            unsafe { block(win, baseline, staged) }
        }
    }

    /// The kernel body.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX-512 F, BW, VBMI and VBMI2.
    #[target_feature(enable = "avx512f,avx512bw,avx512vbmi,avx512vbmi2")]
    unsafe fn block(
        win: &[u8; BLOCK_BYTES],
        baseline: u64,
        staged: &mut Staged,
    ) -> Option<GapBlock> {
        // Byte `j` of `iota` is `j`.
        let iota = _mm512_set_epi64(
            0x3f3e_3d3c_3b3a_3938,
            0x3736_3534_3332_3130,
            0x2f2e_2d2c_2b2a_2928,
            0x2726_2524_2322_2120,
            0x1f1e_1d1c_1b1a_1918,
            0x1716_1514_1312_1110,
            0x0f0e_0d0c_0b0a_0908,
            0x0706_0504_0302_0100,
        );
        let one = _mm512_set1_epi8(1);

        // Pass one: byte `k` of `ends` is the offset in `win` of record
        // k's last byte, for the first 64 records. Each quarter of the
        // window packs its record ends and appends them at slot `found`,
        // held at 64 once the block's records are all found.
        let mut ends = _mm512_setzero_si512();
        let mut found = 0usize;
        for quarter in 0..BLOCK_BYTES / 64 {
            // SAFETY: `win` holds `BLOCK_BYTES` bytes, and this load
            // reads 64 of them from `64 * quarter`, which is at most
            // `BLOCK_BYTES - 64`; `loadu` has no alignment requirement.
            let bytes = unsafe { _mm512_loadu_si512(win.as_ptr().add(64 * quarter).cast()) };
            let last = !_mm512_movepi8_mask(bytes);
            let here = last.count_ones() as usize;
            let offsets = _mm512_add_epi8(iota, _mm512_set1_epi8((64 * quarter) as i8));
            let packed = _mm512_maskz_compress_epi8(last, offsets);
            // Slots from `slot` on take `packed` from its start: index
            // bit 6 picks the second table.
            let slot = _mm512_set1_epi8(found.min(STAGED) as i8);
            let tail = _mm512_cmpge_epu8_mask(iota, slot);
            let second = _mm512_or_si512(iota, _mm512_set1_epi8(0x40));
            let index = _mm512_mask_sub_epi8(iota, tail, second, slot);
            ends = _mm512_permutex2var_epi8(ends, index, packed);
            found += here;
        }
        // Record k starts one byte after record k − 1 ends, record 0 at
        // the window's start; `spans` holds each record's width less
        // one. With all 64 ends found the ends rise, so no byte wraps.
        let starts = _mm512_maskz_permutexvar_epi8(
            !1,
            _mm512_sub_epi8(iota, one),
            _mm512_add_epi8(ends, one),
        );
        let spans = _mm512_sub_epi8(ends, starts);
        let long = _mm512_cmpgt_epu8_mask(spans, _mm512_set1_epi8(3));
        // The start of each group's first record, a byte each.
        let heads = _mm512_permutexvar_epi8(_mm512_set1_epi32(0x3020_1000), starts);
        let heads = _mm512_cvtsi512_si32(heads) as u32;

        // Pass two. A delta of four bytes or fewer is below 2^28, so a
        // baseline of 2^32 or more keeps nothing; clamped to `u32::MAX`
        // it compares the same in a 32-bit lane.
        let floor = _mm512_set1_epi32(baseline.min(u64::from(u32::MAX)) as u32 as i32);
        // Byte `k` of each 32-bit lane is `k`; lane `i` of `spread`
        // repeats byte `i` four times.
        let ramp = _mm512_set1_epi32(0x0302_0100);
        let spread = _mm512_setr_epi32(
            0,
            0x0101_0101,
            0x0202_0202,
            0x0303_0303,
            0x0404_0404,
            0x0505_0505,
            0x0606_0606,
            0x0707_0707,
            0x0808_0808,
            0x0909_0909,
            0x0a0a_0a0a,
            0x0b0b_0b0b,
            0x0c0c_0c0c,
            0x0d0d_0d0d,
            0x0e0e_0e0e,
            0x0f0f_0f0f,
        );
        // Per lane: the deltas' sum, and the least delta (a zero flags
        // the block).
        let mut sums = _mm512_setzero_si512();
        let mut least = _mm512_set1_epi32(-1);
        let mut kept = 0usize;
        for group in 0..STAGED / 16 {
            // Each lane of the group's sixteen records gets its start
            // and span in all four bytes.
            let lanes = _mm512_add_epi8(spread, _mm512_set1_epi8((16 * group) as i8));
            let start = _mm512_permutexvar_epi8(lanes, starts);
            let span = _mm512_permutexvar_epi8(lanes, spans);
            // Sixteen records of at most four bytes lie within 64 bytes
            // of the first one's start. The load starts there, held
            // inside the window; where that moves it back, or where a
            // record is longer, the offsets below wrap in the permute,
            // which reads only their low six bits, and only in bytes
            // that the width mask drops or in a flagged block.
            let from = ((heads >> (8 * group)) as u8 as usize).min(BLOCK_BYTES - 64);
            // SAFETY: `from + 64 <= BLOCK_BYTES`, the bytes `win` holds.
            let bytes = unsafe { _mm512_loadu_si512(win.as_ptr().add(from).cast()) };
            let index = _mm512_add_epi8(_mm512_sub_epi8(start, _mm512_set1_epi8(from as i8)), ramp);
            // Each record's own bytes in its lane, the rest zero, less
            // their continuation bits.
            let own = _mm512_cmple_epu8_mask(ramp, span);
            let words = _mm512_maskz_permutexvar_epi8(own, index, bytes);
            let digits = _mm512_and_si512(words, _mm512_set1_epi8(0x7f));
            // Pack the 7-bit groups: pairs of bytes into 14 bits, then
            // pairs of those into 28.
            let pairs = _mm512_maddubs_epi16(_mm512_set1_epi16(0x8001_u16 as i16), digits);
            let deltas = _mm512_madd_epi16(pairs, _mm512_set1_epi32(0x4000_0001));
            least = _mm512_min_epu32(least, deltas);
            sums = _mm512_add_epi32(sums, deltas);
            // Stage the excesses over the baseline, packed to the front,
            // widened to 64 bits.
            let over = _mm512_cmpgt_epu32_mask(deltas, floor);
            let excess = _mm512_maskz_compress_epi32(over, _mm512_sub_epi32(deltas, floor));
            let low = _mm512_cvtepu32_epi64(_mm512_castsi512_si256(excess));
            let high = _mm512_cvtepu32_epi64(_mm512_extracti64x4_epi64::<1>(excess));
            // SAFETY: at most 16 records per earlier group were kept, so
            // `kept <= 48`, and the stores write `staged[kept..kept + 16]`
            // of its 256 slots.
            unsafe {
                let to = staged.as_mut_ptr().add(kept);
                _mm512_storeu_si512(to.cast(), low);
                _mm512_storeu_si512(to.add(8).cast(), high);
            }
            kept += over.count_ones() as usize;
        }
        if found < STAGED || long != 0 || _mm512_testn_epi32_mask(least, least) != 0 {
            return None;
        }
        // Each lane summed four deltas below 2^28, so none overflowed.
        let halves = _mm512_add_epi64(
            _mm512_cvtepu32_epi64(_mm512_castsi512_si256(sums)),
            _mm512_cvtepu32_epi64(_mm512_extracti64x4_epi64::<1>(sums)),
        );
        let used = _mm_extract_epi8::<15>(_mm512_extracti32x4_epi32::<3>(ends)) as usize + 1;
        Some(GapBlock {
            used,
            kept: kept as u8,
            sum: _mm512_reduce_add_epi64(halves) as u64,
            flags: 0,
        })
    }
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

    /// Asserts the fused kernel matches the oracle exactly, and the two
    /// block kernels agree on every window of the payload; returns the
    /// shared outcome.
    fn check(payload: &[u8], count: u32, baseline: u64, state: State) -> GapOutcome {
        let fused = gaps_fused(payload, count, baseline, state);
        assert_eq!(
            fused,
            gaps_via_column(payload, count, baseline, state),
            "baseline {baseline}, state {state:?}"
        );
        for win in payload.windows(BLOCK_BYTES) {
            kernels_agree(win.try_into().unwrap(), baseline);
        }
        fused
    }

    /// Asserts that the vector block kernel returns what `gap_block`
    /// returns for `win`, and stages the same excesses. False, having
    /// checked nothing, where this CPU lacks the vector kernel.
    fn kernels_agree(win: &[u8; BLOCK_BYTES], baseline: u64) -> bool {
        #[cfg(target_arch = "x86_64")]
        if let Some(vbmi) = vector::Vbmi::detect() {
            // Different fill, so a slot either kernel leaves unwritten
            // shows.
            let (mut want_staged, mut got_staged): (Staged, Staged) = ([0; 256], [u64::MAX; 256]);
            let want = gap_block(win, baseline, &mut want_staged);
            let got = vbmi.gap_block(win, baseline, &mut got_staged);
            assert_eq!(got, want, "baseline {baseline}, window {win:?}");
            let kept = want.map_or(0, |block| usize::from(block.kept));
            assert_eq!(
                got_staged[..kept],
                want_staged[..kept],
                "baseline {baseline}"
            );
            return true;
        }
        let _ = (win, baseline);
        false
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

    #[test]
    fn vector_and_portable_gap_kernels_agree() {
        let mut windows: Vec<[u8; BLOCK_BYTES]> = Vec::new();
        let window =
            |bytes: &[u8]| -> [u8; BLOCK_BYTES] { bytes[..BLOCK_BYTES].try_into().unwrap() };
        // Seeded random mixes of one- to six-byte varints; window `k`
        // draws widths up to `1 + k % 6`, so both kernels' once-checked
        // path and their flags are exercised.
        let mut state = 0x9e37_79b9_7f4a_7c15_u64;
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for k in 0..3_000u64 {
            let mut bytes = Vec::new();
            while bytes.len() < BLOCK_BYTES {
                let width = 1 + next() % (1 + k % 6);
                let low = if width == 1 {
                    0
                } else {
                    1 << (7 * (width - 1))
                };
                varint::encode(low + next() % ((1 << (7 * width)) - low), &mut bytes);
            }
            windows.push(window(&bytes));
        }
        // A zero delta, and then a five-byte varint, at each of the 64
        // positions of a block of one- to three-byte deltas.
        for at in 0..STAGED {
            for bad in [0, FIVE_BYTES] {
                let deltas: Vec<u64> = (0..3 * STAGED)
                    .map(|i| if i == at { bad } else { WIDTHS[i % 3] })
                    .collect();
                windows.push(window(&encode_deltas(&deltas)));
            }
        }
        // Sixty-four four-byte varints end exactly at the window's end.
        let four = encode_deltas(&[(1 << 28) - 1; STAGED]);
        assert_eq!(four.len(), BLOCK_BYTES);
        windows.push(window(&four));

        let mut once_checked = 0;
        for win in &windows {
            // Baselines below, at and above every delta, at the 32-bit
            // lane's edge and past it.
            let first = varint::decode(win, &mut 0).unwrap_or(0);
            for b in [0, 1, first, u64::from(u32::MAX), 1 << 32, u64::MAX] {
                if !kernels_agree(win, b) {
                    println!("skipped: this CPU lacks AVX-512 VBMI or VBMI2, so there is no vector kernel to check");
                    return;
                }
            }
            once_checked += usize::from(gap_block(win, 0, &mut [0; 256]).is_some());
        }
        // Both outcomes are well represented: a third of the random
        // windows draw widths of at most three bytes.
        assert!(
            once_checked > windows.len() / 4,
            "{once_checked} of {}",
            windows.len()
        );
        assert!(
            once_checked < windows.len() * 3 / 4,
            "{once_checked} of {}",
            windows.len()
        );
        assert_eq!(
            gap_block(&window(&four), 0, &mut [0; 256]).map(|b| b.used),
            Some(BLOCK_BYTES)
        );
    }
}
