//! CRC-32 (IEEE 802.3 polynomial, the zlib/PNG variant) for chunk and
//! header integrity. Every single-bit corruption in a framed payload is
//! detected, which the property tests rely on.
//!
//! The ingest path checks each uploaded byte four times (client frame,
//! server frame, trace chunk, WAL record), so this routine sits directly
//! on the telemetry service's throughput ceiling. Two kernels compute it:
//!
//! - **Carry-less multiply** (x86_64 with `pclmulqdq` and `sse4.1`, for
//!   inputs of 64 bytes or more). Four 128-bit accumulators fold 64
//!   input bytes per iteration, following Intel's "Fast CRC Computation
//!   for Generic Polynomials Using PCLMULQDQ Instruction" with the
//!   reflected IEEE constants zlib, Linux and Chromium use. The four
//!   lanes fold into one, single 16-byte blocks fold into that, and the
//!   128-bit remainder is reduced to 32 bits by a Barrett reduction.
//!   The fewer than 16 bytes left over go through the tables below.
//! - **Slice-by-8** (everything else): eight lookup tables, built at
//!   compile time, fold eight input bytes per iteration. It is the path
//!   for short inputs, for other targets and for CPUs without the
//!   instruction.
//!
//! [`crc32`] picks the kernel at run time with
//! `is_x86_feature_detected!`, whose answer the standard library caches.
//! Both kernels produce output identical to the bitwise definition,
//! which the tests below check at every length, alignment and frame
//! size the service uses.

/// The reflected IEEE 802.3 polynomial.
const POLY: u32 = 0xedb8_8320;

/// `TABLES[t][b]` is the CRC contribution of byte value `b` seen `t`
/// bytes before the current fold position.
static TABLES: [[u32; 256]; 8] = build_tables();

const fn build_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut b = 0usize;
    while b < 256 {
        let mut crc = b as u32;
        let mut bit = 0;
        while bit < 8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (POLY & mask);
            bit += 1;
        }
        tables[0][b] = crc;
        b += 1;
    }
    let mut t = 1usize;
    while t < 8 {
        let mut b = 0usize;
        while b < 256 {
            let prev = tables[t - 1][b];
            tables[t][b] = (prev >> 8) ^ tables[0][(prev & 0xff) as usize];
            b += 1;
        }
        t += 1;
    }
    tables
}

/// Computes the CRC-32 checksum of `data`.
pub fn crc32(data: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    if let Some(crc) = clmul::update(!0, data) {
        return !crc;
    }
    crc32_portable(data)
}

/// [`crc32`] on the slice-by-8 kernel alone, whatever the CPU offers.
fn crc32_portable(data: &[u8]) -> u32 {
    !update_tables(!0, data)
}

/// Advances the CRC register `crc` (pre- and post-inversion left to
/// the caller) over `data`, eight bytes per table fold.
fn update_tables(mut crc: u32, data: &[u8]) -> u32 {
    let mut chunks = data.chunks_exact(8);
    for chunk in &mut chunks {
        let lo = u32::from_le_bytes(chunk[0..4].try_into().unwrap()) ^ crc;
        let hi = u32::from_le_bytes(chunk[4..8].try_into().unwrap());
        crc = TABLES[7][(lo & 0xff) as usize]
            ^ TABLES[6][((lo >> 8) & 0xff) as usize]
            ^ TABLES[5][((lo >> 16) & 0xff) as usize]
            ^ TABLES[4][(lo >> 24) as usize]
            ^ TABLES[3][(hi & 0xff) as usize]
            ^ TABLES[2][((hi >> 8) & 0xff) as usize]
            ^ TABLES[1][((hi >> 16) & 0xff) as usize]
            ^ TABLES[0][(hi >> 24) as usize];
    }
    for &byte in chunks.remainder() {
        crc = (crc >> 8) ^ TABLES[0][((crc ^ u32::from(byte)) & 0xff) as usize];
    }
    crc
}

/// The carry-less-multiply kernel. With the vector gap kernel
/// (`codec::vector`) and one unchecked load in the portable one
/// (`codec::load_word`), it holds all of the crate's `unsafe` code.
#[cfg(target_arch = "x86_64")]
mod clmul {
    use std::arch::x86_64::{
        __m128i, _mm_and_si128, _mm_clmulepi64_si128, _mm_cvtsi32_si128, _mm_extract_epi32,
        _mm_loadu_si128, _mm_set_epi32, _mm_set_epi64x, _mm_srli_si128, _mm_xor_si128,
    };

    /// Shortest input the kernel takes: the four 16-byte lanes it loads
    /// before its first fold.
    pub(super) const MIN_LEN: usize = 64;

    // Folding constants for the reflected polynomial: each is
    // x^n mod P(x) for the n the fold distance needs, bit-reflected and
    // shifted left by one (Intel's paper, §4; the same values as zlib's
    // and Linux's `crc32-pclmul`).
    /// x^(4·128+32) mod P and x^(4·128−32) mod P: fold across 64 bytes.
    const K1: i64 = 0x1_5444_2bd4;
    const K2: i64 = 0x1_c6e4_1596;
    /// x^(128+32) mod P and x^(128−32) mod P: fold across 16 bytes.
    const K3: i64 = 0x1_7519_97d0;
    const K4: i64 = 0x0_ccaa_009e;
    /// x^64 mod P: the 96-to-64-bit step.
    const K5: i64 = 0x1_63cd_6124;
    /// P(x) and μ = x^64 / P(x), reflected, for the Barrett reduction.
    const P_X: i64 = 0x1_db71_0641;
    const MU: i64 = 0x1_f701_1641;

    /// Whether this CPU runs the kernel.
    fn available() -> bool {
        is_x86_feature_detected!("pclmulqdq") && is_x86_feature_detected!("sse4.1")
    }

    /// Advances the CRC register `crc` over `data`, like
    /// [`super::update_tables`]. `None` when `data` is shorter than
    /// [`MIN_LEN`] or the CPU lacks the kernel's features.
    pub(super) fn update(crc: u32, data: &[u8]) -> Option<u32> {
        if data.len() < MIN_LEN || !available() {
            return None;
        }
        // SAFETY: just checked that the CPU supports every feature
        // `fold` enables, and that `data` holds the 64 bytes `fold`
        // loads before it checks the length itself.
        Some(unsafe { fold(crc, data) })
    }

    /// Reads the next 16 bytes of `data` and advances past them.
    ///
    /// # Safety
    ///
    /// `data` must hold at least 16 bytes.
    #[inline]
    unsafe fn load(data: &mut &[u8]) -> __m128i {
        debug_assert!(data.len() >= 16);
        // SAFETY: the caller guarantees 16 readable bytes at `data`;
        // `loadu` has no alignment requirement.
        let v = unsafe { _mm_loadu_si128(data.as_ptr().cast::<__m128i>()) };
        *data = &data[16..];
        v
    }

    /// Folds the 128-bit accumulator `acc` forward by the distance the
    /// constant pair `k` encodes, and adds the next block `next`.
    #[inline]
    #[target_feature(enable = "pclmulqdq")]
    fn fold_into(acc: __m128i, next: __m128i, k: __m128i) -> __m128i {
        let lo = _mm_clmulepi64_si128(acc, k, 0x00);
        let hi = _mm_clmulepi64_si128(acc, k, 0x11);
        _mm_xor_si128(_mm_xor_si128(next, lo), hi)
    }

    /// The kernel body: fold by 4, fold by 1, reduce, then the tail.
    ///
    /// # Safety
    ///
    /// `data` must hold at least [`MIN_LEN`] bytes, and the CPU must
    /// support `pclmulqdq` and `sse4.1`.
    #[target_feature(enable = "pclmulqdq", enable = "sse4.1")]
    unsafe fn fold(crc: u32, mut data: &[u8]) -> u32 {
        // SAFETY: the caller guarantees 64 bytes, one load of 16 each.
        let [mut x3, mut x2, mut x1, mut x0] = unsafe {
            [
                load(&mut data),
                load(&mut data),
                load(&mut data),
                load(&mut data),
            ]
        };
        // The register enters as the first four bytes' pre-XOR.
        x3 = _mm_xor_si128(x3, _mm_cvtsi32_si128(crc as i32));

        let k1k2 = _mm_set_epi64x(K2, K1);
        while data.len() >= 64 {
            // SAFETY: the loop condition leaves 64 bytes for four loads.
            unsafe {
                x3 = fold_into(x3, load(&mut data), k1k2);
                x2 = fold_into(x2, load(&mut data), k1k2);
                x1 = fold_into(x1, load(&mut data), k1k2);
                x0 = fold_into(x0, load(&mut data), k1k2);
            }
        }

        let k3k4 = _mm_set_epi64x(K4, K3);
        let mut x = fold_into(x3, x2, k3k4);
        x = fold_into(x, x1, k3k4);
        x = fold_into(x, x0, k3k4);
        while data.len() >= 16 {
            // SAFETY: the loop condition leaves 16 bytes for the load.
            x = fold_into(x, unsafe { load(&mut data) }, k3k4);
        }

        // 128 → 96 bits: the low half times x^(128−32) mod P, plus the
        // high half. Then 96 → 64: the low 32 bits times x^64 mod P,
        // plus the upper 64.
        let low32 = _mm_set_epi32(0, 0, 0, !0);
        let x = _mm_xor_si128(_mm_clmulepi64_si128(x, k3k4, 0x10), _mm_srli_si128(x, 8));
        let x = _mm_xor_si128(
            _mm_clmulepi64_si128(_mm_and_si128(x, low32), _mm_set_epi64x(0, K5), 0x00),
            _mm_srli_si128(x, 4),
        );

        // Barrett reduction, 64 → 32 bits (bit-reflected form):
        // T1 = (R mod x^32)·μ, T2 = (T1 mod x^32)·P, CRC = (R ⊕ T2) / x^32.
        let pmu = _mm_set_epi64x(MU, P_X);
        let t1 = _mm_clmulepi64_si128(_mm_and_si128(x, low32), pmu, 0x10);
        let t2 = _mm_clmulepi64_si128(_mm_and_si128(t1, low32), pmu, 0x00);
        let crc = _mm_extract_epi32(_mm_xor_si128(x, t2), 1) as u32;

        super::update_tables(crc, data)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The original one-bit-at-a-time definition, kept as the reference
    /// both kernels must match byte for byte.
    fn crc32_bitwise(data: &[u8]) -> u32 {
        let mut crc = !0u32;
        for &byte in data {
            crc = bitwise_step(crc, byte);
        }
        !crc
    }

    fn bitwise_step(mut crc: u32, byte: u8) -> u32 {
        crc ^= u32::from(byte);
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (POLY & mask);
        }
        crc
    }

    /// Deterministic pseudo-random bytes that reach every table index.
    fn noise(len: usize, seed: u32) -> Vec<u8> {
        let mut state = seed;
        (0..len)
            .map(|_| {
                state = state.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
                (state >> 24) as u8
            })
            .collect()
    }

    #[test]
    fn known_vectors() {
        // The canonical check value for the IEEE polynomial.
        for f in [crc32, crc32_portable] {
            assert_eq!(f(b"123456789"), 0xcbf4_3926);
            assert_eq!(f(b""), 0);
            assert_eq!(f(&[0u8; 64]), 0x758d_6336);
        }
    }

    #[test]
    fn both_kernels_match_bitwise_at_every_length_and_offset() {
        // Every length 0..=1024 at every start offset 0..16: the kernel
        // threshold, every fold-loop exit, every leftover-tail shape and
        // every unaligned-load shape. The oracle runs incrementally, one
        // byte per length, so each offset costs one bitwise pass.
        const MAX_LEN: usize = 1024;
        let data = noise(MAX_LEN + 16, 0x9e37_79b9);
        for offset in 0..16 {
            let window = &data[offset..offset + MAX_LEN];
            let mut oracle = !0u32;
            for len in 0..=MAX_LEN {
                let want = !oracle;
                assert_eq!(
                    crc32(&window[..len]),
                    want,
                    "dispatched, offset {offset} length {len}"
                );
                assert_eq!(
                    crc32_portable(&window[..len]),
                    want,
                    "portable, offset {offset} length {len}"
                );
                if len < MAX_LEN {
                    oracle = bitwise_step(oracle, window[len]);
                }
            }
        }
    }

    #[test]
    fn both_kernels_match_bitwise_at_frame_sizes() {
        // A 64 KiB upload frame, and latlab-serve's largest accepted
        // frame payload (`MAX_FRAME_PAYLOAD`, 4 MiB), each also one byte
        // short and misaligned.
        for len in [64 << 10, 4 << 20] {
            let data = noise(len + 1, len as u32);
            for slice in [&data[..len], &data[1..], &data[1..len]] {
                let want = crc32_bitwise(slice);
                assert_eq!(crc32(slice), want, "dispatched, length {}", slice.len());
                assert_eq!(
                    crc32_portable(slice),
                    want,
                    "portable, length {}",
                    slice.len()
                );
            }
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn clmul_kernel_is_exercised_when_the_cpu_has_it() {
        // Guards the dispatch: on a capable CPU the fast kernel itself
        // must agree with the oracle (not only the fallback).
        let data = noise(4096, 7);
        if let Some(crc) = clmul::update(!0, &data) {
            assert_eq!(!crc, crc32_bitwise(&data));
        }
        assert_eq!(clmul::update(!0, &data[..clmul::MIN_LEN - 1]), None);
    }

    #[test]
    fn detects_single_bit_flips() {
        // Short (table path) and long (kernel path) payloads alike.
        for data in [b"idle-loop trace chunk payload".to_vec(), noise(200, 3)] {
            let base = crc32(&data);
            for byte in 0..data.len() {
                for bit in 0..8 {
                    let mut flipped = data.clone();
                    flipped[byte] ^= 1 << bit;
                    assert_ne!(crc32(&flipped), base, "flip at {byte}:{bit} undetected");
                }
            }
        }
    }
}
