//! CRC-32 (IEEE 802.3 polynomial, the zlib/PNG variant) for chunk and
//! header integrity. Every single-bit corruption in a framed payload is
//! detected, which the property tests rely on.
//!
//! The ingest path checks each uploaded byte three times (client frame,
//! server frame, trace chunk; the WAL record's CRC is derived from the
//! server frame's with [`crc32_combine`]), so this routine sits directly
//! on the telemetry service's throughput ceiling. Three kernels compute
//! it:
//!
//! - **Wide carry-less multiply** (x86_64 with `vpclmulqdq` and
//!   `avx512f`, for inputs of 256 bytes or more). Four 512-bit
//!   accumulators fold 256 input bytes per iteration; the four fold into
//!   one 512-bit register, whose four 128-bit lanes fold into one, and
//!   the rest runs as in the 128-bit kernel below.
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
//!   instructions.
//!
//! [`crc32`] picks the kernel at run time with
//! `is_x86_feature_detected!`, whose answer the standard library caches.
//! Every kernel produces output identical to the bitwise definition,
//! which the tests below check at every length, alignment and frame
//! size the service uses.
//!
//! [`crc32_combine`] joins the CRCs of two adjacent pieces without
//! reading either: it multiplies the first CRC by x^(8·len2) modulo the
//! polynomial, zlib's `multmodp`/`x2nmodp` method, with the powers
//! x^(2^k) tabulated at compile time.

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

/// `X2N[k]` is x^(2^k) modulo the polynomial, reflected: the factor
/// that moves a CRC past 2^k zero bits.
static X2N: [u32; 32] = build_x2n();

const fn build_x2n() -> [u32; 32] {
    let mut table = [0u32; 32];
    // x^1: bit 30 in the reflected form, where bit 31 is x^0.
    let mut p = 1u32 << 30;
    let mut k = 0;
    while k < 32 {
        table[k] = p;
        p = multmodp(p, p);
        k += 1;
    }
    table
}

/// `a · b` modulo the polynomial, both reflected.
const fn multmodp(a: u32, mut b: u32) -> u32 {
    let mut m = 1u32 << 31;
    let mut p = 0u32;
    while m != 0 {
        if a & m != 0 {
            p ^= b;
            if a & (m - 1) == 0 {
                break;
            }
        }
        m >>= 1;
        b = if b & 1 != 0 { (b >> 1) ^ POLY } else { b >> 1 };
    }
    p
}

/// x^(2^k · n) modulo the polynomial: `n` is a count of 2^k-bit units.
fn x2nmodp(mut n: u64, mut k: usize) -> u32 {
    let mut p = 1u32 << 31; // x^0
    while n != 0 {
        if n & 1 != 0 {
            p = multmodp(X2N[k & 31], p);
        }
        n >>= 1;
        k += 1;
    }
    p
}

/// The CRC-32 of `a ++ b`, given `crc_a = crc32(a)`, `crc_b = crc32(b)`
/// and `len_b = b.len()`, without reading either piece. Costs about
/// log2(`len_b`) polynomial products, so a record's CRC can reuse the
/// checked CRC of the payload it carries.
pub fn crc32_combine(crc_a: u32, crc_b: u32, len_b: u64) -> u32 {
    // Bytes are 2^3-bit units.
    multmodp(x2nmodp(len_b, 3), crc_a) ^ crc_b
}

/// The carry-less-multiply kernels. With the vector gap kernel
/// (`codec::vector`) and one unchecked load in the portable one
/// (`codec::load_word`), they hold all of the crate's `unsafe` code.
#[cfg(target_arch = "x86_64")]
mod clmul {
    use std::arch::x86_64::{
        __m128i, __m512i, _mm512_broadcast_i32x4, _mm512_clmulepi64_epi128,
        _mm512_extracti32x4_epi32, _mm512_loadu_si512, _mm512_ternarylogic_epi64, _mm512_xor_si512,
        _mm512_zextsi128_si512, _mm_and_si128, _mm_clmulepi64_si128, _mm_cvtsi32_si128,
        _mm_extract_epi32, _mm_loadu_si128, _mm_set_epi32, _mm_set_epi64x, _mm_srli_si128,
        _mm_xor_si128,
    };

    /// Shortest input the 128-bit kernel takes: the four 16-byte lanes
    /// it loads before its first fold.
    pub(super) const MIN_LEN: usize = 64;

    /// Shortest input the 512-bit kernel takes: the four 64-byte lanes
    /// it loads before its first fold.
    pub(super) const WIDE_MIN_LEN: usize = 256;

    // Folding constants for the reflected polynomial: each is
    // x^n mod P(x) for the n the fold distance needs, bit-reflected and
    // shifted left by one (Intel's paper, §4; the same values as zlib's
    // and Linux's `crc32-pclmul`).
    /// x^(16·128+32) mod P and x^(16·128−32) mod P: fold across 256 bytes.
    const K1_WIDE: i64 = 0x1_1542_778a;
    const K2_WIDE: i64 = 0x1_322d_1430;
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

    /// Whether this CPU runs the 128-bit kernel.
    fn available() -> bool {
        is_x86_feature_detected!("pclmulqdq") && is_x86_feature_detected!("sse4.1")
    }

    /// Whether this CPU runs the 512-bit kernel.
    fn wide_available() -> bool {
        available() && is_x86_feature_detected!("vpclmulqdq") && is_x86_feature_detected!("avx512f")
    }

    /// Advances the CRC register `crc` over `data`, like
    /// [`super::update_tables`], on the widest kernel this CPU and
    /// length allow. `None` when neither kernel takes `data`.
    pub(super) fn update(crc: u32, data: &[u8]) -> Option<u32> {
        update_wide(crc, data).or_else(|| update_narrow(crc, data))
    }

    /// The 128-bit kernel alone. `None` when `data` is shorter than
    /// [`MIN_LEN`] or the CPU lacks the kernel's features.
    pub(super) fn update_narrow(crc: u32, data: &[u8]) -> Option<u32> {
        if data.len() < MIN_LEN || !available() {
            return None;
        }
        // SAFETY: just checked that the CPU supports every feature
        // `fold` enables, and that `data` holds the 64 bytes `fold`
        // loads before it checks the length itself.
        Some(unsafe { fold(crc, data) })
    }

    /// The 512-bit kernel alone. `None` when `data` is shorter than
    /// [`WIDE_MIN_LEN`] or the CPU lacks the kernel's features.
    pub(super) fn update_wide(crc: u32, data: &[u8]) -> Option<u32> {
        if data.len() < WIDE_MIN_LEN || !wide_available() {
            return None;
        }
        // SAFETY: just checked that the CPU supports every feature
        // `fold_wide` enables, and that `data` holds the 256 bytes
        // `fold_wide` loads before it checks the length itself.
        Some(unsafe { fold_wide(crc, data) })
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

    /// Reads the next 64 bytes of `data` and advances past them.
    ///
    /// # Safety
    ///
    /// `data` must hold at least 64 bytes, and the CPU must support
    /// `avx512f`.
    #[inline]
    #[target_feature(enable = "avx512f")]
    unsafe fn load_wide(data: &mut &[u8]) -> __m512i {
        debug_assert!(data.len() >= 64);
        // SAFETY: the caller guarantees 64 readable bytes at `data`;
        // `loadu` has no alignment requirement.
        let v = unsafe { _mm512_loadu_si512(data.as_ptr().cast::<__m512i>()) };
        *data = &data[64..];
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

    /// [`fold_into`] on each of the four 128-bit lanes of a 512-bit
    /// accumulator at once.
    #[inline]
    #[target_feature(enable = "avx512f", enable = "vpclmulqdq")]
    fn fold_into_wide(acc: __m512i, next: __m512i, k: __m512i) -> __m512i {
        let lo = _mm512_clmulepi64_epi128(acc, k, 0x00);
        let hi = _mm512_clmulepi64_epi128(acc, k, 0x11);
        // 0x96: the three-way XOR `next ^ lo ^ hi`.
        _mm512_ternarylogic_epi64(next, lo, hi, 0x96)
    }

    /// The 128-bit kernel body: fold by 4, then [`finish`].
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
        finish([x3, x2, x1, x0], data)
    }

    /// The 512-bit kernel body: fold four 512-bit lanes by 256 bytes,
    /// fold them into one, fold that by 64 bytes while it can, then
    /// hand its four 128-bit lanes to [`finish`].
    ///
    /// # Safety
    ///
    /// `data` must hold at least [`WIDE_MIN_LEN`] bytes, and the CPU
    /// must support `avx512f`, `vpclmulqdq`, `pclmulqdq` and `sse4.1`.
    #[target_feature(
        enable = "avx512f",
        enable = "vpclmulqdq",
        enable = "pclmulqdq",
        enable = "sse4.1"
    )]
    unsafe fn fold_wide(crc: u32, mut data: &[u8]) -> u32 {
        // SAFETY: the caller guarantees 256 bytes, one load of 64 each.
        let [mut y3, mut y2, mut y1, mut y0] = unsafe {
            [
                load_wide(&mut data),
                load_wide(&mut data),
                load_wide(&mut data),
                load_wide(&mut data),
            ]
        };
        y3 = _mm512_xor_si512(y3, _mm512_zextsi128_si512(_mm_cvtsi32_si128(crc as i32)));

        let k_wide = _mm512_broadcast_i32x4(_mm_set_epi64x(K2_WIDE, K1_WIDE));
        while data.len() >= 256 {
            // SAFETY: the loop condition leaves 256 bytes for four loads.
            unsafe {
                y3 = fold_into_wide(y3, load_wide(&mut data), k_wide);
                y2 = fold_into_wide(y2, load_wide(&mut data), k_wide);
                y1 = fold_into_wide(y1, load_wide(&mut data), k_wide);
                y0 = fold_into_wide(y0, load_wide(&mut data), k_wide);
            }
        }

        let k1k2 = _mm512_broadcast_i32x4(_mm_set_epi64x(K2, K1));
        let mut y = fold_into_wide(y3, y2, k1k2);
        y = fold_into_wide(y, y1, k1k2);
        y = fold_into_wide(y, y0, k1k2);
        while data.len() >= 64 {
            // SAFETY: the loop condition leaves 64 bytes for the load.
            y = fold_into_wide(y, unsafe { load_wide(&mut data) }, k1k2);
        }
        finish(
            [
                _mm512_extracti32x4_epi32(y, 0),
                _mm512_extracti32x4_epi32(y, 1),
                _mm512_extracti32x4_epi32(y, 2),
                _mm512_extracti32x4_epi32(y, 3),
            ],
            data,
        )
    }

    /// Folds four 128-bit lanes (earliest first) into one, folds in the
    /// remaining 16-byte blocks of `data`, reduces to 32 bits and runs
    /// the leftover bytes through the tables.
    #[target_feature(enable = "pclmulqdq", enable = "sse4.1")]
    fn finish(lanes: [__m128i; 4], mut data: &[u8]) -> u32 {
        let k3k4 = _mm_set_epi64x(K4, K3);
        let [x3, x2, x1, x0] = lanes;
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
    /// every kernel must match byte for byte.
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

    /// A CRC kernel under test: `None` where the CPU lacks it or the
    /// input is too short for it.
    type Kernel = fn(&[u8]) -> Option<u32>;

    /// Every way of computing a CRC, by name: the dispatched entry point,
    /// the tables alone, and each vector kernel alone.
    fn kernels() -> Vec<(&'static str, Kernel)> {
        let mut all: Vec<(&'static str, Kernel)> = vec![
            ("dispatched", |d| Some(crc32(d))),
            ("portable", |d| Some(crc32_portable(d))),
        ];
        #[cfg(target_arch = "x86_64")]
        all.extend([
            (
                "clmul-128",
                (|d| clmul::update_narrow(!0, d).map(|c| !c)) as Kernel,
            ),
            ("clmul-512", |d| clmul::update_wide(!0, d).map(|c| !c)),
        ]);
        all
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
        // Every length 0..=1024 at every start offset 0..16, on every
        // kernel: each kernel's threshold, every fold-loop exit, every
        // leftover-tail shape and every unaligned-load shape. The oracle
        // runs incrementally, one byte per length, so each offset costs
        // one bitwise pass.
        const MAX_LEN: usize = 1024;
        let data = noise(MAX_LEN + 16, 0x9e37_79b9);
        let kernels = kernels();
        for offset in 0..16 {
            let window = &data[offset..offset + MAX_LEN];
            let mut oracle = !0u32;
            for len in 0..=MAX_LEN {
                let want = !oracle;
                for (name, kernel) in &kernels {
                    if let Some(got) = kernel(&window[..len]) {
                        assert_eq!(got, want, "{name}, offset {offset} length {len}");
                    }
                }
                if len < MAX_LEN {
                    oracle = bitwise_step(oracle, window[len]);
                }
            }
        }
    }

    #[test]
    fn both_kernels_match_bitwise_at_frame_sizes() {
        // The 512-bit kernel's threshold, a 64 KiB upload frame, and
        // latlab-serve's largest accepted frame payload
        // (`MAX_FRAME_PAYLOAD`, 4 MiB), each also one byte either side
        // and misaligned.
        let kernels = kernels();
        for len in [256, 64 << 10, 4 << 20] {
            let data = noise(len + 2, len as u32);
            for slice in [
                &data[..len - 1],
                &data[..len],
                &data[..len + 1],
                &data[1..len + 1],
                &data[1..],
            ] {
                let want = crc32_bitwise(slice);
                for (name, kernel) in &kernels {
                    if let Some(got) = kernel(slice) {
                        assert_eq!(got, want, "{name}, length {}", slice.len());
                    }
                }
            }
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn clmul_kernel_is_exercised_when_the_cpu_has_it() {
        // Guards the dispatch: on a capable CPU each fast kernel itself
        // must agree with the oracle (not only the fallback), and each
        // refuses inputs shorter than its first load.
        let data = noise(4096, 7);
        let want = crc32_bitwise(&data);
        for (name, update, min) in [
            (
                "clmul-128",
                clmul::update_narrow as fn(u32, &[u8]) -> _,
                clmul::MIN_LEN,
            ),
            ("clmul-512", clmul::update_wide, clmul::WIDE_MIN_LEN),
        ] {
            match update(!0, &data) {
                Some(crc) => assert_eq!(!crc, want, "{name}"),
                None => eprintln!("{name}: not on this CPU, skipped"),
            }
            assert_eq!(update(!0, &data[..min - 1]), None, "{name}");
        }
    }

    #[test]
    fn combine_joins_the_crcs_of_adjacent_pieces() {
        // Seeded splits of inputs up to 1 MiB, including an empty first
        // or second piece and the 64 KiB frame size.
        let data = noise((1 << 20) + 64, 0xc0ff_ee11);
        let mut state = 0x2545_f491u32;
        let mut next = |n: usize| {
            state ^= state << 13;
            state ^= state >> 17;
            state ^= state << 5;
            state as usize % n
        };
        // (length of the first piece, length of both)
        let mut cases = vec![
            (0, 0),
            (0, 100),
            (100, 100),
            (13, 13 + (64 << 10)),
            (64 << 10, (64 << 10) + 7),
            (0, 1 << 20),
            (64, 64 + (1 << 20)),
            (1 << 20, 1 << 20),
        ];
        for _ in 0..200 {
            let total = next(5000) + 1;
            cases.push((next(total + 1), total));
        }
        for (split, total) in cases {
            let (a, b) = data[..total].split_at(split);
            let whole = crc32_bitwise(&data[..total]);
            assert_eq!(
                crc32_combine(crc32(a), crc32(b), b.len() as u64),
                whole,
                "split {} + {}",
                a.len(),
                b.len()
            );
        }
    }

    #[test]
    fn detects_single_bit_flips() {
        // Short (table path) and long (kernel paths) payloads alike.
        for data in [
            b"idle-loop trace chunk payload".to_vec(),
            noise(200, 3),
            noise(300, 5),
        ] {
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
