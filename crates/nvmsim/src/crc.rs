//! Checksums for on-media metadata.
//!
//! The corruption-robustness layer (metadata slots, log-entry validation,
//! `Region::verify`) needs a fast, dependency-free integrity check. This
//! module provides CRC-64/XZ (ECMA-182 polynomial, reflected, init/xorout
//! all-ones) — the same parametrisation as the `crc64fast` family — as a
//! slice-by-8 kernel over compile-time-built lookup tables.
//!
//! Slice-by-8 folds eight input bytes per step: table `k` holds the CRC of
//! a byte followed by `k` zero bytes, so the eight lookups of one step are
//! independent loads instead of eight serially dependent ones. Same
//! polynomial, same values, same on-media formats as a byte-at-a-time
//! loop — which survives below as the test reference.
//!
//! On x86-64, [`crc64_update`] hands a buffer of 64 bytes or more to a
//! PCLMULQDQ folding kernel when `is_x86_feature_detected!` (a cached
//! flag) finds the instruction: four 16-byte lanes folded 64 bytes at a
//! time, then into one word that goes with the tail through the tables
//! from a zero register, so no Barrett step. Same values as the tables (a
//! 4 KiB bitmap-page seal costs 0.13 µs instead of 2.05); shorter
//! buffers, other targets and older CPUs keep the tables.
//!
//! The CRC is not cryptographic: the threat model is media bit-rot and
//! torn writes, not an adversary.

/// Reflected ECMA-182 polynomial used by CRC-64/XZ.
const POLY64: u64 = 0xC96C_5795_D787_0F42;

/// `tables[0]` is the classic byte table; `tables[k][i]` is `tables[0][i]`
/// advanced over `k` further zero bytes.
const fn build_tables64() -> [[u64; 256]; 8] {
    let mut tables = [[0u64; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u64;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY64
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = tables[0][(prev & 0xFF) as usize] ^ (prev >> 8);
            i += 1;
        }
        k += 1;
    }
    tables
}

static TABLES64: [[u64; 256]; 8] = build_tables64();

/// CRC-64/XZ of `bytes`.
pub fn crc64(bytes: &[u8]) -> u64 {
    crc64_update(!0, bytes) ^ !0
}

/// Incremental form of [`crc64`]: feed `state = !0`, fold each chunk with
/// this function, finish with `state ^ !0`.
pub fn crc64_update(state: u64, bytes: &[u8]) -> u64 {
    #[cfg(target_arch = "x86_64")]
    if bytes.len() >= 64 && std::arch::is_x86_feature_detected!("pclmulqdq") {
        // SAFETY: the CPU has PCLMULQDQ, checked just above.
        return unsafe { clmul::update(state, bytes) };
    }
    update_tables(state, bytes)
}

/// The slice-by-8 table loop: every length, every target.
fn update_tables(mut state: u64, bytes: &[u8]) -> u64 {
    let t = &TABLES64;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        let x = state ^ u64::from_le_bytes(w.try_into().expect("chunks_exact(8)"));
        state = t[7][(x & 0xFF) as usize]
            ^ t[6][(x >> 8 & 0xFF) as usize]
            ^ t[5][(x >> 16 & 0xFF) as usize]
            ^ t[4][(x >> 24 & 0xFF) as usize]
            ^ t[3][(x >> 32 & 0xFF) as usize]
            ^ t[2][(x >> 40 & 0xFF) as usize]
            ^ t[1][(x >> 48 & 0xFF) as usize]
            ^ t[0][(x >> 56) as usize];
    }
    let bytes = words.remainder();
    for &b in bytes {
        state = t[0][((state ^ b as u64) & 0xFF) as usize] ^ (state >> 8);
    }
    state
}

/// The PCLMULQDQ folding kernel. A 16-byte little-endian word is the
/// reflected polynomial `H·x^64 + L`, `H` in its low qword. Moving it `D`
/// bits down the message multiplies it by `x^D`; a reflected carry-less
/// product carries one extra `x`, so the fold is `H·x^(63+D) + L·x^(D-1)`
/// with both powers reduced mod P.
#[cfg(target_arch = "x86_64")]
mod clmul {
    use super::{update_tables, POLY64};
    use std::arch::x86_64::*;

    /// `x^n mod P`, reflected (bit `i` is the coefficient of `x^(63-i)`).
    const fn xpow(n: u32) -> u64 {
        let (mut v, mut i) = (1u64 << 63, 0);
        while i < n {
            v = (v >> 1) ^ (POLY64 & (v & 1).wrapping_neg());
            i += 1;
        }
        v
    }

    /// Fold constants of a `D`-bit move: `x^(63+D)` low, `x^(D-1)` high.
    #[target_feature(enable = "pclmulqdq")]
    fn by<const D: u32>() -> __m128i {
        _mm_set_epi64x(const { xpow(D - 1) } as i64, const { xpow(63 + D) } as i64)
    }

    #[target_feature(enable = "pclmulqdq")]
    fn load(w: &[u8; 16]) -> __m128i {
        let w = u128::from_le_bytes(*w);
        _mm_set_epi64x((w >> 64) as i64, w as i64)
    }

    /// `x` moved by the fold `k`, XORed into the word `w` it lands on.
    #[target_feature(enable = "pclmulqdq")]
    fn fold(x: __m128i, k: __m128i, w: __m128i) -> __m128i {
        let h = _mm_clmulepi64_si128::<0x00>(x, k);
        _mm_xor_si128(_mm_xor_si128(h, _mm_clmulepi64_si128::<0x11>(x, k)), w)
    }

    /// [`super::crc64_update`] by folding; any length (below 64 bytes it
    /// is the table loop).
    #[target_feature(enable = "pclmulqdq")]
    pub(super) fn update(state: u64, bytes: &[u8]) -> u64 {
        let (words, tail) = bytes.as_chunks::<16>();
        if words.len() < 4 {
            return update_tables(state, bytes);
        }
        let mut x = [0, 1, 2, 3].map(|i| load(&words[i]));
        // The table loop XORs its state into the first 8 bytes too.
        x[0] = _mm_xor_si128(x[0], _mm_set_epi64x(0, state as i64));
        let mut blocks = words[4..].chunks_exact(4);
        for b in &mut blocks {
            for (x, w) in x.iter_mut().zip(b) {
                *x = fold(*x, by::<512>(), load(w));
            }
        }
        let k = by::<128>();
        let acc = x[1..].iter().fold(x[0], |acc, &w| fold(acc, k, w));
        let rest = blocks.remainder();
        let acc = rest.iter().fold(acc, |acc, w| fold(acc, k, load(w)));
        let hi = _mm_unpackhi_epi64(acc, acc);
        let halves = [acc, hi].map(|h| _mm_cvtsi128_si64(h).to_le_bytes());
        update_tables(update_tables(0, halves.as_flattened()), tail)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The byte-at-a-time loop the kernel replaced: the reference every
    /// length, alignment and chunking is compared against.
    fn crc64_update_bytewise(mut state: u64, bytes: &[u8]) -> u64 {
        for &b in bytes {
            state = TABLES64[0][((state ^ b as u64) & 0xFF) as usize] ^ (state >> 8);
        }
        state
    }

    /// The folding kernel called directly where the CPU has it; the
    /// table loop elsewhere (there is nothing else to compare then).
    fn kernel(state: u64, bytes: &[u8]) -> u64 {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("pclmulqdq") {
            // SAFETY: the CPU has PCLMULQDQ, checked just above.
            return unsafe { clmul::update(state, bytes) };
        }
        update_tables(state, bytes)
    }

    fn noise(n: usize, mut x: u64) -> Vec<u8> {
        (0..n)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 24) as u8
            })
            .collect()
    }

    #[test]
    fn slice_by_8_matches_bytewise_at_every_length_and_alignment() {
        let data = noise(8 + 67, 0x9E37_79B9_7F4A_7C15);
        for align in 0..8 {
            for len in 0..=67 {
                let bytes = &data[align..align + len];
                for seed in [!0u64, 0, 0x0123_4567_89AB_CDEF] {
                    assert_eq!(
                        update_tables(seed, bytes),
                        crc64_update_bytewise(seed, bytes),
                        "len {len} at alignment {align}, seed {seed:#x}"
                    );
                }
            }
        }
    }

    #[test]
    fn random_chunkings_match_bytewise() {
        let data = noise(4096, 7);
        let want = crc64_update_bytewise(!0, &data);
        let cuts = noise(4096, 11);
        // Short chunks through the dispatch, then chunks of up to 766
        // bytes through the folding kernel.
        for max_step in [41, 766] {
            let update = if max_step == 41 { crc64_update } else { kernel };
            for round in 0..64 {
                let mut state = !0u64;
                let mut pos = 0;
                let mut i = round * 61;
                while pos < data.len() {
                    let step =
                        (1 + cuts[i % cuts.len()] as usize * 3 % max_step).min(data.len() - pos);
                    state = update(state, &data[pos..pos + step]);
                    pos += step;
                    i += 1;
                }
                assert_eq!(state, want, "chunking {round}, steps up to {max_step}");
            }
        }
    }

    /// A fixed 4 KiB pattern: what a bitmap page's seal covers.
    fn page_pattern() -> Vec<u8> {
        (0..4096u32)
            .map(|i| (i.wrapping_mul(0x9E37_79B1) >> 13) as u8 ^ i as u8)
            .collect()
    }

    /// CRC-64/XZ of [`page_pattern`] and of its last 4 064 bytes, from an
    /// independent bit-serial implementation.
    const GOLDEN_PAGE: u64 = 0x97C2_A317_6D3E_771D;
    const GOLDEN_TAIL: u64 = 0x7799_DDFD_1576_F541;

    #[test]
    fn crc64_golden_values_of_a_page() {
        // Whichever path runs must reproduce them, or every image sealed
        // before it stops verifying.
        let page = page_pattern();
        assert_eq!(crc64(&page), GOLDEN_PAGE);
        // The 4 064 bytes behind a bitmap page's first 32.
        assert_eq!(crc64(&page[32..]), GOLDEN_TAIL);
        assert_eq!(
            crc64_update(crc64_update(!0, &page[..32]), &page[32..]) ^ !0,
            GOLDEN_PAGE
        );
    }

    #[test]
    fn kernel_matches_tables_at_every_length_alignment_and_seed() {
        let data = noise(16 + 8192, 0x2545_F491_4F6C_DD1D);
        for len in (0..=1024).chain([4064, 4096, 8192]) {
            for align in 0..16 {
                let bytes = &data[align..align + len];
                for seed in [!0u64, 0, 0x0123_4567_89AB_CDEF] {
                    assert_eq!(
                        kernel(seed, bytes),
                        update_tables(seed, bytes),
                        "len {len} at alignment {align}, seed {seed:#x}"
                    );
                }
            }
        }
    }

    #[test]
    fn crc64_known_vectors() {
        // CRC-64/XZ check value for "123456789".
        assert_eq!(crc64(b"123456789"), 0x995D_C9BB_DF19_39FA);
        assert_eq!(crc64(b""), 0);
    }

    #[test]
    fn incremental_matches_one_shot() {
        let data = (0..=255u8).cycle().take(4096).collect::<Vec<_>>();
        let whole = crc64(&data);
        let mut state = !0u64;
        for chunk in data.chunks(37) {
            state = crc64_update(state, chunk);
        }
        assert_eq!(state ^ !0, whole);
    }

    #[test]
    fn single_bit_flip_changes_crc() {
        let mut data = vec![0xA5u8; 1024];
        let before = crc64(&data);
        for &pos in &[0usize, 511, 1023] {
            for bit in 0..8 {
                data[pos] ^= 1 << bit;
                assert_ne!(crc64(&data), before, "flip at {pos}:{bit} undetected");
                data[pos] ^= 1 << bit;
            }
        }
        assert_eq!(crc64(&data), before);
    }
}
