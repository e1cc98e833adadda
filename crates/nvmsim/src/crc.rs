//! Checksums for on-media metadata.
//!
//! The corruption-robustness layer (metadata slots, log-entry validation,
//! `Region::verify`) needs a fast, dependency-free integrity check. This
//! module provides CRC-64/XZ (ECMA-182 polynomial, reflected, init/xorout
//! all-ones) — the same parametrisation as the `crc64fast` family — as a
//! slice-by-8 kernel over compile-time-built lookup tables, plus a
//! CRC-32/ISO-HDLC for callers that only have 4 bytes to spend.
//!
//! Slice-by-8 folds eight input bytes per step: table `k` holds the CRC of
//! a byte followed by `k` zero bytes, so the eight lookups of one step are
//! independent loads instead of eight serially dependent ones. Same
//! polynomial, same values, same on-media formats as a byte-at-a-time
//! loop — which survives below as the test reference.
//!
//! Neither CRC is cryptographic: the threat model is media bit-rot and
//! torn writes, not an adversary.

/// Reflected ECMA-182 polynomial used by CRC-64/XZ.
const POLY64: u64 = 0xC96C_5795_D787_0F42;
/// Reflected ISO-HDLC polynomial used by CRC-32.
const POLY32: u32 = 0xEDB8_8320;

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

const fn build_table32() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY32
            } else {
                crc >> 1
            };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
}

static TABLES64: [[u64; 256]; 8] = build_tables64();
static TABLE32: [u32; 256] = build_table32();

/// CRC-64/XZ of `bytes`.
pub fn crc64(bytes: &[u8]) -> u64 {
    crc64_update(!0, bytes) ^ !0
}

/// Incremental form of [`crc64`]: feed `state = !0`, fold each chunk with
/// this function, finish with `state ^ !0`.
pub fn crc64_update(mut state: u64, bytes: &[u8]) -> u64 {
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

/// CRC-32/ISO-HDLC (zlib's `crc32`) of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    let state = bytes.iter().fold(!0u32, |state, &b| {
        TABLE32[((state ^ b as u32) & 0xFF) as usize] ^ (state >> 8)
    });
    state ^ !0
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
                        crc64_update(seed, bytes),
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
        for round in 0..64 {
            let mut state = !0u64;
            let mut pos = 0;
            let mut i = round * 61;
            while pos < data.len() {
                let step = (1 + cuts[i % cuts.len()] as usize % 41).min(data.len() - pos);
                state = crc64_update(state, &data[pos..pos + step]);
                pos += step;
                i += 1;
            }
            assert_eq!(state, want, "chunking {round}");
        }
    }

    #[test]
    fn crc64_known_vectors() {
        // CRC-64/XZ check value for "123456789".
        assert_eq!(crc64(b"123456789"), 0x995D_C9BB_DF19_39FA);
        assert_eq!(crc64(b""), 0);
    }

    #[test]
    fn crc32_known_vectors() {
        // CRC-32/ISO-HDLC check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
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
