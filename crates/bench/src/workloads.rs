//! Deterministic workload generators.
//!
//! The paper populates each structure with "some random content such that
//! each data structure contains 10000 elements" and feeds `wordcount`
//! inputs of 1M and 2M words. Everything here is seeded so runs are
//! reproducible (substitution S4 in DESIGN.md).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Default element count used throughout the paper's evaluation.
pub const PAPER_N: usize = 10_000;

/// One splitmix64 step: the op-stream generator of the multi-threaded
/// experiments (each thread iterates it from its own seed).
pub(crate) fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// `n` distinct pseudo-random `u64` keys.
pub fn keys(n: usize, seed: u64) -> Vec<u64> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = Vec::with_capacity(n);
    let mut seen = std::collections::HashSet::with_capacity(n * 2);
    while out.len() < n {
        let k: u64 = rng.gen();
        if seen.insert(k) {
            out.push(k);
        }
    }
    out
}

/// A random permutation-ish sample of `m` keys drawn from `keys` (for the
/// random-search workloads).
pub fn search_sample(keys: &[u64], m: usize, seed: u64) -> Vec<u64> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xabcd_ef01);
    (0..m).map(|_| keys[rng.gen_range(0..keys.len())]).collect()
}

/// A vocabulary of `v` lowercase words with English-like lengths (2–12
/// letters, mode around 5–7). Words may rarely repeat; consumers treat the
/// vocabulary as a multiset.
pub fn vocabulary(v: usize, seed: u64) -> Vec<String> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5742_4f4b);
    // Letter frequencies loosely matching English text.
    const LETTERS: &[u8] = b"eeeeeeeeeeeetttttttttaaaaaaaaooooooiiiiiiinnnnnnnsssssshhhhhhrrrrrrddddllllcccuuummmwwwfffggyyppbbvkjxqz";
    (0..v)
        .map(|_| {
            let len = 2 + (rng.gen_range(0..6) + rng.gen_range(0..6)) as usize; // 2..=12, triangular
            (0..len)
                .map(|_| LETTERS[rng.gen_range(0..LETTERS.len())] as char)
                .collect()
        })
        .collect()
}

/// A stream of `n` word indices into a vocabulary of size `v`, with a
/// Zipf-like (log-uniform) rank distribution so frequent words repeat the
/// way natural text does.
pub fn word_stream(n: usize, v: usize, seed: u64) -> Vec<usize> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5a49_5046);
    let ln_v = (v as f64).ln();
    (0..n)
        .map(|_| {
            let u: f64 = rng.gen();
            ((u * ln_v).exp() as usize).min(v - 1)
        })
        .collect()
}

/// Convenience: materialize a word stream as string references.
pub fn words<'a>(vocab: &'a [String], stream: &[usize]) -> Vec<&'a str> {
    stream.iter().map(|&i| vocab[i].as_str()).collect()
}

/// A suggestion-serving corpus: `n` *distinct* lowercase keys with heavy
/// shared-prefix redundancy, the shape an autocomplete index sees.
///
/// Each key is two Zipf-ishly drawn stems from a small (~sqrt n) pool
/// concatenated with a fixed-width base-26 sequence suffix. The skewed
/// stem draw makes a few prefixes dominate (path compression and wide
/// fan-out both get exercised); the fixed-width suffix guarantees
/// distinctness without disturbing the prefix structure. Keys stay
/// within `pds::art::MAX_KEY` and are pure `a..=z`, so both the ART and
/// the 26-way trie can ingest them.
pub fn suggest_corpus(n: usize, seed: u64) -> Vec<String> {
    assert!(n > 0);
    let pool_size = ((n as f64).sqrt() as usize).clamp(16, 4096);
    let stems = vocabulary(pool_size, seed ^ 0x5355_4747);
    let ln_p = (pool_size as f64).ln();
    let mut rng = StdRng::seed_from_u64(seed ^ 0x4b45_5953);
    // Fixed suffix width W with 26^W >= n keeps every key unique even
    // when the stem pair repeats.
    let mut width = 1usize;
    let mut span = 26usize;
    while span < n {
        span *= 26;
        width += 1;
    }
    let zipf = |rng: &mut StdRng| -> usize {
        let u: f64 = rng.gen();
        ((u * ln_p).exp() as usize).min(pool_size - 1)
    };
    (0..n)
        .map(|i| {
            let mut key = String::with_capacity(26 + width);
            key.push_str(&stems[zipf(&mut rng)]);
            key.push_str(&stems[zipf(&mut rng)]);
            let mut rem = i;
            let mut suffix = [0u8; 8];
            for slot in suffix[..width].iter_mut().rev() {
                *slot = b'a' + (rem % 26) as u8;
                rem /= 26;
            }
            key.push_str(std::str::from_utf8(&suffix[..width]).unwrap());
            key
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keys_are_distinct_and_deterministic() {
        let a = keys(1000, 7);
        let b = keys(1000, 7);
        assert_eq!(a, b);
        let mut c = a.clone();
        c.sort_unstable();
        c.dedup();
        assert_eq!(c.len(), 1000);
        assert_ne!(keys(100, 1), keys(100, 2));
    }

    #[test]
    fn search_sample_draws_from_keys() {
        let ks = keys(100, 3);
        let s = search_sample(&ks, 500, 3);
        assert_eq!(s.len(), 500);
        assert!(s.iter().all(|k| ks.contains(k)));
    }

    #[test]
    fn vocabulary_words_are_lowercase_and_bounded() {
        let v = vocabulary(500, 11);
        assert_eq!(v.len(), 500);
        for w in &v {
            assert!(w.len() >= 2 && w.len() <= 12, "{w}");
            assert!(w.bytes().all(|b| b.is_ascii_lowercase()));
        }
        assert_eq!(v, vocabulary(500, 11));
    }

    #[test]
    fn word_stream_is_skewed_toward_low_ranks() {
        let s = word_stream(100_000, 10_000, 5);
        assert!(s.iter().all(|&i| i < 10_000));
        let low = s.iter().filter(|&&i| i < 100).count();
        // Log-uniform: ranks below 100 get ln(100)/ln(10000) = 1/2 of mass.
        assert!(low > 30_000, "expected heavy head, got {low}");
        let high = s.iter().filter(|&&i| i >= 5_000).count();
        assert!(high < 20_000, "expected light tail, got {high}");
    }

    #[test]
    fn suggest_corpus_is_distinct_lowercase_and_prefix_heavy() {
        let n = 20_000;
        let corpus = suggest_corpus(n, 42);
        assert_eq!(corpus, suggest_corpus(n, 42), "must be deterministic");
        assert_ne!(corpus, suggest_corpus(n, 43));
        assert_eq!(corpus.len(), n);
        let mut sorted = corpus.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), n, "keys must be distinct");
        for k in &corpus {
            assert!(k.bytes().all(|b| b.is_ascii_lowercase()), "{k}");
            assert!(k.len() <= 32, "key too long for MAX_KEY: {k}");
        }
        // Prefix redundancy: the hottest 4-byte prefix must cover far
        // more keys than a uniform draw over 26^4 prefixes would.
        let mut heads = std::collections::HashMap::new();
        for k in &corpus {
            *heads.entry(&k.as_bytes()[..4]).or_insert(0usize) += 1;
        }
        let hottest = heads.values().max().copied().unwrap();
        assert!(
            hottest > n / 100,
            "expected hot shared prefixes, got {hottest}"
        );
    }

    #[test]
    fn words_materializes_stream() {
        let vocab = vocabulary(10, 1);
        let ws = words(&vocab, &[0, 3, 0]);
        assert_eq!(ws.len(), 3);
        assert_eq!(ws[0], vocab[0]);
        assert_eq!(ws[1], vocab[3]);
    }
}
