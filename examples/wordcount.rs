//! The paper's `wordcount` application (Section 6.3): count word
//! frequencies into a persistent BST, then reopen the region and query the
//! counts without recomputing anything.
//!
//! ```text
//! cargo run --release --example wordcount [N_WORDS]
//! ```

use nvm_pi::{NodeArena, OffHolder, Region, WordCount};
use std::time::Instant;

// A small deterministic "document" generator (no external corpus needed).
fn generate_words(n: usize) -> Vec<String> {
    const COMMON: &[&str] = &[
        "the",
        "of",
        "and",
        "to",
        "a",
        "in",
        "is",
        "was",
        "he",
        "for",
        "it",
        "with",
        "as",
        "his",
        "on",
        "be",
        "at",
        "by",
        "had",
        "not",
        "are",
        "but",
        "from",
        "or",
        "have",
        "memory",
        "pointer",
        "region",
        "data",
        "persistent",
        "structure",
        "system",
    ];
    let mut out = Vec::with_capacity(n);
    let mut x = 0x243f_6a88_85a3_08d3u64;
    for _ in 0..n {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        if x % 10 < 7 {
            out.push(COMMON[(x as usize / 16) % COMMON.len()].to_string());
        } else {
            // A rarer word: "w<small-number>"
            out.push(format!("w{}", (x >> 24) % 5000));
        }
    }
    out
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let n: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(200_000);
    let dir = std::env::temp_dir().join(format!("nvm-pi-wc-{}", std::process::id()));
    std::fs::create_dir_all(&dir)?;
    let path = dir.join("wordcount.nvr");

    let words = generate_words(n);
    println!("counting {n} words into a persistent BST (off-holder pointers)...");

    {
        let region = Region::create_file(&path, 32 << 20)?;
        let mut wc: WordCount<OffHolder> =
            WordCount::create_rooted(NodeArena::raw(region.clone()), "wordcount")?;
        let t = Instant::now();
        wc.add_all(words.iter().map(|s| s.as_str()))?;
        println!(
            "counted in {:?}: {} total, {} distinct",
            t.elapsed(),
            wc.total(),
            wc.distinct()
        );
        for (word, count) in wc.top_k(5) {
            println!("  {word:<12} {count}");
        }
        region.close()?;
    }

    // Second run: the counts are already there; no recount needed.
    let region = Region::open_file(&path)?;
    let wc: WordCount<OffHolder> = WordCount::attach(NodeArena::raw(region.clone()), "wordcount")?;
    wc.check_invariants()?;
    println!(
        "reopened at {:#x}: {} totals intact, count(\"the\") = {}",
        region.base(),
        wc.total(),
        wc.count("the")
    );
    region.close()?;
    std::fs::remove_dir_all(&dir).ok();
    Ok(())
}
