//! ABL-CACHE reads its hit rates from the process-wide
//! `FatCacheHits`/`FatCacheMisses` counters, so it is the one `#[test]`
//! of its binary: no other test's fat-pointer loads land in its deltas.

use bench::experiments::ablations;
use bench::{Config, Row};

#[test]
fn ablation_cache_hit_rate_drops_with_regions() {
    let tiny = Config {
        n: 300,
        reps: 2,
        seed: 9,
        searches: 100,
    };
    let rows = ablations(&tiny);
    let cache_rows: Vec<&Row> = rows
        .iter()
        .filter(|r| r.experiment == "ABL-CACHE")
        .collect();
    assert_eq!(cache_rows.len(), 4);
    let rate = |r: &Row| -> f64 {
        r.note
            .split(", ")
            .nth(1)
            .unwrap()
            .trim_end_matches("% cache hits")
            .parse()
            .unwrap()
    };
    let single = rate(cache_rows[0]);
    let ten = rate(cache_rows[3]);
    assert!(single > 90.0, "single-region hit rate {single}");
    assert!(ten < 50.0, "10-region hit rate {ten}");
}
