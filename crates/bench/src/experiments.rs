//! Experiment runners — one per table/figure of the paper's evaluation
//! (see the per-experiment index in `DESIGN.md`).
//!
//! Every runner returns [`Row`]s with times and slowdowns normalized to
//! the normal-(volatile)-pointer implementation of the same workload, the
//! same normalization the paper uses in Figures 12–14 (Figure 15 and
//! Table 1 report absolute times and traversal-count-normalized overheads
//! respectively — those runners follow suit).

use crate::harness::{
    group_times, structure_times, tab1_point, time_avg, wordcount_time, Config, OpTimes, ReprKind,
};
use crate::report::{normalize, Row};
use crate::workloads::{self, mix};
use block::Block;
use nvmsim::metrics::{self, Counter};
use nvmsim::{registry, NvSpace, Region};
use pi_core::Riv;
use std::time::Instant;

/// The four structures of Section 6.1, in the paper's order.
pub const STRUCTURES: [&str; 4] = ["list", "btree", "hashset", "trie"];

/// Appends one comparison group's times as rows: a `traverse` row per
/// representation, each followed by a `search` row when `search` is set.
fn push_group(
    rows: &mut Vec<Row>,
    exp: &'static str,
    structure: &str,
    note: &str,
    search: bool,
    times: Vec<(ReprKind, OpTimes)>,
) {
    for (kind, t) in times {
        let mut push = |op, ns| rows.push(Row::new(exp, structure, op, kind.name(), ns, note));
        push("traverse", t.traverse_ns);
        if search {
            push("search", t.search_ns);
        }
    }
}

/// FIG12 — slowdowns of the non-transactional implementations, single
/// region, 32-byte payloads, full traversals.
pub fn fig12(cfg: &Config) -> Vec<Row> {
    payload_rows("FIG12", cfg, 32)
}

/// PAY256 — the Section 6.2 payload sweep: same as FIG12 with 256-byte
/// payloads.
pub fn pay256(cfg: &Config) -> Vec<Row> {
    payload_rows("PAY256", cfg, 256)
}

fn payload_rows(exp: &'static str, cfg: &Config, payload: usize) -> Vec<Row> {
    let note = format!("payload={payload}B");
    let kinds = [
        ReprKind::Normal,
        ReprKind::Swizzled,
        ReprKind::Fat,
        ReprKind::Riv,
        ReprKind::OffHolder,
        ReprKind::Based,
    ];
    let mut rows = Vec::new();
    for s in STRUCTURES {
        let times = group_times(s, &kinds, payload, cfg, 1, false);
        push_group(&mut rows, exp, s, &note, false, times);
    }
    normalize(&mut rows, "normal");
    rows
}

/// TAB1 — overhead of the swizzling method as the structure is traversed
/// 1, 10, and 100 times per load/store cycle (32-byte payload,
/// non-transactional).
pub fn tab1(cfg: &Config) -> Vec<Row> {
    let mut rows = Vec::new();
    for s in STRUCTURES {
        for k in [1usize, 10, 100] {
            // Fewer timed reps for the expensive k=100 protocol.
            let mut c = *cfg;
            c.reps = if k >= 100 { cfg.reps.min(3) } else { cfg.reps };
            let (protocol, base_k) = tab1_point(s, &c, k);
            let mut row = Row::new(
                "TAB1",
                s,
                format!("{k} traversals"),
                "swizzling",
                protocol,
                "vs k normal traversals",
            );
            row.slowdown = Some(protocol / base_k);
            rows.push(row);
        }
    }
    rows
}

/// FIG13 — slowdowns of the transactional implementations (nodes placed
/// through a `pstore` store), single region; traversal and random search.
pub fn fig13(cfg: &Config) -> Vec<Row> {
    let kinds = [
        ReprKind::Normal,
        ReprKind::Fat,
        ReprKind::FatCached,
        ReprKind::Riv,
        ReprKind::OffHolder,
        ReprKind::Based,
    ];
    let mut rows = Vec::new();
    for s in STRUCTURES {
        let times = group_times(s, &kinds, 32, cfg, 1, true);
        push_group(&mut rows, "FIG13", s, "tx,1 region", true, times);
    }
    normalize(&mut rows, "normal");
    rows
}

/// The representations that can link across regions.
const CROSS_REGION: [ReprKind; 4] = [
    ReprKind::Normal,
    ReprKind::Fat,
    ReprKind::FatCached,
    ReprKind::Riv,
];

/// FIG14 — slowdowns with the structure spread round-robin over `k`
/// NVRegions (transactional). Off-holder and based pointers are not
/// applicable cross-region and are omitted, as in the paper.
pub fn fig14(cfg: &Config, k: usize) -> Vec<Row> {
    let note = format!("tx,{k} regions");
    let mut rows = Vec::new();
    for s in STRUCTURES {
        let times = group_times(s, &CROSS_REGION, 32, cfg, k, true);
        push_group(&mut rows, "FIG14", s, &note, true, times);
    }
    normalize(&mut rows, "normal");
    rows
}

/// REGS — the Section 6.3 sweep over smaller region counts {2, 4, 8}
/// (traversals only, list and btree, to keep the sweep affordable).
pub fn region_sweep(cfg: &Config) -> Vec<Row> {
    let mut rows = Vec::new();
    for k in [2usize, 4, 8] {
        let note = format!("tx,{k} regions");
        for s in ["list", "btree"] {
            let times = group_times(s, &CROSS_REGION, 32, cfg, k, true);
            push_group(&mut rows, "REGS", s, &note, false, times);
        }
    }
    normalize(&mut rows, "normal");
    rows
}

/// FIG15 — wordcount execution times for inputs of `sizes` words (the
/// paper uses 1M and 2M).
pub fn fig15(cfg: &Config, sizes: &[usize]) -> Vec<Row> {
    let vocab_size = (sizes.iter().copied().max().unwrap_or(1_000_000) / 20).clamp(1_000, 50_000);
    let vocab = workloads::vocabulary(vocab_size, cfg.seed);
    let mut rows = Vec::new();
    for &n in sizes {
        let stream = workloads::word_stream(n, vocab.len(), cfg.seed);
        let words = workloads::words(&vocab, &stream);
        let note = format!("{}M words", n as f64 / 1e6);
        for kind in [
            ReprKind::Normal,
            ReprKind::Based,
            ReprKind::OffHolder,
            ReprKind::Riv,
            ReprKind::Fat,
            ReprKind::FatCached,
        ] {
            let ns = wordcount_time(kind, &words, cfg.reps.min(3));
            rows.push(Row::new(
                "FIG15",
                "wordcount",
                "run",
                kind.name(),
                ns,
                note.clone(),
            ));
        }
    }
    normalize(&mut rows, "normal");
    rows
}

/// RIVBRK — the Section 6.2 breakdown of a RIV-based read into its three
/// steps: (1) extract the ID and offset fields, (2) translate the ID to
/// the region base through the base table, (3) add the offset and read
/// the target. Returns one row per step with its share of the total in
/// the note (the paper reports 32% / 23% / 48%).
pub fn riv_breakdown(cfg: &Config) -> Vec<Row> {
    let region = Region::create(32 << 20).expect("region");
    let n = cfg.n.max(1000);
    // A chain of RIV values, each stored at a random-ish allocation, each
    // pointing at a u64 cell.
    let values: Vec<Riv> = (0..n)
        .map(|i| Riv::p2x(Block::alloc(&region, 8, i as u64).addr()))
        .collect();
    let space = NvSpace::global();
    let l3 = space.layout().l3;
    let mask = (1u64 << l3) - 1;
    let reps = cfg.reps.max(3) * 10;

    // Step 1 only: field extraction.
    let t1 = time_avg(
        || {
            let mut acc = 0u64;
            for v in &values {
                let raw = v.raw() & !(1 << 63);
                acc = acc.wrapping_add((raw >> l3) ^ (raw & mask));
            }
            acc
        },
        reps,
    );
    // Steps 1+2: extraction + base-table translation.
    let t12 = time_avg(
        || {
            let mut acc = 0u64;
            for v in &values {
                let raw = v.raw() & !(1 << 63);
                let base = space.base_of_rid((raw >> l3) as u32);
                acc = acc.wrapping_add(base as u64 ^ (raw & mask));
            }
            acc
        },
        reps,
    );
    // Steps 1+2+3: the full dereference (x2p + target read).
    let t123 = time_avg(
        || {
            let mut acc = 0u64;
            for v in &values {
                // SAFETY: targets are live u64 cells in the open region.
                acc = acc.wrapping_add(unsafe { *(v.x2p() as *const u64) });
            }
            acc
        },
        reps,
    );
    region.close().expect("close");

    let step2 = (t12 - t1).max(0.0);
    let step3 = (t123 - t12).max(0.0);
    let total = (t1 + step2 + step3).max(1.0);
    let mut rows = Vec::new();
    for (name, ns) in [
        ("1: extract ID+offset", t1),
        ("2: ID2Addr (base table)", step2),
        ("3: add offset + read", step3),
    ] {
        rows.push(Row::new(
            "RIVBRK",
            "riv-read",
            name,
            "riv",
            ns,
            format!("{:.0}% of read cost", 100.0 * ns / total),
        ));
    }
    rows
}

/// ABL — ablations of individual design decisions (see `DESIGN.md`):
/// table design (ABL-TBL), self-relative vs region-relative offsets
/// (ABL-SELF), cache hit rates vs region count (ABL-CACHE), and the
/// off-holder sentinel encodings (ABL-NULL).
pub fn ablations(cfg: &Config) -> Vec<Row> {
    let mut rows = Vec::new();

    // ABL-TBL: same packed format, different translation structure.
    // ABL-SELF: self-relative vs masked-region-base vs global-base offsets.
    for (exp, kinds) in [
        (
            "ABL-TBL",
            [
                ReprKind::Normal,
                ReprKind::Riv,
                ReprKind::RivHash,
                ReprKind::Fat,
            ],
        ),
        (
            "ABL-SELF",
            [
                ReprKind::Normal,
                ReprKind::OffHolder,
                ReprKind::SegBase,
                ReprKind::Based,
            ],
        ),
    ] {
        let times = group_times("list", &kinds, 32, cfg, 1, false);
        push_group(&mut rows, exp, "list", "1 region", false, times);
    }

    // ABL-CACHE: fat-with-cache hit rate vs number of regions.
    for k in [1usize, 2, 4, 10] {
        registry::reset_cache();
        let before = metrics::snapshot();
        let t = structure_times("list", ReprKind::FatCached, 32, cfg, k, false);
        let d = metrics::snapshot().delta(&before);
        let (hits, misses) = (d.get(Counter::FatCacheHits), d.get(Counter::FatCacheMisses));
        let rate = if hits + misses > 0 {
            100.0 * hits as f64 / (hits + misses) as f64
        } else {
            0.0
        };
        rows.push(Row::new(
            "ABL-CACHE",
            "list",
            "traverse",
            "fat+cache",
            t.traverse_ns,
            format!("{k} regions, {rate:.1}% cache hits"),
        ));
    }

    // ABL-NULL: cost of the null/self sentinel checks in off-holder
    // decode, vs a raw unconditional add.
    {
        use pi_core::OffHolder;
        let n = cfg.n.max(1000);
        let holders: Vec<u64> = (0..n as u64).map(|i| 0x1000 + i * 16).collect();
        let encoded: Vec<OffHolder> = holders
            .iter()
            .map(|&h| OffHolder::encode_at(h as usize, (h + 64) as usize))
            .collect();
        let reps = cfg.reps * 10;
        let with_sentinels = time_avg(
            || {
                let mut acc = 0u64;
                for (e, &h) in encoded.iter().zip(&holders) {
                    acc = acc.wrapping_add(e.decode_at(h as usize) as u64);
                }
                acc
            },
            reps,
        );
        let raw_add = time_avg(
            || {
                let mut acc = 0u64;
                for (e, &h) in encoded.iter().zip(&holders) {
                    acc = acc.wrapping_add(h.wrapping_add(e.raw_offset() as u64));
                }
                acc
            },
            reps,
        );
        let mut a = Row::new(
            "ABL-NULL",
            "decode",
            "loop",
            "off-holder (sentinels)",
            with_sentinels,
            "",
        );
        let b = Row::new("ABL-NULL", "decode", "loop", "raw add", raw_add, "");
        a.slowdown = Some(with_sentinels / raw_add.max(1.0));
        rows.push(a);
        rows.push(b);
    }

    // Normalize the traversal ablations against normal.
    normalize(&mut rows, "normal");
    rows
}

/// CONC — concurrent lock-free hashset throughput (the EXPERIMENTS.md
/// `CONC-MATRIX` companion: the concurrent crash matrix proves the
/// link-and-persist protocol durable-linearizable; this measures what it
/// costs). Races 1/2/4 OS threads over one shared-mutable hashset per
/// 8-byte representation with a mixed 50/25/25 insert/remove/contains
/// stream over a colliding key space, reporting ns/op plus the lock-free
/// protocol counters (CAS retries, pre-link node persists, destination
/// flushes). Slowdowns are normal-pointer-relative per thread count.
pub fn conc(cfg: &Config) -> Vec<Row> {
    use pds::{NodeArena, PHashSet};
    use pi_core::{NormalPtr, OffHolder, PtrRepr};

    fn one<R: PtrRepr>(cfg: &Config, nthreads: usize) -> Row {
        let per_thread = (cfg.n * cfg.reps / nthreads).max(1);
        let total = per_thread * nthreads;
        let keyspace = (cfg.n as u64).max(64);
        let nbuckets = (keyspace / 4).next_power_of_two().max(64);
        let before = metrics::snapshot();
        let region = Region::create(64 << 20).expect("region");
        {
            let _s: PHashSet<R, 32> =
                PHashSet::create_rooted(NodeArena::raw(region.clone()), nbuckets, "hs")
                    .expect("create hashset");
        }
        let seed = cfg.seed;
        let t = Instant::now();
        std::thread::scope(|scope| {
            for tid in 0..nthreads {
                let region = region.clone();
                scope.spawn(move || {
                    let s: PHashSet<R, 32> =
                        PHashSet::attach(NodeArena::raw(region.clone()), "hs").expect("attach");
                    let mut x = seed ^ (tid as u64 + 1).wrapping_mul(0xA24B_AED4_963E_E407);
                    for _ in 0..per_thread {
                        x = mix(x);
                        let key = x % keyspace;
                        match (x >> 33) & 3 {
                            0 | 1 => {
                                s.insert_lf(key).expect("insert");
                            }
                            2 => {
                                s.remove_lf(key);
                            }
                            _ => {
                                s.contains_lf(key);
                            }
                        }
                    }
                });
            }
        });
        let ns = t.elapsed().as_nanos() as f64 / total as f64;
        drop(region);
        let delta = metrics::snapshot().delta(&before);
        let get = |name: &str| {
            delta
                .iter()
                .find(|(n, _)| *n == name)
                .map(|(_, v)| v)
                .unwrap_or(0)
        };
        Row::new(
            "CONC",
            "hashset-lf",
            format!("mixed t{nthreads}"),
            R::NAME,
            ns,
            format!(
                "ops={total}, cas_retries={}, link_persists={}, dest_flushes={}",
                get("pds_cas_retries"),
                get("pds_link_persists"),
                get("pds_destination_flushes"),
            ),
        )
    }

    let mut rows = Vec::new();
    for &nthreads in &[1usize, 2, 4] {
        let base = one::<NormalPtr>(cfg, nthreads);
        let base_ns = base.nanos;
        rows.push(base);
        rows.push(one::<OffHolder>(cfg, nthreads));
        rows.push(one::<Riv>(cfg, nthreads));
        // normalize() keys on the note, which here differs per row (it
        // carries the protocol counters) — set the normal-pointer-
        // relative slowdowns by hand within each thread count.
        if base_ns > 0.0 {
            let k = rows.len() - 3;
            for r in &mut rows[k..] {
                r.slowdown = Some(r.nanos / base_ns);
            }
        }
    }
    rows
}

/// SERVERTAIL — multi-tenant region-server tail latency (EXPERIMENTS.md).
///
/// Stands up an `nvserver` with a hot tenant class (high priority) and a
/// cold class (low priority), drives each with a mixed 70/30 read/write
/// stream through the full codec path (frame → CRC → shard queue →
/// transaction), and reports per-class p50/p99 request latency. The
/// interesting number is the cold-class p99: it carries the cost of
/// sharing shard queues with a higher-priority neighbor.
pub fn server_tail(cfg: &Config) -> Vec<Row> {
    use nvserver::{Client, Priority, ReprKind, Server, ServerConfig, ServerFaultPlan, TenantSpec};
    use std::sync::Arc;

    const CLASSES: [(&str, Priority, ReprKind, [u32; 2]); 2] = [
        ("hot", Priority::High, ReprKind::OffHolder, [0, 1]),
        ("cold", Priority::Low, ReprKind::Riv, [2, 3]),
    ];
    const THREADS_PER_CLASS: u64 = 2;
    let per_thread = (cfg.n * cfg.reps.max(1) / THREADS_PER_CLASS as usize).max(200);
    let keyspace = 512u64;

    let dir = std::env::temp_dir().join(format!("nvm-pi-servertail-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut scfg = ServerConfig::new(&dir);
    scfg.shards = 2;
    let tenants = CLASSES
        .iter()
        .flat_map(|(_, prio, repr, ids)| {
            ids.iter()
                .map(|&id| TenantSpec::new(id, *repr).with_priority(*prio))
        })
        .collect();
    let server = Server::start(scfg, tenants, ServerFaultPlan::none()).expect("start server");
    let handle = server.handle();

    let mut samples: Vec<(usize, Vec<u64>)> = Vec::new();
    std::thread::scope(|scope| {
        let mut joins = Vec::new();
        for (ci, (_, _, _, ids)) in CLASSES.iter().enumerate() {
            for tid in 0..THREADS_PER_CLASS {
                let h = handle.clone();
                let seed = cfg.seed ^ ((ci as u64 + 1) << 32) ^ tid.wrapping_mul(0x9E37_79B9);
                joins.push((
                    ci,
                    scope.spawn(move || {
                        let c = Client::new(Arc::new(h));
                        let mut lat = Vec::with_capacity(per_thread);
                        let mut x = seed;
                        for _ in 0..per_thread {
                            x = mix(x);
                            let tenant = ids[(x % 2) as usize];
                            let key = (x >> 8) % keyspace;
                            let roll = (x >> 24) % 10;
                            let t = Instant::now();
                            let r = if roll < 7 {
                                c.get(tenant, key)
                            } else if roll < 9 {
                                c.put(tenant, key)
                            } else {
                                c.delete(tenant, key)
                            };
                            lat.push(t.elapsed().as_nanos() as u64);
                            assert!(
                                r.status == nvserver::Status::Ok,
                                "unfaulted server answers Ok: {r:?}"
                            );
                        }
                        lat
                    }),
                ));
            }
        }
        for (ci, j) in joins {
            samples.push((ci, j.join().expect("client thread")));
        }
    });
    let report = server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);

    let quantile = |sorted: &[u64], q: f64| -> f64 {
        let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
        sorted[idx] as f64
    };
    let mut rows = Vec::new();
    for (ci, (class, prio, repr, ids)) in CLASSES.iter().enumerate() {
        let mut lat: Vec<u64> = samples
            .iter()
            .filter(|(c, _)| *c == ci)
            .flat_map(|(_, v)| v.iter().copied())
            .collect();
        lat.sort_unstable();
        let served: u64 = ids
            .iter()
            .map(|&id| report.tenant(id).unwrap().snapshot.ok)
            .sum();
        let note = format!(
            "priority={prio:?} repr={} tenants={} requests={} rw=70/30",
            repr.name(),
            ids.len(),
            served
        );
        for (op, q) in [("p50", 0.50), ("p99", 0.99)] {
            rows.push(Row::new(
                "SERVERTAIL",
                "server",
                op,
                *class,
                quantile(&lat, q),
                note.clone(),
            ));
        }
    }
    // Tail amplification of the cold class over the hot class, per
    // quantile (a slowdown in the hot-relative sense).
    for op in ["p50", "p99"] {
        let hot = rows
            .iter()
            .find(|r| r.repr == "hot" && r.op == op)
            .map(|r| r.nanos);
        if let Some(hot) = hot.filter(|h| *h > 0.0) {
            for r in rows.iter_mut().filter(|r| r.repr == "cold" && r.op == op) {
                r.slowdown = Some(r.nanos / hot);
            }
        }
    }
    rows
}

/// SUGGEST — suggestion-serving index comparison (EXPERIMENTS.md).
///
/// Loads a prefix-redundant autocomplete corpus (10 × `cfg.n` distinct
/// lowercase keys — 100k at paper scale) into the adaptive radix tree
/// and the 26-way letter trie, each instantiated over the off-holder,
/// RIV, and cached-fat-pointer representations, then serves a seeded
/// prefix-query stream against both. Rows report insert ns/key and
/// prefix-scan p50/p99; the returned side table carries the schema-v3
/// `bytes_per_key` entries (live index bytes per distinct key, one per
/// structure × representation). Regions start small and `grow()` ahead
/// of the load, the chunked-capacity path large corpora rely on.
pub fn suggest(cfg: &Config) -> (Vec<Row>, Vec<(String, f64)>) {
    use pds::trie::TrieHeader;
    use pds::{NodeArena, PArt, PTrie, TrieNode};
    use pi_core::{FatPtrCached, OffHolder, PtrRepr};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    let n = cfg.n * 10;
    let corpus = workloads::suggest_corpus(n, cfg.seed);

    // Prefix queries: 2..=6-byte heads of uniformly sampled corpus keys.
    // The corpus itself is stem-skewed, so hot prefixes dominate the
    // query stream the way live autocomplete traffic does.
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x5347_5354);
    let nq = cfg.searches.max(64);
    let queries: Vec<String> = (0..nq)
        .map(|_| {
            let k = &corpus[rng.gen_range(0..n)];
            let len = rng.gen_range(2usize..7).min(k.len());
            k[..len].to_string()
        })
        .collect();

    // Grow the region ahead of the next insert batch: live index bytes
    // plus a worst-case allowance for the batch, with rounding slack.
    fn ensure_room(region: &Region, live: usize, batch_worst: usize) {
        let need = live + live / 2 + batch_worst + (16 << 20);
        if region.size() < need {
            let target = need.min(region.capacity());
            region.grow(target).expect("grow region");
        }
    }

    fn quantile(sorted: &[u64], q: f64) -> f64 {
        let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
        sorted[idx] as f64
    }

    const BATCH: usize = 4096;

    fn cell<R: PtrRepr>(corpus: &[String], queries: &[String]) -> (Vec<Row>, Vec<(String, f64)>) {
        let mut rows = Vec::new();
        let mut bpk = Vec::new();
        for structure in ["art", "trie"] {
            let region = Region::create_with_capacity(64 << 20, 4 << 30).expect("suggest region");
            let mut art = None;
            let mut trie = None;
            if structure == "art" {
                art = Some(PArt::<R>::new(NodeArena::raw(region.clone())).expect("art"));
            } else {
                trie = Some(PTrie::<R, 32>::new(NodeArena::raw(region.clone())).expect("trie"));
            }
            let trie_node = std::mem::size_of::<TrieNode<R, 32>>();
            // Worst case per key: ART splits allocate a leaf plus two
            // nodes (~1 KiB rounded); the trie allocates one node per
            // unshared byte of the key.
            let per_key_worst = if structure == "art" {
                1024
            } else {
                (pds::MAX_KEY / 2) * trie_node * 2
            };

            let t = Instant::now();
            for batch in corpus.chunks(BATCH) {
                // The ART counts its bytes only by walking, so its room
                // is sized from the region's allocated bytes, an upper
                // bound on them.
                let live = match (&art, &trie) {
                    (Some(_), _) => region.stats().live_bytes as usize,
                    (_, Some(tr)) => {
                        tr.node_count() as usize * trie_node + std::mem::size_of::<TrieHeader<R>>()
                    }
                    _ => unreachable!(),
                };
                ensure_room(&region, live, batch.len() * per_key_worst);
                for w in batch {
                    match (&mut art, &mut trie) {
                        (Some(a), _) => {
                            a.insert(w).expect("art insert");
                        }
                        (_, Some(tr)) => {
                            tr.insert(w).expect("trie insert");
                        }
                        _ => unreachable!(),
                    }
                }
            }
            let insert_ns = t.elapsed().as_nanos() as f64 / corpus.len() as f64;

            let mut lat = Vec::with_capacity(queries.len());
            let mut matches = 0usize;
            for q in queries {
                let t = Instant::now();
                let hits = match (&art, &trie) {
                    (Some(a), _) => a.prefix_scan(q).expect("art scan"),
                    (_, Some(tr)) => tr.prefix_scan(q).expect("trie scan"),
                    _ => unreachable!(),
                };
                lat.push(t.elapsed().as_nanos() as u64);
                matches += hits.len();
            }
            lat.sort_unstable();

            let (bytes, distinct) = match (&art, &trie) {
                (Some(a), _) => (
                    a.stats().expect("art walk").bytes as f64,
                    a.key_count() as f64,
                ),
                (_, Some(tr)) => (
                    (tr.node_count() as usize * trie_node + std::mem::size_of::<TrieHeader<R>>())
                        as f64,
                    tr.distinct_words() as f64,
                ),
                _ => unreachable!(),
            };
            let per_key = bytes / distinct.max(1.0);
            bpk.push((format!("{structure}/{}", R::NAME), per_key));

            let note = format!(
                "keys={} queries={} matches={} region_mib={} bytes_per_key={:.1}",
                corpus.len(),
                queries.len(),
                matches,
                region.size() >> 20,
                per_key
            );
            rows.push(Row::new(
                "SUGGEST",
                structure,
                "insert",
                R::NAME,
                insert_ns,
                note.clone(),
            ));
            for (op, q) in [("scan p50", 0.50), ("scan p99", 0.99)] {
                rows.push(Row::new(
                    "SUGGEST",
                    structure,
                    op,
                    R::NAME,
                    quantile(&lat, q),
                    note.clone(),
                ));
            }
            drop(art);
            drop(trie);
            region.close().expect("close region");
        }
        (rows, bpk)
    }

    let mut rows = Vec::new();
    let mut bytes_per_key = Vec::new();
    for run in [
        cell::<OffHolder>(&corpus, &queries),
        cell::<Riv>(&corpus, &queries),
        cell::<FatPtrCached>(&corpus, &queries),
    ] {
        rows.extend(run.0);
        bytes_per_key.extend(run.1);
    }
    // Trie-relative slowdowns per (repr, op): the trie is the incumbent
    // index, so its rows carry 1.0 and the ART rows its relative cost.
    let base: Vec<(String, String, f64)> = rows
        .iter()
        .filter(|r| r.structure == "trie")
        .map(|r| (r.repr.clone(), r.op.clone(), r.nanos))
        .collect();
    for r in rows.iter_mut() {
        if r.structure == "trie" {
            r.slowdown = Some(1.0);
        } else if let Some((_, _, b)) = base
            .iter()
            .find(|(repr, op, _)| *repr == r.repr && *op == r.op)
        {
            if *b > 0.0 {
                r.slowdown = Some(r.nanos / b);
            }
        }
    }
    (rows, bytes_per_key)
}

/// Size classes the allocator workloads cycle through (one small, two
/// mid, one large).
const ALLOC_SIZES: [usize; 4] = [16, 64, 256, 1024];

/// Blocks a churn burst allocates before it frees them.
const BURST: usize = 64;

/// Allocations per thread of an ALLOCSCALE cell, and of LARGEREGION's
/// churn.
fn alloc_ops(quick: bool) -> usize {
    if quick {
        4_000
    } else {
        100_000
    }
}

/// The region memory the runners write. [`Block::alloc`] is the only way
/// to get a block, [`Block::write`] stays inside it, and [`Block::free`]
/// consumes it, so every block goes back once, with its size, to the
/// region it came from.
mod block {
    use nvmsim::Region;
    use std::ptr::NonNull;

    /// A live block of a region. Plain data, so it can be handed to
    /// another thread to free.
    pub(super) struct Block<'r> {
        region: &'r Region,
        addr: usize,
        size: usize,
    }

    impl<'r> Block<'r> {
        /// Allocates `size` (>= 8) bytes of `region` and stores `stamp` in
        /// the first word, so every measured allocation is memory in use.
        pub(super) fn alloc(region: &'r Region, size: usize, stamp: u64) -> Block<'r> {
            let p = region
                .alloc(size, 8)
                .expect("bench region sized for its workload");
            let mut block = Block {
                region,
                addr: p.as_ptr() as usize,
                size,
            };
            block.write(0, stamp);
            block
        }

        /// The block's address.
        pub(super) fn addr(&self) -> usize {
            self.addr
        }

        /// Stores `value` in the block's `word`-th 8-byte word.
        pub(super) fn write(&mut self, word: usize, value: u64) {
            assert!(word * 8 + 8 <= self.size, "word {word} outside the block");
            // SAFETY: in bounds (asserted) of a live block this value owns;
            // blocks are 16-byte aligned, so every word is 8-byte aligned.
            unsafe { ((self.addr + word * 8) as *mut u64).write(value) };
        }

        /// Returns the block to its region.
        pub(super) fn free(self) {
            let p = NonNull::new(self.addr as *mut u8).expect("allocations are non-null");
            // SAFETY: only `alloc` makes a block and `free` consumes it, so
            // `p` came from this region with this size and is freed once;
            // nothing keeps a reference into it.
            unsafe { self.region.dealloc(p, self.size) }.expect("the block is this value's");
        }
    }
}

/// Same-thread churn: bursts of mixed-size allocations, each burst freed
/// newest first. Returns the blocks allocated (each is two ops).
fn churn(region: &Region, ops: usize, seed: usize) -> usize {
    let mut burst = Vec::with_capacity(BURST);
    let mut i = seed;
    let mut done = 0;
    while done < ops {
        let n = BURST.min(ops - done);
        for _ in 0..n {
            let size = ALLOC_SIZES[i % ALLOC_SIZES.len()];
            i = i.wrapping_add(1);
            burst.push(Block::alloc(region, size, i as u64));
        }
        for block in burst.drain(..).rev() {
            block.free();
        }
        done += n;
    }
    done
}

/// One ALLOCSCALE cell on a fresh shared region: aggregate ops/s (an op
/// is an alloc or a free) and the cell's `llalloc_cas_retries`. Workers
/// time themselves and the interval runs from the first start to the
/// last finish: timing from the spawning thread undercounts on few-core
/// hosts, where workers can finish before it is rescheduled.
fn alloc_cell(workload: &str, threads: usize, ops: usize) -> (f64, u64) {
    use std::sync::{mpsc, Barrier};

    let region = Region::create(64 << 20).expect("create bench region");
    // Pre-warm so the cell measures steady-state reuse, not first-touch
    // carving.
    churn(&region, 2 * BURST * ALLOC_SIZES.len(), 0);
    let before = metrics::snapshot();
    let barrier = Barrier::new(threads);
    let runs: Vec<(Instant, Instant, usize)> = std::thread::scope(|s| {
        let (region, barrier) = (&region, &barrier);
        let mut workers = Vec::new();
        if workload == "churn" {
            for t in 0..threads {
                workers.push(s.spawn(move || {
                    barrier.wait();
                    let start = Instant::now();
                    let done = churn(region, ops, t * 7919);
                    (start, Instant::now(), 2 * done)
                }));
            }
        } else {
            // Producer/consumer pairs: every block is freed by another
            // thread than the one that allocated it. The channel is
            // bounded, so producers cannot outrun consumers by more than a
            // few bursts.
            for pair in 0..threads / 2 {
                let (tx, rx) = mpsc::sync_channel(4 * BURST);
                workers.push(s.spawn(move || {
                    barrier.wait();
                    let start = Instant::now();
                    let mut i = pair * 7919;
                    for _ in 0..ops {
                        let size = ALLOC_SIZES[i % ALLOC_SIZES.len()];
                        i = i.wrapping_add(1);
                        tx.send(Block::alloc(region, size, i as u64)).unwrap();
                    }
                    drop(tx);
                    (start, Instant::now(), ops)
                }));
                workers.push(s.spawn(move || {
                    barrier.wait();
                    let start = Instant::now();
                    let mut freed = 0;
                    while let Ok(block) = rx.recv() {
                        block.free();
                        freed += 1;
                    }
                    (start, Instant::now(), freed)
                }));
            }
        }
        workers.into_iter().map(|w| w.join().unwrap()).collect()
    });
    let cas_retries = metrics::snapshot()
        .delta(&before)
        .get(Counter::LlallocCasRetries);
    let first = runs.iter().map(|r| r.0).min().unwrap();
    let last = runs.iter().map(|r| r.1).max().unwrap();
    let total: usize = runs.iter().map(|r| r.2).sum();
    region.close().expect("close bench region");
    (total as f64 / (last - first).as_secs_f64(), cas_retries)
}

/// ALLOCSCALE — throughput of the region allocator (`llalloc`, the
/// lock-free bitmap core) on one shared region (EXPERIMENTS.md
/// `ALLOC-SCALING`). Workloads, the row's `structure`: `churn` (each
/// thread alloc/frees bursts of mixed size classes) at 1–16 threads and
/// `prodcons` (producer/consumer pairs) at 2–16. `quick` runs 4 000
/// allocations per thread instead of 100 000.
pub fn alloc_scale(quick: bool) -> Vec<Row> {
    let ops = alloc_ops(quick);
    let mut rows = Vec::new();
    for (workload, min_threads) in [("churn", 1), ("prodcons", 2)] {
        for threads in [1, 2, 4, 8, 16].into_iter().filter(|&t| t >= min_threads) {
            let (ops_per_sec, cas_retries) = alloc_cell(workload, threads, ops);
            rows.push(Row::new(
                "ALLOCSCALE",
                workload,
                "alloc_free",
                "llalloc",
                1e9 / ops_per_sec,
                format!(
                    "threads={threads} ops_per_sec={ops_per_sec:.0} \
                     per_thread_ops_per_sec={:.0} llalloc_cas_retries={cas_retries}",
                    ops_per_sec / threads as f64
                ),
            ));
        }
    }
    rows
}

/// LARGEREGION — single regions far past the old one-segment-per-region
/// ceiling (EXPERIMENTS.md). Each cell creates an 8 MiB region with its
/// full size reserved, grows it in 8 steps, runs the churn in the grown
/// region and probes `Addr2ID` at one stride-scattered address per chunk.
/// The claims: growth is commit-only, allocation throughput does not
/// degrade with region size, and `Addr2ID` stays one dependent load however
/// many chunks back the region. `quick` runs 16 and 64 MiB cells instead
/// of 64 MiB, 256 MiB and 1 GiB.
pub fn large_region(quick: bool) -> Vec<Row> {
    const GROW_STEPS: usize = 8;
    let sizes: &[usize] = if quick {
        &[16 << 20, 64 << 20]
    } else {
        &[64 << 20, 256 << 20, 1 << 30]
    };
    let space = NvSpace::global();
    let chunk = space.layout().chunk_size();
    let mut rows = Vec::new();
    for &size in sizes {
        let before = metrics::snapshot();
        let region = Region::create_with_capacity(8 << 20, size).expect("create large region");
        let t = Instant::now();
        for step in 1..=GROW_STEPS {
            let target = (8 << 20).max(size / GROW_STEPS * step);
            region.grow(target).expect("grow within reserved capacity");
        }
        let grow_ms = t.elapsed().as_secs_f64() * 1e3;

        let t = Instant::now();
        let done = churn(&region, alloc_ops(quick), 1);
        let alloc_ops_per_sec = (done * 2) as f64 / t.elapsed().as_secs_f64();

        let base = region.base();
        let chunks = size / chunk;
        let probes: Vec<usize> = (0..chunks)
            .map(|i| base + i * chunk + (i * 4099) % (chunk - 8))
            .collect();
        let rounds = (1_000_000 / chunks.max(1)).max(1);
        let t = Instant::now();
        let mut sink = 0u64;
        for _ in 0..rounds {
            for &addr in &probes {
                let (rid, off) = space.rid_off_of_addr(addr);
                sink = sink.wrapping_add(rid as u64 ^ off);
            }
        }
        let translate_ns = t.elapsed().as_secs_f64() * 1e9 / (rounds * chunks) as f64;
        std::hint::black_box(sink);

        let grows = metrics::snapshot().delta(&before).get(Counter::RegionGrows);
        region.close().expect("close large region");
        rows.push(Row::new(
            "LARGEREGION",
            "grow_churn_translate",
            "alloc_free",
            "llalloc",
            1e9 / alloc_ops_per_sec,
            format!(
                "size_mib={} chunks={chunks} grow_ms={grow_ms:.2} region_grows={grows} \
                 alloc_ops_per_sec={alloc_ops_per_sec:.0} addr2id_ns={translate_ns:.2}",
                size >> 20
            ),
        ));
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Config {
        Config {
            n: 300,
            reps: 2,
            seed: 9,
            searches: 100,
        }
    }

    #[test]
    fn server_tail_reports_both_classes() {
        let rows = server_tail(&tiny());
        // 2 classes × (p50, p99).
        assert_eq!(rows.len(), 4);
        assert!(rows.iter().all(|r| r.experiment == "SERVERTAIL"));
        assert!(rows.iter().all(|r| r.nanos > 0.0));
        for class in ["hot", "cold"] {
            let p50 = rows
                .iter()
                .find(|r| r.repr == class && r.op == "p50")
                .unwrap();
            let p99 = rows
                .iter()
                .find(|r| r.repr == class && r.op == "p99")
                .unwrap();
            assert!(p99.nanos >= p50.nanos, "{class}: p99 below p50");
            assert!(p50.note.contains("rw=70/30"));
        }
        // The cold class carries hot-relative tail amplification.
        assert!(rows
            .iter()
            .filter(|r| r.repr == "cold")
            .all(|r| r.slowdown.is_some()));
    }

    #[test]
    fn conc_covers_reprs_and_thread_counts() {
        let rows = conc(&tiny());
        // 3 thread counts × (normal, off-holder, riv).
        assert_eq!(rows.len(), 3 * 3);
        assert!(rows.iter().all(|r| r.nanos > 0.0 && r.slowdown.is_some()));
        for r in rows.iter().filter(|r| r.repr == "normal") {
            assert!((r.slowdown.unwrap() - 1.0).abs() < 1e-9);
        }
        // The instrumented protocol counters actually count: a mixed
        // stream must persist nodes before linking them.
        assert!(
            rows.iter()
                .any(|r| r.note.contains("link_persists=") && !r.note.contains("link_persists=0,")),
            "lock-free inserts must record pre-link node persists"
        );
    }

    #[test]
    fn suggest_compares_art_and_trie_with_bytes_per_key() {
        let (rows, bpk) = suggest(&tiny());
        // 3 reprs × 2 structures × (insert, scan p50, scan p99).
        assert_eq!(rows.len(), 18);
        assert!(rows
            .iter()
            .all(|r| r.experiment == "SUGGEST" && r.nanos > 0.0 && r.slowdown.is_some()));
        assert_eq!(bpk.len(), 6);
        for (name, v) in &bpk {
            assert!(v.is_finite() && *v > 0.0, "{name}: {v}");
        }
        for repr in ["off-holder", "riv", "fat+cache"] {
            let get = |s: &str| {
                bpk.iter()
                    .find(|(n, _)| *n == format!("{s}/{repr}"))
                    .unwrap()
                    .1
            };
            assert!(
                get("art") < get("trie"),
                "ART must be denser than the trie for {repr}"
            );
            let at = |op: &str| {
                rows.iter()
                    .find(|r| r.structure == "art" && r.repr == repr && r.op == op)
                    .unwrap()
            };
            assert!(at("scan p99").nanos >= at("scan p50").nanos);
        }
    }

    #[test]
    fn fig12_covers_all_structures_and_reprs() {
        let rows = fig12(&tiny());
        assert_eq!(rows.len(), 4 * 6);
        assert!(rows.iter().all(|r| r.nanos > 0.0));
        // Baseline rows have slowdown 1.0.
        for r in rows.iter().filter(|r| r.repr == "normal") {
            assert!((r.slowdown.unwrap() - 1.0).abs() < 1e-9);
        }
        // Every non-baseline row got normalized.
        assert!(rows.iter().all(|r| r.slowdown.is_some()));
    }

    #[test]
    fn tab1_overhead_decreases_with_k() {
        let rows = tab1(&tiny());
        assert_eq!(rows.len(), 4 * 3);
        assert!(rows.iter().all(|r| r.slowdown.is_some_and(|s| s > 0.0)));
        // One swizzle + unswizzle pass is amortised over k traversals, so
        // the slowdown at k = 1 exceeds the one at k = 100. This is a
        // wall-clock comparison and the test runs beside the rest of the
        // workspace: take medians of 9 interleaved samples (a descheduled
        // sample or two cannot move them) and retry the comparison.
        let cfg = Config { reps: 9, ..tiny() };
        for s in STRUCTURES {
            let slowdown = |k| {
                let (protocol, base_k) = tab1_point(s, &cfg, k);
                protocol / base_k
            };
            let mut seen = Vec::new();
            let ok = (0..5).any(|_| {
                seen.push((slowdown(1), slowdown(100)));
                seen.last().is_some_and(|&(k1, k100)| k1 > k100)
            });
            assert!(
                ok,
                "{s}: swizzle overhead at k=1 must exceed k=100; (k1, k100) seen: {seen:.2?}"
            );
        }
    }

    #[test]
    fn fig14_omits_intra_region_reprs() {
        let rows = fig14(&tiny(), 2);
        assert!(rows
            .iter()
            .all(|r| r.repr != "off-holder" && r.repr != "based"));
        assert!(rows.iter().any(|r| r.repr == "riv"));
    }

    #[test]
    fn riv_breakdown_sums_to_about_100_percent() {
        let rows = riv_breakdown(&tiny());
        assert_eq!(rows.len(), 3);
        let pct: f64 = rows
            .iter()
            .map(|r| r.note.split('%').next().unwrap().parse::<f64>().unwrap())
            .sum();
        assert!((pct - 100.0).abs() < 2.0, "steps sum to {pct}%");
    }

    #[test]
    fn ablation_cache_hit_rate_drops_with_regions() {
        let rows = ablations(&tiny());
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
}
