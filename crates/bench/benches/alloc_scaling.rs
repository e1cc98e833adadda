//! ALLOC-SCALING — multi-thread allocator throughput across the two
//! allocator representations, on two workloads.
//!
//! Representations (selected per cell on a fresh shared region):
//!
//! * `locked`  — `set_lockfree(false)`: every operation takes the region
//!   lock (the free-list core; what `NodeArena::scatter`'s regions run).
//! * `llalloc` — the default lock-free two-level bitmap allocator.
//!
//! Workloads, at 1/2/4/8/16 threads:
//!
//! * `churn`    — each thread alloc/frees bursts of mixed size classes
//!   (same-thread free).
//! * `prodcons` — thread pairs: producers allocate and hand blocks over
//!   a channel, consumers free them. Cross-thread dealloc hammers remote
//!   subtrees, the llalloc stress case.
//!
//! A third section, `LARGEREGION`, benchmarks single multi-chunk
//! regions at sizes the old one-segment-per-region geometry could not
//! reach (up to 1 GiB; `--quick` stays at 64 MiB): stepwise `grow` cost,
//! steady-state churn throughput in the grown region, and `Addr2ID`
//! latency probed across every chunk of the run.
//!
//! Reports aggregate and per-thread ops/s, the `llalloc_cas_retries`
//! delta per cell, and (with `--json FILE`) a schema-versioned report.
//! `--gate` exits nonzero when the 8-thread llalloc churn throughput is
//! below 4x single-thread (auto-relaxed on hosts with fewer than 8
//! CPUs). `--quick` runs a CI-sized smoke pass.

use bench::report::{render_json, ReportConfig, Row, Section};
use nvmsim::metrics::{self, Counter};
use nvmsim::{NvSpace, Region};
use std::sync::{mpsc, Arc, Barrier};
use std::time::Instant;

/// Size classes exercised by the churn (one small, two mid, one large).
const SIZES: [usize; 4] = [16, 64, 256, 1024];

/// Blocks allocated per burst before the burst is freed (or handed off).
const BURST: usize = 64;

/// One allocator representation under test.
#[derive(Clone, Copy)]
struct Repr {
    name: &'static str,
    lockfree: bool,
}

const REPRS: [Repr; 2] = [
    Repr {
        name: "locked",
        lockfree: false,
    },
    Repr {
        name: "llalloc",
        lockfree: true,
    },
];

/// One measured cell: aggregate ops/s plus its `llalloc_cas_retries`.
struct Cell {
    ops_per_sec: f64,
    cas_retries: u64,
}

fn make_region(repr: Repr) -> Region {
    let region = Region::create(64 << 20).expect("create bench region");
    region.set_lockfree(repr.lockfree);
    region
}

fn churn(region: &Region, ops: usize, seed: usize) -> usize {
    let mut done = 0;
    let mut burst = Vec::with_capacity(BURST);
    let mut i = seed;
    while done < ops {
        for _ in 0..BURST.min(ops - done) {
            let size = SIZES[i % SIZES.len()];
            i = i.wrapping_add(1);
            let p = region.alloc(size, 8).expect("bench region sized for churn");
            // Touch the block so the allocation is not dead.
            unsafe { p.as_ptr().write(i as u8) };
            burst.push((p, size));
        }
        for (p, size) in burst.drain(..).rev() {
            unsafe { region.dealloc(p, size) };
        }
        done += BURST.min(ops - done);
    }
    done
}

/// Wall-clock interval over per-thread (start, end) stamps: first start
/// to last finish. (Timing from the main thread undercounts badly on
/// few-core hosts, where workers can finish before main is rescheduled.)
fn interval(results: &[(Instant, Instant)]) -> f64 {
    let first = results.iter().map(|&(s, _)| s).min().unwrap();
    let last = results.iter().map(|&(_, e)| e).max().unwrap();
    (last - first).as_secs_f64()
}

/// Same-thread alloc/free churn at `threads` threads; one op is an alloc
/// or a free.
fn run_churn(threads: usize, ops_per_thread: usize, repr: Repr) -> Cell {
    let region = make_region(repr);
    // Pre-warm so every mode measures steady-state reuse, not
    // first-touch bump carving.
    churn(&region, 2 * BURST * SIZES.len(), 0);
    let before = metrics::snapshot();
    let barrier = Arc::new(Barrier::new(threads));
    let handles: Vec<_> = (0..threads)
        .map(|t| {
            let r = region.clone();
            let b = Arc::clone(&barrier);
            std::thread::spawn(move || {
                b.wait();
                let start = Instant::now();
                let done = churn(&r, ops_per_thread, t * 7919);
                (start, Instant::now(), done)
            })
        })
        .collect();
    let results: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    let stamps: Vec<_> = results.iter().map(|&(s, e, _)| (s, e)).collect();
    let total: usize = results.iter().map(|&(_, _, n)| n).sum();
    let cas_retries = metrics::snapshot()
        .delta(&before)
        .get(Counter::LlallocCasRetries);
    region.close().expect("close bench region");
    Cell {
        ops_per_sec: (total * 2) as f64 / interval(&stamps),
        cas_retries,
    }
}

/// Producer/consumer pairs: producers allocate bursts and hand the
/// blocks over a bounded channel; consumers free them. Every block is
/// freed by a different thread than the one that allocated it.
fn run_prodcons(threads: usize, ops_per_thread: usize, repr: Repr) -> Cell {
    assert!(threads >= 2 && threads.is_multiple_of(2));
    let pairs = threads / 2;
    let region = make_region(repr);
    churn(&region, 2 * BURST * SIZES.len(), 0);
    let before = metrics::snapshot();
    let barrier = Arc::new(Barrier::new(threads));
    let mut handles = Vec::new();
    for pair in 0..pairs {
        // Blocks cross threads as raw (address, size); the consumer
        // rebuilds the pointer. Bounded, so producers cannot outrun
        // consumers by more than a few bursts.
        let (tx, rx) = mpsc::sync_channel::<(usize, usize)>(4 * BURST);
        let (rp, bp) = (region.clone(), Arc::clone(&barrier));
        handles.push(std::thread::spawn(move || {
            bp.wait();
            let start = Instant::now();
            let mut i = pair * 7919;
            for _ in 0..ops_per_thread {
                let size = SIZES[i % SIZES.len()];
                i = i.wrapping_add(1);
                let p = rp.alloc(size, 8).expect("bench region sized for churn");
                unsafe { p.as_ptr().write(i as u8) };
                tx.send((p.as_ptr() as usize, size)).unwrap();
            }
            drop(tx);
            (start, Instant::now(), ops_per_thread)
        }));
        let (rc, bc) = (region.clone(), Arc::clone(&barrier));
        handles.push(std::thread::spawn(move || {
            bc.wait();
            let start = Instant::now();
            let mut freed = 0usize;
            while let Ok((addr, size)) = rx.recv() {
                let p = std::ptr::NonNull::new(addr as *mut u8).unwrap();
                unsafe { rc.dealloc(p, size) };
                freed += 1;
            }
            (start, Instant::now(), freed)
        }));
    }
    let results: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    let stamps: Vec<_> = results.iter().map(|&(s, e, _)| (s, e)).collect();
    let total: usize = results.iter().map(|&(_, _, n)| n).sum();
    let cas_retries = metrics::snapshot()
        .delta(&before)
        .get(Counter::LlallocCasRetries);
    region.close().expect("close bench region");
    Cell {
        ops_per_sec: total as f64 / interval(&stamps),
        cas_retries,
    }
}

/// One LARGEREGION cell: grow a region from 8 MiB to `size` in steps,
/// then measure steady-state alloc churn and Addr2ID translation over
/// the full chunk run.
struct LargeCell {
    grow_ms: f64,
    grows: u64,
    alloc_ops_per_sec: f64,
    translate_ns: f64,
    chunks: usize,
}

/// LARGEREGION — single regions at sizes the old one-segment-per-region
/// geometry could not represent. The claims under test: growth is
/// commit-only (no remap, cost linear in the new bytes), allocation
/// throughput does not degrade with region size, and `Addr2ID` stays a
/// single dependent load no matter how many chunks back the region.
fn run_large_region(size: usize, churn_ops: usize) -> LargeCell {
    let space = NvSpace::global();
    let chunk = space.layout().chunk_size();
    let before = metrics::snapshot();
    let region = Region::create_with_capacity(8 << 20, size).expect("create large bench region");

    // Grow to full size in steps, like a datastore ingesting.
    const GROW_STEPS: usize = 8;
    let t0 = Instant::now();
    for step in 1..=GROW_STEPS {
        let target = (8 << 20).max(size / GROW_STEPS * step);
        region.grow(target).expect("grow within reserved capacity");
    }
    let grow_ms = t0.elapsed().as_secs_f64() * 1e3;

    let t0 = Instant::now();
    let done = churn(&region, churn_ops, 1);
    let alloc_ops_per_sec = (done * 2) as f64 / t0.elapsed().as_secs_f64();

    // Addr2ID across every chunk of the run: one probe address per
    // chunk, striding the offset so probes do not share cache sets.
    let base = region.base();
    let chunks = size / chunk;
    let probes: Vec<usize> = (0..chunks)
        .map(|i| base + i * chunk + (i * 4099) % (chunk - 8))
        .collect();
    let rounds = (1_000_000 / chunks.max(1)).max(1);
    let t0 = Instant::now();
    let mut sink = 0u64;
    for _ in 0..rounds {
        for &addr in &probes {
            let (rid, off) = space.rid_off_of_addr(addr);
            sink = sink.wrapping_add(rid as u64 ^ off);
        }
    }
    let translate_ns = t0.elapsed().as_secs_f64() * 1e9 / (rounds * chunks) as f64;
    std::hint::black_box(sink);

    let grows = metrics::snapshot().delta(&before).get(Counter::RegionGrows);
    region.close().expect("close large bench region");
    LargeCell {
        grow_ms,
        grows,
        alloc_ops_per_sec,
        translate_ns,
        chunks,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick" || a == "--test");
    let gate = args.iter().any(|a| a == "--gate");
    let json_path = args
        .iter()
        .position(|a| a == "--json")
        .and_then(|i| args.get(i + 1))
        .cloned();
    let ops_per_thread = if quick { 4_000 } else { 100_000 };
    let thread_counts = [1usize, 2, 4, 8, 16];
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());

    println!("ALLOC-SCALING — shared-region alloc/free throughput");
    println!(
        "  {} ops/thread, burst {}, classes {:?}, {} host cpus",
        ops_per_thread, BURST, SIZES, cpus
    );

    let mut sections = Vec::new();
    let mut llalloc_churn: Vec<(usize, f64)> = Vec::new();
    for (workload, min_threads) in [("churn", 1usize), ("prodcons", 2usize)] {
        println!("\n  [{workload}]");
        println!(
            "  {:>7} | {:>14} | {:>14} | {:>9} | {:>11}",
            "threads", "locked ops/s", "llalloc ops/s", "ll/locked", "cas_retries"
        );
        let before = metrics::snapshot();
        let mut rows = Vec::new();
        for &threads in thread_counts.iter().filter(|&&t| t >= min_threads) {
            let mut line: Vec<(f64, u64)> = Vec::new();
            for repr in REPRS {
                let cell = match workload {
                    "churn" => run_churn(threads, ops_per_thread, repr),
                    _ => run_prodcons(threads, ops_per_thread, repr),
                };
                if workload == "churn" && repr.name == "llalloc" {
                    llalloc_churn.push((threads, cell.ops_per_sec));
                }
                rows.push(Row::new(
                    "ALLOCSCALE",
                    workload,
                    "alloc_free",
                    repr.name,
                    1e9 / cell.ops_per_sec,
                    format!(
                        "threads={} ops_per_sec={:.0} per_thread_ops_per_sec={:.0} \
                         llalloc_cas_retries={}",
                        threads,
                        cell.ops_per_sec,
                        cell.ops_per_sec / threads as f64,
                        cell.cas_retries
                    ),
                ));
                line.push((cell.ops_per_sec, cell.cas_retries));
            }
            println!(
                "  {:>7} | {:>14.0} | {:>14.0} | {:>8.2}x | {:>11}",
                threads,
                line[0].0,
                line[1].0,
                line[1].0 / line[0].0,
                line[1].1
            );
        }
        sections.push(Section {
            id: format!("ALLOCSCALE_{}", workload.to_uppercase()),
            title: format!("alloc scaling — {workload}"),
            rows,
            bytes_per_key: Vec::new(),
            metrics: metrics::snapshot().delta(&before),
        });
    }

    // LARGEREGION: single multi-chunk regions at sizes the old
    // one-segment-per-region geometry could not reach.
    let large_sizes: &[usize] = if quick {
        &[16 << 20, 64 << 20]
    } else {
        &[64 << 20, 256 << 20, 1 << 30]
    };
    println!("\n  [largeregion]");
    println!(
        "  {:>9} | {:>6} | {:>9} | {:>14} | {:>12}",
        "size", "chunks", "grow ms", "alloc ops/s", "addr2id ns"
    );
    let before = metrics::snapshot();
    let mut rows = Vec::new();
    for &size in large_sizes {
        let cell = run_large_region(size, ops_per_thread);
        println!(
            "  {:>6} MiB | {:>6} | {:>9.2} | {:>14.0} | {:>12.2}",
            size >> 20,
            cell.chunks,
            cell.grow_ms,
            cell.alloc_ops_per_sec,
            cell.translate_ns
        );
        rows.push(Row::new(
            "LARGEREGION",
            "grow_churn_translate",
            "alloc_free",
            "llalloc",
            1e9 / cell.alloc_ops_per_sec,
            format!(
                "size_mib={} chunks={} grow_ms={:.2} region_grows={} \
                 alloc_ops_per_sec={:.0} addr2id_ns={:.2}",
                size >> 20,
                cell.chunks,
                cell.grow_ms,
                cell.grows,
                cell.alloc_ops_per_sec,
                cell.translate_ns
            ),
        ));
    }
    sections.push(Section {
        id: "LARGEREGION".to_string(),
        title: "large-region growth, alloc, and translation".to_string(),
        rows,
        bytes_per_key: Vec::new(),
        metrics: metrics::snapshot().delta(&before),
    });

    // Scaling gate: 8-thread llalloc churn must beat 4x single-thread.
    let t1 = llalloc_churn
        .iter()
        .find(|&&(t, _)| t == 1)
        .map(|&(_, v)| v);
    let t8 = llalloc_churn
        .iter()
        .find(|&&(t, _)| t == 8)
        .map(|&(_, v)| v);
    let mut gate_failed = false;
    if let (Some(t1), Some(t8)) = (t1, t8) {
        let scaling = t8 / t1;
        println!("\n  llalloc churn scaling 8T/1T: {scaling:.2}x (target >= 4x)");
        if scaling < 4.0 {
            if cpus < 8 {
                println!(
                    "  note: host has only {cpus} cpus; the 4x gate does not \
                     apply (needs 8 hardware threads)"
                );
            } else {
                gate_failed = true;
            }
        }
    }

    if let Some(path) = json_path {
        let rc = ReportConfig {
            n: ops_per_thread,
            reps: 1,
            seed: 0,
            searches: 0,
            latency: nvmsim::latency::model(),
            num_cpus: cpus,
            // The 4x scaling gate only applies on hosts with >= 8
            // hardware threads; record when it was waived.
            gates_relaxed: cpus < 8,
        };
        let text = render_json(&sections, &rc);
        if let Err(e) = std::fs::write(&path, &text) {
            eprintln!("error: cannot write {path}: {e}");
            std::process::exit(1);
        }
        println!("  json report written to {path}");
    }
    if gate && gate_failed {
        eprintln!("GATE FAILED: 8-thread llalloc churn below 4x single-thread");
        std::process::exit(1);
    }
}
