//! `reopen`: remapped reopen of file-backed images — what position
//! independence buys. A swizzling design pays O(n) here; a
//! position-independent one pays the allocator's recovery scan and the
//! undo log's rollback.
//!
//! One image per position-independent representation, each a hash set
//! and an ART of the same size. A cycle is
//! `Region::open_file_avoiding(prev_base)` → `ObjectStore::attach` →
//! structure `attach` → 64 first-touch lookups → one committed insert →
//! either a clean `close()`, or `enable_shadow`, an uncommitted
//! transaction over eight logged ranges, and a drop-unflushed crash
//! image. The two endings alternate, so every other open recovers. The
//! timed part runs from the open call until the first lookup returns.
//!
//! A reopen is system calls, page faults and the file system's journal:
//! its latency follows the host (2–10 % between runs of one binary,
//! 10–20 % between quarters of an hour), so it is reported as the request
//! latency (`req_p50_us`, `req_p99_us`, the metrics with the wide bound).
//! The cost metrics are what remapping must *not* change: after every
//! reopen the same batch of lookups runs on the image at its new base,
//! and a representation reports the batch's quietest execution. The
//! `normal` cell runs that batch on a normal-pointer image held open (a
//! normal-pointer image cannot be reopened elsewhere at all).

use super::{best, repr_metric, timed_setups, Ctx, Outcome, SETUPS};
use crate::gen::{self, Keys, Rng};
use crate::stats;
use crate::sut::{self, OpenImage, OpenTimes, Repr, Res, Served, CRASH_RANGES};
use crate::trace::{Layer, Tracer, Waterfall};
use std::path::PathBuf;
use std::time::Instant;

const LOOKUPS: usize = 64;
/// Lookups of the batch run on every reopened image: `BATCH_KEYS` keys,
/// few enough to stay in L2 between the passes, looked up eight times.
const BATCH: usize = 2048;
const BATCH_KEYS: usize = BATCH / 8;
/// Rounds (two cycles on each of the three images) the seed commit gets
/// through in a second.
const ROUNDS_PER_SECOND: f64 = 7.0;
const IMAGE_BYTES: usize = 16 << 20;

struct Inputs {
    ints: Keys,
    words: Keys,
    /// Keys in the image when it is created; cycle `c` inserts key
    /// `n + c`, and the last keys of the universe are never inserted.
    n: usize,
    /// Per cycle: `LOOKUPS` indices, even ones looked up in the set, odd
    /// ones in the ART.
    lookups: Vec<[u32; LOOKUPS]>,
    /// The batch every reopened image serves: indices into the keys the
    /// image was created with (three of four) and into the keys never
    /// inserted, even positions for the set, odd ones for the ART.
    batch: Vec<u32>,
    batch_hits: u64,
}

/// The batch on one open image: how many lookups hit, and the time.
fn run_batch(open: &OpenImage, inp: &Inputs) -> (u64, f64) {
    let t = Instant::now();
    let mut hits = 0u64;
    for (j, &i) in inp.batch.iter().enumerate() {
        hits += if j % 2 == 0 {
            open.set_contains(inp.ints.ints()[i as usize])
        } else {
            open.art_contains(&inp.words.words()[i as usize])
        } as u64;
    }
    (hits, t.elapsed().as_nanos() as f64)
}

#[derive(Default)]
struct Ending {
    /// ns from the open call to the first lookup's return, per cycle.
    reopen: Vec<f64>,
    region_open: Vec<f64>,
    store_attach: Vec<f64>,
    structs_attach: Vec<f64>,
    recovery_lines: Vec<f64>,
}

struct Image {
    repr: Repr,
    path: PathBuf,
    base: usize,
    /// Cycles completed: keys `n .. n + cycles` are committed.
    cycles: usize,
    /// Whether the last cycle ended in a crash image.
    crashed: bool,
    /// Samples by how the previous cycle ended: [clean, crash].
    by_ending: [Ending; 2],
    /// ns of the batch's second (warm) pass, per cycle.
    batch: Vec<f64>,
    close: Vec<f64>,
    verify: Vec<f64>,
    rollback_entries: Vec<f64>,
}

/// Picks one of an image's sample vectors.
type Samples<'a> = &'a dyn Fn(&Image) -> &Vec<f64>;

/// One cycle on one image; returns the oracle checks made and failed.
fn cycle(
    img: &mut Image,
    inp: &Inputs,
    crash_after: bool,
    tracer: &mut Tracer,
    out: &mut Outcome,
) -> Res<()> {
    let name = img.repr.name();
    let c = img.cycles;
    let idx = &inp.lookups[c % inp.lookups.len()];
    // A lookup index beyond the keys committed so far must miss.
    let present = |i: u32| (i as usize) < inp.n + c;
    let first = inp.ints.ints()[idx[0] as usize];

    let before = sut::Counters::read();
    tracer.enter("reopen", c as u64);
    let t0 = Instant::now();
    let (mut open, times): (OpenImage, OpenTimes) = OpenImage::open(&img.path, img.repr, img.base)?;
    let got = open.set_contains(first);
    let reopen = t0.elapsed();
    tracer.exit();
    let recovery_lines = sut::events_since(&before).recovery_lines;

    let mut wrong = (got != present(idx[0])) as u64;
    for (j, &i) in idx.iter().enumerate().skip(1) {
        let hit = if j % 2 == 0 {
            open.set_contains(inp.ints.ints()[i as usize])
        } else {
            open.art_contains(&inp.words.words()[i as usize])
        };
        wrong += (hit != present(i)) as u64;
    }
    out.tally.bulk(LOOKUPS as u64, wrong, || {
        format!("{name}: cycle {c}: a first-touch lookup disagreed with the oracle")
    });
    out.tally.check(open.base() != img.base, || {
        format!(
            "{name}: cycle {c}: reopened at the same base {:#x}",
            img.base
        )
    });
    // A crash image must read dirty. A cleanly closed one may too: when
    // `open_file_avoiding` first lands on the base to avoid, it tears that
    // mapping down as a crash and retries, which leaves the flag set.
    out.tally.check(open.was_dirty() || !img.crashed, || {
        format!("{name}: cycle {c}: a crash image opened clean")
    });
    out.tally.check(open.markers_intact(), || {
        format!("{name}: cycle {c}: the uncommitted transaction was not rolled back")
    });
    if img.crashed {
        let rolled = open.rollback_entries();
        out.tally.check(rolled >= CRASH_RANGES as u64, || {
            format!(
                "{name}: cycle {c}: {rolled} undo entries rolled back, {CRASH_RANGES} were logged"
            )
        });
        img.rollback_entries.push(rolled as f64);
    }

    let e = &mut img.by_ending[img.crashed as usize];
    e.reopen.push(reopen.as_nanos() as f64);
    e.region_open.push(times.region_open.as_nanos() as f64);
    e.store_attach.push(times.store_attach.as_nanos() as f64);
    e.structs_attach
        .push(times.structs_attach.as_nanos() as f64);
    e.recovery_lines.push(recovery_lines as f64);

    // The first pass touches the pages of the new mapping; the second is
    // what a lookup costs on the image at this base.
    let (cold_hits, _) = run_batch(&open, inp);
    let (hits, ns) = run_batch(&open, inp);
    img.batch.push(ns);
    out.tally.bulk(
        2 * inp.batch.len() as u64,
        cold_hits.abs_diff(inp.batch_hits) + hits.abs_diff(inp.batch_hits),
        || format!("{name}: cycle {c}: the lookup batch disagreed with the oracle"),
    );

    let fresh = open.insert(inp.ints.ints()[inp.n + c], &inp.words.words()[inp.n + c])?;
    out.tally.check(fresh, || {
        format!("{name}: cycle {c}: the cycle's key was already present")
    });
    if tracer.is_on() {
        img.verify.push(open.verify()?.as_nanos() as f64);
    }
    img.base = open.base();
    img.cycles += 1;
    img.crashed = crash_after;
    if crash_after {
        open.enable_shadow()?;
        open.crash()
    } else {
        img.close.push(open.close()?.as_nanos() as f64);
        Ok(())
    }
}

/// `Client::evict` → `get` through the server: the tenant reopens
/// remapped inside the get. Returns the get latencies in ns.
fn evict_reopen_cycles(ctx: &Ctx, out: &mut Outcome) -> Res<Vec<f64>> {
    let dir = ctx.scratch.join("evict");
    let tenants = [(0, Repr::OffHolder), (1, Repr::Riv)];
    let mut served = Served::start(&dir, &tenants, 8 << 20, 64)?;
    let req = |tenant: u16, kind, key| gen::Req {
        tenant,
        kind,
        key,
        found: true,
        lines: 0,
    };
    let keys = ctx.scaled(2000, 50, 1) as u64;
    for (id, _) in tenants {
        for key in 0..keys {
            served.request(&req(id as u16, gen::ReqKind::Put, key));
        }
    }
    let mut lat = Vec::new();
    let cycles = ctx.scaled(101, 5, 1);
    for c in 0..cycles {
        for (id, _) in tenants {
            let ok = served.evict(id).ok;
            let get = req(id as u16, gen::ReqKind::Get, c as u64 % keys);
            let t = Instant::now();
            let reply = served.request(&get);
            lat.push(t.elapsed().as_nanos() as f64);
            out.tally.check(ok && reply.ok && reply.found, || {
                format!("tenant {id}: get after evict {c} failed")
            });
        }
    }
    for (id, stored, bases) in served.shutdown() {
        out.tally.check(stored.len() as u64 == keys, || {
            format!(
                "tenant {id}: {} keys survived the evictions, {keys} were put",
                stored.len()
            )
        });
        out.tally.check(
            bases.len() == cycles + 1 && bases.windows(2).all(|w| w[0] != w[1]),
            || format!("tenant {id}: an eviction reopened at the same base"),
        );
    }
    std::fs::remove_dir_all(&dir).map_err(|e| e.to_string())?;
    Ok(lat)
}

pub fn run(ctx: &Ctx) -> Res<Outcome> {
    let n = ctx.scaled(24_000, 64, 16);
    let image_bytes = (IMAGE_BYTES / ctx.scale).max(8 << 20);
    let rounds = ctx.rounds(ROUNDS_PER_SECOND);
    // Two cycles per round, plus the warm-up round.
    let max_cycles = 2 * (rounds + 1);
    let absent = (n / 16).max(LOOKUPS);
    let mut rng = Rng::fork(ctx.seed, "reopen");
    let ints = gen::distinct_ints(n + max_cycles + absent, &mut rng);
    let words = gen::distinct_words(n + max_cycles + absent, &mut rng);
    let lookups = (0..max_cycles)
        .map(|c| {
            std::array::from_fn(|j| {
                if j % 4 == 3 {
                    (n + max_cycles + rng.below(absent)) as u32
                } else {
                    rng.below(n + c) as u32
                }
            })
        })
        .collect();
    let batch_keys: Vec<u32> = (0..BATCH_KEYS)
        .map(|j| {
            if j % 4 == 3 {
                (n + max_cycles + rng.below(absent)) as u32
            } else {
                rng.below(n) as u32
            }
        })
        .collect();
    let batch: Vec<u32> = batch_keys
        .iter()
        .copied()
        .cycle()
        .take(ctx.scaled(BATCH, BATCH_KEYS, BATCH_KEYS))
        .collect();
    let inp = Inputs {
        ints,
        words,
        n,
        lookups,
        batch_hits: batch.iter().filter(|&&i| (i as usize) < n).count() as u64,
        batch,
    };

    let mut out = Outcome::default();
    let mut live = 0;
    let mut nth = 0;
    type Built = (Vec<(Repr, PathBuf, usize)>, OpenImage, PathBuf);
    let (built, setup_s): (Built, f64) = timed_setups(
        SETUPS,
        || {
            nth += 1;
            let dir = ctx.scratch.join(format!("reopen-{nth}"));
            std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
            let (ints, words) = (&inp.ints.ints()[..n], &inp.words.words()[..n]);
            live = 0;
            let mut images = Vec::new();
            for repr in Repr::PI {
                let path = dir.join(format!("{}.nvr", repr.name()));
                let (open, bytes) = sut::image_create(&path, repr, image_bytes, ints, words)?;
                live += bytes;
                let base = open.base();
                open.close()?;
                images.push((repr, path, base));
            }
            let (floor, bytes) = sut::image_create(
                &dir.join("normal.nvr"),
                Repr::Normal,
                image_bytes,
                ints,
                words,
            )?;
            live += bytes;
            Ok((images, floor, dir))
        },
        |(_, floor, dir): Built| {
            floor.close()?;
            std::fs::remove_dir_all(&dir).map_err(|e| e.to_string())
        },
    )?;
    let (paths, floor, dir) = built;
    let bytes_per_key = live as f64 / (2 * n * (Repr::PI.len() + 1)) as f64;
    let mut images: Vec<Image> = paths
        .into_iter()
        .map(|(repr, path, base)| Image {
            repr,
            path,
            base,
            cycles: 0,
            crashed: false,
            by_ending: Default::default(),
            batch: Vec::new(),
            close: Vec::new(),
            verify: Vec::new(),
            rollback_entries: Vec::new(),
        })
        .collect();
    let mut floor_batch = Vec::new();

    // Traced runs alternate untraced and traced rounds, five of each.
    let mut tracer = Tracer::new(ctx.trace);
    let before = sut::Counters::read();
    for i in 0..=rounds {
        tracer.set_on(ctx.traced_round(i));
        for img in images.iter_mut() {
            // Clean image → crash ending; crash image → clean ending.
            cycle(img, &inp, true, &mut tracer, &mut out)?;
            cycle(img, &inp, false, &mut tracer, &mut out)?;
        }
        // The floor: the same batch on the image that is never remapped.
        for _ in 0..2 {
            let (hits, ns) = run_batch(&floor, &inp);
            floor_batch.push(ns);
            out.tally.bulk(
                inp.batch.len() as u64,
                hits.abs_diff(inp.batch_hits),
                || "normal floor: the lookup batch disagreed with the oracle".to_string(),
            );
        }
    }
    out.events = sut::events_since(&before);
    // An op is one cycle.
    out.ops = (2 * (rounds + 1) * images.len()) as u64;

    // Every image, reopened once more: every committed key present,
    // nothing else, invariants hold.
    for img in images.iter_mut() {
        let name = img.repr.name();
        let (open, _) = OpenImage::open(&img.path, img.repr, img.base)?;
        let want = (n + img.cycles) as u64;
        out.tally.check(open.lens() == (want, want), || {
            format!(
                "{name}: final sizes {:?}, the oracle holds {want}",
                open.lens()
            )
        });
        let lost = (0..n + img.cycles)
            .filter(|&k| {
                !open.set_contains(inp.ints.ints()[k]) || !open.art_contains(&inp.words.words()[k])
            })
            .count();
        out.tally.bulk(want, lost as u64, || {
            format!("{name}: {lost} committed keys lost")
        });
        let inv = open.check();
        out.tally
            .check(inv.is_ok(), || format!("{name}: {}", inv.unwrap_err()));
        open.close()?;
    }
    let inv = floor.check();
    out.tally.check(inv.is_ok(), || {
        format!("normal floor: {}", inv.unwrap_err())
    });
    floor.close()?;

    // Costs: the batch is the same unit of work every cycle, so a cell
    // reports its quietest execution (the warm-up round's two excluded).
    let per_lookup = |v: &[f64]| best(&v[2..]) / inp.batch.len() as f64;
    let mut batch_ns = per_lookup(&floor_batch);
    out.e2e.insert(repr_metric(Repr::Normal), batch_ns);
    for img in &images {
        out.e2e
            .insert(repr_metric(img.repr), per_lookup(&img.batch));
        batch_ns += per_lookup(&img.batch);
    }
    out.e2e
        .insert("req_per_s", (images.len() + 1) as f64 / batch_ns * 1e9);
    // Latencies: a request is one reopen. The first cycle of each ending
    // is the warm-up round's. A run holds some eighty reopens per cell, so
    // the tail is the 90th percentile: the highest with samples beyond it.
    let med = |v: &[f64]| stats::median(&v[1.min(v.len() - 1)..]);
    let cells: Vec<&Vec<f64>> = images
        .iter()
        .flat_map(|i| i.by_ending.iter().map(|e| &e.reopen))
        .collect();
    let p50: Vec<f64> = cells.iter().map(|v| med(v) / 1e3).collect();
    let p90: Vec<f64> = cells
        .iter()
        .map(|v| stats::percentile(&v[1.min(v.len() - 1)..], 0.90) / 1e3)
        .collect();
    out.e2e.insert("req_p50_us", stats::geomean(&p50));
    out.layer
        .insert("req_p99_us".to_string(), stats::geomean(&p90));
    out.e2e.insert("bytes_per_key", bytes_per_key);
    out.e2e.insert("setup_s", setup_s);

    let across = |f: Samples| -> f64 {
        let meds: Vec<f64> = images.iter().map(|i| med(f(i))).collect();
        stats::geomean(&meds)
    };
    let clean_us = across(&|i| &i.by_ending[0].reopen) / 1e3;
    let crash_us = across(&|i| &i.by_ending[1].reopen) / 1e3;
    for img in &images {
        out.notes.push(format!(
            "{:<10} reopen after clean close {:>9.1} us, after crash {:>9.1} us; lookup at the new base {:>7.2} ns  ({} cycles)",
            img.repr.name(),
            med(&img.by_ending[0].reopen) / 1e3,
            med(&img.by_ending[1].reopen) / 1e3,
            per_lookup(&img.batch),
            img.cycles
        ));
    }
    if ctx.trace {
        let mean = |f: Samples| -> f64 {
            let all: Vec<f64> = images.iter().flat_map(|i| f(i).iter().copied()).collect();
            all.iter().sum::<f64>() / all.len().max(1) as f64
        };
        out.layer.insert("reopen_clean_us".to_string(), clean_us);
        out.layer.insert("reopen_crash_us".to_string(), crash_us);
        let in_us: [(&str, Samples); 6] = [
            ("nvmsim.region.open_clean_us", &|i| {
                &i.by_ending[0].region_open
            }),
            ("nvmsim.region.open_crash_us", &|i| {
                &i.by_ending[1].region_open
            }),
            ("nvmsim.region.close_us", &|i| &i.close),
            ("nvmsim.region.verify_us", &|i| &i.verify),
            ("pstore.attach_clean_us", &|i| &i.by_ending[0].store_attach),
            ("pstore.attach_dirty_us", &|i| &i.by_ending[1].store_attach),
        ];
        for (name, samples) in in_us {
            out.layer.insert(name.to_string(), across(samples) / 1e3);
        }
        out.layer.insert(
            "nvmsim.llalloc.recovery_lines_per_open".to_string(),
            (mean(&|i| &i.by_ending[0].recovery_lines) + mean(&|i| &i.by_ending[1].recovery_lines))
                / 2.0,
        );
        out.layer.insert(
            "pstore.rollback_entries".to_string(),
            mean(&|i| &i.rollback_entries),
        );
        let create = sut::time_region_create(&dir.join("empty.nvr"), image_bytes)?;
        out.layer.insert(
            "nvmsim.region.create_us".to_string(),
            create.as_secs_f64() * 1e6,
        );
        let evict = evict_reopen_cycles(ctx, &mut out)?;
        out.layer.insert(
            "nvserver.evict_reopen_us".to_string(),
            stats::median(&evict) / 1e3,
        );
        // Sample k of a cell is round k's (0 the warm-up); even rounds
        // were traced.
        let rounds_of = |traced: bool| -> f64 {
            let picked = |v: &Vec<f64>| -> Vec<f64> {
                let keep = |k: usize| k > 0 && k.is_multiple_of(2) == traced;
                (0..v.len()).filter(|&k| keep(k)).map(|k| v[k]).collect()
            };
            cells.iter().map(|v| stats::median(&picked(v))).sum()
        };
        out.layer.insert(
            "trace.overhead_share".to_string(),
            rounds_of(true) / rounds_of(false) - 1.0,
        );
        for (ending, label, whole) in [
            (0, "after clean close", clean_us),
            (1, "after crash", crash_us),
        ] {
            let region = across(&|i| &i.by_ending[ending].region_open);
            let store = across(&|i| &i.by_ending[ending].store_attach);
            let structs = across(&|i| &i.by_ending[ending].structs_attach);
            let whole = whole * 1e3;
            out.waterfalls.push(Waterfall {
                title: format!("reopen [{label}]"),
                untraced_ns_per_op: whole,
                layers: vec![
                    Layer {
                        layer: "nvmsim (open_file_avoiding: map, verify, allocator scan)"
                            .to_string(),
                        self_ns_per_op: region,
                        counts: format!(
                            "{:.0} recovery lines/open",
                            mean(&|i| &i.by_ending[ending].recovery_lines)
                        ),
                    },
                    Layer {
                        layer: "pstore (attach: log check, rollback)".to_string(),
                        self_ns_per_op: store,
                        counts: if ending == 1 {
                            format!(
                                "{:.1} undo entries rolled back",
                                mean(&|i| &i.rollback_entries)
                            )
                        } else {
                            String::new()
                        },
                    },
                    Layer {
                        layer: "pds (attach set and index)".to_string(),
                        self_ns_per_op: structs,
                        counts: String::new(),
                    },
                    Layer {
                        layer: "pds + pi_core (first lookup, first touch)".to_string(),
                        self_ns_per_op: (whole - region - store - structs).max(0.0),
                        counts: String::new(),
                    },
                ],
            });
        }
    }
    for img in images {
        for (e, label) in img.by_ending.into_iter().zip(["clean", "crash"]) {
            out.rounds.push((
                format!("{}.reopen_after_{label}_ns", img.repr.name()),
                e.reopen,
            ));
        }
        out.rounds
            .push((format!("{}.batch_ns", img.repr.name()), img.batch));
    }
    out.rounds
        .push(("normal.batch_ns".to_string(), floor_batch));
    std::fs::remove_dir_all(&dir).map_err(|e| e.to_string())?;
    out.tracer = ctx.trace.then_some(tracer);
    Ok(out)
}
