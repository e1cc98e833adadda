//! `walk_hot` and `walk_cold`: non-transactional, read-only pointer
//! chasing — a full list traversal, and batches of 64 lookups in
//! bst/hashset/trie/ART — under each of the four representations.
//!
//! Hot is the paper's Fig. 12 regime with conversion on the critical
//! path: 4 096 keys per cell, L2-resident. Cold is the same code over
//! 262 144 keys per cell (≥ 16 MiB, far beyond L2), list/bst/hashset only
//! (a trie at ≈ 1.3 KB per key would not fit the run): memory latency
//! hides conversion there, so a conversion optimisation must show no
//! change on it.

use super::{best, ns32, repr_metric, timed_setups, Ctx, Outcome, SETUPS, SETUPS_LONG};
use crate::gen::{self, Keys, Probes, Rng};
use crate::manifest::WALK_STRUCTURES;
use crate::stats;
use crate::sut::{self, Repr, Res, Structure, WalkCell};
use crate::trace::{Layer, Tracer, Waterfall};
use std::time::Instant;

const BATCH: usize = 64;
/// Rounds over all cells the seed commit gets through in a second.
const HOT_ROUNDS_PER_SECOND: f64 = 24.0;
const COLD_ROUNDS_PER_SECOND: f64 = 4.0;

struct Inputs {
    ints: Keys,
    words: Keys,
    /// Keys present in every structure: the first `n` of each universe.
    n: usize,
    int_probes: Probes,
    word_probes: Probes,
    list_passes: usize,
    list_checksum: u64,
    /// Untimed batches that bring a cell back into cache before its
    /// timed pass (hot only: the other cells of a round evict it).
    warm_batches: usize,
}

impl Inputs {
    fn universe(&self, s: Structure) -> &Keys {
        if s.wordy() {
            &self.words
        } else {
            &self.ints
        }
    }

    fn probes(&self, s: Structure) -> &Probes {
        if s.wordy() {
            &self.word_probes
        } else {
            &self.int_probes
        }
    }

    /// Operations one round performs on a cell.
    fn ops(&self, s: Structure) -> usize {
        if s == Structure::List {
            self.list_passes * self.n
        } else {
            self.probes(s).keys.len()
        }
    }
}

struct Cell {
    sut: WalkCell,
    /// Every round runs the same units of work — batch `b` is the same 64
    /// lookups, a list pass the same traversal — so each unit reports its
    /// quietest execution, ns. A lookup cell has one entry per batch, a
    /// list cell one entry.
    best_unit: Vec<u32>,
    /// ns per op, one entry per untraced round.
    rounds: Vec<f64>,
    traced_rounds: Vec<f64>,
    wrong: u64,
    checked: u64,
}

impl Cell {
    /// ns per op with every unit at its quietest.
    fn best_ns_per_op(&self, inp: &Inputs) -> f64 {
        let units: u64 = self.best_unit.iter().map(|&ns| ns as u64).sum();
        // The units cover the probes once, or the list once.
        let ops = match self.sut.structure {
            Structure::List => inp.n,
            s => inp.probes(s).keys.len(),
        };
        units as f64 / ops as f64
    }

    /// The `p`-quantile over the cell's batches of each batch's quietest
    /// execution, µs. A read-only walk keeps no state, so what makes one
    /// request slower than another is its keys, and that repeats.
    fn batch_us(&self, p: f64) -> f64 {
        stats::percentile_u32(&mut self.best_unit.clone(), p) / 1e3
    }

    fn name(&self) -> String {
        format!("{}.{}", self.sut.structure.name(), self.sut.repr.name())
    }
}

/// One round of one cell: every batch timed, every result compared with
/// the oracle's. While the tracer is on, a span is recorded around each
/// call.
fn time_cell(cell: &mut Cell, inp: &Inputs, tr: &mut Tracer, keep: bool) {
    let s = cell.sut.structure;
    let probes = inp.probes(s);
    let traced = tr.is_on();
    let mut wrong = 0u64;
    if inp.warm_batches > 0 {
        let warm = if s == Structure::List {
            0..0
        } else {
            0..inp.warm_batches * BATCH
        };
        std::hint::black_box(cell.sut.visit(&probes.keys, warm));
    }
    let start = Instant::now();
    let mut last = start;
    if s == Structure::List {
        for _ in 0..inp.list_passes {
            tr.enter("pds.list.traverse", 0);
            let sum = cell.sut.visit(&probes.keys, 0..0);
            tr.exit();
            wrong += (sum != inp.list_checksum) as u64;
            let now = Instant::now();
            if keep && !traced {
                cell.best_unit[0] = cell.best_unit[0].min(ns32(now - last));
            }
            last = now;
        }
        cell.checked += inp.list_passes as u64;
    } else {
        for (b, &want) in probes.expect.iter().enumerate() {
            tr.enter("pds.lookup_batch", b as u64);
            let hits = cell.sut.visit(&probes.keys, b * BATCH..(b + 1) * BATCH);
            tr.exit();
            wrong += (hits != want as u64) as u64;
            let now = Instant::now();
            if keep && !traced {
                cell.best_unit[b] = cell.best_unit[b].min(ns32(now - last));
            }
            last = now;
        }
        cell.checked += probes.expect.len() as u64;
    }
    let ns_per_op = start.elapsed().as_nanos() as f64 / inp.ops(s) as f64;
    cell.wrong += wrong;
    if keep {
        if traced {
            cell.traced_rounds.push(ns_per_op);
        } else {
            cell.rounds.push(ns_per_op);
        }
    }
}

fn build_cells(structures: &[Structure], inp: &Inputs, seed: u64) -> Res<Vec<WalkCell>> {
    let mut cells = Vec::new();
    for &s in structures {
        let present = inp.universe(s).prefix(inp.n);
        for r in Repr::ALL {
            cells.push(WalkCell::build(s, r, &present, seed)?);
        }
    }
    Ok(cells)
}

pub fn run(ctx: &Ctx, cold: bool) -> Res<Outcome> {
    let structures: &[Structure] = if cold {
        &WALK_STRUCTURES[..3]
    } else {
        &WALK_STRUCTURES
    };
    let n = ctx.scaled(if cold { 262_144 } else { 4096 }, 64, 16);
    let nprobes = ctx.scaled(16_384, 2 * BATCH, BATCH);
    let mut rng = Rng::fork(ctx.seed, if cold { "walk_cold" } else { "walk_hot" });
    let ints = gen::distinct_ints(n + n / 16, &mut rng);
    let words = gen::distinct_words(n + n / 16, &mut rng);
    let inp = Inputs {
        int_probes: gen::probes(&ints, n, nprobes, BATCH, &mut rng),
        word_probes: gen::probes(&words, n, nprobes, BATCH, &mut rng),
        list_checksum: sut::list_checksum(&ints.ints()[..n]),
        list_passes: if cold { 1 } else { 8 },
        warm_batches: if cold {
            0
        } else {
            (n / BATCH).min(nprobes / BATCH)
        },
        ints,
        words,
        n,
    };

    let mut out = Outcome::default();
    let (built, setup_s) = timed_setups(
        if cold { SETUPS_LONG } else { SETUPS },
        || build_cells(structures, &inp, ctx.seed),
        |cells| cells.into_iter().try_for_each(WalkCell::close),
    )?;
    let live: u64 = built.iter().map(WalkCell::live_bytes).sum();
    let bytes_per_key = live as f64 / (built.len() * n) as f64;
    let mut cells: Vec<Cell> = built
        .into_iter()
        .map(|sut| Cell {
            best_unit: vec![
                u32::MAX;
                if sut.structure == Structure::List {
                    1
                } else {
                    nprobes / BATCH
                }
            ],
            sut,
            rounds: Vec::new(),
            traced_rounds: Vec::new(),
            wrong: 0,
            checked: 0,
        })
        .collect();

    let mut tracer = Tracer::new(false);
    let before = sut::Counters::read();
    let rounds = ctx.rounds(if cold {
        COLD_ROUNDS_PER_SECOND
    } else {
        HOT_ROUNDS_PER_SECOND
    });
    for i in 0..=rounds {
        tracer.set_on(ctx.traced_round(i));
        for cell in cells.iter_mut() {
            time_cell(cell, &inp, &mut tracer, i > 0);
        }
    }
    out.events = sut::events_since(&before);
    let ops_per_round: usize = cells.iter().map(|c| inp.ops(c.sut.structure)).sum();
    out.ops = (ops_per_round * (rounds + 1)) as u64;

    for c in &cells {
        out.tally.bulk(c.checked, c.wrong, || {
            format!("{}: visit disagreed with the oracle", c.name())
        });
        out.tally.check(c.sut.len() == n as u64, || {
            format!("{}: holds {} keys, built with {n}", c.name(), c.sut.len())
        });
        let inv = c.sut.check();
        out.tally.check(inv.is_ok(), || {
            format!("{}: {}", c.name(), inv.unwrap_err())
        });
    }
    out.tally.check(
        out.events.flushed_lines == 0 && out.events.fences == 0,
        || {
            format!(
                "a read-only walk flushed {} lines, fenced {} times",
                out.events.flushed_lines, out.events.fences
            )
        },
    );

    for r in Repr::ALL {
        let of_repr: Vec<f64> = cells
            .iter()
            .filter(|c| c.sut.repr == r)
            .map(|c| c.best_ns_per_op(&inp))
            .collect();
        out.e2e.insert(repr_metric(r), stats::geomean(&of_repr));
    }
    // Visits per second of one round with every unit at its quietest.
    let round_ns: f64 = cells
        .iter()
        .map(|c| c.best_ns_per_op(&inp) * inp.ops(c.sut.structure) as f64)
        .sum();
    out.e2e
        .insert("req_per_s", ops_per_round as f64 / round_ns * 1e9);
    // A request is one batch of 64 lookups (a list traversal is one
    // indivisible call, so list cells have no batches).
    let over_lookup_cells = |p: f64| -> f64 {
        let of_cells: Vec<f64> = cells
            .iter()
            .filter(|c| c.sut.structure != Structure::List)
            .map(|c| c.batch_us(p))
            .collect();
        stats::geomean(&of_cells)
    };
    out.e2e.insert("req_p50_us", over_lookup_cells(0.50));
    out.layer
        .insert("req_p99_us".to_string(), over_lookup_cells(0.99));
    for c in &cells {
        out.notes.push(format!(
            "{:<18} quietest units {:>9.2} ns/op, best round {:>9.2}, median round {:>9.2}  ({} rounds)",
            c.name(),
            c.best_ns_per_op(&inp),
            best(&c.rounds),
            stats::median(&c.rounds),
            c.rounds.len(),
        ));
    }
    out.e2e.insert("bytes_per_key", bytes_per_key);
    out.e2e.insert("setup_s", setup_s);

    if ctx.trace {
        for c in &cells {
            out.layer.insert(
                format!(
                    "pds.{}.{}.visit_ns",
                    c.sut.structure.name(),
                    c.sut.repr.name()
                ),
                c.best_ns_per_op(&inp),
            );
        }
        out.insert_ratios();
        let normal = out.e2e[repr_metric(Repr::Normal)];
        for r in Repr::PI {
            let own = out.e2e[repr_metric(r)];
            // From outside, a walk is one pds call; what the representation
            // adds is its time beyond the same walk on normal pointers.
            let walk = own.min(normal);
            out.waterfalls.push(Waterfall {
                title: format!(
                    "{} [{}]",
                    if cold { "walk_cold" } else { "walk_hot" },
                    r.name()
                ),
                untraced_ns_per_op: own,
                layers: vec![
                    Layer {
                        layer: "pds (walk at normal-pointer cost)".to_string(),
                        self_ns_per_op: walk,
                        counts: "0 flushes, 0 fences".to_string(),
                    },
                    Layer {
                        layer: "pi_core + nvmsim tables (conversion)".to_string(),
                        self_ns_per_op: own - walk,
                        counts: if own < normal {
                            "below normal: the FIG12 baseline anomaly".to_string()
                        } else {
                            String::new()
                        },
                    },
                ],
            });
        }
        // Round against round: the quietest traced, the quietest untraced.
        let whole = |f: &dyn Fn(&Cell) -> &Vec<f64>| -> f64 {
            cells
                .iter()
                .map(|c| best(f(c)) * inp.ops(c.sut.structure) as f64)
                .sum()
        };
        out.layer.insert(
            "trace.overhead_share".to_string(),
            whole(&|c| &c.traced_rounds) / whole(&|c| &c.rounds) - 1.0,
        );
    }
    for c in cells {
        out.rounds.push((c.name(), c.rounds));
        c.sut.close()?;
    }
    out.tracer = ctx.trace.then_some(tracer);
    Ok(out)
}
