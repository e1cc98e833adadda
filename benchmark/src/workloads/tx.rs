//! `tx_mixed`: `pstore` transactions — 25 % `insert_tx`, 25 %
//! `remove_tx`, 50 % `contains`, keys uniform over a keyspace twice the
//! preload so the structures stay at steady size — on hashset, bst and
//! ART, all four representations in one region. This is the write side of
//! the structures the walk workloads read: log, commit, flush hooks and
//! allocator.
//!
//! RIV and fat run again with the preloaded nodes spread round-robin over
//! four regions (the paper's Fig. 14 crossover). `pstore`'s undo log
//! belongs to one region, so `insert_tx`/`remove_tx` fail with
//! `AddressOutOfRange` as soon as a slot they log lies outside the home
//! region: the four-region cells therefore run only the stream's
//! `contains` half, over the wrapped, cross-region placement.

use super::{
    best, geomean_of, ns32, repr_metric, round_latency, timed_setups, Ctx, Outcome, SETUPS,
};
use crate::gen::{self, Keys, OpKind, Rng, Semantics, TxStream};
use crate::manifest::TX_STRUCTURES;
use crate::stats;
use crate::sut::{self, Events, Repr, Res, Structure, TxCell};
use crate::trace::{Layer, Tracer, Waterfall};
use std::time::{Duration, Instant};

/// Ops per latency sample: a request is a batch of 16 set operations.
const BATCH: usize = 16;
/// Rounds of 2 048 ops on each of the 18 cells the seed commit gets
/// through in a second.
const ROUNDS_PER_SECOND: f64 = 16.0;
/// Removed nodes are not reclaimed by `remove_tx`, so regions are sized
/// for the whole run: 0.125 allocations of 128 B per op.
const REGION_BYTES: usize = 64 << 20;

struct Inputs {
    ints: Keys,
    words: Keys,
    int_stream: TxStream,
    word_stream: TxStream,
    preload: usize,
    per_round: usize,
}

impl Inputs {
    fn keys(&self, s: Structure) -> &Keys {
        if s.wordy() {
            &self.words
        } else {
            &self.ints
        }
    }

    fn stream(&self, s: Structure) -> &TxStream {
        if s.wordy() {
            &self.word_stream
        } else {
            &self.int_stream
        }
    }
}

struct Cell {
    sut: TxCell,
    rounds: Vec<f64>,
    traced_rounds: Vec<f64>,
    /// Per untraced round, median and 99th percentile of the time of a
    /// batch of 16 ops, µs.
    p50: Vec<f64>,
    p99: Vec<f64>,
    /// The current round's batch times, ns.
    samples: Vec<u32>,
    /// The by-kind round times every op on its own: ns by op kind.
    by_kind: [Vec<u32>; 3],
    /// Counters and op count of the last traced round, for the replay.
    last_traced: Option<(Events, usize)>,
    wrong: u64,
    /// Ops run in all rounds, and in the measured untraced ones.
    ops_total: u64,
    ops_measured: u64,
    /// Stream slices consumed (four-region cells: read, not applied).
    slices: usize,
}

impl Cell {
    /// Ops of one measured round, on average (four-region cells run the
    /// `contains` half of each slice, which varies by a few ops).
    fn ops_per_round(&self) -> f64 {
        self.ops_measured as f64 / self.rounds.len() as f64
    }

    fn name(&self) -> String {
        format!(
            "{}.{}.r{}",
            self.sut.structure.name(),
            self.sut.repr.name(),
            self.sut.nregions()
        )
    }
}

fn specs() -> Vec<(Structure, Repr, usize)> {
    let mut v = Vec::new();
    for s in TX_STRUCTURES {
        v.extend(Repr::ALL.map(|r| (s, r, 1)));
        v.extend([Repr::Riv, Repr::Fat].map(|r| (s, r, 4)));
    }
    v
}

fn build_cells(inp: &Inputs, region_bytes: usize) -> Res<Vec<TxCell>> {
    specs()
        .into_iter()
        .map(|(s, r, k)| TxCell::build(s, r, k, region_bytes, inp.keys(s), inp.preload))
        .collect()
}

/// Slice `i` of the stream on one cell, in batches of 16, every result
/// compared with the oracle's. Returns the ops it ran.
///
/// While the tracer is on, a span is recorded around every batch and the
/// round's counters are kept. With `by_kind`, every op is timed on its
/// own instead (a round of its own, counted in no other statistic: a
/// clock read per op costs a tenth of an op).
fn time_cell(
    cell: &mut Cell,
    inp: &Inputs,
    i: usize,
    tr: &mut Tracer,
    by_kind: bool,
) -> Res<usize> {
    let s = cell.sut.structure;
    let (keys, stream) = (inp.keys(s), inp.stream(s));
    let span = i * inp.per_round..(i + 1) * inp.per_round;
    let (mut ops, mut expect) = (&stream.ops[span.clone()], &stream.expect[span]);
    // Four-region cells take no writes, so their state stays the preload.
    let reads: (Vec<gen::Op>, Vec<u32>);
    if cell.sut.nregions() > 1 {
        let only: Vec<gen::Op> = ops
            .iter()
            .copied()
            .filter(|o| o.kind == OpKind::Contains)
            .collect();
        let want = only
            .iter()
            .map(|o| ((o.key as usize) < inp.preload) as u32)
            .collect();
        reads = (only, want);
        (ops, expect) = (&reads.0, &reads.1);
    }
    // The other seventeen cells of a round evict this one from L2; look
    // every key up once, untimed, so the timed ops run on a warm cell
    // (as in `walk_hot`, and for the same reason: an L3-bound turn takes
    // its speed from the host's other tenants).
    for k in 0..keys.len() {
        std::hint::black_box(cell.sut.count(keys, k));
    }
    let mut wrong = 0u64;
    let traced = tr.is_on();
    let before = traced.then(sut::Counters::read);
    let start = Instant::now();
    let mut last = start;
    for (b, (ops, expect)) in ops.chunks(BATCH).zip(expect.chunks(BATCH)).enumerate() {
        tr.enter("pds.tx_batch", b as u64);
        for (op, &want) in ops.iter().zip(expect) {
            let got = cell.sut.apply(*op, keys)?;
            wrong += (got != want as u64) as u64;
            if by_kind {
                let now = Instant::now();
                cell.by_kind[op.kind as usize].push(ns32(now - last));
                last = now;
            }
        }
        tr.exit();
        if !traced && !by_kind && i > 0 {
            let now = Instant::now();
            cell.samples.push(ns32(now - last));
            last = now;
        }
    }
    let took = start.elapsed();
    let ns_per_op = took.as_nanos() as f64 / ops.len() as f64;
    if traced {
        cell.traced_rounds.push(ns_per_op);
        cell.last_traced = Some((sut::events_since(&before.expect("read above")), ops.len()));
    } else if !by_kind && i > 0 {
        cell.rounds.push(ns_per_op);
        cell.ops_measured += ops.len() as u64;
        let (p50, p99) = round_latency(&mut cell.samples);
        cell.p50.push(p50);
        cell.p99.push(p99);
    }
    cell.wrong += wrong;
    cell.ops_total += ops.len() as u64;
    cell.slices += 1;
    Ok(ops.len())
}

/// Layer times of one cell's traced round, by replay from outside: the
/// full `pds` ops, then the same transaction shapes on bare `pstore`,
/// then the same flushes, fences and allocations on bare `nvmsim`.
struct Replay {
    pds_self: Duration,
    pstore_self: Duration,
    nvmsim_self: Duration,
}

fn replay(cell: &TxCell, ev: &Events, full: Duration) -> Res<Replay> {
    let (shape, within) = cell.replay_pstore(
        ev.tx_commits,
        ev.tx_aborts,
        ev.undo_entries,
        ev.region_allocs,
    )?;
    let under_pstore = cell.replay_nvmsim(&within)?;
    let nvmsim_self = cell.replay_nvmsim(ev)?;
    let pstore_self = shape.saturating_sub(under_pstore);
    Ok(Replay {
        pds_self: full.saturating_sub(pstore_self + nvmsim_self),
        pstore_self,
        nvmsim_self,
    })
}

/// Exact persistence cost of one applied insert and one applied remove,
/// and the insert's time net of the layers below, measured on `count`
/// keys the oracle says are absent (and leaves them absent again).
fn applied_op_costs(cell: &mut TxCell, keys: &Keys, absent: &[u32], out: &mut Outcome) -> Res<()> {
    let s = cell.structure.name();
    let n = absent.len() as f64;
    let run = |kind: OpKind, cell: &mut TxCell| -> Res<(Events, Duration, u64)> {
        let before = sut::Counters::read();
        let t = Instant::now();
        let mut applied = 0;
        for &key in absent {
            applied += (cell.apply(gen::Op { kind, key }, keys)? == 1) as u64;
        }
        Ok((sut::events_since(&before), t.elapsed(), applied))
    };
    let (ins, ins_time, ins_applied) = run(OpKind::Insert, cell)?;
    let (rem, _, rem_applied) = run(OpKind::Remove, cell)?;
    out.tally.bulk(
        2 * absent.len() as u64,
        2 * absent.len() as u64 - ins_applied - rem_applied,
        || format!("{s}: an insert or remove of a key the oracle holds absent did not apply"),
    );
    for (op, ev) in [("insert_tx", &ins), ("remove_tx", &rem)] {
        out.layer.insert(
            format!("pds.{s}.{op}.flushed_lines"),
            ev.flushed_lines as f64 / n,
        );
        out.layer
            .insert(format!("pds.{s}.{op}.fences"), ev.fences as f64 / n);
    }
    let r = replay(cell, &ins, ins_time)?;
    out.layer.insert(
        format!("pds.{s}.insert_tx.self_ns"),
        r.pds_self.as_nanos() as f64 / n,
    );
    Ok(())
}

pub fn run(ctx: &Ctx) -> Res<Outcome> {
    let preload = ctx.scaled(8192, 64, 16);
    let universe = 2 * preload;
    let per_round = ctx.scaled(2048, 4 * BATCH, BATCH);
    let rounds = ctx.rounds(ROUNDS_PER_SECOND);
    let mut rng = Rng::fork(ctx.seed, "tx_mixed");
    // The warm-up slice, the rounds, and the traced run's by-kind round.
    let count = per_round * (rounds + 2);
    let inp = Inputs {
        ints: gen::distinct_ints(universe, &mut rng),
        words: gen::distinct_words(universe, &mut rng),
        int_stream: gen::tx_stream(universe, preload, count, Semantics::Set, &mut rng),
        word_stream: gen::tx_stream(universe, preload, count, Semantics::Multiset, &mut rng),
        preload,
        per_round,
    };
    let region_bytes = (REGION_BYTES / ctx.scale).max(8 << 20);

    let mut out = Outcome::default();
    let (built, setup_s) = timed_setups(
        SETUPS,
        || build_cells(&inp, region_bytes),
        |cells| cells.into_iter().try_for_each(TxCell::close),
    )?;
    let live: u64 = built.iter().map(TxCell::live_bytes).sum();
    let bytes_per_key = live as f64 / (built.len() * preload) as f64;
    let mut cells: Vec<Cell> = built
        .into_iter()
        .map(|sut| Cell {
            sut,
            rounds: Vec::new(),
            traced_rounds: Vec::new(),
            p50: Vec::new(),
            p99: Vec::new(),
            samples: Vec::new(),
            by_kind: Default::default(),
            last_traced: None,
            wrong: 0,
            ops_total: 0,
            ops_measured: 0,
            slices: 0,
        })
        .collect();

    let mut tracer = Tracer::new(false);
    let before = sut::Counters::read();
    for i in 0..=rounds {
        tracer.set_on(ctx.traced_round(i));
        for cell in cells.iter_mut() {
            out.ops += time_cell(cell, &inp, i, &mut tracer, false)? as u64;
        }
    }
    tracer.set_on(false);
    out.events = sut::events_since(&before);

    if ctx.trace {
        let (mut pds, mut pstore, mut nvmsim, mut ops) = (0.0, 0.0, 0.0, 0.0);
        let mut all = Events::default();
        for c in &cells {
            let (ev, n) = c.last_traced.as_ref().expect("five traced rounds ran");
            let took = Duration::from_nanos((best(&c.traced_rounds) * *n as f64) as u64);
            let r = replay(&c.sut, ev, took)?;
            ops += *n as f64;
            pds += r.pds_self.as_nanos() as f64;
            pstore += r.pstore_self.as_nanos() as f64;
            nvmsim += r.nvmsim_self.as_nanos() as f64;
            all += *ev;
        }
        out.waterfalls.push(Waterfall {
            title: "tx_mixed".to_string(),
            untraced_ns_per_op: cells
                .iter()
                .map(|c| best(&c.rounds) * c.ops_per_round())
                .sum::<f64>()
                / cells.iter().map(Cell::ops_per_round).sum::<f64>(),
            layers: vec![
                Layer {
                    layer: "pds (structure walk, node init, persist_range calls)".to_string(),
                    self_ns_per_op: pds / ops,
                    counts: format!(
                        "{:.3} tx begun/op, {:.3} ended as empty-log aborts",
                        all.tx_begins as f64 / ops,
                        all.tx_aborts as f64 / ops
                    ),
                },
                Layer {
                    layer: "pstore (begin, log append, commit)".to_string(),
                    self_ns_per_op: pstore / ops,
                    counts: format!("{:.3} undo entries/op", all.undo_entries as f64 / ops),
                },
                Layer {
                    layer: "nvmsim (flush hooks, fences, allocator)".to_string(),
                    self_ns_per_op: nvmsim / ops,
                    counts: format!(
                        "{:.3} lines, {:.3} fences, {:.3} allocs /op",
                        all.flushed_lines as f64 / ops,
                        all.fences as f64 / ops,
                        all.region_allocs as f64 / ops
                    ),
                },
            ],
        });
        for c in cells
            .iter_mut()
            .filter(|c| c.sut.nregions() == 1 && matches!(c.sut.repr, Repr::OffHolder | Repr::Riv))
        {
            time_cell(c, &inp, rounds + 1, &mut tracer, true)?;
            for (kind, op) in [
                (OpKind::Insert, "insert_tx"),
                (OpKind::Remove, "remove_tx"),
                (OpKind::Contains, "contains"),
            ] {
                let name = format!(
                    "pds.{}.{}.{}_ns",
                    c.sut.structure.name(),
                    c.sut.repr.name(),
                    op
                );
                out.layer.insert(
                    name,
                    stats::percentile_u32(&mut c.by_kind[kind as usize], 0.5),
                );
            }
        }
        let untraced: f64 = cells
            .iter()
            .map(|c| best(&c.rounds) * c.ops_per_round())
            .sum();
        let traced: f64 = cells
            .iter()
            .map(|c| best(&c.traced_rounds) * c.ops_per_round())
            .sum();
        out.layer
            .insert("trace.overhead_share".to_string(), traced / untraced - 1.0);
    }

    // Final state against the oracle, after the exact-cost probe has
    // inserted and removed its keys again.
    for c in cells.iter_mut() {
        let s = c.sut.structure;
        let applied = if c.sut.nregions() > 1 {
            0
        } else {
            c.slices * per_round
        };
        let (keys, want) = (inp.keys(s), inp.stream(s).state_after(applied));
        if ctx.trace && c.sut.repr == Repr::OffHolder {
            // One region: the probe's inserts and removes can log.
            let absent: Vec<u32> = (0..universe as u32)
                .filter(|&i| want[i as usize] == 0)
                .take(ctx.scaled(256, 16, 1))
                .collect();
            applied_op_costs(&mut c.sut, keys, &absent, &mut out)?;
        }
        let name = c.name();
        out.tally.bulk(c.ops_total, c.wrong, || {
            format!("{name}: an op disagreed with the oracle")
        });
        let differ = (0..universe)
            .filter(|&i| c.sut.count(keys, i) != want[i] as u64)
            .count();
        out.tally.bulk(universe as u64, differ as u64, || {
            format!("{name}: {differ} keys differ from the oracle's final state")
        });
        let present = want.iter().filter(|&&n| n > 0).count() as u64;
        out.tally.check(c.sut.len() == present, || {
            format!("{name}: len {} but the oracle holds {present}", c.sut.len())
        });
        let inv = c.sut.check();
        out.tally
            .check(inv.is_ok(), || format!("{name}: {}", inv.unwrap_err()));
    }

    for r in Repr::ALL {
        let of_repr = cells.iter().filter(|c| c.sut.repr == r);
        out.e2e
            .insert(repr_metric(r), geomean_of(best, of_repr.map(|c| &c.rounds)));
    }
    let round_ns: f64 = cells
        .iter()
        .map(|c| best(&c.rounds) * c.ops_per_round())
        .sum();
    let round_ops: f64 = cells.iter().map(Cell::ops_per_round).sum();
    out.e2e.insert("req_per_s", round_ops / round_ns * 1e9);
    out.e2e
        .insert("req_p50_us", geomean_of(best, cells.iter().map(|c| &c.p50)));
    out.layer.insert(
        "req_p99_us".to_string(),
        geomean_of(stats::median, cells.iter().map(|c| &c.p99)),
    );
    for c in &cells {
        out.notes.push(format!(
            "{:<22} best {:>9.2} ns/op, median {:>9.2}  ({} rounds)",
            c.name(),
            best(&c.rounds),
            stats::median(&c.rounds),
            c.rounds.len()
        ));
    }
    out.e2e.insert("bytes_per_key", bytes_per_key);
    out.e2e.insert("setup_s", setup_s);
    if ctx.trace {
        out.insert_ratios();
    }
    for c in cells {
        let name = c.name();
        out.rounds.push((format!("{name}.p99_us"), c.p99));
        out.rounds.push((name, c.rounds));
        c.sut.close()?;
    }
    out.tracer = ctx.trace.then_some(tracer);
    Ok(out)
}
