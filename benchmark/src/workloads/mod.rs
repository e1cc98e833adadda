//! The five workloads and what they share: the run context, the tally of
//! oracle checks, repeated set-up, and the round loop.
//!
//! Ground rules for every workload: latency model OFF; fixed operation
//! counts per round; one discarded warm-up round, then a fixed number of
//! rounds for each second of `--seconds` (at least five), interleaved
//! round-robin across the cells being compared. The count follows the
//! command line, never the product's speed: the quietest of N rounds is
//! lower the larger N is, and faster code must not get a larger N.
//!
//! A cost (ns per op, requests per second, a median latency) is computed
//! per round, and a cell reports its **quietest round** (`serve_mixed`,
//! whose rounds are the longest, its quietest window). On this shared
//! 2-vCPU VM, interference from other tenants of the host only ever slows
//! a round, comes in bursts of seconds, and in a burst doubles the median
//! of a fixed pointer-chase loop while its minimum moves by a few
//! percent; the median over rounds then moves 30 % between runs of the
//! same binary, the best round 3 %. What is judged is the code, so what
//! is reported is the time the code takes when the host leaves it alone.
//!
//! A tail is the opposite case: the quietest round is by construction
//! the one the product's own slow paths (an allocator refill, a queue
//! hiccup) happened to miss. Where ops change state (`tx_mixed`,
//! `serve_mixed`) a 99th percentile is therefore computed per round and
//! the **median over rounds** is reported; it carries the host's noise
//! whole, so it has no bound: `req_p99_us` is a per-layer metric. Every
//! round's value is in `--out`.

pub mod reopen;
pub mod serve;
pub mod tx;
pub mod walk;

use crate::stats;
use crate::sut::{Events, Repr, Res};
use crate::trace::{Tracer, Waterfall};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Measured rounds of a run, at least.
pub const MIN_ROUNDS: usize = 5;
/// Times a workload sets up; `walk_cold`, whose set-up takes seconds,
/// does it `SETUPS_LONG` times.
pub const SETUPS: usize = 7;
pub const SETUPS_LONG: usize = 3;

pub struct Ctx {
    pub seed: u64,
    /// Seconds of measurement at the seed commit's speed (set-up and
    /// checks come on top); it fixes the number of rounds.
    pub seconds: f64,
    pub trace: bool,
    /// Divides every size and operation count; 1 is the pinned benchmark,
    /// 100 is what the unit tests run.
    pub scale: usize,
    /// Directory for region files, removed when the run ends.
    pub scratch: PathBuf,
    /// The layer probes' results (`layers::probes`), run once before a
    /// traced workload; empty in an untraced run.
    pub probes: BTreeMap<String, f64>,
}

impl Ctx {
    /// `n / scale`, at least `floor`, rounded up to a multiple of `step`.
    pub fn scaled(&self, n: usize, floor: usize, step: usize) -> usize {
        (n / self.scale).max(floor).div_ceil(step) * step
    }

    /// Rounds to measure after the warm-up round 0. An untraced run
    /// measures `per_second` rounds for each second asked for: the rate
    /// is the workload's at the seed commit, so the run lasts `--seconds`
    /// there, and the count does not move when the product's speed does.
    /// A traced run alternates untraced and traced rounds, `MIN_ROUNDS`
    /// of each, so the two can be compared.
    pub fn rounds(&self, per_second: f64) -> usize {
        if self.trace {
            2 * MIN_ROUNDS
        } else {
            ((per_second * self.seconds).round() as usize).max(MIN_ROUNDS)
        }
    }

    /// Whether round `i` of a traced run records spans (round 0 is the
    /// warm-up).
    pub fn traced_round(&self, i: usize) -> bool {
        self.trace && i > 0 && i.is_multiple_of(2)
    }
}

/// The end-to-end metric a representation's cells report into.
pub fn repr_metric(r: Repr) -> &'static str {
    match r {
        Repr::Normal => "normal_ns_per_op",
        Repr::OffHolder => "offholder_ns_per_op",
        Repr::Riv => "riv_ns_per_op",
        Repr::Fat => "fat_ns_per_op",
    }
}

/// Oracle checks made and failed. Everything here feeds `failed` in the
/// result line: a wrong lookup count, a non-`Ok` reply, a lost
/// acknowledged key, a broken invariant, a reopen at the same base.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    /// The first few failures, for the report.
    pub first: Vec<String>,
}

impl Tally {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(1, what);
        }
    }

    /// `n` checks made in a timed loop, `failed` of them wrong.
    pub fn bulk(&mut self, n: u64, failed: u64, what: impl FnOnce() -> String) {
        self.attempted += n;
        if failed > 0 {
            self.fail(failed, what);
        }
    }

    fn fail(&mut self, n: u64, what: impl FnOnce() -> String) {
        self.failed += n;
        if self.first.len() < 8 {
            self.first.push(what());
        }
    }
}

/// What one run of one workload produced.
#[derive(Default)]
pub struct Outcome {
    pub tally: Tally,
    /// End-to-end metrics by name (all nine, on every workload).
    pub e2e: BTreeMap<&'static str, f64>,
    /// Per-layer metrics this workload exercises (traced runs only).
    pub layer: BTreeMap<String, f64>,
    /// Per cell, each round's value (ns per op unless the name says).
    pub rounds: Vec<(String, Vec<f64>)>,
    /// Product counters over the timed rounds, and the ops they cover.
    pub events: Events,
    pub ops: u64,
    pub waterfalls: Vec<Waterfall>,
    pub tracer: Option<Tracer>,
    /// Per-cell lines for the human reader.
    pub notes: Vec<String>,
}

impl Outcome {
    /// `ratio.<repr>_vs_normal` from the per-representation metrics:
    /// diagnostic only, which is why it is a per-layer metric.
    pub fn insert_ratios(&mut self) {
        let normal = self.e2e[repr_metric(Repr::Normal)];
        for r in Repr::PI {
            let ratio = self.e2e[repr_metric(r)] / normal;
            self.layer
                .insert(format!("ratio.{}_vs_normal", r.name()), ratio);
        }
    }
}

/// Runs the workload called `name`.
pub fn run(name: &str, ctx: &Ctx) -> Res<Outcome> {
    match name {
        "walk_hot" => walk::run(ctx, false),
        "walk_cold" => walk::run(ctx, true),
        "tx_mixed" => tx::run(ctx),
        "serve_mixed" => serve::run(ctx),
        "reopen" => reopen::run(ctx),
        other => Err(format!("unknown workload {other}")),
    }
}

/// Sets up `n` times, tearing down all but the last; returns the last
/// build and the quietest set-up's time in seconds. Set-up is a cost like
/// any other here: page faults and allocation take their speed from the
/// host, and over twelve runs in four minutes the median of three
/// set-ups ranged over 16–31 % of its median, the quietest of seven over
/// 4–10 % (`tx_mixed`: 47 % and 36 %).
pub fn timed_setups<T>(
    n: usize,
    mut build: impl FnMut() -> Res<T>,
    mut teardown: impl FnMut(T) -> Res<()>,
) -> Res<(T, f64)> {
    let mut times = Vec::with_capacity(n);
    let mut last = None;
    for _ in 0..n {
        if let Some(prev) = last.take() {
            teardown(prev)?;
        }
        let t = Instant::now();
        last = Some(build()?);
        times.push(t.elapsed().as_secs_f64());
    }
    Ok((last.expect("n > 0"), best(&times)))
}

/// A cell's quietest round (times and latencies: lower is quieter).
pub fn best(rounds: &[f64]) -> f64 {
    rounds.iter().copied().fold(f64::INFINITY, f64::min)
}

/// `pick` (`best` for a cost, `stats::median` for a tail) of each cell's
/// rounds, then the geometric mean over cells.
pub fn geomean_of<'a>(pick: fn(&[f64]) -> f64, cells: impl Iterator<Item = &'a Vec<f64>>) -> f64 {
    let picked: Vec<f64> = cells.map(|r| pick(r)).collect();
    stats::geomean(&picked)
}

/// Median and 99th percentile of one round's latency samples (sorts and
/// clears `samples`), in microseconds.
pub fn round_latency(samples: &mut Vec<u32>) -> (f64, f64) {
    let p50 = stats::percentile_u32(samples, 0.50) / 1e3;
    let p99 = stats::percentile_u32(samples, 0.99) / 1e3;
    samples.clear();
    (p50, p99)
}

/// Nanoseconds of a duration, for samples kept as `u32` (saturating:
/// four seconds is far beyond any one batch).
#[inline]
pub fn ns32(d: Duration) -> u32 {
    d.as_nanos().min(u32::MAX as u128) as u32
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers;
    use crate::manifest::{END_TO_END, WORKLOADS};
    use std::sync::Mutex;

    /// The product's counters are process-wide (a walk fails if anything
    /// flushes while it runs), so workload tests take turns.
    static SERIAL: Mutex<()> = Mutex::new(());

    /// One workload at 1/100 scale, oracle on, in a directory of its own.
    fn run_small(name: &str, trace: bool) -> (Ctx, Outcome) {
        let _turn = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
        let scratch = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("test-{}-{name}-{trace}", std::process::id()));
        std::fs::create_dir_all(&scratch).unwrap();
        let ctx = Ctx {
            seed: 42,
            seconds: 0.05,
            trace,
            scale: 100,
            scratch: scratch.clone(),
            probes: if trace {
                layers::probes(100).unwrap()
            } else {
                BTreeMap::new()
            },
        };
        let out = run(name, &ctx);
        std::fs::remove_dir_all(&scratch).ok();
        (ctx, out.unwrap_or_else(|e| panic!("{name}: {e}")))
    }

    fn assert_sound(name: &str, out: &Outcome) {
        assert_eq!(out.tally.failed, 0, "{name}: {:?}", out.tally.first);
        assert!(
            out.tally.attempted > 100,
            "{name} made {} checks",
            out.tally.attempted
        );
        for m in END_TO_END.iter().filter(|m| m.name != "peak_rss_mib") {
            let v = out
                .e2e
                .get(m.name)
                .unwrap_or_else(|| panic!("{name} did not report {}", m.name));
            assert!(v.is_finite() && *v > 0.0, "{name}: {} = {v}", m.name);
        }
        assert!(
            out.rounds.iter().all(|(_, r)| r.len() >= MIN_ROUNDS),
            "{name}: a cell has under {MIN_ROUNDS} rounds"
        );
    }

    #[test]
    fn walk_hot_small_agrees_with_the_oracle() {
        assert_sound("walk_hot", &run_small("walk_hot", false).1);
    }

    #[test]
    fn walk_cold_small_agrees_with_the_oracle() {
        assert_sound("walk_cold", &run_small("walk_cold", false).1);
    }

    #[test]
    fn tx_mixed_small_agrees_with_the_oracle() {
        assert_sound("tx_mixed", &run_small("tx_mixed", false).1);
    }

    #[test]
    fn serve_mixed_small_agrees_with_the_oracle() {
        assert_sound("serve_mixed", &run_small("serve_mixed", false).1);
    }

    #[test]
    fn reopen_small_agrees_with_the_oracle() {
        assert_sound("reopen", &run_small("reopen", false).1);
    }

    #[test]
    fn traced_runs_report_manifest_names_and_a_waterfall() {
        for w in &WORKLOADS {
            let (ctx, out) = run_small(w.name, true);
            assert_eq!(out.tally.failed, 0, "{}: {:?}", w.name, out.tally.first);
            let _turn = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
            let values = layers::assemble(&ctx, &out).unwrap_or_else(|e| panic!("{}: {e}", w.name));
            assert!(values.len() == crate::manifest::per_layer().len());
            assert!(values.values().all(|v| v.is_finite()), "{}", w.name);
            assert!(values.contains_key("trace.overhead_share"));
            assert!(
                !out.waterfalls.is_empty(),
                "{} printed no waterfall",
                w.name
            );
            assert!(out.waterfalls.iter().all(|f| f.total() > 0.0));
            assert!(out.tracer.as_ref().is_some_and(|t| !t.spans().is_empty()));
        }
    }

    #[test]
    fn the_tally_counts_what_failed_and_keeps_the_first_reasons() {
        let mut t = Tally::default();
        t.check(true, || unreachable!());
        t.check(false, || "one".to_string());
        t.bulk(10, 3, || "three of ten".to_string());
        t.bulk(5, 0, || unreachable!());
        assert_eq!((t.attempted, t.failed), (17, 4));
        assert_eq!(t.first, ["one", "three of ten"]);
    }

    #[test]
    fn the_round_count_follows_the_seconds_asked_for_and_nothing_else() {
        let ctx = |seconds: f64, trace: bool| Ctx {
            seed: 1,
            seconds,
            trace,
            scale: 1,
            scratch: PathBuf::new(),
            probes: BTreeMap::new(),
        };
        assert_eq!(ctx(12.0, false).rounds(16.0), 192);
        assert_eq!(ctx(0.05, false).rounds(16.0), MIN_ROUNDS);
        assert_eq!(ctx(12.0, true).rounds(16.0), 2 * MIN_ROUNDS);
    }

    #[test]
    fn a_cost_is_the_quietest_round_and_a_tail_the_median_round() {
        let cells = [vec![4.0, 2.0, 9.0], vec![8.0, 32.0, 16.0]];
        assert!((geomean_of(best, cells.iter()) - 4.0).abs() < 1e-9);
        assert!((geomean_of(stats::median, cells.iter()) - 8.0).abs() < 1e-9);
    }

    #[test]
    fn set_up_runs_n_times_and_keeps_the_last() {
        let (mut built, mut torn) = (0, Vec::new());
        let (last, secs) = timed_setups(
            3,
            || {
                built += 1;
                Ok(built)
            },
            |old| {
                torn.push(old);
                Ok(())
            },
        )
        .unwrap();
        assert_eq!((last, torn), (3, vec![1, 2]));
        assert!(secs >= 0.0);
    }
}
