//! The per-layer metrics of a traced run: the layer probes (tight loops
//! over one public function, the same on every workload, run once before
//! the workload so that it can use them), the counts taken over the
//! workload's timed rounds, and whatever the workload itself measured. A
//! metric the workload does not exercise reads 0.

use crate::manifest::{per_layer, PROBES};
use crate::stats;
use crate::sut::{self, ProbeEnv, Res};
use crate::workloads::{Ctx, Outcome};
use std::collections::BTreeMap;

const REPEATS: usize = 5;

/// Nanoseconds per iteration of probe `name`: one warm-up pass, then the
/// median of `REPEATS` timed passes.
fn probe_ns(env: &ProbeEnv, name: &str, iters: u64) -> Res<f64> {
    env.run(name, iters / 8 + 1)?;
    let mut runs = Vec::with_capacity(REPEATS);
    for _ in 0..REPEATS {
        runs.push(env.run(name, iters)?.as_nanos() as f64 / iters as f64);
    }
    Ok(stats::median(&runs))
}

/// Every probe in `PROBES`, with iteration counts divided by `scale`.
pub fn probes(scale: usize) -> Res<BTreeMap<String, f64>> {
    let mut values = BTreeMap::new();
    let env = ProbeEnv::new()?;
    let before = sut::Counters::read();
    for name in PROBES.iter().filter(|n| n.ends_with("_ns")) {
        // Transactions and allocations are ~100 ns each; loads ~1 ns.
        let heavy = name.starts_with("pstore.") || name.contains("llalloc");
        let iters = (if heavy { 20_000 } else { 400_000 } / scale as u64).max(100);
        values.insert(name.to_string(), probe_ns(&env, name, iters)?);
    }
    // One logged range costs a 1-range transaction minus an empty one.
    let one_range = values["pstore.tx.add_range_ns"] - values["pstore.tx.empty_ns"];
    values.insert("pstore.tx.add_range_ns".to_string(), one_range.max(0.0));
    let probed = sut::events_since(&before);
    values.insert(
        "nvmsim.llalloc.cas_retries".to_string(),
        probed.cas_retries as f64,
    );
    values.insert(
        "nvmsim.translation_misses".to_string(),
        probed.translation_misses as f64,
    );
    env.close()?;
    Ok(values)
}

pub fn assemble(ctx: &Ctx, out: &Outcome) -> Res<BTreeMap<String, f64>> {
    let mut values: BTreeMap<String, f64> =
        per_layer().into_iter().map(|m| (m.name, 0.0)).collect();
    values.extend(ctx.probes.clone());

    let ev = &out.events;
    let per = |n: u64, d: u64| if d == 0 { 0.0 } else { n as f64 / d as f64 };
    for (name, v) in [
        ("flushed_lines_per_op", per(ev.flushed_lines, out.ops)),
        ("fences_per_op", per(ev.fences, out.ops)),
        ("nvmsim.clflush_calls_per_op", per(ev.flush_calls, out.ops)),
        (
            "nvmsim.region_allocs_per_op",
            per(ev.region_allocs, out.ops),
        ),
        (
            "pstore.undo_entries_per_tx",
            per(ev.undo_entries, ev.tx_commits),
        ),
        (
            "pstore.flushed_lines_per_tx",
            per(ev.flushed_lines, ev.tx_commits),
        ),
        ("pstore.fences_per_tx", per(ev.fences, ev.tx_commits)),
        ("fail_share", per(out.tally.failed, out.tally.attempted)),
    ] {
        values.insert(name.to_string(), v);
    }

    for (name, v) in &out.layer {
        if values.insert(name.clone(), *v).is_none() {
            return Err(format!("{name} is not in the manifest"));
        }
    }
    Ok(values)
}
