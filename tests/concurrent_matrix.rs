//! Concurrent crash matrix: deterministic multi-threaded fault schedules
//! over the lock-free durable hashset, with durable-linearizability
//! checking of every recovered crash image.
//!
//! Each cell races `NTHREADS` workers over one `PHashSet` in lock-free
//! mode under a seeded [`Scheduler`] interleaving: the token changes
//! hands only at instrumented persistence points, so a schedule is a
//! seed and every cell replays exactly. A [`FaultPlan::capture_all`]
//! records a faulted image at *every* global flush/fence event; each
//! image is recovered through a remapped reopen ([`PHashSet::recover`]),
//! invariant-checked, and then judged by the durable-linearizability
//! checker ([`dlin::check`]) against the recorded per-op history
//! (linearization stamps + invoke/durable event readings). The sweep
//! covers both 8-byte pointer representations ([`OffHolder`], [`Riv`]),
//! both fault policies (drop-unflushed, word tearing), and
//! `NSEEDS` schedule seeds derived from the matrix seed.
//!
//! Beyond the clean sweep the binary proves the checker has teeth: a
//! known-bad insert variant that skips its post-CAS destination flush
//! ([`PHashSet::insert_lf_stamped_mutant_skipflush`]) must be caught as
//! [`Violation::LostDurableOp`] — both deterministically in a
//! hand-built single-threaded cell and across the seeded sweep — and a
//! real mid-schedule crash ([`FaultPlan::crash_at_nth_event`]) must
//! stop every thread at the crash point and still check clean, with
//! in-flight ops recovered via [`dlin::take_thread_stamp`].
//!
//! Seed, replay tag, serial lock and scratch directories come from the
//! shared [`util::Matrix`] (`MATRIX_SEED`, `MATRIX_ARTIFACT_DIR`). A
//! violating image is saved with its `NVPIHIS1` history in the cell's
//! directory, which a failing cell keeps (triage offline with
//! `nvr_inspect history`).

use nvm_pi::nvmsim::sched::EventKind;
use nvm_pi::nvmsim::{dlin, shadow};
use nvm_pi::{
    CapturedCrash, CrashPointReached, FaultPlan, FaultPolicy, NodeArena, OffHolder, OpRecord,
    PHashSet, PtrRepr, Recorder, Region, Riv, ScheduleAborted, Scheduler, SetOp, Violation,
};
use std::collections::BTreeSet;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::Arc;
use util::policy_name;

mod util;

static M: util::Matrix = util::Matrix::new("concurrent_matrix", 0x5EED_C04C);

const REGION_SIZE: usize = 256 << 10;
const NBUCKETS: u64 = 8;
const NTHREADS: usize = 2;
const OPS_PER_THREAD: usize = 8;
const NSEEDS: u64 = 8;
/// Small colliding key space: chains form and threads contend per key.
const KEYSPACE: u64 = 12;
/// Keys durably present (and flushed) before the schedule starts.
const INITIAL: [u64; 4] = [2, 5, 8, 11];

/// Per-cell schedule seeds derive from the matrix seed.
fn cell_seed(i: u64) -> u64 {
    util::splitmix64(M.seed() ^ (0xCE11_0000 + i))
}

/// The op stream is a pure function of `(cell_seed, tid, op index)`.
fn op_of(kind: u64) -> SetOp {
    match kind % 3 {
        0 => SetOp::Insert,
        1 => SetOp::Remove,
        _ => SetOp::Contains,
    }
}

fn do_op<R: PtrRepr>(s: &PHashSet<R, 32>, kind: u64, key: u64, mutant: bool) -> (bool, u64) {
    match op_of(kind) {
        SetOp::Insert if mutant => s.insert_lf_stamped_mutant_skipflush(key).unwrap(),
        SetOp::Insert => s.insert_lf_stamped(key).unwrap(),
        SetOp::Remove => s.remove_lf_stamped(key),
        SetOp::Contains => s.contains_lf_stamped(key),
    }
}

/// A fresh file region whose set `hs` durably holds `initial`: synced,
/// shadowed, event and stamp counters reset.
fn fresh_set<R: PtrRepr>(cell: &util::Cell, initial: &[u64], ctx: &str) -> Region {
    let region = Region::create_file(cell.path("orig.nvr"), REGION_SIZE).unwrap();
    {
        let mut s: PHashSet<R, 32> =
            PHashSet::create_rooted(NodeArena::raw(region.clone()), NBUCKETS, "hs").unwrap();
        for &k in initial {
            assert!(s.insert(k).unwrap(), "[{ctx}] prepopulate {k}");
        }
    }
    region.sync().unwrap();
    region.enable_shadow().unwrap();
    shadow::reset_events_for(region.base());
    dlin::reset_stamps();
    region
}

/// One worker: `OPS_PER_THREAD` seeded ops, each recorded with its stamp
/// and its invoke/durable event readings. An op interrupted by a crash
/// is recorded through [`dlin::take_thread_stamp`] — a nonzero stamp is
/// its exact linearization point, zero means no volatile effect and the
/// record is dropped — and the unwind resumes.
fn work<R: PtrRepr>(region: &Region, rec: &Recorder, seed: u64, tid: usize, mutant: bool) {
    let s: PHashSet<R, 32> = PHashSet::attach(NodeArena::raw(region.clone()), "hs").unwrap();
    let mut x = seed ^ (tid as u64).wrapping_mul(0xA24B_AED4_963E_E407);
    for _ in 0..OPS_PER_THREAD {
        x = util::splitmix64(x);
        let (key, kind) = (x % KEYSPACE, x >> 33);
        dlin::take_thread_stamp(); // clear before the op
        let invoke_event = shadow::event_count_for(region.base());
        let outcome = catch_unwind(AssertUnwindSafe(|| do_op(&s, kind, key, mutant)));
        let (result, stamp, durable_event) = match &outcome {
            Ok((result, stamp)) => (
                Some(*result),
                *stamp,
                shadow::event_count_for(region.base()),
            ),
            Err(_) => (None, dlin::take_thread_stamp(), u64::MAX),
        };
        if stamp != 0 {
            rec.record(OpRecord {
                thread: tid as u32,
                op: op_of(kind),
                key,
                result,
                stamp,
                invoke_event,
                durable_event,
            });
        }
        if let Err(payload) = outcome {
            resume_unwind(payload);
        }
    }
}

/// Races `nthreads` [`work`]ers over `region` under `sched` and returns
/// how each one ended.
fn race<R: PtrRepr>(
    region: &Region,
    sched: &Scheduler,
    rec: &Arc<Recorder>,
    (seed, nthreads, mutant): (u64, usize, bool),
) -> Vec<std::thread::Result<()>> {
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..nthreads)
            .map(|tid| {
                let (sched, rec, region) = (sched.clone(), Arc::clone(rec), region.clone());
                scope.spawn(move || {
                    sched.run(tid, move || work::<R>(&region, &rec, seed, tid, mutant))
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join()).collect()
    })
}

/// Recovers `crash` through a remapped reopen — [`PHashSet::recover`],
/// invariants, `len()` against membership — and returns the sorted keys.
fn recovered_keys<R: PtrRepr>(
    cell: &util::Cell,
    crash: &CapturedCrash,
    prev: &mut usize,
    ctx: &str,
) -> Vec<u64> {
    let r2 = cell.recover(crash, prev, ctx);
    let mut s2: PHashSet<R, 32> = PHashSet::attach(NodeArena::raw(r2.clone()), "hs").unwrap();
    s2.recover();
    util::invariants(s2.check_invariants(), &format!("{ctx} recovered"));
    let mut keys = s2.keys();
    keys.sort_unstable();
    assert_eq!(
        s2.len() as usize,
        keys.len(),
        "[{ctx}] recovered len() must match recovered membership"
    );
    drop(s2);
    r2.crash();
    keys
}

/// Saves a violating crash image and the CRC-sealed history next to each
/// other in the cell's directory, for offline triage.
fn save_artifacts(cell: &util::Cell, name: &str, image: &[u8], history: &dlin::History, at: u64) {
    std::fs::write(cell.path(&format!("{name}.nvr")), image).unwrap();
    let sealed = dlin::encode_history(history, at);
    std::fs::write(cell.path(&format!("{name}.history")), sealed).unwrap();
}

/// Everything one cell produced, for determinism comparisons and
/// violation assertions by the caller.
struct CellOutcome {
    /// Base-normalized schedule trace: `(thread, event, is_flush)`.
    trace: Vec<(usize, u64, bool)>,
    history: dlin::History,
    final_keys: Vec<u64>,
    crash_points: usize,
    /// `(crash event, violations)` per image the checker rejected.
    violations: Vec<(u64, Vec<Violation>)>,
    /// The cell's directory: alive until the caller has judged the
    /// outcome, so a caller that panics over it keeps the artifacts.
    _cell: util::Cell,
}

/// Runs one cell: prepopulate, race `nthreads` workers under the seeded
/// schedule with `capture_all` armed, do exact element accounting on the
/// live survivor, then recover + invariant-check + dlin-check every
/// captured image. Structural failures panic (with the reproduction
/// tag); checker verdicts are returned for the caller to judge, because
/// the mutant sweep *wants* violations.
fn run_cell<R: PtrRepr>(
    label: &str,
    policy: FaultPolicy,
    sched_seed: u64,
    nthreads: usize,
    mutant: bool,
) -> CellOutcome {
    let name = format!("{label}-{}-{sched_seed:x}", policy_name(policy));
    let ctx = format!(
        "{label} {} seed {sched_seed:#x} {}",
        policy_name(policy),
        M.tag()
    );
    let cell = M.cell(&name);
    // Cells replay exactly: region placement follows the schedule seed,
    // not the process-global SystemTime default.
    nvm_pi::NvSpace::global().reseed_placement(sched_seed);
    let region = fresh_set::<R>(&cell, &INITIAL, &ctx);
    let plan = FaultPlan::capture_all(&region, policy);
    let sched = Scheduler::new(sched_seed, nthreads);
    let rec = Arc::new(Recorder::new());
    for ended in race::<R>(&region, &sched, &rec, (sched_seed, nthreads, mutant)) {
        ended.unwrap_or_else(|p| resume_unwind(p));
    }
    let crashes = plan.disarm();
    let history = rec.history(INITIAL.to_vec());
    let trace: Vec<(usize, u64, bool)> = sched
        .trace()
        .iter()
        .map(|e| (e.thread, e.event, matches!(e.kind, EventKind::Flush)))
        .collect();

    // Every schedule event must be an attributed worker event, in global
    // order, and capture_all must have imaged each one exactly once.
    assert!(
        crashes.len() >= 20,
        "[{ctx}] expected >= 20 crash points, got {}",
        crashes.len()
    );
    let traced: Vec<u64> = trace.iter().map(|&(_, e, _)| e).collect();
    assert_eq!(
        traced,
        (1..=crashes.len() as u64).collect::<Vec<u64>>(),
        "[{ctx}] schedule trace must attribute every region event in order"
    );

    // Exact element accounting on the live survivor: the serialized
    // scheduler makes stamp order the real volatile order, so replaying
    // the full history in stamp order must reproduce every recorded
    // result and land exactly on the surviving membership.
    let mut s: PHashSet<R, 32> = PHashSet::attach(NodeArena::raw(region.clone()), "hs").unwrap();
    let mut final_keys = s.keys();
    final_keys.sort_unstable();
    assert_eq!(
        s.len() as usize,
        final_keys.len(),
        "[{ctx}] live len() vs live membership"
    );
    let mut model: BTreeSet<u64> = INITIAL.iter().copied().collect();
    let mut ordered: Vec<&OpRecord> = history.ops.iter().collect();
    ordered.sort_by_key(|o| o.stamp);
    assert_eq!(
        ordered.len(),
        nthreads * OPS_PER_THREAD,
        "[{ctx}] every op must be recorded"
    );
    for o in ordered {
        let present = model.contains(&o.key);
        let expect = match o.op {
            SetOp::Insert => !present,
            SetOp::Remove | SetOp::Contains => present,
        };
        assert_eq!(
            o.result,
            Some(expect),
            "[{ctx}] stamp-order replay disagrees at stamp {} ({} {})",
            o.stamp,
            o.op.name(),
            o.key
        );
        match o.op {
            SetOp::Insert => {
                model.insert(o.key);
            }
            SetOp::Remove => {
                model.remove(&o.key);
            }
            SetOp::Contains => {}
        }
    }
    assert_eq!(
        final_keys,
        model.iter().copied().collect::<Vec<u64>>(),
        "[{ctx}] exact element accounting: surviving keys vs stamp-order replay"
    );
    let pruned = s.recover();
    util::invariants(s.check_invariants(), &format!("{ctx} live after recover"));
    let mut after = s.keys();
    after.sort_unstable();
    assert_eq!(
        after, final_keys,
        "[{ctx}] recover() pruned {pruned} marked nodes but must not change membership"
    );
    drop(s);
    let mut prev = region.base();
    region.crash();

    // Recover and judge every captured image.
    let mut violations = Vec::new();
    for c in &crashes {
        let ictx = format!("{ctx} event {}", c.event);
        let keys = recovered_keys::<R>(&cell, c, &mut prev, &ictx);
        let rep = dlin::check(&history, c.event, &keys);
        assert!(!rep.capped, "[{ictx}] subset search capped: inconclusive");
        if !rep.violations.is_empty() {
            if !mutant {
                let image = format!("{name}-event{}", c.event);
                save_artifacts(&cell, &image, &c.image, &history, c.event);
            }
            violations.push((c.event, rep.violations.clone()));
        }
    }
    let n = crashes.len();
    eprintln!(
        "[{label} {} seed {sched_seed:#x}] {n} crash points, {} ops, {} violations",
        policy_name(policy),
        history.ops.len(),
        violations.len()
    );
    CellOutcome {
        trace,
        history,
        final_keys,
        crash_points: n,
        violations,
        _cell: cell,
    }
}

/// The clean sweep for one representation: both policies × `NSEEDS`
/// schedule seeds, zero durable-linearizability violations anywhere.
fn sweep<R: PtrRepr>(label: &str) {
    let mut cells = 0;
    let mut images = 0;
    for policy in M.policies() {
        for i in 0..NSEEDS {
            let out = run_cell::<R>(label, policy, cell_seed(i), NTHREADS, false);
            assert!(
                out.violations.is_empty(),
                "[{label} {} seed {:#x} {}] durable-linearizability violations: {:?}",
                policy_name(policy),
                cell_seed(i),
                M.tag(),
                out.violations
            );
            cells += 1;
            images += out.crash_points;
        }
    }
    eprintln!("[{label}] sweep clean: {cells} cells, {images} recovered images");
}

#[test]
fn concurrent_matrix_hashset_offholder() {
    let _g = M.lock();
    sweep::<OffHolder>("hs-off");
}

#[test]
fn concurrent_matrix_hashset_riv() {
    let _g = M.lock();
    sweep::<Riv>("hs-riv");
}

/// A schedule is a seed: the same cell run twice must produce the
/// identical event attribution, history, membership, and image count —
/// and at least one other seed must produce a different interleaving.
#[test]
fn same_seed_replays_identically() {
    let _g = M.lock();
    let policy = M.policies()[1];
    let a = run_cell::<OffHolder>("replay-a", policy, cell_seed(0), 3, false);
    let b = run_cell::<OffHolder>("replay-b", policy, cell_seed(0), 3, false);
    let ctx = format!("replay seed {:#x} {}", cell_seed(0), M.tag());
    assert_eq!(a.trace, b.trace, "[{ctx}] schedule traces must replay");
    assert_eq!(a.history, b.history, "[{ctx}] histories must replay");
    assert_eq!(a.final_keys, b.final_keys, "[{ctx}] membership must replay");
    assert_eq!(
        a.crash_points, b.crash_points,
        "[{ctx}] image counts must replay"
    );
    assert!(
        a.violations.is_empty() && b.violations.is_empty(),
        "[{ctx}] clean cells"
    );
    assert!(
        (1..8).any(|i| {
            run_cell::<OffHolder>("replay-c", policy, cell_seed(i), 3, false).trace != a.trace
        }),
        "[{ctx}] every seed produced the identical interleaving"
    );
}

/// The flush-omitting insert mutant must be caught across the seeded
/// multi-threaded sweep: at least one image where a "durable" insert
/// whose destination flush was skipped lost its effect.
#[test]
fn mutant_skipflush_is_caught_by_the_sweep() {
    let _g = M.lock();
    let mut lost = 0;
    for i in 0..NSEEDS {
        let out = run_cell::<OffHolder>(
            "hs-mutant",
            FaultPolicy::DropUnflushed,
            cell_seed(i),
            NTHREADS,
            true,
        );
        lost += out
            .violations
            .iter()
            .flat_map(|(_, vs)| vs.iter())
            .filter(|v| matches!(v, Violation::LostDurableOp { .. }))
            .count();
    }
    assert!(
        lost >= 1,
        "[{}] the flush-omission mutant must produce at least one LostDurableOp \
         across {NSEEDS} seeds",
        M.tag()
    );
    eprintln!("mutant sweep: {lost} lost-durable-op detections");
}

/// Deterministic single-threaded mutant cell: a mutant insert followed
/// by one normal insert guarantees images (the second insert's pre-CAS
/// node persist) where the first op is recorded durable but its
/// unflushed destination slot is dropped — the checker must flag
/// exactly that key, and the control run with the disciplined insert
/// must stay clean on the same workload.
#[test]
fn mutant_skipflush_is_caught_deterministically() {
    let _g = M.lock();
    for mutant in [true, false] {
        let ctx = format!("mutant-det {mutant} {}", M.tag());
        let cell = M.cell(&format!("mutant-det-{mutant}"));
        let region = fresh_set::<OffHolder>(&cell, &[], &ctx);
        let plan = FaultPlan::capture_all(&region, FaultPolicy::DropUnflushed);
        let s: PHashSet<OffHolder, 32> =
            PHashSet::attach(NodeArena::raw(region.clone()), "hs").unwrap();
        let rec = Recorder::new();
        for (key, use_mutant) in [(100u64, mutant), (101u64, false)] {
            let invoke = shadow::event_count_for(region.base());
            let (ok, stamp) = if use_mutant {
                s.insert_lf_stamped_mutant_skipflush(key).unwrap()
            } else {
                s.insert_lf_stamped(key).unwrap()
            };
            assert!(ok, "[{ctx}] insert {key} into the empty set");
            rec.record(OpRecord {
                thread: 0,
                op: SetOp::Insert,
                key,
                result: Some(true),
                stamp,
                invoke_event: invoke,
                durable_event: shadow::event_count_for(region.base()),
            });
        }
        let crashes = plan.disarm();
        let history = rec.history(vec![]);
        drop(s);
        let mut prev = region.base();
        region.crash();

        let mut lost_100 = false;
        let mut any = false;
        for c in &crashes {
            let ictx = format!("{ctx} event {}", c.event);
            let keys = recovered_keys::<OffHolder>(&cell, c, &mut prev, &ictx);
            for v in &dlin::check(&history, c.event, &keys).violations {
                any = true;
                if matches!(v, Violation::LostDurableOp { key: 100, .. }) {
                    lost_100 = true;
                }
            }
        }
        if mutant {
            assert!(
                lost_100,
                "[{ctx}] the skipped destination flush must surface as a \
                 LostDurableOp on key 100"
            );
        } else {
            assert!(!any, "[{ctx}] the disciplined control must check clean");
        }
    }
}

/// An insert that finds its key logically deleted relies on that mark:
/// it must make the mark durable before it links, because the remover
/// may have set it and not flushed it yet. Seed-free: a removal is
/// stopped at its first persistence event (mark set, never flushed), the
/// insert of the same key then completes, and the drop image must not
/// hold the key twice. (`MATRIX_SEED=8` found it through the sweep: the
/// tear kept the new link and lost the mark.)
#[test]
fn insert_over_an_unflushed_removal_persists_the_mark_first() {
    let _g = M.lock();
    let ctx = format!("unflushed-mark {}", M.tag());
    let cell = M.cell("unflushed-mark");
    let region = fresh_set::<OffHolder>(&cell, &[5], &ctx);
    let s: PHashSet<OffHolder, 32> =
        PHashSet::attach(NodeArena::raw(region.clone()), "hs").unwrap();
    let plan = FaultPlan::abort_at_nth_event(&region, FaultPolicy::DropUnflushed, 1);
    let stopped = catch_unwind(AssertUnwindSafe(|| s.remove_lf_stamped(5)));
    assert!(
        stopped.is_err_and(|p| p.is::<CrashPointReached>()),
        "[{ctx}] the removal must stop at its mark flush"
    );
    drop(plan);
    let (inserted, _) = s.insert_lf_stamped(5).unwrap();
    assert!(inserted, "[{ctx}] the marked key counts as absent");
    let (image, report) =
        shadow::capture_crash_image(region.base(), FaultPolicy::DropUnflushed).unwrap();
    drop(s);
    let mut prev = region.base();
    region.crash();
    let crash = CapturedCrash {
        event: 0,
        image,
        report,
    };
    // `recovered_keys` runs the invariants: no key twice.
    assert_eq!(
        recovered_keys::<OffHolder>(&cell, &crash, &mut prev, &ctx),
        vec![5]
    );
}

/// A real mid-schedule crash: `abort_at_nth_event` panics the thread
/// issuing global event `n`, the scheduler broadcasts the power loss to
/// parked siblings, and the single captured image must still satisfy
/// durable linearizability — with in-flight ops recovered through
/// [`dlin::take_thread_stamp`] (see [`work`]).
#[test]
fn crash_mid_schedule_checks_clean() {
    let _g = M.lock();
    let seed = cell_seed(3);
    // Measure the cell's total event count with an identical completed
    // run, then replay the same schedule and crash in the middle.
    let total = run_cell::<OffHolder>(
        "crash-probe",
        FaultPolicy::DropUnflushed,
        seed,
        NTHREADS,
        false,
    )
    .crash_points as u64;
    let n = (total / 2).max(1);
    let ctx = format!("crash-mid seed {seed:#x} event {n} {}", M.tag());

    let cell = M.cell("crash-mid");
    let region = fresh_set::<OffHolder>(&cell, &INITIAL, &ctx);
    let mut plan = FaultPlan::abort_at_nth_event(&region, FaultPolicy::DropUnflushed, n);
    let sched = Scheduler::new(seed, NTHREADS);
    let rec = Arc::new(Recorder::new());
    let results = race::<OffHolder>(&region, &sched, &rec, (seed, NTHREADS, false));
    assert!(sched.crashed(), "[{ctx}] the schedule must have crashed");
    let mut crash_panics = 0;
    let mut aborted = 0;
    let mut finished = 0;
    for r in results {
        match r {
            Ok(()) => finished += 1,
            Err(p) if p.is::<CrashPointReached>() => crash_panics += 1,
            Err(p) if p.is::<ScheduleAborted>() => aborted += 1,
            Err(_) => panic!("[{ctx}] unexpected worker panic payload"),
        }
    }
    assert_eq!(
        crash_panics, 1,
        "[{ctx}] exactly one thread hits the crash point \
         (finished {finished}, aborted {aborted})"
    );
    assert_eq!(
        crash_panics + aborted + finished,
        NTHREADS,
        "[{ctx}] every worker accounted for"
    );
    let crash = plan
        .take_crash()
        .unwrap_or_else(|| panic!("[{ctx}] the armed plan must capture the crash"));
    assert_eq!(crash.event, n, "[{ctx}] captured at the requested event");
    drop(plan);
    let history = rec.history(INITIAL.to_vec());
    let mut prev = region.base();
    region.crash();

    let keys = recovered_keys::<OffHolder>(&cell, &crash, &mut prev, &ctx);
    let rep = dlin::check(&history, n, &keys);
    if !rep.ok() {
        save_artifacts(&cell, "crash-mid", &crash.image, &history, n);
        panic!(
            "[{ctx}] mid-schedule crash recovery violates durable \
             linearizability: {:?}",
            rep.violations
        );
    }
    eprintln!(
        "[crash-mid] crashed at event {n}/{total}, {} ops recorded",
        history.ops.len()
    );
}
