//! Crash-consistency matrix over the persistent adaptive radix tree.
//!
//! Same discipline as `crash_matrix.rs`, pointed at `pds::art`: each cell
//! runs a fixed insert/remove workload under pstore transactions with a
//! [`FaultPlan`] capturing a faulted image at *every* flush/fence event,
//! then re-opens every image, recovers, and checks (a) ART structural
//! invariants, (b) exact membership against the committed-prefix model,
//! and (c) — for the set-semantics cell — a durable-linearizability
//! verdict from the recorded dlin stamp history. Both representations the
//! acceptance matrix names (OffHolder and RIV) and both fault policies
//! (drop-unflushed, word tearing) are enumerated.
//!
//! The workloads are chosen to cross every structural edge the tree has:
//! root-leaf publish, leaf split (with terminator branch), in-place child
//! add, Node4 -> Node16 grow-and-republish, occurrence-count bump, inner
//! prefix trim (split of a compressed path), and removal.
//!
//! The tear seed comes from `ART_MATRIX_SEED` (decimal or 0x-hex). Set
//! `ART_MATRIX_ARTIFACT_DIR` to keep crash images for CI upload.

use nvm_pi::nvmsim::{dlin, shadow};
use nvm_pi::pstore::ObjectStore;
use nvm_pi::{FaultPlan, FaultPolicy, NodeArena, OffHolder, PArt, PtrRepr, Region, Riv};
use std::collections::BTreeSet;
use std::path::PathBuf;
use std::sync::Mutex;

mod util;

static SERIAL: Mutex<()> = Mutex::new(());

const REGION_SIZE: usize = 512 << 10;
const LOG_CAP: u64 = 32 << 10;

fn seed() -> u64 {
    util::env_seed("ART_MATRIX_SEED", 0x5EED_A127)
}

fn lock() -> std::sync::MutexGuard<'static, ()> {
    util::serial_guard(&SERIAL)
}

/// Workload scratch space: honors `ART_MATRIX_ARTIFACT_DIR` so failing CI
/// runs can upload the crash images that broke.
fn tdir(label: &str) -> (PathBuf, bool) {
    if let Ok(base) = std::env::var("ART_MATRIX_ARTIFACT_DIR") {
        let d = PathBuf::from(base).join(label);
        std::fs::create_dir_all(&d).unwrap();
        return (d, true);
    }
    let d = std::env::temp_dir().join(format!("art-matrix-{}-{label}", std::process::id()));
    std::fs::create_dir_all(&d).unwrap();
    (d, false)
}

#[derive(Clone, Copy, Debug)]
enum ArtOp {
    Insert,
    Remove,
}

/// Per-prefix expected state: occurrence count per key (indexed like
/// `keys`), with the distinct-key total appended.
fn model(keys: &[&str], ops: &[(ArtOp, &str)], prefix: usize) -> Vec<u64> {
    let mut counts = vec![0u64; keys.len()];
    for &(op, key) in &ops[..prefix] {
        let i = keys.iter().position(|&k| k == key).unwrap();
        match op {
            ArtOp::Insert => counts[i] += 1,
            ArtOp::Remove => counts[i] -= 1,
        }
    }
    let distinct = counts.iter().filter(|&&c| c > 0).count() as u64;
    counts.push(distinct);
    counts
}

/// Canonical contents of a (live or recovered) tree: panics with `ctx` on
/// any invariant or scan/count disagreement, returns the model vector.
fn contents<R: PtrRepr>(t: &PArt<R>, keys: &[&str], ctx: &str) -> Vec<u64> {
    t.check_invariants()
        .unwrap_or_else(|e| panic!("[{ctx}] invariants: {e}"));
    let mut out: Vec<u64> = keys.iter().map(|k| t.count(k)).collect();
    out.push(t.key_count());
    // Exact membership, twice over: the full scan must list precisely the
    // keys the point lookups report present.
    let scanned = t
        .prefix_scan("")
        .unwrap_or_else(|e| panic!("[{ctx}] scan: {e}"));
    let mut present: Vec<String> = keys
        .iter()
        .zip(&out)
        .filter(|(_, &c)| c > 0)
        .map(|(k, _)| k.to_string())
        .collect();
    present.sort_unstable();
    assert_eq!(scanned, present, "[{ctx}] prefix_scan vs point lookups");
    out
}

/// One matrix cell. Mirrors `crash_matrix::run_cell`, with the ART model
/// computed from the op list and, when `with_history` (set-like cells
/// only: every key reaches occurrence count at most 1), a dlin
/// durable-linearizability check of every recovered image against the
/// recorded stamp history.
fn run_art_cell<R: PtrRepr>(
    label: &str,
    policy: FaultPolicy,
    keys: &[&str],
    ops: &[(ArtOp, &str)],
    with_history: bool,
) -> usize {
    let n_ops = ops.len();
    let (dir, keep) = tdir(label);
    let orig = dir.join("orig.nvr");
    nvm_pi::NvSpace::global().reseed_placement(seed());
    let region = Region::create_file(&orig, REGION_SIZE).unwrap();
    let store = ObjectStore::format_with_log(&region, LOG_CAP).unwrap();
    let mut t: PArt<R> = PArt::create_rooted(NodeArena::transactional(store.clone()), "s").unwrap();
    region.sync().unwrap();
    region.enable_shadow().unwrap();
    shadow::reset_events_for(region.base());
    let plan = FaultPlan::capture_all(&region, policy);
    let mut commit_events = Vec::with_capacity(n_ops);
    let mut history = dlin::History::default();
    for (k, &(op, key)) in ops.iter().enumerate() {
        let invoke_event = shadow::event_count_for(region.base());
        let result = match op {
            ArtOp::Insert => {
                let c = t.insert_tx(&store, key).unwrap();
                c == 1 // set semantics: "was absent"
            }
            ArtOp::Remove => t.remove_tx(&store, key).unwrap(),
        };
        let stamp = dlin::next_stamp();
        let durable_event = shadow::event_count_for(region.base());
        commit_events.push(durable_event);
        history.ops.push(dlin::OpRecord {
            thread: 0,
            op: match op {
                ArtOp::Insert => dlin::SetOp::Insert,
                ArtOp::Remove => dlin::SetOp::Remove,
            },
            key: keys.iter().position(|&x| x == key).unwrap() as u64,
            result: Some(result),
            stamp,
            invoke_event,
            durable_event,
        });
        let _ = k;
    }
    let crashes = plan.disarm();
    let tag = util::seed_tag("ART_MATRIX_SEED", seed());
    let live_ctx = format!("{label} {policy:?} {tag} live");
    assert_eq!(
        contents(&t, keys, &live_ctx),
        model(keys, ops, n_ops),
        "[{live_ctx}] final uncrashed contents"
    );
    assert!(
        history.ops.windows(2).all(|w| w[0].stamp < w[1].stamp),
        "[{live_ctx}] linearization stamps must be strictly increasing"
    );
    drop(t);
    drop(store);
    region.crash();

    assert!(
        commit_events.windows(2).all(|w| w[0] < w[1]),
        "[{label} {policy:?} {tag}] commit events must be strictly increasing: {commit_events:?}"
    );
    assert!(
        crashes.len() >= 20,
        "[{label} {policy:?} {tag}] expected >= 20 crash points, got {}",
        crashes.len()
    );
    let distinct: BTreeSet<u64> = crashes.iter().map(|c| c.event).collect();
    assert_eq!(
        distinct.len(),
        crashes.len(),
        "[{label} {policy:?} {tag}] crash events must be distinct"
    );

    let img = dir.join("crash.nvr");
    let mut prefixes: BTreeSet<usize> = BTreeSet::new();
    for c in &crashes {
        let ctx = format!("{label} {policy:?} {tag} event {}", c.event);
        std::fs::write(&img, &c.image).unwrap();
        let r2 = Region::open_file(&img).unwrap();
        assert!(r2.was_dirty(), "[{ctx}] crash image must reopen dirty");
        let stamp = r2
            .fault_stamp()
            .unwrap_or_else(|| panic!("[{ctx}] crash image must carry a fault stamp"));
        assert_eq!(stamp.event, c.event, "[{ctx}] stamp event");
        assert_eq!(stamp.seed, c.report.seed, "[{ctx}] stamp seed");
        let store2 = ObjectStore::attach(&r2).unwrap();
        let t2: PArt<R> = PArt::attach(NodeArena::transactional(store2.clone()), "s").unwrap();
        let committed = commit_events.iter().filter(|&&e| e < c.event).count();
        let got = contents(&t2, keys, &ctx);
        let p = (committed..=n_ops)
            .find(|&p| model(keys, ops, p) == got)
            .unwrap_or_else(|| {
                panic!(
                    "[{ctx}] recovered contents {got:?} are not a committed-prefix state at \
                     or after prefix {committed} (commit events {commit_events:?})"
                )
            });
        if matches!(policy, FaultPolicy::DropUnflushed) {
            assert_eq!(
                p, committed,
                "[{ctx}] without tearing, recovery must land exactly on the conservative prefix"
            );
        }
        if with_history {
            let recovered: Vec<u64> = (0..keys.len() as u64)
                .filter(|&i| got[i as usize] > 0)
                .collect();
            let rep = dlin::check(&history, c.event, &recovered);
            assert!(
                rep.ok(),
                "[{ctx}] durable-linearizability: {:?}",
                rep.violations
            );
        }
        prefixes.insert(p);
        drop(t2);
        drop(store2);
        r2.crash();
    }
    if matches!(policy, FaultPolicy::DropUnflushed) {
        assert_eq!(
            prefixes,
            (0..n_ops).collect::<BTreeSet<usize>>(),
            "[{label} {policy:?} {tag}] all committed prefixes must appear among recovered states"
        );
    } else {
        assert!(
            prefixes.contains(&0) && prefixes.iter().all(|&p| p <= n_ops),
            "[{label} {policy:?} {tag}] torn prefixes out of range: {prefixes:?}"
        );
    }
    let n = crashes.len();
    eprintln!("[{label} {policy:?}] enumerated {n} crash points, prefixes {prefixes:?}");
    if !keep {
        std::fs::remove_dir_all(&dir).ok();
    }
    n
}

fn policies() -> [FaultPolicy; 2] {
    [
        FaultPolicy::DropUnflushed,
        FaultPolicy::TearWords { seed: seed() },
    ]
}

/// Set-semantics workload crossing leaf publish, leaf split, two in-place
/// child adds, the Node4 -> Node16 grow-and-republish, and a removal.
/// Every key reaches count <= 1, so the dlin history check applies.
const ADAPTIVE_KEYS: &[&str] = &["an", "ar", "ap", "ad", "ax"];
const ADAPTIVE_OPS: &[(ArtOp, &str)] = &[
    (ArtOp::Insert, "an"),
    (ArtOp::Insert, "ar"),
    (ArtOp::Insert, "ap"),
    (ArtOp::Insert, "ad"),
    (ArtOp::Insert, "ax"),
    (ArtOp::Remove, "an"),
];

/// Path-compression workload: leaf split with a terminator branch
/// ("roman" vs "romans"), an occurrence-count bump and partial removal,
/// and a compressed-prefix split that trims an inner node in place
/// ("rubicon" against the "roman" spine).
const DEEP_KEYS: &[&str] = &["roman", "romans", "rubicon"];
const DEEP_OPS: &[(ArtOp, &str)] = &[
    (ArtOp::Insert, "roman"),
    (ArtOp::Insert, "romans"),
    (ArtOp::Insert, "roman"),
    (ArtOp::Remove, "roman"),
    (ArtOp::Insert, "rubicon"),
    (ArtOp::Remove, "romans"),
];

#[test]
fn art_matrix_adaptive_offholder() {
    let _g = lock();
    for policy in policies() {
        run_art_cell::<OffHolder>(
            "art-adaptive-off",
            policy,
            ADAPTIVE_KEYS,
            ADAPTIVE_OPS,
            true,
        );
    }
}

#[test]
fn art_matrix_adaptive_riv() {
    let _g = lock();
    for policy in policies() {
        run_art_cell::<Riv>(
            "art-adaptive-riv",
            policy,
            ADAPTIVE_KEYS,
            ADAPTIVE_OPS,
            true,
        );
    }
}

#[test]
fn art_matrix_deep_offholder() {
    let _g = lock();
    for policy in policies() {
        run_art_cell::<OffHolder>("art-deep-off", policy, DEEP_KEYS, DEEP_OPS, false);
    }
}

#[test]
fn art_matrix_deep_riv() {
    let _g = lock();
    for policy in policies() {
        run_art_cell::<Riv>("art-deep-riv", policy, DEEP_KEYS, DEEP_OPS, false);
    }
}

/// The grow path under crash enumeration for the larger node kinds:
/// Node16 -> Node48 needs 17 distinct branch bytes. Uses 2-byte keys
/// sharing one first byte so a single inner node absorbs every insert,
/// then enumerates crash points around the 16 -> 17 growth alone (the
/// earlier inserts run unenumerated to keep the cell fast).
#[test]
fn art_matrix_node48_growth_edge() {
    let _g = lock();
    let (dir, keep) = tdir("art-grow48");
    let orig = dir.join("orig.nvr");
    for policy in policies() {
        nvm_pi::NvSpace::global().reseed_placement(seed());
        let region = Region::create_file(&orig, REGION_SIZE).unwrap();
        let store = ObjectStore::format_with_log(&region, LOG_CAP).unwrap();
        let mut t: PArt<Riv> =
            PArt::create_rooted(NodeArena::transactional(store.clone()), "s").unwrap();
        let keys: Vec<String> = (0..17)
            .map(|i| format!("k{}", (b'a' + i) as char))
            .collect();
        for k in &keys[..16] {
            t.insert_tx(&store, k).unwrap();
        }
        assert_eq!(t.kind_counts()[1], 1, "16 two-byte keys fill one Node16");
        region.sync().unwrap();
        region.enable_shadow().unwrap();
        shadow::reset_events_for(region.base());
        let plan = FaultPlan::capture_all(&region, policy);
        t.insert_tx(&store, &keys[16]).unwrap();
        let commit_event = shadow::event_count_for(region.base());
        let crashes = plan.disarm();
        assert_eq!(t.kind_counts()[2], 1, "17th branch byte grows to Node48");
        drop(t);
        drop(store);
        region.crash();
        assert!(!crashes.is_empty());
        let img = dir.join("crash.nvr");
        let tag = util::seed_tag("ART_MATRIX_SEED", seed());
        for c in &crashes {
            let ctx = format!("grow48 {policy:?} {tag} event {}", c.event);
            std::fs::write(&img, &c.image).unwrap();
            let r2 = Region::open_file(&img).unwrap();
            let store2 = ObjectStore::attach(&r2).unwrap();
            let t2: PArt<Riv> =
                PArt::attach(NodeArena::transactional(store2.clone()), "s").unwrap();
            t2.check_invariants()
                .unwrap_or_else(|e| panic!("[{ctx}] invariants: {e}"));
            let got = t2.key_count();
            // Tearing may leak the commit record ahead of its fence, so
            // only the drop-unflushed arm pins the exact boundary.
            if matches!(policy, FaultPolicy::DropUnflushed) {
                let expect = if c.event > commit_event { 17 } else { 16 };
                assert_eq!(got, expect as u64, "[{ctx}]");
            } else {
                assert!(got == 16 || got == 17, "[{ctx}] got {got}");
            }
            for (i, k) in keys.iter().enumerate() {
                let want = i < 16 || got == 17;
                assert_eq!(t2.contains(k), want, "[{ctx}] key {k}");
            }
            drop(t2);
            drop(store2);
            r2.crash();
        }
    }
    if !keep {
        std::fs::remove_dir_all(&dir).ok();
    }
}
