//! Server chaos matrix: the multi-tenant region server under injected
//! shard stalls, tenant crash images recovered in place, and live
//! eviction — the `nvserver` acceptance suite.
//!
//! Invariants asserted across every cell:
//!
//! 1. **No request is silently dropped** — every submission returns a
//!    terminal status (`Ok` / `Overloaded` / `DeadlineExceeded` /
//!    `Failed` / `Shutdown`).
//! 2. **Acked commits survive** — every write acked `Ok` carries a
//!    linearization stamp, and the per-tenant stamp-ordered history
//!    must explain the keys present after crash and remapped reopen
//!    (`nvmsim::dlin` discipline, crash at the end of time).
//! 3. **Eviction and crash recovery never violate invariants** —
//!    per-tenant `invariant_failures` stays 0 and every reopen lands at
//!    a different base than the mapping before it (position
//!    independence under fire).
//!
//! 4. **A tenant that fails its invariants is not served** — it answers
//!    `Failed`, is counted, and does not take its shard down with it.
//!
//! Seed, replay tag, serial lock and scratch directories come from the
//! shared [`util::Matrix`] (`MATRIX_SEED`, `MATRIX_ARTIFACT_DIR`): a
//! failing cell keeps its tenant images (`nvr_inspect server <dir>`
//! triages a whole cell at once).

use nvm_pi::nvmsim::dlin;
use nvm_pi::nvmsim::metrics::{self, Counter};
use nvm_pi::nvserver::{index_word, key_of_word, BatchOp, Response, Status, TenantState};
use nvm_pi::pstore::ObjectStore;
use nvm_pi::{
    History, NodeArena, OpRecord, PArt, Priority, Region, ReprKind, Riv, Server, ServerConfig,
    ServerFaultPlan, ServerReport, SetOp, TenantSpec,
};
use nvmsim::shadow::FaultPolicy;
use std::sync::{Arc, Mutex};
use std::time::Duration;

mod util;

static M: util::Matrix = util::Matrix::new("server_matrix", 0x5EED_5E21);

/// A config tuned for tests: a generous deadline.
fn test_config(cell: &util::Cell) -> ServerConfig {
    let mut cfg = ServerConfig::new(cell.dir().to_path_buf());
    cfg.default_deadline = Duration::from_secs(30);
    cfg
}

/// One tenant of each pointer representation: ids 0, 1, 2.
fn one_of_each_repr() -> Vec<TenantSpec> {
    vec![
        TenantSpec::new(0, ReprKind::OffHolder),
        TenantSpec::new(1, ReprKind::Riv),
        TenantSpec::new(2, ReprKind::FatCached),
    ]
}

fn sorted(keys: &[u64]) -> Vec<u64> {
    let mut keys = keys.to_vec();
    keys.sort_unstable();
    keys
}

/// Records the mutation `r` acked `Ok` for the dlin check.
fn acked(op: SetOp, key: u64, r: &Response) -> OpRecord {
    OpRecord {
        thread: 0,
        op,
        key,
        result: Some(r.found.expect("an acked write reports whether it applied")),
        stamp: r.stamp,
        // Acked before the (end-of-time) crash event: Required.
        invoke_event: 0,
        durable_event: 0,
    }
}

/// Runs the dlin check for one tenant: the stamp-ordered acked history
/// must explain the final keys.
fn check_tenant_history(label: &str, ops: Vec<OpRecord>, recovered: &[u64]) {
    let h = History {
        initial: Vec::new(),
        ops,
    };
    let report = dlin::check(&h, u64::MAX, recovered);
    assert!(
        report.ok(),
        "[{label} {}] acked history not explained by recovered keys: {:?}",
        M.tag(),
        report.violations
    );
}

fn assert_consecutive_bases_differ(label: &str, report: &ServerReport, tenant: u32) {
    let bases = &report.tenant(tenant).unwrap().bases;
    for w in bases.windows(2) {
        assert_ne!(
            w[0],
            w[1],
            "[{label} {}] tenant {tenant} reopened at the same base {:#x}",
            M.tag(),
            w[0]
        );
    }
}

// -- basic serving ------------------------------------------------------------

#[test]
fn serves_all_reprs_through_the_codec() {
    let _g = M.lock();
    let cell = M.cell("serve-basic");
    let plan = ServerFaultPlan::none();
    let server = Server::start(test_config(&cell), one_of_each_repr(), plan).unwrap();
    let client = server.client();
    for t in 0..3u32 {
        for k in 0..8u64 {
            let r = client.put(t, k);
            assert_eq!(r.status, Status::Ok, "put {t}/{k}: {r:?}");
            assert_eq!(r.found, Some(true), "fresh insert applied");
            assert_ne!(r.stamp, 0, "committed write carries a stamp");
        }
        let r = client.delete(t, 0);
        assert_eq!((r.status, r.found), (Status::Ok, Some(true)), "{r:?}");
        assert_eq!(client.get(t, 0).found, Some(false));
        assert_eq!(client.get(t, 1).found, Some(true));
        // Batch: one frame, three transactions, three stamps.
        let ops = [true, true, false].map(|put| BatchOp { put, key: 100 });
        let r = client.batch(t, ops.to_vec());
        assert_eq!(r.status, Status::Ok, "{r:?}");
        let applied: Vec<bool> = r.batch.iter().map(|b| b.applied).collect();
        assert_eq!(applied, vec![true, false, true]);
        assert!(r.batch.windows(2).all(|w| w[0].stamp < w[1].stamp));
    }
    // Unknown tenants are a typed rejection, not a hang.
    assert_eq!(client.get(99, 0).status, Status::NoSuchTenant);
    let report = server.shutdown();
    for t in 0..3u32 {
        let tr = report.tenant(t).unwrap();
        assert_eq!(
            sorted(&tr.keys),
            vec![1, 2, 3, 4, 5, 6, 7],
            "tenant {t} final keys"
        );
        assert_eq!(tr.snapshot.invariant_failures, 0);
    }
}

#[test]
fn prefix_queries_survive_eviction_and_remap() {
    let _g = M.lock();
    let cell = M.cell("prefix-query");
    let plan = ServerFaultPlan::none();
    let server = Server::start(test_config(&cell), one_of_each_repr(), plan).unwrap();
    let client = server.client();
    // Keys 0..26 share the 13-char all-'a' head of their index words;
    // 30 and 700 branch off earlier, so they match "" but not the head.
    let head: String = index_word(0)[..13].to_string();
    for t in 0..3u32 {
        for k in [0u64, 3, 7, 30, 700] {
            let r = client.put(t, k);
            assert_eq!((r.status, r.found), (Status::Ok, Some(true)), "{r:?}");
        }
        let r = client.delete(t, 3);
        assert_eq!((r.status, r.found), (Status::Ok, Some(true)), "{r:?}");

        let r = client.prefix(t, &head);
        assert_eq!((r.status, r.found), (Status::Ok, Some(true)), "{r:?}");
        assert_eq!(
            r.detail,
            format!("{}\n{}", index_word(0), index_word(7)),
            "tenant {t}"
        );
        assert_eq!(client.prefix(t, "").detail.lines().count(), 4);
        let none = client.prefix(t, &index_word(3));
        assert_eq!((none.status, none.found), (Status::Ok, Some(false)));
        assert!(none.detail.is_empty(), "{none:?}");

        // Evict, then query straight through the remapped reopen.
        assert_eq!(client.evict(t).status, Status::Ok);
        let again = client.prefix(t, &head);
        assert_eq!(again.status, Status::Ok, "{again:?}");
        assert_eq!(again.detail, r.detail, "tenant {t} lost matches over remap");

        // The index keeps absorbing writes after the remap.
        let r = client.put(t, 1);
        assert_eq!((r.status, r.found), (Status::Ok, Some(true)), "{r:?}");
        let grown = client.prefix(t, &head);
        assert_eq!(grown.detail.lines().count(), 3, "tenant {t}");
    }
    // Responses cap at 16 matches and summarize the tail.
    for k in 0..26u64 {
        client.put(0, k);
    }
    let capped = client.prefix(0, &head);
    assert_eq!(capped.status, Status::Ok);
    let lines: Vec<&str> = capped.detail.lines().collect();
    assert_eq!(lines.len(), 17, "{capped:?}");
    assert!(lines[16].contains("more"), "{capped:?}");

    let report = server.shutdown();
    for t in 0..3u32 {
        let tr = report.tenant(t).unwrap();
        assert_eq!(tr.snapshot.invariant_failures, 0, "tenant {t}");
        assert!(tr.snapshot.remaps >= 1, "tenant {t} never remapped");
        assert_consecutive_bases_differ("prefix-query", &report, t);
    }
}

// -- admission control and deadlines ------------------------------------------

#[test]
fn admission_sheds_lowest_priority_past_high_water() {
    let _g = M.lock();
    let cell = M.cell("admission");
    let mut cfg = test_config(&cell);
    cfg.shards = 1;
    cfg.queue_depth = 2;
    let plan = ServerFaultPlan::none();
    // Stall the shard on its first dequeue so the queue backs up
    // deterministically behind it.
    plan.stall_shard(0, 1, Duration::from_millis(800));
    let server = Server::start(cfg, vec![TenantSpec::new(0, ReprKind::OffHolder)], plan).unwrap();

    let first = {
        let c = server.client();
        std::thread::spawn(move || c.put(0, 1))
    };
    // Wait for the first caller to be inside the stall, serving its own
    // request with the shard lock held.
    std::thread::sleep(Duration::from_millis(200));

    // Four low-priority requests: two fit the depth-2 queue, two are
    // rejected at the gate.
    let mut lows = Vec::new();
    for k in 0..4u64 {
        let c = server.client().with_priority(Priority::Low);
        lows.push(std::thread::spawn(move || c.put(0, 10 + k)));
    }
    std::thread::sleep(Duration::from_millis(200));
    // A high-priority arrival past the high-water mark sheds a queued
    // low instead of being rejected.
    let high = {
        let c = server.client().with_priority(Priority::High);
        std::thread::spawn(move || c.put(0, 99))
    };

    assert_eq!(first.join().unwrap().status, Status::Ok);
    assert_eq!(high.join().unwrap().status, Status::Ok, "high never shed");
    let low_statuses: Vec<Status> = lows.into_iter().map(|t| t.join().unwrap().status).collect();
    let overloaded = low_statuses
        .iter()
        .filter(|s| **s == Status::Overloaded)
        .count();
    let ok = low_statuses.iter().filter(|s| **s == Status::Ok).count();
    assert_eq!(
        (overloaded, ok),
        (3, 1),
        "2 gate rejections + 1 shed for the high arrival; statuses {low_statuses:?}"
    );
    let report = server.shutdown();
    let snap = report.tenant(0).unwrap().snapshot;
    assert_eq!(snap.overloaded, 3, "{snap:?}");
}

#[test]
fn deadlines_expire_behind_a_stalled_shard() {
    let _g = M.lock();
    let cell = M.cell("deadline");
    let mut cfg = test_config(&cell);
    cfg.shards = 1;
    let plan = ServerFaultPlan::none();
    plan.stall_shard(0, 1, Duration::from_millis(500));
    let server = Server::start(cfg, vec![TenantSpec::new(0, ReprKind::Riv)], plan).unwrap();
    let warm = {
        let c = server.client();
        std::thread::spawn(move || c.put(0, 1))
    };
    std::thread::sleep(Duration::from_millis(100));
    // Queued behind the stall with a 100 ms deadline: must expire to a
    // terminal response, not wait out the stall.
    let short = server.client().with_deadline(Duration::from_millis(100));
    let r = short.put(0, 2);
    assert_eq!(r.status, Status::DeadlineExceeded, "{r:?}");
    assert_eq!(warm.join().unwrap().status, Status::Ok);
    // The expired write must not have been applied.
    let c = server.client();
    assert_eq!(c.get(0, 2).found, Some(false));
    let report = server.shutdown();
    assert_eq!(report.tenant(0).unwrap().snapshot.deadline_exceeded, 1);
}

// -- crash + recover in place -------------------------------------------------

#[test]
fn acked_commits_survive_crash_and_remapped_reopen() {
    let _g = M.lock();
    let cell = M.cell("crash-reopen");
    let s = M.seed();
    let plan = ServerFaultPlan::none();
    // Two crashes mid-run: a torn-word image and a dropped-line image.
    plan.crash_tenant(0, 12, FaultPolicy::TearWords { seed: s });
    plan.crash_tenant(0, 24, FaultPolicy::DropUnflushed);
    let server = Server::start(
        test_config(&cell),
        vec![TenantSpec::new(0, ReprKind::Riv).crashable()],
        plan,
    )
    .unwrap();
    let client = server.client();
    let mut history = Vec::new();
    let mut reruns = Vec::new();
    let before = metrics::snapshot();
    let mut rng = s;
    for n in 1..=40 {
        let v = util::splitmix64(rng);
        rng = v;
        let key = v % 16;
        let put = v & 0x10000 != 0;
        let r = if put {
            client.put(0, key)
        } else {
            client.delete(0, key)
        };
        assert_eq!(
            r.status,
            Status::Ok,
            "[{}] every write acks: {r:?}",
            M.tag()
        );
        if r.attempts != 1 {
            reruns.push((n, r.attempts));
        }
        let op = if put { SetOp::Insert } else { SetOp::Remove };
        history.push(acked(op, key, &r));
    }
    // A crashed write runs once more and nothing else runs twice. The
    // first crash's write takes ordinals 12 and 13, so ordinal 24 is the
    // 23rd write.
    assert_eq!(reruns, [(12, 2), (23, 2)], "[{}] writes run twice", M.tag());
    let reran = metrics::snapshot().delta(&before).get(Counter::SrvRetries);
    assert_eq!(
        reran,
        2,
        "[{}] srv_retries counts the crash re-runs",
        M.tag()
    );
    let report = server.shutdown();
    let tr = report.tenant(0).unwrap();
    assert_eq!(tr.snapshot.crashes, 2, "both crashes fired");
    assert_eq!(tr.state, TenantState::Recovered, "came back from a crash");
    assert!(
        tr.bases.len() >= 3,
        "two crash-reopens remap: bases {:?}",
        tr.bases
    );
    assert_consecutive_bases_differ("crash-reopen", &report, 0);
    assert_eq!(tr.snapshot.invariant_failures, 0);
    check_tenant_history("crash-reopen", history, &tr.keys);

    // The closed image is independently attachable and agrees with the
    // report (offline audit of the same bytes a failure would upload).
    let region = Region::open_file(cell.path("tenant-0.nvr")).unwrap();
    let store = ObjectStore::attach(&region).unwrap();
    let set: PArt<Riv> = PArt::attach(NodeArena::transactional(store.clone()), "srv.idx").unwrap();
    let on_disk: Vec<u64> = set
        .prefix_scan("")
        .unwrap()
        .iter()
        .map(|w| key_of_word(w).unwrap_or_else(|| panic!("{w:?} is no key's word")))
        .collect();
    assert_eq!(
        sorted(&on_disk),
        sorted(&tr.keys),
        "on-disk set == reported set"
    );
    set.check_invariants().unwrap();
    drop(set);
    drop(store);
    region.close().unwrap();
}

// -- eviction-remap under concurrent traffic (PR 4 regression net) -----------

#[test]
fn eviction_remap_under_concurrent_traffic() {
    let _g = M.lock();
    let cell = M.cell("evict-live");
    let mut cfg = test_config(&cell);
    cfg.shards = 1;
    // FatCached is the representation with the PR 4 stale-base bug
    // class: its lookup cache must rebind on every remapped reopen.
    let server = Server::start(
        cfg,
        vec![TenantSpec::new(0, ReprKind::FatCached)],
        ServerFaultPlan::none(),
    )
    .unwrap();
    const THREADS: u64 = 4;
    const KEYS: u64 = 40;
    let workers: Vec<_> = (0..THREADS)
        .map(|t| {
            let c = server.client();
            std::thread::spawn(move || {
                for j in 0..KEYS {
                    // Pace the traffic so the evictor genuinely
                    // interleaves with it.
                    if j % 8 == 0 {
                        std::thread::sleep(Duration::from_millis(2));
                    }
                    let key = t * 1000 + j;
                    let p = c.put(0, key);
                    assert_eq!(
                        (p.status, p.found),
                        (Status::Ok, Some(true)),
                        "put {key}: {p:?}"
                    );
                    // Read-your-write must hold across any eviction and
                    // remapped reopen between the two requests.
                    let g = c.get(0, key);
                    assert_eq!(
                        (g.status, g.found),
                        (Status::Ok, Some(true)),
                        "get {key}: {g:?}"
                    );
                }
            })
        })
        .collect();
    // Meanwhile: keep evicting the tenant out from under the traffic.
    let evictor = {
        let c = server.client();
        std::thread::spawn(move || {
            let mut forced = 0;
            for _ in 0..8 {
                std::thread::sleep(Duration::from_millis(4));
                let r = c.evict(0);
                assert_eq!(r.status, Status::Ok, "evict: {r:?}");
                forced += 1;
            }
            forced
        })
    };
    for w in workers {
        w.join().unwrap();
    }
    let forced = evictor.join().unwrap();
    let report = server.shutdown();
    let tr = report.tenant(0).unwrap();
    assert_eq!(tr.snapshot.invariant_failures, 0);
    assert_eq!(forced, 8);
    assert!(
        tr.snapshot.evictions >= 2,
        "mid-traffic evictions recorded: {:?}",
        tr.snapshot
    );
    assert!(
        tr.snapshot.remaps >= 1 && tr.bases.len() >= 2,
        "[{}] traffic must have reopened the tenant remapped: {:?} bases {:?}",
        M.tag(),
        tr.snapshot,
        tr.bases
    );
    assert_consecutive_bases_differ("evict-live", &report, 0);
    assert_eq!(
        tr.keys.len() as u64,
        THREADS * KEYS,
        "every acked put present at close"
    );
}

// -- LRU pressure -------------------------------------------------------------

#[test]
fn lru_pressure_evicts_and_remaps_cold_tenants() {
    let _g = M.lock();
    let cell = M.cell("lru");
    let mut cfg = test_config(&cell);
    cfg.shards = 1;
    cfg.max_open_per_shard = 2;
    let tenants = (0..4u32)
        .map(|id| TenantSpec::new(id, ReprKind::OffHolder))
        .collect();
    let server = Server::start(cfg, tenants, ServerFaultPlan::none()).unwrap();
    let client = server.client();
    // Round-robin over 4 tenants with a ceiling of 2: every revisit
    // reopens a previously evicted tenant at a new base.
    for round in 0..3u64 {
        for t in 0..4u32 {
            let r = client.put(t, round);
            assert_eq!(r.status, Status::Ok, "t{t} r{round}: {r:?}");
        }
    }
    for t in 0..4u32 {
        for round in 0..3u64 {
            assert_eq!(client.get(t, round).found, Some(true), "t{t} k{round}");
        }
    }
    let report = server.shutdown();
    let total_evictions: u64 = report.tenants.iter().map(|t| t.snapshot.evictions).sum();
    let total_remaps: u64 = report.tenants.iter().map(|t| t.snapshot.remaps).sum();
    assert!(
        total_evictions >= 4,
        "LRU pressure evicted: {total_evictions}"
    );
    assert!(total_remaps >= 4, "evicted tenants reopened remapped");
    for t in &report.tenants {
        assert_eq!(t.snapshot.invariant_failures, 0);
        assert_eq!(sorted(&t.keys), vec![0, 1, 2], "tenant {} keys", t.id);
    }
}

// -- a tenant that fails its invariants ---------------------------------------

/// Out-of-band damage no checksum covers — the ART header's `keys` word
/// disagreeing with its leaves — is caught by the invariant check at
/// reopen. The tenant must then not stay open: requests answer `Failed`,
/// the failure is counted, a neighbour on the same shard keeps serving,
/// and shutdown reports the tenant without walking its set.
#[test]
fn tenant_failing_invariants_is_refused_not_served() {
    let _g = M.lock();
    // Two damages to the tenant's ART header after an evict: its key
    // count, and its root link rotted far outside every region.
    for (label, rot_root) in [("bad-tenant", false), ("bad-tenant-root", true)] {
        let cell = M.cell(label);
        let mut cfg = test_config(&cell);
        cfg.shards = 1;
        let tenants = vec![
            TenantSpec::new(0, ReprKind::OffHolder),
            TenantSpec::new(1, ReprKind::Riv),
        ];
        let server = Server::start(cfg, tenants, ServerFaultPlan::none()).unwrap();
        let client = server.client();
        for t in 0..2u32 {
            for k in 0..4u64 {
                assert_eq!(client.put(t, k).status, Status::Ok);
            }
        }
        assert_eq!(client.evict(0).status, Status::Ok);
        {
            let region = Region::open_file(cell.path("tenant-0.nvr")).unwrap();
            let header = region.root("srv.idx").expect("the tenant's key set root") as *mut u64;
            // SAFETY: the root is the mapped ART header: the 8-byte
            // off-holder root slot, then `keys`.
            unsafe {
                if rot_root {
                    *header = 1 << 40;
                } else {
                    *header.add(1) += 1;
                }
            }
            region.close().unwrap();
        }
        let r = client.get(0, 1);
        assert_eq!(
            r.status,
            Status::Failed,
            "[{} {label}] a tenant that failed its invariants must not be served: {r:?}",
            M.tag()
        );
        assert_eq!(client.put(0, 9).status, Status::Failed);
        let g = client.get(1, 1);
        assert_eq!(
            (g.status, g.found),
            (Status::Ok, Some(true)),
            "[{label}] the neighbour tenant keeps serving: {g:?}"
        );

        let report = server.shutdown();
        let bad = report.tenant(0).unwrap();
        assert!(bad.snapshot.invariant_failures >= 1, "{:?}", bad.snapshot);
        assert!(bad.keys.is_empty(), "a failed tenant reports no keys");
        let good = report.tenant(1).unwrap();
        assert_eq!(good.snapshot.invariant_failures, 0);
        assert_eq!(sorted(&good.keys), vec![0, 1, 2, 3]);
    }
}

// -- the full chaos sweep -----------------------------------------------------

/// One chaos round: 6 tenants across 2 shards with `queue_depth`-deep
/// queues, every fault class armed, `threads` client threads of seeded
/// traffic. Returns the status tally; asserts everything else.
///
/// Tenants 2–5 are crashable, and each crashes once, recovering in place
/// at a new base.
fn chaos_round(
    label: &str,
    s: u64,
    threads: u64,
    queue_depth: usize,
) -> std::collections::HashMap<&'static str, u64> {
    let cell = M.cell(label);
    let plan = ServerFaultPlan::none();
    let mut cfg = test_config(&cell);
    cfg.shards = 2;
    cfg.queue_depth = queue_depth;
    let tenants = vec![
        TenantSpec::new(0, ReprKind::OffHolder),
        TenantSpec::new(1, ReprKind::Riv).with_priority(Priority::Low),
        TenantSpec::new(2, ReprKind::FatCached).crashable(),
        TenantSpec::new(3, ReprKind::OffHolder).crashable(),
        TenantSpec::new(4, ReprKind::Riv).crashable(),
        TenantSpec::new(5, ReprKind::FatCached).crashable(),
    ];
    // Every fault class in one run: a stall on each shard and in-place
    // crashes under both policies.
    plan.stall_shard(0, 9, Duration::from_millis(40));
    plan.stall_shard(1, 7, Duration::from_millis(40));
    plan.crash_tenant(2, 8, FaultPolicy::TearWords { seed: s });
    plan.crash_tenant(5, 11, FaultPolicy::DropUnflushed);
    plan.crash_tenant(3, 6, FaultPolicy::TearWords { seed: s ^ 0xABCD });
    plan.crash_tenant(4, 9, FaultPolicy::DropUnflushed);
    let server = Server::start(cfg, tenants, plan.clone()).unwrap();

    let histories: Arc<Mutex<Vec<Vec<OpRecord>>>> = Arc::new(Mutex::new(vec![Vec::new(); 6]));
    let status_tally = Arc::new(Mutex::new(std::collections::HashMap::new()));
    let threads: Vec<_> = (0..threads)
        .map(|tid| {
            let c = server.client();
            let histories = histories.clone();
            let tally = status_tally.clone();
            std::thread::spawn(move || {
                let mut rng = s ^ (tid.wrapping_mul(0x9E37_79B9));
                for step in 0..40u64 {
                    let v = util::splitmix64(rng);
                    rng = v;
                    let tenant = (v % 6) as u32;
                    let key = (v >> 8) % 24;
                    let roll = (v >> 16) % 10;
                    let r = if roll < 6 {
                        c.put(tenant, key)
                    } else if roll < 8 {
                        c.delete(tenant, key)
                    } else {
                        c.get(tenant, key)
                    };
                    // Invariant 1: terminal statuses only, no Failed.
                    assert!(
                        matches!(
                            r.status,
                            Status::Ok | Status::Overloaded | Status::DeadlineExceeded
                        ),
                        "[{} round seed {s:#x}] tenant {tenant} step {step}: {r:?}",
                        M.tag()
                    );
                    *tally.lock().unwrap().entry(r.status.name()).or_insert(0u64) += 1;
                    // Invariant 2 bookkeeping: acked mutations only.
                    if r.status == Status::Ok && roll < 8 {
                        let op = if roll < 6 {
                            SetOp::Insert
                        } else {
                            SetOp::Remove
                        };
                        histories.lock().unwrap()[tenant as usize].push(acked(op, key, &r));
                    }
                }
            })
        })
        .collect();
    for t in threads {
        t.join().unwrap();
    }
    // Deterministic tails: the seeded traffic split may leave an armed
    // crash ordinal unreached, so drive each crash tenant until its
    // fault fires. The triggering write runs again after the in-place
    // recovery, so every tail write acks and joins the history.
    {
        let c = server.client();
        for (tenant, key_base) in [(2u32, 300u64), (5, 400), (3, 500), (4, 600)] {
            let m = server.handle().tenant_metrics(tenant).unwrap();
            let mut i = 0u64;
            while m.snapshot().crashes == 0 {
                assert!(i < 100, "[{label}] tenant {tenant} crash never fired");
                let r = c.put(tenant, key_base + i);
                assert_eq!(
                    r.status,
                    Status::Ok,
                    "[{label}] crash tail tenant {tenant}: {r:?}"
                );
                histories.lock().unwrap()[tenant as usize].push(acked(
                    SetOp::Insert,
                    key_base + i,
                    &r,
                ));
                i += 1;
            }
        }
    }
    let report = server.shutdown();
    let tally = status_tally.lock().unwrap().clone();
    let histories = std::mem::take(&mut *histories.lock().unwrap());

    // Every armed crash fired, recovered in place and remapped its tenant.
    for tenant in 2..6u32 {
        let tr = report.tenant(tenant).unwrap();
        assert_eq!(
            tr.snapshot.crashes, 1,
            "[{label}] tenant {tenant} crashes: {:?} (tally {tally:?})",
            tr.snapshot
        );
        assert_eq!(
            tr.state,
            TenantState::Recovered,
            "[{label}] tenant {tenant}"
        );
        assert!(
            tr.bases.len() >= 2,
            "[{label}] tenant {tenant} remapped: {:?}",
            tr.bases
        );
    }
    // Invariant 2: per-tenant acked histories explain the final keys.
    for (tenant, ops) in histories.into_iter().enumerate() {
        let tr = report.tenant(tenant as u32).unwrap();
        assert_eq!(
            tr.snapshot.invariant_failures, 0,
            "[{label}] tenant {tenant}: {:?}",
            tr.snapshot
        );
        check_tenant_history(label, ops, &tr.keys);
        assert_consecutive_bases_differ(label, &report, tenant as u32);
    }
    tally
}

#[test]
fn chaos_matrix_sweep() {
    let _g = M.lock();
    let s = M.seed();
    chaos_round("chaos-a", s, 3, 64);
    chaos_round("chaos-b", util::splitmix64(s), 3, 64);
    // More callers than a shard queue holds: arrivals are refused while
    // the shard lock passes between callers under a full queue.
    let seed_c = util::splitmix64(util::splitmix64(s));
    let tally = chaos_round("chaos-c", seed_c, 8, 4);
    assert!(
        tally.get("overloaded").copied().unwrap_or(0) > 0,
        "[chaos-c {}] the queue never filled: {tally:?}",
        M.tag()
    );
}

// -- shutdown under traffic ---------------------------------------------------

/// Clients keep submitting while `shutdown()` runs: each request is
/// answered exactly once, `Ok` (executed) or `Shutdown` (never applied),
/// and the report holds exactly the puts acked `Ok`.
#[test]
fn shutdown_under_traffic_answers_every_request_once() {
    let _g = M.lock();
    let cell = M.cell("shutdown-race");
    let tenants: Vec<TenantSpec> = one_of_each_repr()
        .into_iter()
        .map(|mut t| {
            t.region_size = 4 << 20;
            t
        })
        .collect();
    let server = Server::start(test_config(&cell), tenants, ServerFaultPlan::none()).unwrap();
    const THREADS: u64 = 4;
    const PUTS: u64 = 300;
    let acked = Arc::new(std::sync::atomic::AtomicU64::new(0));
    let clients: Vec<_> = (0..THREADS)
        .map(|tid| {
            let c = server.client();
            let acked = acked.clone();
            std::thread::spawn(move || {
                // Puts of fresh keys, then gets, until shutdown answers.
                let (mut puts, mut oks) = (Vec::new(), 0u64);
                let mut i = 0u64;
                let mut refused = 0;
                while refused < 3 {
                    let (tenant, key) = ((i % 3) as u32, tid * 1_000_000 + i);
                    let r = if i < PUTS {
                        c.put(tenant, key)
                    } else {
                        c.get(tenant, tid)
                    };
                    match r.status {
                        Status::Ok => {
                            assert_eq!(refused, 0, "[{}] served after a refusal: {r:?}", M.tag());
                            oks += 1;
                            if i < PUTS {
                                assert_eq!(r.found, Some(true), "fresh key {key}: {r:?}");
                                puts.push((tenant, key));
                                acked.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                            }
                        }
                        Status::Shutdown => refused += 1,
                        s => panic!("[{}] unexpected {s:?}: {r:?}", M.tag()),
                    }
                    i += 1;
                }
                (puts, oks)
            })
        })
        .collect();
    while acked.load(std::sync::atomic::Ordering::Relaxed) < 100 {
        std::thread::yield_now();
    }
    let report = server.shutdown();
    let mut want: Vec<Vec<u64>> = vec![Vec::new(); 3];
    let mut oks = 0;
    for c in clients {
        let (puts, n) = c.join().unwrap();
        oks += n;
        for (tenant, key) in puts {
            want[tenant as usize].push(key);
        }
    }
    let served: u64 = report.tenants.iter().map(|t| t.snapshot.ok).sum();
    assert_eq!(served, oks, "[{}] one Ok counted per Ok answered", M.tag());
    for (tenant, keys) in want.iter().enumerate() {
        let tr = report.tenant(tenant as u32).unwrap();
        assert_eq!(
            sorted(&tr.keys),
            sorted(keys),
            "[{}] tenant {tenant}: the report must hold exactly the acked puts",
            M.tag()
        );
        assert_eq!(tr.snapshot.invariant_failures, 0);
    }
}
