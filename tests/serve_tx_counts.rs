//! Undo transactions per served write: a tenant keeps one structure, so
//! an applied Put or Delete commits exactly one transaction and a write
//! that changes nothing begins none.
//!
//! The counts are `nvmsim::metrics` `TxBegins` deltas around one round
//! trip. The counters are process-wide and an idle shard runs a request
//! on the calling thread, so this file holds a single `#[test]`: nothing
//! else begins a transaction while a delta is taken.

use nvm_pi::nvmsim::metrics::{self, Counter};
use nvm_pi::nvserver::{index_word, Response, Server, ServerConfig, ServerFaultPlan, Status};
use nvm_pi::pstore::ObjectStore;
use nvm_pi::{FatPtrCached, OffHolder, PtrRepr, Riv};
use nvm_pi::{NodeArena, PArt, Region, ReprKind, TenantSpec};

/// Transactions begun while `f` runs, and its response.
fn tx_begins(f: impl FnOnce() -> Response) -> (u64, Response) {
    let before = metrics::snapshot();
    let r = f();
    (metrics::snapshot().delta(&before).get(Counter::TxBegins), r)
}

/// The occurrence counts of `keys`' leaves in the closed image of
/// `tenant`.
fn leaf_counts<R: PtrRepr>(dir: &std::path::Path, tenant: u32, keys: &[u64]) -> Vec<u64> {
    let region = Region::open_file(dir.join(format!("tenant-{tenant}.nvr"))).unwrap();
    let store = ObjectStore::attach(&region).unwrap();
    let art: PArt<R> = PArt::attach(NodeArena::transactional(store.clone()), "srv.idx").unwrap();
    art.check_invariants().unwrap();
    let n = keys.iter().map(|&k| art.count(&index_word(k))).collect();
    drop(art);
    drop(store);
    region.close().unwrap();
    n
}

#[test]
fn a_served_write_commits_one_transaction_and_a_no_op_none() {
    let dir = std::env::temp_dir().join(format!("serve-tx-counts-{}", std::process::id()));
    let reprs = [ReprKind::OffHolder, ReprKind::Riv, ReprKind::FatCached];
    let specs = (0..3)
        .map(|id| TenantSpec::new(id, reprs[id as usize]))
        .collect();
    let server = Server::start(ServerConfig::new(&dir), specs, ServerFaultPlan::none()).unwrap();
    let client = server.client();
    for tenant in 0..3 {
        let repr = reprs[tenant as usize].name();
        // Open (format) the tenant first: only the writes are counted.
        assert_eq!(client.put(tenant, 1).found, Some(true), "{repr}");
        let (n, r) = tx_begins(|| client.put(tenant, 1));
        assert_eq!(
            (r.status, r.found, n),
            (Status::Ok, Some(false), 0),
            "{repr} double put"
        );
        let cases: [(&str, bool, u64, bool, u64); 5] = [
            // (what, put?, key, applied, transactions begun)
            ("put of an absent key", true, 7, true, 1),
            ("put of a present key", true, 7, false, 0),
            ("delete of a present key", false, 7, true, 1),
            ("delete of an absent key", false, 7, false, 0),
            ("put of a deleted key", true, 7, true, 1),
        ];
        for (what, put, key, applied, begins) in cases {
            let (n, r) = tx_begins(|| {
                if put {
                    client.put(tenant, key)
                } else {
                    client.delete(tenant, key)
                }
            });
            assert_eq!(
                (r.status, r.found),
                (Status::Ok, Some(applied)),
                "{repr} {what}"
            );
            assert_eq!(n, begins, "{repr} {what}: transactions begun");
        }
        // A Get begins none either.
        let (n, r) = tx_begins(|| client.get(tenant, 7));
        assert_eq!(
            (r.status, r.found, n),
            (Status::Ok, Some(true), 0),
            "{repr} get"
        );
    }
    server.shutdown();

    // Key 1 was put twice; key 7 twice, then deleted twice and put
    // again. Each leaf counts 1.
    assert_eq!(leaf_counts::<OffHolder>(&dir, 0, &[1, 7]), [1, 1]);
    assert_eq!(leaf_counts::<Riv>(&dir, 1, &[1, 7]), [1, 1]);
    assert_eq!(leaf_counts::<FatPtrCached>(&dir, 2, &[1, 7]), [1, 1]);
    std::fs::remove_dir_all(&dir).ok();
}
