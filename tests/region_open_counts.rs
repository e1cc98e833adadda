//! Region open and close counts: `region_opens` and `region_closes`
//! count a region's mapping into the fat-pointer table and out of it,
//! once each. A served tenant's format is one open, its eviction one
//! close and its reopen one open; growing a region moves no base and
//! opens nothing.
//!
//! The counts are `nvmsim::metrics` deltas. The counters are
//! process-wide and an idle shard runs a request on the calling thread,
//! so this file holds a single `#[test]`: nothing else opens or closes a
//! region while a delta is taken.

use nvm_pi::nvmsim::metrics::{self, Counter};
use nvm_pi::nvserver::{Server, ServerConfig, ServerFaultPlan, Status};
use nvm_pi::{Region, ReprKind, TenantSpec};

/// `[region_opens, region_closes, region_grows]` while `f` runs, and its
/// result.
fn counts<T>(f: impl FnOnce() -> T) -> ([u64; 3], T) {
    let before = metrics::snapshot();
    let r = f();
    let d = metrics::snapshot().delta(&before);
    let c = [
        Counter::RegionOpens,
        Counter::RegionCloses,
        Counter::RegionGrows,
    ];
    (c.map(|c| d.get(c)), r)
}

#[test]
fn a_format_opens_once_an_evict_closes_once_and_a_grow_opens_none() {
    let dir = std::env::temp_dir().join(format!("region-open-counts-{}", std::process::id()));
    let mut cfg = ServerConfig::new(&dir);
    cfg.shards = 1;
    let specs = vec![TenantSpec::new(0, ReprKind::Riv)];
    let server = Server::start(cfg, specs, ServerFaultPlan::none()).unwrap();
    let client = server.client();

    let (n, r) = counts(|| client.put(0, 1));
    assert_eq!((r.status, n), (Status::Ok, [1, 0, 0]), "format: {r:?}");
    let (n, r) = counts(|| client.put(0, 2));
    assert_eq!((r.status, n), (Status::Ok, [0, 0, 0]), "resident: {r:?}");
    let (n, r) = counts(|| client.evict(0));
    assert_eq!((r.status, n), (Status::Ok, [0, 1, 0]), "evict: {r:?}");
    let (n, r) = counts(|| client.get(0, 1));
    assert_eq!((r.found, n), (Some(true), [1, 0, 0]), "reopen: {r:?}");
    let (n, report) = counts(|| server.shutdown());
    assert_eq!(n, [0, 1, 0], "shutdown");
    assert_eq!(report.tenant(0).unwrap().bases.len(), 2, "{report:?}");
    std::fs::remove_dir_all(&dir).ok();

    let region = Region::create_with_capacity(64 << 10, 1 << 20, None).unwrap();
    let base = region.base();
    let (n, grown) = counts(|| region.grow(256 << 10).unwrap());
    assert_eq!((grown, n), (256 << 10, [0, 0, 1]), "grow");
    assert_eq!(region.base(), base, "a grow keeps the base");
    region.close().unwrap();
}
