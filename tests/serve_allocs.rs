//! Heap allocations per served round trip on a resident tenant: a
//! request's only allocations are its two frames.
//!
//! A counting global allocator counts every allocation and reallocation
//! made between encoding a request and decoding its response:
//! `encode_request`, `ServerHandle::call` (decode, execute, encode) and
//! `decode_response`. The `ReqOp` is built before counting starts. On an
//! idle shard the request runs on the calling thread, so nothing else is
//! counted; this file holds a single `#[test]` so no other test runs
//! beside it.
//!
//! Before the one-buffer codec, inline execution and the streamed prefix
//! reply, the same round trips made 13 (Get), 13 (Put of a present key)
//! and 14 (Delete) allocations, and this prefix query (25 matches) 49.

use nvm_pi::nvserver::codec::{decode_response, encode_request};
use nvm_pi::nvserver::{
    index_word, Priority, ReprKind, ReqOp, Request, Server, ServerConfig, ServerFaultPlan,
    ServerHandle, Status, TenantSpec, Transport,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

struct Counting;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicUsize = AtomicUsize::new(0);

fn count() {
    if COUNTING.load(Ordering::Relaxed) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: every call is forwarded to `System` unchanged; the counter is
// the only addition.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// One round trip of `op` against `tenant`: the decoded response and
/// the allocations it took.
fn round_trip(
    handle: &ServerHandle,
    tenant: u32,
    op: ReqOp,
) -> (nvm_pi::nvserver::Response, usize) {
    let req = Request {
        id: 1,
        tenant,
        priority: Priority::Normal,
        deadline_micros: 0,
        op,
    };
    ALLOCS.store(0, Ordering::Relaxed);
    COUNTING.store(true, Ordering::Relaxed);
    let frame = encode_request(&req);
    let reply = handle.call(&frame);
    let resp = decode_response(&reply);
    COUNTING.store(false, Ordering::Relaxed);
    (
        resp.expect("response frame"),
        ALLOCS.load(Ordering::Relaxed),
    )
}

#[test]
fn a_resident_request_allocates_only_its_two_frames() {
    let dir = std::env::temp_dir().join(format!("serve-allocs-{}", std::process::id()));
    let reprs = [ReprKind::OffHolder, ReprKind::Riv, ReprKind::FatCached];
    let specs = (0..3)
        .map(|id| TenantSpec::new(id, reprs[id as usize]))
        .collect();
    let server = Server::start(ServerConfig::new(&dir), specs, ServerFaultPlan::none()).unwrap();
    let handle = server.handle();
    // Keys 0..26 share the 13-letter prefix of `index_word(0)`.
    let prefix = index_word(0)[..13].to_string();
    for tenant in 0..3 {
        // Open the tenant and warm every path once: what is measured is
        // a resident tenant's steady state.
        for key in 0..40 {
            round_trip(&handle, tenant, ReqOp::Put { key });
        }
        round_trip(&handle, tenant, ReqOp::Get { key: 1 });
        round_trip(&handle, tenant, ReqOp::Delete { key: 39 });
        round_trip(
            &handle,
            tenant,
            ReqOp::PrefixQuery {
                prefix: prefix.clone(),
            },
        );

        let repr = reprs[tenant as usize].name();
        let cases = [
            ("get", ReqOp::Get { key: 3 }, Some(true)),
            ("get of an absent key", ReqOp::Get { key: 99 }, Some(false)),
            ("put of a present key", ReqOp::Put { key: 3 }, Some(false)),
            ("delete", ReqOp::Delete { key: 3 }, Some(true)),
        ];
        for (what, op, found) in cases {
            let (resp, allocs) = round_trip(&handle, tenant, op);
            assert_eq!(
                (resp.status, resp.found),
                (Status::Ok, found),
                "{repr} {what}"
            );
            assert_eq!(allocs, 2, "{repr} {what}: allocations per round trip");
        }

        let (resp, allocs) = round_trip(
            &handle,
            tenant,
            ReqOp::PrefixQuery {
                prefix: prefix.clone(),
            },
        );
        assert_eq!(resp.status, Status::Ok);
        assert!(resp.detail.ends_with("… 9 more"), "{repr}: {}", resp.detail);
        assert!(
            allocs <= 5,
            "{repr} prefix query: {allocs} allocations per round trip"
        );

        // A new key descends through inner nodes with compressed
        // prefixes and allocates its leaf in the region, not on the heap.
        let (resp, allocs) = round_trip(&handle, tenant, ReqOp::Put { key: 1000 });
        assert_eq!(resp.found, Some(true));
        assert_eq!(
            allocs, 2,
            "{repr} put of a new key: allocations per round trip"
        );
    }
    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}
