//! The sharded region server: bounded per-shard queues with admission
//! control, deadline enforcement, LRU tenant eviction with remapped
//! reopen, and in-place crash recovery. See the crate docs for the
//! policy overview.

use crate::codec::{self, BatchOp, BatchResult, Priority, ReqOp, Request, Response, Status};
use crate::fault::ServerFaultPlan;
use crate::tenant::{Tenant, TenantMetrics, TenantSnapshot, TenantSpec, TenantState, IDX_WORD_LEN};
use nvmsim::dlin;
use nvmsim::metrics::{self, Counter};
use std::collections::{HashMap, VecDeque};
use std::fmt::Write;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, TryLockError};
use std::thread::Thread;
use std::time::{Duration, Instant};

/// Server tuning.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Number of shards; tenant `id % shards` routes. A shard is served
    /// by whichever submitting thread holds its lock.
    pub shards: usize,
    /// Directory holding tenant region files.
    pub data_dir: PathBuf,
    /// Per-shard queue high-water mark; arrivals past it are shed.
    pub queue_depth: usize,
    /// Deadline applied to requests that do not carry one.
    pub default_deadline: Duration,
    /// Open-tenant ceiling per shard; past it the coldest open tenant
    /// is evicted (closed; its next request reopens it remapped).
    pub max_open_per_shard: usize,
}

impl ServerConfig {
    /// Defaults rooted at `data_dir`: 2 shards, depth-64 queues, 2 s
    /// default deadline, no open-tenant ceiling.
    pub fn new(data_dir: impl Into<PathBuf>) -> ServerConfig {
        ServerConfig {
            shards: 2,
            data_dir: data_dir.into(),
            queue_depth: 64,
            default_deadline: Duration::from_secs(2),
            max_open_per_shard: usize::MAX,
        }
    }
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

// -- response slots -----------------------------------------------------------

/// Where a request's response lands, and the thread waiting for it.
#[derive(Debug)]
struct Slot {
    resp: Mutex<Option<Response>>,
    waiter: Thread,
}

impl Slot {
    fn fill(&self, r: Response) {
        lock(&self.resp).get_or_insert(r);
        self.waiter.unpark();
    }
}

/// A request waiting in its shard's queue. A request that finds its
/// shard idle runs at once and never becomes one.
struct Entry {
    req: Request,
    deadline: Instant,
    /// The tenant's index in its shard's state.
    index: usize,
    slot: Arc<Slot>,
}

/// When `req` expires, and when its caller stops waiting: 60 s past the
/// request's own deadline, a backstop against a wedged shard.
fn deadline_and_backstop(req: &Request, default: Duration, now: Instant) -> (Instant, Instant) {
    let deadline = now
        + if req.deadline_micros == 0 {
            default
        } else {
            Duration::from_micros(req.deadline_micros)
        };
    (deadline, deadline + Duration::from_secs(60))
}

struct ShardQueue {
    entries: VecDeque<Entry>,
    /// Cleared by the final shutdown drain; submissions racing past the
    /// shutdown flag are refused here, under the queue lock.
    accepting: bool,
}

/// What executing a request touches. Whichever thread holds the shard
/// lock serves the shard.
#[derive(Default)]
struct ShardState {
    /// The shard's tenants, each at its [`Route::index`]; created closed
    /// at start and opened by their first request.
    tenants: Vec<Tenant>,
    /// Requests executed so far: the LRU clock and the stall ordinal.
    tick: u64,
}

// SAFETY: `tick` is a plain counter; `tenants` hold raw pointers into their
// mapped regions, which makes them `!Send`. Tenant state is touched only
// under the shard lock, and no tenant pointer outlives the request that
// derived it, so the threads taking turns at a shard never share it. No
// product code reads a thread id, and the thread-locals a request touches
// (metrics shards, llalloc's reservations, `dlin`'s stamp) accept any thread.
unsafe impl Send for ShardState {}

struct Shard {
    q: Mutex<ShardQueue>,
    state: Mutex<ShardState>,
}

impl Shard {
    fn new(state: ShardState) -> Shard {
        Shard {
            q: Mutex::new(ShardQueue {
                entries: VecDeque::new(),
                accepting: true,
            }),
            state: Mutex::new(state),
        }
    }

    /// The shard lock, if nobody holds it.
    fn try_state(&self) -> Option<MutexGuard<'_, ShardState>> {
        match self.state.try_lock() {
            Ok(st) => Some(st),
            Err(TryLockError::Poisoned(e)) => Some(e.into_inner()),
            Err(TryLockError::WouldBlock) => None,
        }
    }

    /// Releases the shard lock; the waiter at the queue head takes the
    /// shard over.
    fn release(&self, st: MutexGuard<'_, ShardState>) {
        drop(st);
        if let Some(e) = lock(&self.q).entries.front() {
            e.slot.waiter.unpark();
        }
    }
}

/// Where a tenant is served: the one lookup a request makes.
struct Route {
    shard: usize,
    /// Index of the tenant in its shard's state.
    index: usize,
    metrics: Arc<TenantMetrics>,
}

struct Core {
    cfg: ServerConfig,
    plan: ServerFaultPlan,
    shards: Vec<Shard>,
    shutdown: AtomicBool,
    routes: HashMap<u32, Route>,
    /// How long a waiter spins before parking: 20 µs when another CPU can
    /// release the shard lock meanwhile, zero on one CPU.
    spin: Duration,
}

/// Final state of one tenant at shutdown.
#[derive(Debug, Clone)]
pub struct TenantReport {
    /// Tenant id.
    pub id: u32,
    /// Lifecycle state when the server stopped.
    pub state: TenantState,
    /// Every base address the tenant's region was mapped at, in order.
    /// More than one entry means the tenant demonstrably served through
    /// a remap.
    pub bases: Vec<usize>,
    /// Keys durably in the tenant's set at close.
    pub keys: Vec<u64>,
    /// Final counter values.
    pub snapshot: TenantSnapshot,
}

/// Everything the server knew when it stopped.
#[derive(Debug, Clone, Default)]
pub struct ServerReport {
    /// One report per configured tenant (opened or not).
    pub tenants: Vec<TenantReport>,
}

impl ServerReport {
    /// The report for tenant `id`, if present.
    pub fn tenant(&self, id: u32) -> Option<&TenantReport> {
        self.tenants.iter().find(|t| t.id == id)
    }
}

// -- transport ----------------------------------------------------------------

/// Byte-level request/response transport. The loopback implementation
/// is a [`ServerHandle`]; a socket implementation carries the same
/// frames unchanged.
pub trait Transport: Send + Sync {
    /// Submits one encoded request frame and returns the encoded
    /// response frame.
    fn call(&self, frame: &[u8]) -> Vec<u8>;
}

/// Cheap cloneable handle for submitting requests to a running server.
#[derive(Clone)]
pub struct ServerHandle {
    core: Arc<Core>,
}

impl Transport for ServerHandle {
    fn call(&self, frame: &[u8]) -> Vec<u8> {
        codec::encode_response(&self.submit_frame(frame))
    }
}

impl ServerHandle {
    /// Decodes a request frame, submits it, and returns the (typed)
    /// response. Malformed frames answer `Malformed` with id 0.
    pub fn submit_frame(&self, frame: &[u8]) -> Response {
        match codec::decode_request(frame) {
            Ok(req) => self.submit(req),
            Err(e) => Response::rejection(0, Status::Malformed, e.to_string()),
        }
    }

    /// Submits a typed request and blocks for its terminal response.
    pub fn submit(&self, req: Request) -> Response {
        let core = &self.core;
        let id = req.id;
        if core.shutdown.load(Ordering::Acquire) {
            return Response::rejection(id, Status::Shutdown, "server is shutting down");
        }
        let Some(route) = core.routes.get(&req.tenant) else {
            return Response::rejection(
                id,
                Status::NoSuchTenant,
                format!("tenant {} not configured", req.tenant),
            );
        };
        let tm = &route.metrics;
        let shard = &core.shards[route.shard];
        let arrival = Instant::now();
        let (deadline, backstop) = deadline_and_backstop(&req, core.cfg.default_deadline, arrival);
        let mut q = lock(&shard.q);
        if !q.accepting {
            return Response::rejection(id, Status::Shutdown, "server is shutting down");
        }
        // Nobody queued and nobody serving: run it on the spot, then
        // serve whatever arrived meanwhile under the usual budget.
        if q.entries.is_empty() {
            if let Some(mut st) = shard.try_state() {
                drop(q);
                metrics::incr(Counter::SrvRequests);
                tm.requests.fetch_add(1, Ordering::Relaxed);
                let resp = run_one(core, route.shard, &mut st, route.index, &req, deadline);
                serve(core, route.shard, &mut st, None, core.cfg.queue_depth);
                shard.release(st);
                return resp;
            }
        }
        if q.entries.len() >= core.cfg.queue_depth {
            // Past the high-water mark: shed the lowest-priority queued
            // request if it ranks strictly below the arrival, otherwise
            // reject the arrival itself.
            let min_idx = q
                .entries
                .iter()
                .enumerate()
                .min_by_key(|(_, e)| e.req.priority)
                .map(|(i, _)| i);
            match min_idx {
                Some(i) if q.entries[i].req.priority < req.priority => {
                    let shed = q.entries.remove(i).expect("index in range");
                    metrics::incr(Counter::SrvShed);
                    core.routes[&shed.req.tenant]
                        .metrics
                        .overloaded
                        .fetch_add(1, Ordering::Relaxed);
                    shed.slot.fill(Response::rejection(
                        shed.req.id,
                        Status::Overloaded,
                        "shed for a higher-priority arrival",
                    ));
                }
                _ => {
                    drop(q);
                    metrics::incr(Counter::SrvShed);
                    tm.overloaded.fetch_add(1, Ordering::Relaxed);
                    return Response::rejection(id, Status::Overloaded, "shard queue full");
                }
            }
        }
        metrics::incr(Counter::SrvRequests);
        tm.requests.fetch_add(1, Ordering::Relaxed);
        let slot = Arc::new(Slot {
            resp: Mutex::new(None),
            waiter: std::thread::current(),
        });
        q.entries.push_back(Entry {
            req,
            deadline,
            index: route.index,
            slot: slot.clone(),
        });
        drop(q);
        // Serve the shard if nobody is; otherwise wait for whoever is to
        // answer, or to hand the shard lock to this caller.
        let spin_until = arrival + core.spin;
        loop {
            if let Some(r) = lock(&slot.resp).take() {
                return r;
            }
            if let Some(mut st) = shard.try_state() {
                serve(
                    core,
                    route.shard,
                    &mut st,
                    Some(&slot),
                    core.cfg.queue_depth,
                );
                shard.release(st);
                continue;
            }
            let now = Instant::now();
            if now >= backstop {
                return Response::rejection(id, Status::Failed, "response slot wait timed out");
            }
            if now < spin_until {
                std::hint::spin_loop();
            } else {
                std::thread::park_timeout(backstop - now);
            }
        }
    }

    /// Live metrics handle for a tenant.
    pub fn tenant_metrics(&self, tenant: u32) -> Option<Arc<TenantMetrics>> {
        self.core.routes.get(&tenant).map(|r| r.metrics.clone())
    }
}

/// Typed client over any [`Transport`] — every helper round-trips
/// through the frame codec, so loopback traffic exercises exactly the
/// bytes a socket would carry.
pub struct Client {
    transport: Arc<dyn Transport>,
    next_id: AtomicU64,
    /// Priority attached to this client's requests.
    pub priority: Priority,
    /// Deadline attached to this client's requests (0 = server default).
    pub deadline_micros: u64,
}

impl Client {
    /// A client with normal priority and the server's default deadline.
    pub fn new(transport: Arc<dyn Transport>) -> Client {
        Client {
            transport,
            next_id: AtomicU64::new(1),
            priority: Priority::Normal,
            deadline_micros: 0,
        }
    }

    /// Sets the priority for subsequent requests.
    pub fn with_priority(mut self, p: Priority) -> Client {
        self.priority = p;
        self
    }

    /// Sets the per-request deadline for subsequent requests.
    pub fn with_deadline(mut self, d: Duration) -> Client {
        self.deadline_micros = d.as_micros() as u64;
        self
    }

    /// Sends `op` against `tenant` and returns the decoded response.
    pub fn request(&self, tenant: u32, op: ReqOp) -> Response {
        let req = Request {
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            tenant,
            priority: self.priority,
            deadline_micros: self.deadline_micros,
            op,
        };
        let frame = codec::encode_request(&req);
        let resp_frame = self.transport.call(&frame);
        codec::decode_response(&resp_frame).unwrap_or_else(|e| {
            Response::rejection(req.id, Status::Malformed, format!("response frame: {e}"))
        })
    }

    /// Membership probe.
    pub fn get(&self, tenant: u32, key: u64) -> Response {
        self.request(tenant, ReqOp::Get { key })
    }

    /// Transactional insert.
    pub fn put(&self, tenant: u32, key: u64) -> Response {
        self.request(tenant, ReqOp::Put { key })
    }

    /// Transactional remove.
    pub fn delete(&self, tenant: u32, key: u64) -> Response {
        self.request(tenant, ReqOp::Delete { key })
    }

    /// Ordered batch of writes.
    pub fn batch(&self, tenant: u32, ops: Vec<BatchOp>) -> Response {
        self.request(tenant, ReqOp::Batch { ops })
    }

    /// Force-evict (close) the tenant.
    pub fn evict(&self, tenant: u32) -> Response {
        self.request(tenant, ReqOp::Evict)
    }

    /// Suggestion lookup: indexed words starting with `prefix`, sorted,
    /// newline-separated in the response detail (capped, with a final
    /// `… N more` line when truncated).
    pub fn prefix(&self, tenant: u32, prefix: &str) -> Response {
        self.request(
            tenant,
            ReqOp::PrefixQuery {
                prefix: prefix.to_string(),
            },
        )
    }
}

// -- the server ---------------------------------------------------------------

/// A running region server. Submit through [`Server::handle`] /
/// [`Server::client`]; stop with [`Server::shutdown`].
pub struct Server {
    core: Arc<Core>,
}

impl Server {
    /// Starts a server with the given tenants. Creates `data_dir`
    /// immediately; tenant regions are created lazily on first request.
    /// Starts no thread: a request runs on the thread that submits it.
    ///
    /// # Errors
    ///
    /// I/O creating the data directory.
    pub fn start(
        cfg: ServerConfig,
        tenants: Vec<TenantSpec>,
        plan: ServerFaultPlan,
    ) -> std::io::Result<Server> {
        assert!(cfg.shards > 0, "at least one shard");
        assert!(cfg.queue_depth > 0, "queue depth must be positive");
        std::fs::create_dir_all(&cfg.data_dir)?;
        let mut states: Vec<ShardState> = (0..cfg.shards).map(|_| ShardState::default()).collect();
        let mut routes = HashMap::new();
        for spec in tenants {
            let (id, shard) = (spec.id, spec.id as usize % cfg.shards);
            let metrics = Arc::new(TenantMetrics::default());
            let tenants = &mut states[shard].tenants;
            let route = Route {
                shard,
                index: tenants.len(),
                metrics: metrics.clone(),
            };
            assert!(
                routes.insert(id, route).is_none(),
                "tenant {id} configured twice"
            );
            tenants.push(Tenant::new(spec, &cfg.data_dir, metrics));
        }
        let shards = states.into_iter().map(Shard::new).collect();
        let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
        let core = Arc::new(Core {
            cfg,
            plan,
            shards,
            shutdown: AtomicBool::new(false),
            routes,
            spin: Duration::from_micros(if cpus > 1 { 20 } else { 0 }),
        });
        Ok(Server { core })
    }

    /// A cheap submission handle (also the loopback [`Transport`]).
    pub fn handle(&self) -> ServerHandle {
        ServerHandle {
            core: self.core.clone(),
        }
    }

    /// A typed client over the loopback transport.
    pub fn client(&self) -> Client {
        Client::new(Arc::new(self.handle()))
    }

    /// Stops the server: each shard finishes every queued request,
    /// closes its tenants cleanly, and reports final per-tenant state.
    /// Requests arriving during shutdown answer `Shutdown`.
    pub fn shutdown(self) -> ServerReport {
        let core = &self.core;
        core.shutdown.store(true, Ordering::Release);
        let mut reports = Vec::new();
        for (shard_idx, shard) in core.shards.iter().enumerate() {
            let mut st = lock(&shard.state);
            serve(core, shard_idx, &mut st, None, usize::MAX);
            // Refuse anything that raced past the shutdown flag.
            let mut q = lock(&shard.q);
            q.accepting = false;
            for e in q.entries.drain(..) {
                e.slot.fill(Response::rejection(
                    e.req.id,
                    Status::Shutdown,
                    "server stopped before execution",
                ));
            }
            drop(q);
            // Close every tenant cleanly and report its final state. A
            // tenant sitting evicted is reopened first so the report still
            // carries its final keys (one more remap audit for free); one
            // that never opened reports `Closed` with no bases or keys.
            for mut t in st.tenants.drain(..) {
                if !t.is_open() && !t.bases.is_empty() {
                    if let Err(e) = t.ensure_open() {
                        eprintln!("nvserver: tenant {} reopen at shutdown: {e}", t.spec.id);
                    }
                }
                // Checked before anything walks the set: a tenant that fails
                // closes itself and is reported with no keys.
                if let Err(e) = t.audit("at shutdown") {
                    eprintln!("nvserver: tenant {}: {e}", t.spec.id);
                }
                let keys = if t.is_open() { t.keys() } else { Vec::new() };
                if let Err(e) = t.shutdown() {
                    // Keep the report; the failure is visible in the metrics.
                    eprintln!("nvserver: tenant {} shutdown: {e}", t.spec.id);
                }
                reports.push(TenantReport {
                    id: t.spec.id,
                    state: t.state(),
                    bases: t.bases.clone(),
                    keys,
                    snapshot: t.metrics.snapshot(),
                });
            }
        }
        reports.sort_by_key(|r| r.id);
        ServerReport { tenants: reports }
    }
}

// -- serving a shard ----------------------------------------------------------

/// Runs queued entries in FIFO order under the shard lock: until the
/// queue is empty, or until `budget` more have run once the caller's own
/// request is answered (its `own` slot filled, or at once when it has
/// none), which bounds the extra work a caller does.
fn serve(
    core: &Core,
    shard_idx: usize,
    st: &mut ShardState,
    own: Option<&Slot>,
    mut budget: usize,
) {
    let shard = &core.shards[shard_idx];
    loop {
        if own.is_none_or(|s| lock(&s.resp).is_some()) {
            if budget == 0 {
                return;
            }
            budget -= 1;
        }
        let Some(e) = lock(&shard.q).entries.pop_front() else {
            return;
        };
        let resp = run_one(core, shard_idx, st, e.index, &e.req, e.deadline);
        e.slot.fill(resp);
    }
}

/// Executes one request under the shard lock: the tick, the armed stall,
/// the request itself, and its terminal counter.
fn run_one(
    core: &Core,
    shard_idx: usize,
    st: &mut ShardState,
    index: usize,
    req: &Request,
    deadline: Instant,
) -> Response {
    st.tick += 1;
    if let Some(stall) = core.plan.take_stall(shard_idx, st.tick) {
        std::thread::sleep(stall);
    }
    let resp = handle_entry(core, &mut st.tenants, index, req, deadline, st.tick);
    record_terminal(&st.tenants[index].metrics, &resp);
    resp
}

fn record_terminal(m: &TenantMetrics, resp: &Response) {
    let c = match resp.status {
        Status::Ok => &m.ok,
        Status::Overloaded => &m.overloaded,
        Status::DeadlineExceeded => {
            metrics::incr(Counter::SrvDeadlineExceeded);
            &m.deadline_exceeded
        }
        _ => &m.failed,
    };
    c.fetch_add(1, Ordering::Relaxed);
}

fn handle_entry(
    core: &Core,
    tenants: &mut [Tenant],
    index: usize,
    req: &Request,
    deadline: Instant,
    tick: u64,
) -> Response {
    if Instant::now() > deadline {
        return Response::rejection(req.id, Status::DeadlineExceeded, "expired in queue");
    }
    // LRU pressure: opening this tenant must not exceed the per-shard
    // ceiling, so evict the coldest open tenant first.
    if !tenants[index].is_open() {
        if let Err(e) = evict_coldest(tenants, core.cfg.max_open_per_shard) {
            return Response::rejection(req.id, Status::Failed, e);
        }
    }
    let tenant = &mut tenants[index];
    tenant.last_used = tick;

    // Eviction works even on an open tenant and needs no reopen.
    if matches!(req.op, ReqOp::Evict) {
        return match tenant.evict() {
            Ok(()) => Response::ok(req.id, None, "evicted".to_string()),
            Err(e) => Response::rejection(req.id, Status::Failed, e),
        };
    }

    if let Err(e) = tenant.ensure_open() {
        return Response::rejection(req.id, Status::Failed, e);
    }

    match &req.op {
        ReqOp::Get { key } => Response::ok(req.id, Some(tenant.contains(*key)), String::new()),
        ReqOp::PrefixQuery { prefix } => {
            let mut detail = String::with_capacity(PREFIX_REPLY_BYTES);
            let mut shown = 0;
            let scan = tenant.prefix_scan_each(prefix, |word| {
                if shown < MAX_PREFIX_MATCHES {
                    if shown > 0 {
                        detail.push('\n');
                    }
                    detail.push_str(word);
                    shown += 1;
                }
            });
            match scan {
                Ok(total) => {
                    if total > shown {
                        let _ = write!(detail, "\n… {} more", total - shown);
                    }
                    Response::ok(req.id, Some(total > 0), detail)
                }
                Err(e) => Response::rejection(req.id, Status::Failed, e),
            }
        }
        ReqOp::Put { key } => write_path(core, tenant, req.id, true, *key),
        ReqOp::Delete { key } => write_path(core, tenant, req.id, false, *key),
        ReqOp::Batch { ops } => batch_path(core, tenant, req.id, ops),
        ReqOp::Evict => unreachable!("handled before reopen"),
    }
}

/// Most matches a prefix-query response carries; the tail is summarized
/// in the detail's final line.
const MAX_PREFIX_MATCHES: usize = 16;

/// A full prefix reply: the shown words and their separators, then the
/// `\n… N more` line (at most 30 bytes).
const PREFIX_REPLY_BYTES: usize = MAX_PREFIX_MATCHES * (IDX_WORD_LEN + 1) + 30;

fn evict_coldest(tenants: &mut [Tenant], max_open: usize) -> Result<(), String> {
    while tenants.iter().filter(|t| t.is_open()).count() >= max_open {
        tenants
            .iter_mut()
            .filter(|t| t.is_open())
            .min_by_key(|t| t.last_used)
            .expect("open set non-empty")
            .evict()?;
    }
    Ok(())
}

/// Runs one write (insert or remove): `Ok((applied, stamp))` once it
/// committed. A crash the fault plan injects before the write is
/// recovered in place, at a new base, and the write runs again; every
/// run counts one in `attempts`.
fn write_once(
    core: &Core,
    tenant: &mut Tenant,
    put: bool,
    key: u64,
    attempts: &mut u32,
) -> Result<(bool, u64), String> {
    loop {
        *attempts += 1;
        tenant.writes += 1;
        let Some(crash) = core.plan.take_crash(tenant.spec.id, tenant.writes) else {
            break;
        };
        // The crash lands before this write's transaction begins: the
        // triggering write is never acked out of a crash it did not
        // survive.
        tenant
            .crash_and_recover(crash.policy)
            .map_err(|e| format!("crash handling failed: {e}"))?;
        metrics::incr(Counter::SrvRetries);
    }
    let applied = if put {
        tenant.insert(key)
    } else {
        tenant.remove(key)
    }?;
    // The commit was a durability point (flushed and fenced) before this
    // stamp is drawn — the dlin ack discipline.
    Ok((applied, dlin::next_stamp()))
}

fn write_path(core: &Core, tenant: &mut Tenant, id: u64, put: bool, key: u64) -> Response {
    let mut attempts = 0;
    let mut resp = match write_once(core, tenant, put, key, &mut attempts) {
        Ok((applied, stamp)) => Response {
            stamp,
            ..Response::ok(id, Some(applied), String::new())
        },
        Err(e) => Response::rejection(id, Status::Failed, e),
    };
    resp.attempts = attempts;
    resp
}

fn batch_path(core: &Core, tenant: &mut Tenant, id: u64, ops: &[BatchOp]) -> Response {
    let mut attempts = 0;
    let mut batch = Vec::with_capacity(ops.len());
    for op in ops {
        match write_once(core, tenant, op.put, op.key, &mut attempts) {
            Ok((applied, stamp)) => batch.push(BatchResult { applied, stamp }),
            Err(e) => {
                // Entries committed before the failure stay committed (and
                // acked in the partial batch) — the response says where
                // the batch stopped.
                let detail = format!("batch stopped after {} entries: {e}", batch.len());
                return Response {
                    attempts,
                    batch,
                    ..Response::rejection(id, Status::Failed, detail)
                };
            }
        }
    }
    Response {
        attempts,
        stamp: batch.last().map_or(0, |r| r.stamp),
        batch,
        ..Response::ok(id, None, String::new())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tenant::{index_word, ReprKind};

    #[test]
    fn prefix_replies_show_sixteen_words_then_count_the_rest() {
        let dir = std::env::temp_dir().join(format!("nvserver-prefix-{}", std::process::id()));
        let tenants = [ReprKind::OffHolder, ReprKind::Riv, ReprKind::FatCached]
            .into_iter()
            .enumerate()
            .map(|(id, repr)| TenantSpec::new(id as u32, repr))
            .collect();
        let server =
            Server::start(ServerConfig::new(&dir), tenants, ServerFaultPlan::none()).unwrap();
        let client = server.client();
        // Keys 0..26 are the words "aaaaaaaaaaaaaa" ..= "aaaaaaaaaaaaaz":
        // the 13-letter prefix matches exactly the keys put so far.
        let prefix = &index_word(0)[..13];
        let words = |n: u64| (0..n).map(index_word).collect::<Vec<_>>().join("\n");
        for tenant in 0..3 {
            let reply = client.prefix(tenant, prefix);
            assert_eq!((reply.status, reply.found), (Status::Ok, Some(false)));
            assert_eq!(reply.detail, "");
            // Inserted in descending order, so no node holds them sorted.
            for key in (0..16).rev() {
                assert_eq!(client.put(tenant, key).found, Some(true));
            }
            let reply = client.prefix(tenant, prefix);
            assert_eq!(reply.found, Some(true));
            assert_eq!(reply.detail, words(16), "tenant {tenant}: exactly 16");
            assert_eq!(client.put(tenant, 16).found, Some(true));
            let reply = client.prefix(tenant, prefix);
            assert_eq!(reply.detail, format!("{}\n… 1 more", words(16)));
            for key in 17..26 {
                client.put(tenant, key);
            }
            let reply = client.prefix(tenant, prefix);
            assert_eq!(reply.detail, format!("{}\n… 10 more", words(16)));
            assert_eq!(client.prefix(tenant, "b").detail, "");
        }
        server.shutdown();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn backstop_is_measured_from_the_request_deadline() {
        let now = Instant::now();
        let default = Duration::from_secs(2);
        let mut req = Request {
            id: 1,
            tenant: 0,
            priority: Priority::Normal,
            deadline_micros: 0,
            op: ReqOp::Get { key: 0 },
        };
        let (deadline, backstop) = deadline_and_backstop(&req, default, now);
        let grace = Duration::from_secs(60);
        assert_eq!((deadline - now, backstop - now), (default, default + grace));
        // A deadline longer than the default and the grace together must
        // still be waited out, not abandoned while the entry is queued.
        req.deadline_micros = 300_000_000;
        let (deadline, backstop) = deadline_and_backstop(&req, default, now);
        assert_eq!(deadline - now, Duration::from_secs(300));
        assert_eq!(backstop - deadline, grace);
    }
}
