//! # nvserver — fault-tolerant multi-tenant region server
//!
//! A sharded front end that serves get/put/delete and batched
//! transactional requests against many [`nvmsim::Region`] tenants, each
//! request on the thread that submitted it (the server starts no
//! threads). Requests and responses travel through a versioned
//! CRC-framed codec ([`codec`], magic `NVPISRV1`) over an in-process
//! [`Transport`] (loopback now, a socket later).
//!
//! A tenant keeps its keys in one structure, a persistent adaptive radix
//! tree ([`pds::PArt`]) over [`index_word`]s: a Get is one lookup, an
//! applied Put or Delete is one undo transaction, and a prefix query
//! walks the same tree.
//!
//! The serving path costs little beyond its structure op. A frame is
//! built and sealed in one buffer and checked without a copy; a request
//! that finds its shard idle runs at once, with no queue entry, response
//! slot or wake-up; a request finds its tenant with one hash lookup; a
//! prefix reply is written straight from the ART's in-order walk. A
//! Get, Put or Delete on an open tenant allocates only its two frames.
//!
//! Robustness is the headline, not throughput:
//!
//! - **Admission control** — per-shard bounded queues; past the
//!   high-water mark the shard sheds the lowest-priority queued request
//!   below the arrival (answering it `Overloaded`) or rejects the
//!   arrival itself.
//! - **Deadlines** — every request carries one (or inherits the server
//!   default) and expires to a terminal `DeadlineExceeded` rather than
//!   waiting forever behind a stalled shard. It is checked once, just
//!   before the request executes; execution itself never waits.
//! - **Eviction & remap** — hot/cold LRU eviction closes a tenant's
//!   region and later reopens it **at a different base address**
//!   ([`nvmsim::Region::open_file_avoiding`]): every eviction is a live
//!   position-independence exercise for the paper's pointer formats.
//! - **Crash recovery** — a tenant is `Closed`, `Healthy`, or
//!   `Recovered` (came back from a crash image). A crash is recovered in
//!   place: undo recovery runs on the crash image, reopened at a
//!   different base like every other reopen, and the tenant keeps
//!   serving reads and writes. The write the crash interrupted runs
//!   again; it is the only write that ever runs twice, since every write
//!   error is deterministic and answered `Failed` at once.
//!
//! A [`ServerFaultPlan`] (modeled on `nvmsim`'s `FaultPlan`) injects
//! shard stalls and tenant crash images mid-request; the `server_matrix`
//! integration test sweeps tenants × faults × seeds and asserts that
//! every request gets a terminal response, acked commits survive crash
//! and remapped reopen, and eviction never violates structure
//! invariants.

#![warn(missing_docs)]

pub mod codec;
pub mod fault;
pub mod server;
pub mod tenant;

pub use codec::{
    BatchOp, BatchResult, CodecError, Priority, ReqOp, Request, Response, Status, CODEC_VERSION,
    FRAME_MAGIC, MAX_PREFIX,
};
pub use fault::{ServerFaultPlan, ShardStall, TenantCrash};
pub use server::{
    Client, Server, ServerConfig, ServerHandle, ServerReport, TenantReport, Transport,
};
pub use tenant::{
    index_word, key_of_word, ReprKind, TenantMetrics, TenantSnapshot, TenantSpec, TenantState,
};
