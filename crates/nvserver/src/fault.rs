//! Server-level fault injection, modeled on `nvmsim`'s `FaultPlan`.
//!
//! A [`ServerFaultPlan`] is armed by the test harness before (or during)
//! a run and consulted while a shard is served, at well-defined points:
//!
//! - **Shard stalls** — whichever thread is serving the shard sleeps
//!   before its N-th dequeue, expiring queued deadlines behind it.
//! - **Tenant crashes** — the N-th write against a tenant first turns
//!   the tenant's region into a fault-injected crash image
//!   ([`nvmsim::Region::crash_with_faults`]), then recovers it in place,
//!   reopened **at a different base**.
//!
//! All injections are one-shot and consumed atomically, so a plan drives
//! a deterministic scenario even with several shards consulting it
//! concurrently. Until the first stall or crash is armed, a consult is
//! one atomic load and takes no lock.

use nvmsim::shadow::FaultPolicy;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// One-shot shard stall: before the shard's `at_dequeue`-th dequeue
/// (1-based), whichever thread is serving it sleeps for `stall`.
#[derive(Debug, Clone, Copy)]
pub struct ShardStall {
    /// Shard index the stall applies to.
    pub shard: usize,
    /// Dequeue ordinal (1-based) that triggers the stall.
    pub at_dequeue: u64,
    /// How long the serving thread sleeps.
    pub stall: Duration,
}

/// One-shot tenant crash: the `at_write`-th write (1-based, counted per
/// tenant, a re-run included) crashes the tenant's region under `policy`
/// before the write commits, then recovers the crash image in place
/// (reopened remapped) and runs the write again — the triggering write
/// is never acked out of a crash it did not survive.
#[derive(Debug, Clone, Copy)]
pub struct TenantCrash {
    /// Tenant the crash applies to.
    pub tenant: u32,
    /// Write ordinal (1-based) that triggers the crash.
    pub at_write: u64,
    /// Fault policy for the crash image (drop/tear/rot unflushed lines).
    pub policy: FaultPolicy,
}

#[derive(Debug, Default)]
struct PlanState {
    stalls: Vec<ShardStall>,
    crashes: Vec<TenantCrash>,
}

#[derive(Debug, Default)]
struct Plan {
    /// Set by the first stall or crash armed; until then the
    /// per-request consults return without taking the lock.
    armed: AtomicBool,
    state: Mutex<PlanState>,
}

/// Shared, thread-safe fault schedule for one server run. Cheap to
/// clone; all clones see the same state.
#[derive(Debug, Clone, Default)]
pub struct ServerFaultPlan {
    inner: Arc<Plan>,
}

impl ServerFaultPlan {
    /// An empty plan (no faults).
    pub fn none() -> ServerFaultPlan {
        ServerFaultPlan::default()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, PlanState> {
        self.inner.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// The plan state for arming a serving-side injection.
    fn arm(&self) -> std::sync::MutexGuard<'_, PlanState> {
        let st = self.lock();
        self.inner.armed.store(true, Ordering::Release);
        st
    }

    /// The plan state for a serving-side consult; `None` until something
    /// was armed.
    fn consult(&self) -> Option<std::sync::MutexGuard<'_, PlanState>> {
        self.inner
            .armed
            .load(Ordering::Acquire)
            .then(|| self.lock())
    }

    /// Arms a one-shot shard stall.
    pub fn stall_shard(&self, shard: usize, at_dequeue: u64, stall: Duration) {
        self.arm().stalls.push(ShardStall {
            shard,
            at_dequeue,
            stall,
        });
    }

    /// Arms a one-shot tenant crash (see [`TenantCrash`]).
    pub fn crash_tenant(&self, tenant: u32, at_write: u64, policy: FaultPolicy) {
        self.arm().crashes.push(TenantCrash {
            tenant,
            at_write,
            policy,
        });
    }

    // -- serving-side consults ------------------------------------------------

    /// Consumes and returns the stall armed for this shard at (or
    /// before) the `nth` dequeue, if any.
    pub fn take_stall(&self, shard: usize, nth: u64) -> Option<Duration> {
        let mut st = self.consult()?;
        let idx = st
            .stalls
            .iter()
            .position(|s| s.shard == shard && nth >= s.at_dequeue)?;
        Some(st.stalls.swap_remove(idx).stall)
    }

    /// Consumes and returns the crash armed for this tenant at (or
    /// before) its `write_nth` write, if any.
    pub fn take_crash(&self, tenant: u32, write_nth: u64) -> Option<TenantCrash> {
        let mut st = self.consult()?;
        let idx = st
            .crashes
            .iter()
            .position(|c| c.tenant == tenant && write_nth >= c.at_write)?;
        Some(st.crashes.swap_remove(idx))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn injections_are_one_shot() {
        let plan = ServerFaultPlan::none();
        plan.stall_shard(1, 3, Duration::from_millis(5));
        assert!(plan.take_stall(0, 10).is_none(), "wrong shard");
        assert!(plan.take_stall(1, 2).is_none(), "too early");
        assert_eq!(plan.take_stall(1, 3), Some(Duration::from_millis(5)));
        assert!(plan.take_stall(1, 4).is_none(), "consumed");

        plan.crash_tenant(7, 2, FaultPolicy::DropUnflushed);
        assert!(plan.take_crash(7, 1).is_none());
        let c = plan.take_crash(7, 2).unwrap();
        assert_eq!(c.policy, FaultPolicy::DropUnflushed);
        assert!(plan.take_crash(7, 3).is_none(), "consumed");
    }

    #[test]
    fn a_clone_taken_before_arming_sees_the_injection() {
        let plan = ServerFaultPlan::none();
        let serving = plan.clone();
        assert!(serving.take_crash(4, 1).is_none(), "nothing armed");
        plan.crash_tenant(4, 1, FaultPolicy::DropUnflushed);
        assert!(serving.take_crash(4, 1).is_some());
        assert!(plan.take_crash(4, 2).is_none(), "consumed");
    }
}
