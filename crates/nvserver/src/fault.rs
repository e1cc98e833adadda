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
//! - **Transient write faults** — the write path reports a retryable
//!   failure a bounded number of times, exercising the capped-backoff
//!   retry ladder.
//!
//! All injections are one-shot (or counted) and consumed atomically, so
//! a plan drives a deterministic scenario even with several shards
//! consulting it concurrently. Until the first stall, crash or transient
//! is armed, a consult is one atomic load and takes no lock.

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
/// tenant across retries) crashes the tenant's region under `policy`
/// before the write commits, then recovers the crash image in place
/// (reopened remapped) and retries the write — the triggering write is
/// never acked out of a crash it did not survive.
#[derive(Debug, Clone, Copy)]
pub struct TenantCrash {
    /// Tenant the crash applies to.
    pub tenant: u32,
    /// Write ordinal (1-based) that triggers the crash.
    pub at_write: u64,
    /// Fault policy for the crash image (drop/tear/rot unflushed lines).
    pub policy: FaultPolicy,
}

/// Counted transient write fault: starting at the `at_write`-th write
/// (1-based), the next `failures` write attempts against the tenant
/// report a retryable failure.
#[derive(Debug, Clone, Copy)]
pub struct TransientFault {
    /// Tenant the fault applies to.
    pub tenant: u32,
    /// First write ordinal (1-based) affected.
    pub at_write: u64,
    /// How many attempts fail before the fault clears.
    pub failures: u32,
}

#[derive(Debug, Default)]
struct PlanState {
    stalls: Vec<ShardStall>,
    crashes: Vec<TenantCrash>,
    transients: Vec<TransientFault>,
}

#[derive(Debug, Default)]
struct Plan {
    /// Set by the first stall, crash or transient armed; until then the
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

    /// Arms a counted transient write fault (see [`TransientFault`]).
    pub fn transient(&self, tenant: u32, at_write: u64, failures: u32) {
        self.arm().transients.push(TransientFault {
            tenant,
            at_write,
            failures,
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

    /// Consumes one transient-failure token for this tenant's
    /// `write_nth` write. Returns `true` if the attempt must fail.
    pub fn take_transient_failure(&self, tenant: u32, write_nth: u64) -> bool {
        let Some(mut st) = self.consult() else {
            return false;
        };
        let Some(idx) = st
            .transients
            .iter()
            .position(|t| t.tenant == tenant && write_nth >= t.at_write && t.failures > 0)
        else {
            return false;
        };
        st.transients[idx].failures -= 1;
        if st.transients[idx].failures == 0 {
            st.transients.swap_remove(idx);
        }
        true
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
    fn transient_tokens_count_down() {
        let plan = ServerFaultPlan::none();
        plan.transient(3, 2, 2);
        assert!(!plan.take_transient_failure(3, 1));
        assert!(plan.take_transient_failure(3, 2));
        assert!(plan.take_transient_failure(3, 3));
        assert!(!plan.take_transient_failure(3, 4), "tokens exhausted");
    }

    #[test]
    fn a_clone_taken_before_arming_sees_the_injection() {
        let plan = ServerFaultPlan::none();
        let serving = plan.clone();
        assert!(!serving.take_transient_failure(4, 1), "nothing armed");
        plan.transient(4, 1, 1);
        assert!(serving.take_transient_failure(4, 1));
        assert!(!plan.take_transient_failure(4, 2), "consumed");
    }
}
