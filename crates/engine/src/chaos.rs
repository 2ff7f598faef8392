//! Deterministic panic injection for fault-tolerance tests.
//!
//! Panic isolation (workers caught at the thread boundary, queries caught
//! at the engine boundary) is only trustworthy if tests can make real code
//! panic at realistic points. A [`ChaosTrigger`] rides on a
//! [`crate::ResourceGuard`] and is ticked from
//! [`crate::ResourceGuard::charge`] — i.e. at every morsel boundary of every
//! scan — so an armed panic fires inside a genuine worker hot loop, not in a
//! synthetic closure.
//!
//! The trigger is scoped to the guard it is attached to: every clone of
//! that guard (worker threads share it by reference) and every per-query
//! guard derived from it tick the same countdown, and nothing else does.
//! Tests arming different triggers therefore run concurrently without
//! interfering. Disarmed, the cost on the hot path is one relaxed atomic
//! load per morsel; a guard without a trigger pays one branch.

use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::Arc;

/// Message carried by injected panics, so tests can assert the payload
/// round-trips into `WorkerPanicked { payload }`.
pub const CHAOS_PANIC_MSG: &str = "injected chaos panic";

/// A shared panic countdown, disarmed by default. Clones share one
/// counter.
#[derive(Debug, Clone, Default)]
pub struct ChaosTrigger {
    /// One more than the ticks remaining until the next injected panic;
    /// zero or below = disarmed.
    countdown: Arc<AtomicI64>,
}

impl ChaosTrigger {
    /// Arm the trigger: the `ticks`-th subsequent [`ChaosTrigger::tick`]
    /// call panics (0 = the very next one). Overwrites any previous arming.
    pub fn arm(&self, ticks: u64) {
        let ticks = ticks.min(i64::MAX as u64 - 1) as i64;
        self.countdown.store(ticks + 1, Ordering::SeqCst);
    }

    /// Disarm the trigger. Idempotent.
    pub fn disarm(&self) {
        self.countdown.store(0, Ordering::SeqCst);
    }

    /// Whether a panic is currently armed.
    pub fn is_armed(&self) -> bool {
        self.countdown.load(Ordering::SeqCst) > 0
    }

    /// Count one trigger point; panics when the armed countdown reaches
    /// zero. Called from `ResourceGuard::charge`, i.e. once per morsel.
    #[inline]
    pub fn tick(&self) {
        if self.countdown.load(Ordering::Relaxed) <= 0 {
            return;
        }
        // Slow path only while armed. fetch_sub hands exactly one thread the
        // last tick; concurrent tickers drive the counter to zero or below,
        // which reads as disarmed.
        if self.countdown.fetch_sub(1, Ordering::SeqCst) == 1 {
            panic!("{CHAOS_PANIC_MSG}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arms_counts_down_and_disarms() {
        let trigger = ChaosTrigger::default();
        assert!(!trigger.is_armed());
        trigger.tick(); // disarmed: no-op
        trigger.arm(2);
        assert!(trigger.is_armed());
        trigger.tick();
        trigger.tick();
        let caught = std::panic::catch_unwind(|| trigger.tick());
        let payload = caught.unwrap_err();
        assert_eq!(
            payload.downcast_ref::<String>().map(String::as_str),
            Some(CHAOS_PANIC_MSG)
        );
        assert!(!trigger.is_armed(), "firing consumes the arming");
        trigger.tick(); // and stays disarmed
        trigger.disarm();
        assert!(!trigger.is_armed());
    }
}
