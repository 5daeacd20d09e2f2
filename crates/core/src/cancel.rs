//! Cooperative query cancellation.
//!
//! A [`CancelToken`] is a shared flag a *controller* (a serving
//! scheduler's deadline watchdog, a client that hung up) raises to ask a
//! running estimator to stop. The estimators poll it **cooperatively** at
//! coarse natural boundaries — hop boundaries and every `CHECK_INTERVAL`
//! (8192) processed nodes in the push kernels ([`crate::push::hk_push_ws`],
//! [`crate::push_plus::hk_push_plus_ws`]), chunk boundaries in the
//! batched walk engine — so the check is one relaxed atomic load
//! amortized over thousands of operations: zero measurable cost when the
//! token is unset, bounded reaction latency when it fires, however large
//! a hop grows.
//!
//! A cancelled query returns [`crate::HkprError::Cancelled`] and leaves
//! its [`crate::QueryWorkspace`] fully reusable: every workspace
//! structure is cleared at the start of the next query, so a
//! cancellation at *any* point cannot leak state into later queries
//! (property-tested in `tests/cancel.rs` — the next query on the same
//! workspace is bit-identical to a cold run).
//!
//! Cancellation never changes the bytes of a query that completes: the
//! checks are pure control flow on top of unchanged arithmetic and RNG
//! consumption, so an uncancelled run with a token installed is
//! bit-identical to a run without one (also property-tested).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Shared cancellation flag; clones observe the same flag. See the
/// [module docs](self).
#[derive(Clone, Debug, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, unset token.
    pub fn new() -> CancelToken {
        CancelToken::default()
    }

    /// Raise the flag. Idempotent; visible to every clone.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Release);
    }

    /// Poll the flag (one relaxed atomic load).
    #[inline]
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Relaxed)
    }

    /// True when this is the last live clone of the token: every other
    /// holder (the running query, its workspace) has dropped theirs, so
    /// firing it can no longer be observed. A deadline watchdog uses this
    /// to lazily purge entries of jobs that settled before their deadline
    /// — an orphaned token is dead weight, not a pending cancellation.
    pub fn is_orphaned(&self) -> bool {
        Arc::strong_count(&self.flag) == 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clones_share_the_flag() {
        let a = CancelToken::new();
        let b = a.clone();
        assert!(!a.is_cancelled() && !b.is_cancelled());
        b.cancel();
        assert!(a.is_cancelled() && b.is_cancelled());
        a.cancel(); // idempotent
        assert!(a.is_cancelled());
    }

    #[test]
    fn fresh_tokens_are_independent() {
        let a = CancelToken::new();
        let b = CancelToken::new();
        a.cancel();
        assert!(!b.is_cancelled());
    }

    #[test]
    fn orphaned_once_every_other_clone_drops() {
        let watchdog_copy = CancelToken::new();
        assert!(watchdog_copy.is_orphaned(), "sole owner is an orphan");
        let job_copy = watchdog_copy.clone();
        assert!(!watchdog_copy.is_orphaned());
        assert!(!job_copy.is_orphaned());
        drop(job_copy);
        assert!(watchdog_copy.is_orphaned());
        // Orphaning says nothing about the flag itself.
        assert!(!watchdog_copy.is_cancelled());
    }
}
