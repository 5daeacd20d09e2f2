//! The scheduler's deadline watchdog: one monitor thread that fires the
//! cancel tokens of running jobs whose deadline has passed.

use std::collections::BinaryHeap;
use std::sync::{Condvar, Mutex};
use std::time::Instant;

use hkpr_core::CancelToken;

struct WatchEntry {
    at: Instant,
    seq: u64,
    token: CancelToken,
}

impl PartialEq for WatchEntry {
    fn eq(&self, other: &Self) -> bool {
        self.seq == other.seq
    }
}
impl Eq for WatchEntry {}
impl PartialOrd for WatchEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for WatchEntry {
    /// Max-heap: greater = earlier `at`, so `peek` is the next deadline.
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

#[derive(Default)]
struct WatchState {
    heap: BinaryHeap<WatchEntry>,
    seq: u64,
    shutdown: bool,
    /// Heap size at which [`Watchdog::register`] runs its next
    /// settled-entry purge (re-derived after every purge).
    purge_at: usize,
}

/// Purges run no earlier than this heap size — below it the heap is
/// too small to be worth a sweep.
const WATCHDOG_PURGE_MIN: usize = 64;

/// The deadline watchdog: workers register `(deadline, CancelToken)` of
/// the job they start; one monitor thread sleeps until the earliest
/// registered deadline and fires the expired tokens. Entries of jobs that
/// finish in time fire against a token nobody polls anymore — harmless to
/// *fire*, but not free to *keep*: under high qps with long deadlines the
/// heap would hold every settled job until its deadline lapsed. `register`
/// therefore purges settled entries lazily, detected by token orphaning
/// ([`CancelToken::is_orphaned`]: the job and its workspace dropped their
/// clones, only the heap's remains). Each sweep is O(heap) but the
/// threshold doubles past the surviving size, so the amortized cost per
/// registration is O(1) and the heap stays within a constant factor of
/// the *live* (unsettled) job count.
pub(crate) struct Watchdog {
    state: Mutex<WatchState>,
    bell: Condvar,
}

impl Watchdog {
    pub(crate) fn new() -> Watchdog {
        Watchdog {
            state: Mutex::new(WatchState::default()),
            bell: Condvar::new(),
        }
    }

    pub(crate) fn register(&self, at: Instant, token: CancelToken) {
        let mut state = self.state.lock().unwrap();
        state.seq += 1;
        let seq = state.seq;
        state.heap.push(WatchEntry { at, seq, token });
        if state.heap.len() >= state.purge_at.max(WATCHDOG_PURGE_MIN) {
            state.heap.retain(|e| !e.token.is_orphaned());
            state.purge_at = state.heap.len().saturating_mul(2);
        }
        self.bell.notify_one();
    }

    pub(crate) fn shutdown(&self) {
        self.state.lock().unwrap().shutdown = true;
        self.bell.notify_all();
    }

    pub(crate) fn run(&self) {
        let mut state = self.state.lock().unwrap();
        loop {
            if state.shutdown {
                return;
            }
            let now = Instant::now();
            while state.heap.peek().is_some_and(|e| e.at <= now) {
                state.heap.pop().unwrap().token.cancel();
            }
            match state.heap.peek().map(|e| e.at) {
                Some(at) => {
                    let (s, _) = self
                        .bell
                        .wait_timeout(state, at.saturating_duration_since(now))
                        .unwrap();
                    state = s;
                }
                None => state = self.bell.wait(state).unwrap(),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{EngineConfig, MultiEngine, MultiEngineConfig, QueryRequest};
    use hk_graph::gen::planted_partition;
    use hk_graph::NodeId;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use std::sync::Arc;
    use std::time::Duration;

    #[test]
    fn watchdog_heap_purges_settled_entries() {
        // Fast queries with long deadlines: every job registers a
        // watchdog entry that outlives it by minutes. Without the lazy
        // purge the heap would end at ~query count; with it, settled
        // (orphaned-token) entries are swept whenever the heap reaches
        // the purge threshold, so it stays bounded by that threshold
        // regardless of traffic.
        let mut rng = SmallRng::seed_from_u64(44);
        let graph = planted_partition(4, 40, 0.35, 0.01, &mut rng)
            .unwrap()
            .graph;
        let e = MultiEngine::new(MultiEngineConfig {
            engine: EngineConfig {
                workers: 1,
                cache_bytes: 0, // every query reaches a worker and registers
                ..EngineConfig::default()
            },
            ..MultiEngineConfig::default()
        });
        e.registry().register_graph("g", Arc::new(graph));
        let queries = 4 * WATCHDOG_PURGE_MIN;
        for i in 0..queries {
            let req = QueryRequest::new((i % 7) as NodeId).deadline_in(Duration::from_secs(600));
            e.query("g", req).unwrap();
        }
        let len = e.sched.watchdog().state.lock().unwrap().heap.len();
        assert!(
            len <= WATCHDOG_PURGE_MIN,
            "watchdog heap kept {len} of {queries} settled entries"
        );
    }
}
