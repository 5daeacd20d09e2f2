//! The spare-core gate: when a query phase may take a second thread.
//!
//! Two phases of a query split their work with one scoped helper thread:
//! a walk pass ([`crate::walk`]) and the sweep that follows the estimate
//! (`hk-cluster`'s sweep counts its prefix on two threads). Both ask this
//! gate first. The calling thread counts itself in for as long as the
//! phase runs ([`Busy::enter`]) and asks for a helper
//! ([`Busy::spare`]), which it gets only while fewer of the process's
//! threads run such phases than it has cores. So when every core is
//! already busy with one, as when an engine's workers are all walking, a
//! phase stays on its own thread: there a helper could only take a core
//! from another query. A process that may use one core only
//! ([`second_core`] reads false, as under `taskset -c 0`) never asks.

use std::panic::resume_unwind;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::thread::{Builder, ScopedJoinHandle};

/// Cores this process may run on: read once, since the answer costs file
/// reads on Linux.
pub(crate) fn cores() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Whether this process may run on at least two cores. A process pinned
/// to one core (`taskset`) reads false and never spawns a helper.
pub fn second_core() -> bool {
    cores() >= 2
}

/// Threads of this process running a two-thread phase right now: the
/// callers on a multi-core host, and their helpers. A count that
/// publishes no data, so its operations are `Relaxed`.
static BUSY: AtomicUsize = AtomicUsize::new(0);

/// One thread counted in the gate, for as long as it lives.
#[derive(Debug)]
pub struct Busy(());

impl Busy {
    /// Count the calling thread.
    pub fn enter() -> Busy {
        BUSY.fetch_add(1, Ordering::Relaxed);
        Busy(())
    }

    /// Count a helper, if fewer threads are counted than the process has
    /// cores.
    pub fn spare() -> Option<Busy> {
        BUSY.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| {
            (n < cores()).then_some(n + 1)
        })
        .ok()
        .map(|_| Busy(()))
    }
}

impl Drop for Busy {
    fn drop(&mut self) {
        BUSY.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Stack of a helper thread: it runs one loop (a walk window, a sweep
/// scan) and calls nothing recursive.
const HELPER_STACK: usize = 128 << 10;

/// Run `caller` here and `helper`, if any, on a scoped thread beside it;
/// the helper's result is `None` if it did not run. `caller` learns
/// whether the helper started (if not, its share is the caller's). A
/// helper's panic is raised again once `caller` is done.
pub fn with_helper<T: Send, R>(
    helper: Option<impl FnOnce() -> T + Send>,
    caller: impl FnOnce(bool) -> R,
) -> (R, Option<T>) {
    let Some(helper) = helper else {
        return (caller(false), None);
    };
    std::thread::scope(|s| {
        let builder = Builder::new().stack_size(HELPER_STACK);
        let spawned = builder.spawn_scoped(s, helper).ok();
        let mine = caller(spawned.is_some());
        let join = |h: ScopedJoinHandle<T>| h.join().unwrap_or_else(|p| resume_unwind(p));
        (mine, spawned.map(join))
    })
}
