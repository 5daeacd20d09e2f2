//! `k-RandomWalk` (Algorithm 2): heat-kernel random walks that start at an
//! arbitrary hop index.
//!
//! A walk standing at hop `k + l` terminates with probability
//! `eta(k+l) / psi(k+l)` and otherwise moves to a uniform neighbor. Lemma 2
//! shows the returned node is distributed as `h_u^(k)[v]` — the probability
//! a heat-kernel walk stops at `v` given its `k`-th hop is at `u` — which
//! is exactly the quantity TEA/TEA+ need to convert residues into HKPR
//! mass (Lemma 1). Lemma 4 bounds the expected walk length by `t`.
//!
//! # One plan, one executor
//!
//! The per-step stop test is *mathematically removable*: the product of
//! survival probabilities telescopes (`1 - eta(j)/psi(j) = psi(j+1)/psi(j)`),
//! so a walk at hop `k` stops at hop `h` with probability `eta(h)/psi(k)`
//! and its exact length can be drawn up front from a per-start-hop alias
//! table ([`crate::poisson::LengthTables`]). The batched engine turns a
//! walk phase into a *plan* — alias-sampled starts, grouped by start
//! entry, cut into fixed `CHUNK_WALKS`-walk chunks, one RNG stream per
//! chunk keyed by its absolute index — and runs every chunk through
//! `fill_walk_buf` + `Lanes`: presample the chunk's lengths, then
//! advance `LANES` walks in lockstep with each lane's next adjacency row
//! software-prefetched one step ahead, picking neighbors with a
//! divisionless Lemire multiply on a `u32` draw. That consumes a chunk's
//! RNG stream in another order than the per-step stop test, so it draws a
//! different — equally distributed — sample; [`k_random_walk`], Algorithm
//! 2 as printed, is the baseline tests and benchmarks hold it to.
//!
//! There is one planner for every estimator. Monte-Carlo's walks are the
//! plan of the single entry `(0, seed)`: every chunk draws its walks'
//! lengths from hop 0's table, so its chunks are i.i.d. samples of the
//! whole phase. [`fixed_length_walk`] is only the reference Monte-Carlo's
//! walk.
//!
//! A walk phase runs its chunks in one pass, on the thread that runs the
//! query and, when the process may use a second core that no other
//! two-thread phase is using ([`crate::cores`]) and the pass has at least
//! two chunks, on one scoped helper thread beside it (a phase of more than `PASS_WALKS` walks runs as
//! consecutive passes of at most that many). The two claim chunk indices
//! from one shared counter, each reading the cancel token before it
//! claims, so the chunks that ran are always a prefix of the pass. Each
//! thread keeps up to `WINDOW` claimed chunks in flight
//! (`Pass::run_window`), stepping their lane sets round-robin so their
//! random loads overlap. A walk over a graph far larger than the cache is
//! bound by memory latency, and each core has its own load pipeline, so
//! the second thread nearly doubles the loads in flight.
//!
//! A chunk's draws and deposits depend only on its own stream and walk
//! list, so neither the window nor which thread ran a chunk shows in the
//! counts: `tests::walk_engine_bits_are_pinned` holds digests taken with
//! one chunk at a time on one thread.
//!
//! A walk ends by adding one to its endpoint's count in the query's
//! [`Reserve`], the record that also holds that node's push reserve, so
//! assembly reads `q[v] + count[v] * alpha / n_r` off one record per node.
//! The helper never touches the reserve: it logs its endpoints, and the
//! calling thread adds the log to the reserve after the join. The engine
//! never sizes the reserve: the push stages begin it with their
//! workspace, and [`run_batched_walks`] checks that its caller did.

use std::sync::atomic::{AtomicUsize, Ordering};

use hk_graph::{Graph, NodeId};
use rand::{Rng, RngExt};

use crate::cores::{second_core, with_helper, Busy};
use crate::poisson::{LengthTables, PoissonTable};

/// Run one `k-RandomWalk` from `start` whose hop counter begins at `k`.
/// Returns the terminating node and the number of steps taken.
///
/// Degree-0 nodes are absorbing: a walk that reaches one can never move,
/// so it terminates there (the remaining stop probability is spent in
/// place; this matches the limit behaviour of the defining random walk).
#[inline]
pub fn k_random_walk<R: Rng + ?Sized>(
    graph: &Graph,
    poisson: &PoissonTable,
    start: NodeId,
    k: usize,
    rng: &mut R,
) -> (NodeId, u32) {
    let mut cur = start;
    let mut hop = k;
    let mut steps = 0u32;
    loop {
        if rng.random::<f64>() < poisson.stop_prob(hop) {
            return (cur, steps);
        }
        let d = graph.degree(cur);
        if d == 0 {
            return (cur, steps);
        }
        cur = graph.neighbor_at(cur, rng.random_range(0..d));
        hop += 1;
        steps += 1;
    }
}

/// Run a plain heat-kernel walk of exactly `len` steps from `start`
/// (used by the reference Monte-Carlo and the ClusterHKPR baseline, which
/// sample the Poisson length up front). Degree-0 nodes absorb the walk.
#[inline]
pub fn fixed_length_walk<R: Rng + ?Sized>(
    graph: &Graph,
    start: NodeId,
    len: usize,
    rng: &mut R,
) -> NodeId {
    let mut cur = start;
    for _ in 0..len {
        let d = graph.degree(cur);
        if d == 0 {
            return cur;
        }
        cur = graph.neighbor_at(cur, rng.random_range(0..d));
    }
    cur
}

/// One chunk's movable walks, presampled — the unit the lane kernel
/// executes: every walk's length, in order, and the runs of consecutive
/// walks that share a start node. A work item's walks all share one, so a
/// walk costs its length's four bytes, and a run eight.
#[derive(Clone, Debug, Default)]
struct WalkBuf {
    lens: Vec<u32>,
    runs: Vec<(NodeId, u32)>,
}

impl WalkBuf {
    fn clear(&mut self) {
        self.lens.clear();
        self.runs.clear();
    }

    /// Close the run of the walks pushed since `lens.len()` was `from`:
    /// they all start at `start`.
    fn end_run(&mut self, start: NodeId, from: usize) {
        let walks = self.lens.len() - from;
        if walks > 0 {
            self.runs.push((start, walks as u32));
        }
    }

    /// Make room for a chunk of up to `walks` movable walks in up to
    /// `runs` runs, the way [`fit`] does.
    fn fit(&mut self, walks: usize, runs: usize) {
        self.clear();
        fit(&mut self.lens, walks);
        fit(&mut self.runs, runs);
    }

    fn memory_bytes(&self) -> usize {
        self.lens.capacity() * std::mem::size_of::<u32>()
            + self.runs.capacity() * std::mem::size_of::<(NodeId, u32)>()
    }
}

/// Where the lanes stand in a chunk's [`WalkBuf`]: the next walk's length
/// and run, and what is left of that run.
#[derive(Clone, Copy, Debug, Default)]
struct ListCursor {
    len_at: usize,
    run_at: usize,
    run_left: u32,
    start: NodeId,
}

impl ListCursor {
    /// The next pending walk `(start, length)`, if any.
    #[inline(always)]
    fn pop(&mut self, walks: &WalkBuf) -> Option<(NodeId, u32)> {
        let &len = walks.lens.get(self.len_at)?;
        self.len_at += 1;
        if self.run_left == 0 {
            (self.start, self.run_left) = walks.runs[self.run_at];
            self.run_at += 1;
        }
        self.run_left -= 1;
        Some((self.start, len))
    }
}

/// Scratch buffers of the batched walk engine, owned by
/// [`crate::workspace::QueryWorkspace`] so repeated queries reuse them.
#[derive(Clone, Debug, Default)]
pub struct WalkScratch {
    /// Walk multiplicity per alias-table column.
    start_counts: Vec<u64>,
    /// Flattened work items `(entry index, walk count)`, chunk-splittable.
    work: Vec<(u32, u64)>,
    /// Chunk boundaries: ranges into `work`.
    chunks: Vec<(u32, u32)>,
    /// Cumulative planned walks before each chunk boundary
    /// (`len == chunks.len() + 1`), filled at plan time so refinement
    /// tiers can be snapped to chunk prefixes.
    chunk_walk_prefix: Vec<u64>,
    /// Presampled-walk buffers, one per window slot (the walk list of the
    /// chunk in that slot; a chunk closes on the work item that takes it
    /// to [`CHUNK_WALKS`], so up to `2 * CHUNK_WALKS - 1` walks each).
    lane_bufs: [WalkBuf; WINDOW],
    /// The helper thread's window buffers, sized by the calling thread to
    /// a chunk's worst case before the helper first starts (and so are
    /// `lane_bufs` then).
    helper_bufs: [WalkBuf; WINDOW],
    /// The helper thread's walk endpoints, sized by the calling thread to
    /// a pass's most walks ([`PASS_WALKS`]).
    helper_log: EndpointLog,
}

impl WalkScratch {
    /// Bytes held by the backing allocations (workspace memory
    /// accounting; see [`crate::QueryWorkspace::memory_bytes`]).
    pub fn memory_bytes(&self) -> usize {
        self.start_counts.capacity() * std::mem::size_of::<u64>()
            + self.work.capacity() * std::mem::size_of::<(u32, u64)>()
            + self.chunks.capacity() * std::mem::size_of::<(u32, u32)>()
            + self.chunk_walk_prefix.capacity() * std::mem::size_of::<u64>()
            + self
                .lane_bufs
                .iter()
                .chain(&self.helper_bufs)
                .map(WalkBuf::memory_bytes)
                .sum::<usize>()
            + self.helper_log.0.capacity() * std::mem::size_of::<NodeId>()
    }

    /// Bytes of the helper thread's window buffers and endpoint log, which
    /// [`memory_bytes`](Self::memory_bytes) includes.
    #[cfg(test)]
    pub(crate) fn helper_bytes(&self) -> usize {
        self.helper_bufs
            .iter()
            .map(WalkBuf::memory_bytes)
            .sum::<usize>()
            + self.helper_log.0.capacity() * std::mem::size_of::<NodeId>()
    }

    /// Cumulative planned walks strictly before chunk `chunk` of the most
    /// recent plan (`chunk == num_chunks` gives the plan's total).
    #[cfg(test)]
    pub(crate) fn planned_walks_through(&self, chunk: usize) -> u64 {
        self.chunk_walk_prefix[chunk]
    }

    /// Cumulative planned-walk prefix of the most recent plan
    /// (`prefix[c]` = walks in chunks `0..c`; `len == num_chunks + 1`).
    pub(crate) fn chunk_walk_prefix(&self) -> &[u64] {
        &self.chunk_walk_prefix
    }

    /// Size the helper's window buffers and endpoint log for a pass over
    /// chunks `[from, upto)` of at most [`PASS_WALKS`] walks, before the
    /// helper starts. The calling thread's buffers too: which thread opens
    /// which chunk varies from run to run, and the capacities
    /// `memory_bytes` reports must not. A chunk's walk list has at most
    /// one run per work item.
    fn fit_helper(&mut self, from: usize, upto: usize) {
        let prefix = &self.chunk_walk_prefix;
        debug_assert!(prefix[upto] - prefix[from] <= PASS_WALKS);
        self.helper_log.0.clear();
        fit(&mut self.helper_log.0, PASS_WALKS as usize);
        let range = &self.chunks[from..upto];
        let items = range.iter().map(|&(lo, hi)| (hi - lo) as usize).max();
        for buf in self.lane_bufs.iter_mut().chain(&mut self.helper_bufs) {
            buf.fit(MAX_CHUNK_BUF, items.unwrap_or(0));
        }
    }

    /// Release the backing allocations.
    pub(crate) fn release(&mut self) {
        *self = WalkScratch::default();
    }
}

/// Progress cursor over a planned walk phase — the chunk decomposition
/// [`plan_batched_walks`] leaves in the [`WalkScratch`] it planned on,
/// valid until the next plan and executed, possibly in several
/// chunk-prefix increments, by [`run_planned_walks`]. Executing chunks
/// `[0, a)` then `[a, b)` deposits bit-identically to executing `[0, b)`
/// in one call: chunk RNG streams are keyed by *absolute* chunk index and
/// endpoint counts add exactly (integer accumulators), which is what
/// makes tiered anytime refinement conformant with one-shot runs.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct WalkCursor {
    /// First chunk the next execution call will run.
    pub next_chunk: usize,
    /// Walks deposited so far (counts only chunks that actually ran; a
    /// fired cancel token makes later chunks skip without depositing).
    pub walks_done: u64,
    /// Steps walked so far.
    pub steps: u64,
}

/// Target walks per execution chunk. Fixed so the chunk decomposition —
/// and with it every per-chunk RNG stream — is a pure function of the
/// sampled walk starts.
const CHUNK_WALKS: u64 = 4096;

/// Walks one chunk advances in lockstep ([`Lanes`]). The lane count fixes
/// the order in which a chunk's stream is drawn — which walk takes which
/// draw — so it is part of what every answer is, not a tuning knob:
/// more loads in flight come from [`WINDOW`] instead.
const LANES: usize = 8;

/// Consecutive chunks each executor thread keeps in flight at once, each
/// with its own lane set and RNG stream, stepped round-robin. A chunk's
/// lanes depend only on its own stream and walk list, so the window moves
/// no deposit; it multiplies the random loads in flight by up to four (32
/// lanes per thread), which is what a walk over a graph far larger than
/// the cache is bound by. The window overlaps only the chunks one thread
/// claimed; the second thread of a pass brings its own.
const WINDOW: usize = 4;

/// Most walks one chunk's walk list can hold: a chunk closes on the work
/// item that takes it to [`CHUNK_WALKS`], and no item holds more than
/// [`CHUNK_WALKS`] walks.
const MAX_CHUNK_BUF: usize = 2 * CHUNK_WALKS as usize - 1;

/// Most walks one pass of a two-thread range holds: a longer range runs
/// as consecutive passes of at most this many (see
/// [`run_planned_walks`]). The helper's endpoint log takes one entry per
/// walk it ran, so this bounds the log to 512 KiB whatever the query's
/// walk count, allocated once per workspace. A pass is 32 or more chunks,
/// enough that the ends of a pass, where fewer chunks are left than the
/// two threads' windows hold, are a small part of it.
const PASS_WALKS: u64 = 1 << 17;

use crate::alias::AliasTable;
use crate::cancel::CancelToken;
use crate::node_index::Reserve;
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Batched `k-RandomWalk` execution in one call: plan, then run every
/// chunk through the lane kernel. The query driver
/// ([`crate::estimate_in`]) does not call it — it plans the same way and
/// climbs the tier ladder over the plan — but a complete ladder deposits
/// bit for bit what this does, so the walk-kernel snapshot and the tests
/// drive the engine through it.
///
/// The sequential reference interleaves one alias sample, one walk and one
/// hash-map deposit per iteration. This engine restructures the phase:
///
/// 1. **sample all `nr` starts up front** from `table` (one tight RNG
///    loop over the alias arrays, one `u64` draw each),
/// 2. **group walks by start entry** — every walk from the same `(hop,
///    node)` shares its first neighbor lookup's cache lines — and split
///    the grouped work into fixed-size chunks,
/// 3. **presample every walk's exact length** per chunk (the stop-test
///    product telescopes to `eta(h)/psi(k)`; see
///    [`crate::poisson::LengthTables`]),
/// 4. **run chunks** through the interleaved lane kernel, up to four at a
///    time per thread on the calling thread and one helper, with
///    independent `SmallRng` streams derived from `master_seed`,
///    depositing endpoints into the `sink`'s integer counts (so the order
///    in which chunks finish, and on which thread, cannot show).
///
/// Returns total steps walked; endpoint multiplicities are added to the
/// counts of `sink`, which the caller must have begun for the graph's
/// nodes (checked; the caller converts a count to mass via `count *
/// (alpha / nr)`).
///
/// `cancel` is polled at chunk boundaries (and periodically during start
/// sampling): when it fires, remaining chunks are skipped and the
/// partially-deposited counts are meaningless — the caller must check
/// the token afterwards and discard the phase. An unfired token changes
/// nothing (the checks are pure control flow).
#[allow(clippy::too_many_arguments)]
pub fn run_batched_walks(
    graph: &Graph,
    poisson: &PoissonTable,
    entries: &[(u32, NodeId)],
    table: &AliasTable,
    nr: u64,
    master_seed: u64,
    cancel: Option<&CancelToken>,
    sink: &mut Reserve,
    scratch: &mut WalkScratch,
) -> u64 {
    assert!(
        sink.nodes() >= graph.num_nodes(),
        "run_batched_walks: begin the sink for the graph's {} nodes (it covers {})",
        graph.num_nodes(),
        sink.nodes()
    );
    if !plan_batched_walks(entries, table, nr, master_seed, cancel, scratch) {
        return 0;
    }
    let mut cursor = WalkCursor::default();
    let all_chunks = scratch.chunks.len();
    run_planned_walks(
        graph,
        poisson,
        entries,
        master_seed,
        cancel,
        all_chunks,
        &mut cursor,
        sink,
        scratch,
    );
    cursor.steps
}

/// Plan the batched walk phase: sample every walk start (phase 1) and
/// build the chunk decomposition (phase 2) without executing anything.
/// Returns `false` if the cancel token fired during start sampling
/// (nothing is planned).
///
/// The plan is a pure function of `(entries, table, nr, master_seed)`:
/// executing it in any sequence of chunk-prefix increments via
/// [`run_planned_walks`] deposits bit-identically to a one-shot
/// [`run_batched_walks`] call.
pub(crate) fn plan_batched_walks(
    entries: &[(u32, NodeId)],
    table: &AliasTable,
    nr: u64,
    master_seed: u64,
    cancel: Option<&CancelToken>,
    scratch: &mut WalkScratch,
) -> bool {
    debug_assert_eq!(table.len(), entries.len());
    if nr == 0 || entries.is_empty() {
        scratch.chunks.clear();
        scratch.chunk_walk_prefix.clear();
        scratch.chunk_walk_prefix.push(0);
        return true;
    }
    let WalkScratch {
        start_counts,
        work,
        chunks,
        chunk_walk_prefix,
        ..
    } = scratch;

    // Phase 1: sample every walk start (one `u64` draw each).
    start_counts.clear();
    start_counts.resize(entries.len(), 0);
    let cancelled = || cancel.is_some_and(CancelToken::is_cancelled);
    let mut rng = SmallRng::seed_from_u64(master_seed);
    // The sampling loop polls the token every 64Ki draws so a huge `nr`
    // cannot delay cancellation until the chunk phase.
    for i in 0..nr {
        if i & 0xFFFF == 0 && cancelled() {
            return false;
        }
        start_counts[table.sample_fast(&mut rng)] += 1;
    }

    // Phase 2: group into work items and fixed-size chunks.
    build_chunks(start_counts, work, chunks);
    fill_chunk_walk_prefix(work, chunks, chunk_walk_prefix);
    true
}

/// Execute planned chunks `[cursor.next_chunk, upto_chunk)` of the most
/// recent [`plan_batched_walks`] on this scratch, advancing the
/// cursor. Chunk RNG streams are keyed by absolute chunk index, so any
/// prefix decomposition deposits bit-identically to a single full run.
/// A fired cancel token makes remaining chunks skip (depositing nothing);
/// the chunks that ran are a prefix of the range, and the cursor's
/// `walks_done` counts only them, so the partial deposits remain exactly
/// normalizable.
///
/// Where the process may run on a second core ([`second_core`]), the
/// range runs as consecutive passes of at most [`PASS_WALKS`] walks, and
/// a pass of two or more chunks takes a helper thread if a core is spare
/// ([`Busy::spare`]); elsewhere it runs as one pass on the calling
/// thread. Once the cancel token has fired, no further pass starts.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_planned_walks(
    graph: &Graph,
    poisson: &PoissonTable,
    entries: &[(u32, NodeId)],
    master_seed: u64,
    cancel: Option<&CancelToken>,
    upto_chunk: usize,
    cursor: &mut WalkCursor,
    sink: &mut Reserve,
    scratch: &mut WalkScratch,
) {
    let lengths = poisson.length_tables();
    let upto = upto_chunk.min(scratch.chunks.len());
    let one_core = !second_core();
    #[cfg(test)]
    let one_core = one_core && tests::forced_helper() != Some(true);
    if one_core {
        return run_pass(
            graph,
            lengths,
            entries,
            scratch,
            upto,
            cursor,
            master_seed,
            cancel,
            sink,
            false,
        );
    }
    let _walking = Busy::enter();
    while cursor.next_chunk < upto && !cancel.is_some_and(CancelToken::is_cancelled) {
        let end = pass_end(&scratch.chunk_walk_prefix, cursor.next_chunk, upto);
        let two_or_more = end >= cursor.next_chunk + 2;
        let spare = if two_or_more {
            // Sized whether or not a core is spare: what `memory_bytes`
            // reports must not depend on other queries.
            scratch.fit_helper(cursor.next_chunk, end);
            Busy::spare()
        } else {
            None
        };
        let helper = spare.is_some();
        #[cfg(test)]
        let helper = tests::forced_helper().map_or(helper, |forced| forced && two_or_more);
        run_pass(
            graph,
            lengths,
            entries,
            scratch,
            end,
            cursor,
            master_seed,
            cancel,
            sink,
            helper,
        );
    }
}

/// Where the walks of a chunk end: the query's [`Reserve`] on the calling
/// thread, an [`EndpointLog`] on the helper.
trait EndpointSink {
    /// Add `by` walks to `v`'s endpoint count.
    fn inc(&mut self, v: NodeId, by: u64);
    /// Hint that `v` is about to be [`inc`](Self::inc)remented.
    fn prefetch(&self, v: NodeId);
}

impl EndpointSink for Reserve {
    #[inline(always)]
    fn inc(&mut self, v: NodeId, by: u64) {
        Reserve::inc(self, v, by);
    }

    #[inline(always)]
    fn prefetch(&self, v: NodeId) {
        Reserve::prefetch(self, v);
    }
}

/// The helper thread's deposits, one endpoint per walk in the order it
/// made them; the calling thread adds them to the reserve after the join.
/// Appends are sequential, so there is nothing to prefetch.
#[derive(Clone, Debug, Default)]
struct EndpointLog(Vec<NodeId>);

impl EndpointSink for EndpointLog {
    #[inline(always)]
    fn inc(&mut self, v: NodeId, by: u64) {
        debug_assert!(
            self.0.len() + by as usize <= self.0.capacity(),
            "the log holds every walk of the pass"
        );
        for _ in 0..by {
            self.0.push(v);
        }
    }

    #[inline(always)]
    fn prefetch(&self, _: NodeId) {}
}

/// End of the pass that starts at chunk `from` of a range ending at
/// `upto`, given the plan's walk prefix: as many chunks as fit in
/// [`PASS_WALKS`] walks, and one at least.
fn pass_end(prefix: &[u64], from: usize, upto: usize) -> usize {
    let fit = prefix[from + 1..=upto].partition_point(|&p| p - prefix[from] <= PASS_WALKS);
    from + fit.max(1)
}

/// One pass over chunks `[cursor.next_chunk, upto)`, on the calling thread
/// alone or, with `helper`, together with one scoped helper. Both run
/// [`Pass::run_window`] over the same claim counter; the helper deposits
/// into its [`EndpointLog`], which is added to `sink` after the join, and
/// its steps and walks are added to the cursor. All of these are integer
/// sums, so which thread ran a chunk changes no bit of the outcome. The
/// helper's buffers must have been sized for the pass
/// ([`WalkScratch::fit_helper`]): it allocates nothing. If the helper
/// cannot be spawned, the calling thread runs the whole pass.
#[allow(clippy::too_many_arguments)]
fn run_pass(
    graph: &Graph,
    lengths: &LengthTables,
    entries: &[(u32, NodeId)],
    scratch: &mut WalkScratch,
    upto: usize,
    cursor: &mut WalkCursor,
    master_seed: u64,
    cancel: Option<&CancelToken>,
    sink: &mut Reserve,
    helper: bool,
) {
    let WalkScratch {
        work,
        chunks,
        chunk_walk_prefix,
        lane_bufs,
        helper_bufs,
        helper_log,
        ..
    } = scratch;
    let pass = Pass {
        graph,
        entries,
        lengths,
        work,
        chunks,
        prefix: chunk_walk_prefix,
        master_seed,
        cancel,
        next: AtomicUsize::new(cursor.next_chunk),
        upto,
    };
    helper_log.0.clear();
    debug_assert!(
        !helper
            || chunk_walk_prefix[upto] - chunk_walk_prefix[cursor.next_chunk]
                <= helper_log.0.capacity() as u64,
        "the helper's log holds every walk of the pass"
    );
    let mut theirs = WalkCursor::default();
    let second = helper.then_some(|| pass.run_window(helper_log, helper_bufs, &mut theirs));
    with_helper(second, |_| pass.run_window(sink, lane_bufs, cursor));
    // The endpoints are random nodes: prefetching the index slot of the
    // one sixteen entries on cut the loop from ≈12 to ≈9 ns an entry.
    let log = &helper_log.0;
    for (i, &v) in log.iter().enumerate() {
        if let Some(&ahead) = log.get(i + 16) {
            sink.prefetch(ahead);
        }
        sink.inc(v, 1);
    }
    cursor.steps += theirs.steps;
    cursor.walks_done += theirs.walks_done;
    cursor.next_chunk = pass.next.into_inner().min(upto);
}

/// Make room for `len` entries in the empty `buf`: a new allocation of at
/// least twice the old one, never a grown one, which would copy the old
/// bytes in and so make pages resident that the helper may never write.
fn fit<T>(buf: &mut Vec<T>, len: usize) {
    if buf.capacity() < len {
        *buf = Vec::with_capacity(len.max(2 * buf.capacity()));
    }
}

/// What the threads of one pass share: the plan, what its chunks are
/// filled from, and the counter they claim chunk indices from.
struct Pass<'a> {
    graph: &'a Graph,
    /// The plan's start entries `(hop, node)`, which its work items index.
    entries: &'a [(u32, NodeId)],
    /// Each start hop's walk-length table.
    lengths: &'a LengthTables,
    work: &'a [(u32, u64)],
    chunks: &'a [(u32, u32)],
    /// The plan's cumulative walk prefix: chunk `c` holds
    /// `prefix[c + 1] - prefix[c]` walks.
    prefix: &'a [u64],
    master_seed: u64,
    cancel: Option<&'a CancelToken>,
    /// The next chunk to claim; runs past `upto` once the range is out.
    next: AtomicUsize,
    upto: usize,
}

/// Presample one chunk's *movable* walks into `buf`: per work group
/// (shared `(hop, node)`), bind the hop's length table and the start
/// row once, draw every walk's exact length (one `u64` each), and push
/// the lengths of the walks that will actually move, closed by one run at
/// the group's start. Walks that
/// cannot move — zero sampled length, degree-0 start, or a start hop
/// beyond the Poisson truncation — deposit into `sink` here, batched per
/// group, without costing the lane kernel anything. Degree-0 and
/// beyond-truncation groups consume no RNG at all (their outcome does not
/// depend on it); the consumption rule is a fixed function of the work
/// list, so chunk streams stay pure functions of `(master_seed, chunk)`.
fn fill_walk_buf<S: EndpointSink>(
    graph: &Graph,
    entries: &[(u32, NodeId)],
    lengths: &LengthTables,
    items: &[(u32, u64)],
    rng: &mut SmallRng,
    sink: &mut S,
    buf: &mut WalkBuf,
) {
    buf.clear();
    for &(entry_idx, walk_count) in items {
        let (hop0, start) = entries[entry_idx as usize];
        let (table, deg) = (lengths.table(hop0 as usize), graph.degree(start));
        let Some(table) = table.filter(|_| deg > 0) else {
            sink.inc(start, walk_count);
            continue;
        };
        let (from, mut immediate) = (buf.lens.len(), 0u64);
        for _ in 0..walk_count {
            let len = table.sample(rng);
            if len == 0 {
                immediate += 1;
            } else {
                buf.lens.push(len as u32);
            }
        }
        buf.end_run(start, from);
        if immediate > 0 {
            sink.inc(start, immediate);
        }
    }
}

/// Uniform index below `deg` from one `u32` draw: Lemire's widening
/// multiply, rejection sliver dropped (bias < deg / 2^32).
#[inline(always)]
fn lemire_pick(r: u32, deg: u32) -> usize {
    ((r as u64 * deg as u64) >> 32) as usize
}

/// One chunk's lane set: up to [`LANES`] presampled walks advanced in
/// lockstep, finished lanes refilled from the chunk's pending list (every
/// pending walk is movable — [`fill_walk_buf`] already deposited the
/// rest). A round is two sweeps over the live lanes, which [`Pass::run_window`]
/// interleaves with the other chunks of its window:
///
/// * [`pick`](Self::pick) — draw the neighbor index, load the next node
///   from the adjacency row (prefetched one round ago) and prefetch that
///   node's *offsets* line, plus its endpoint slot if this is the walk's
///   last step;
/// * [`advance`](Self::advance) — resolve the next node's row (offsets
///   now hot), prefetch its *adjacency* line for the following round, and
///   deposit / refill finished lanes, compacting so dead lanes are never
///   scanned.
///
/// Both random loads of a step are therefore issued ahead of use, and the
/// memory latency of one lane's dependent load chain is overlapped with
/// the other lanes' — and the other chunks' — work instead of stalling
/// the walk. The draws a lane set takes from its stream depend on nothing
/// outside it.
struct Lanes {
    /// Current row start, degree, remaining steps, and the node picked by
    /// the round's pick sweep. Lanes `0..live` are live.
    row: [usize; LANES],
    deg: [u32; LANES],
    rem: [u32; LANES],
    nxt: [NodeId; LANES],
    live: usize,
    /// Next pending walk of the chunk's list.
    next: ListCursor,
    /// Steps walked so far.
    steps: u64,
}

impl Lanes {
    /// Load the first walks of `walks` into the lanes.
    fn start(graph: &Graph, walks: &WalkBuf) -> Lanes {
        let mut lanes = Lanes {
            row: [0; LANES],
            deg: [0; LANES],
            rem: [0; LANES],
            nxt: [0; LANES],
            live: 0,
            next: ListCursor::default(),
            steps: 0,
        };
        while lanes.live < LANES {
            let Some(walk) = lanes.next.pop(walks) else {
                break;
            };
            lanes.load(graph, lanes.live, walk);
            lanes.live += 1;
        }
        lanes
    }

    /// Put walk `(start, len)` on lane `i` and prefetch its first row.
    #[inline(always)]
    fn load(&mut self, graph: &Graph, i: usize, (start, len): (NodeId, u32)) {
        let (r0, d0) = graph.neighbor_row(start);
        self.row[i] = r0;
        self.deg[i] = d0;
        self.rem[i] = len;
        graph.prefetch_neighbor_row(r0);
    }

    /// Sweep 1: pick every live lane's next node; prefetch its offsets
    /// line for sweep 2, and the endpoint slot a finishing walk will
    /// deposit into. One u64 draw feeds two lanes (each pick needs only
    /// 32 bits), halving the RNG cost of the sweep.
    ///
    /// Not inlined, like [`advance`](Self::advance): `run_window` calls
    /// both once per chunk per round, and copies of them in each window
    /// slot measured slower on a graph that fits in cache.
    #[inline(never)]
    fn pick<S: EndpointSink>(&mut self, graph: &Graph, rng: &mut SmallRng, sink: &S) {
        let live = self.live;
        let mut i = 0;
        while i + 1 < live {
            let r = rng.next_u64();
            let idx_hi = lemire_pick((r >> 32) as u32, self.deg[i]);
            let idx_lo = lemire_pick(r as u32, self.deg[i + 1]);
            // SAFETY: each idx < its lane's degree, so the flat indices
            // stay inside their rows.
            let a = unsafe { graph.neighbor_flat_unchecked(self.row[i] + idx_hi) };
            let b = unsafe { graph.neighbor_flat_unchecked(self.row[i + 1] + idx_lo) };
            self.nxt[i] = a;
            self.nxt[i + 1] = b;
            graph.prefetch_node(a);
            graph.prefetch_node(b);
            sink.prefetch(endpoint_or_zero(a, self.rem[i]));
            sink.prefetch(endpoint_or_zero(b, self.rem[i + 1]));
            i += 2;
        }
        if i < live {
            let idx = lemire_pick(rng.next_u32(), self.deg[i]);
            // SAFETY: idx < deg[i], so row[i] + idx is inside the row.
            let n = unsafe { graph.neighbor_flat_unchecked(self.row[i] + idx) };
            self.nxt[i] = n;
            graph.prefetch_node(n);
            sink.prefetch(endpoint_or_zero(n, self.rem[i]));
        }
        self.steps += live as u64;
    }

    /// Sweep 2: resolve rows, finish / refill / compact lanes.
    #[inline(never)]
    fn advance<S: EndpointSink>(&mut self, graph: &Graph, walks: &WalkBuf, sink: &mut S) {
        let (mut live, mut next) = (self.live, self.next);
        let mut i = 0;
        while i < live {
            self.rem[i] -= 1;
            // SAFETY: nxt[i] was read out of the CSR arrays (< n).
            let (nrow, ndeg) = unsafe { graph.neighbor_row_unchecked(self.nxt[i]) };
            if self.rem[i] == 0 || ndeg == 0 {
                // Finished, or absorbed at a degree-0 node.
                sink.inc(self.nxt[i], 1);
                if let Some(walk) = next.pop(walks) {
                    self.load(graph, i, walk);
                    i += 1;
                } else {
                    // Compact: move the last live lane down. It has had
                    // this round's pick but not its advance, so do NOT
                    // bump `i` — the moved lane is processed next.
                    live -= 1;
                    self.row[i] = self.row[live];
                    self.deg[i] = self.deg[live];
                    self.rem[i] = self.rem[live];
                    self.nxt[i] = self.nxt[live];
                }
            } else {
                self.row[i] = nrow;
                self.deg[i] = ndeg;
                graph.prefetch_neighbor_row(nrow);
                i += 1;
            }
        }
        (self.live, self.next) = (live, next);
    }
}

/// `v` when a lane with `rem` steps left is taking its last step, node 0
/// otherwise: the pick prefetches the endpoint slot of a finishing walk
/// without a branch on its random length, which would mispredict.
#[inline(always)]
fn endpoint_or_zero(v: NodeId, rem: u32) -> NodeId {
    v & 0u32.wrapping_sub((rem == 1) as u32)
}

/// A chunk in a window slot: its planned walk count, RNG stream and
/// lanes.
struct InFlight {
    walks: u64,
    rng: SmallRng,
    lanes: Lanes,
}

impl Pass<'_> {
    /// Claim the next chunk of the range: `None` once the cancel token
    /// has fired or the range is out. The token is read *before* the
    /// claim, and every claimed chunk runs to its end, so the chunks that
    /// ran are always the prefix of the range below the counter. The
    /// counter publishes no data (the plan was written before the helper
    /// was spawned, and the helper's results reach the caller through the
    /// join), so it is `Relaxed`.
    fn claim(&self) -> Option<usize> {
        if self.cancel.is_some_and(CancelToken::is_cancelled) {
            return None;
        }
        let chunk = self.next.fetch_add(1, Ordering::Relaxed);
        (chunk < self.upto).then_some(chunk)
    }

    /// Open claimed chunk `chunk`: presample its walk list into `buf` and
    /// return its planned walk count and RNG stream.
    fn open<S: EndpointSink>(
        &self,
        chunk: usize,
        sink: &mut S,
        buf: &mut WalkBuf,
    ) -> (u64, SmallRng) {
        let (lo, hi) = self.chunks[chunk];
        let items = &self.work[lo as usize..hi as usize];
        let mut rng = chunk_rng(self.master_seed, chunk as u64);
        #[cfg(test)]
        tests::opening(self.master_seed, self.cancel);
        fill_walk_buf(
            self.graph,
            self.entries,
            self.lengths,
            items,
            &mut rng,
            sink,
            buf,
        );
        (self.prefix[chunk + 1] - self.prefix[chunk], rng)
    }

    /// Run chunks claimed from the pass through a window of up to
    /// [`WINDOW`] lane sets, adding each finished chunk's steps and walks
    /// to `tally`. Whenever a slot is free the next chunk is claimed and
    /// opened into it (a chunk whose walks all deposited at fill time
    /// finishes there); once a claim fails, the chunks in the window
    /// finish and nothing more is opened. Each round picks for every chunk
    /// in the window, then advances every chunk, so up to
    /// `WINDOW * LANES` random loads overlap. Every chunk draws from its
    /// own stream in exactly the order a lone chunk would — presampling,
    /// then its lanes — and deposits and tallies are integer sums, so
    /// which chunks share a window, and in which order they finish,
    /// changes no bit of the output.
    fn run_window<S: EndpointSink>(
        &self,
        sink: &mut S,
        bufs: &mut [WalkBuf; WINDOW],
        tally: &mut WalkCursor,
    ) {
        let graph = self.graph;
        let mut window: [Option<InFlight>; WINDOW] = Default::default();
        let mut claiming = true;
        loop {
            for (entry, buf) in window.iter_mut().zip(bufs.iter_mut()) {
                while claiming && entry.is_none() {
                    let Some(chunk) = self.claim() else {
                        claiming = false;
                        break;
                    };
                    let (walks, rng) = self.open(chunk, sink, buf);
                    let lanes = Lanes::start(graph, buf);
                    if lanes.live == 0 {
                        tally.walks_done += walks;
                    } else {
                        *entry = Some(InFlight { walks, rng, lanes });
                    }
                }
            }
            if window.iter().all(Option::is_none) {
                return;
            }
            for chunk in window.iter_mut().flatten() {
                chunk.lanes.pick(graph, &mut chunk.rng, sink);
            }
            for (entry, buf) in window.iter_mut().zip(bufs.iter()) {
                if let Some(chunk) = entry {
                    chunk.lanes.advance(graph, buf, sink);
                    if chunk.lanes.live == 0 {
                        tally.steps += chunk.lanes.steps;
                        tally.walks_done += chunk.walks;
                        *entry = None;
                    }
                }
            }
        }
    }
}

/// Split grouped walk multiplicities into work items of at most
/// [`CHUNK_WALKS`] walks and pack consecutive items into chunks of roughly
/// [`CHUNK_WALKS`] total walks.
fn build_chunks(multiplicities: &[u64], work: &mut Vec<(u32, u64)>, chunks: &mut Vec<(u32, u32)>) {
    work.clear();
    chunks.clear();
    let mut chunk_start = 0u32;
    let mut chunk_load = 0u64;
    for (i, &c) in multiplicities.iter().enumerate() {
        let mut remaining = c;
        while remaining > 0 {
            let piece = remaining.min(CHUNK_WALKS);
            work.push((i as u32, piece));
            remaining -= piece;
            chunk_load += piece;
            if chunk_load >= CHUNK_WALKS {
                chunks.push((chunk_start, work.len() as u32));
                chunk_start = work.len() as u32;
                chunk_load = 0;
            }
        }
    }
    if chunk_start < work.len() as u32 {
        chunks.push((chunk_start, work.len() as u32));
    }
}

/// Fill the cumulative planned-walk prefix over the chunk boundaries
/// (`prefix[c]` = walks in chunks `[0, c)`; last entry = total walks).
fn fill_chunk_walk_prefix(work: &[(u32, u64)], chunks: &[(u32, u32)], prefix: &mut Vec<u64>) {
    prefix.clear();
    prefix.reserve(chunks.len() + 1);
    let mut acc = 0u64;
    prefix.push(0);
    for &(lo, hi) in chunks {
        acc += work[lo as usize..hi as usize]
            .iter()
            .map(|&(_, c)| c)
            .sum::<u64>();
        prefix.push(acc);
    }
}

/// Independent RNG stream for one chunk (SplitMix64 expansion inside
/// `seed_from_u64` decorrelates consecutive indices).
#[inline]
fn chunk_rng(master_seed: u64, chunk_idx: u64) -> SmallRng {
    SmallRng::seed_from_u64(
        master_seed ^ (chunk_idx.wrapping_add(1)).wrapping_mul(0x9E37_79B9_7F4A_7C15),
    )
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use hk_graph::builder::graph_from_edges;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use std::cell::Cell;
    use std::sync::Mutex;

    thread_local! {
        /// Whether the walk passes a query on this thread runs take a
        /// helper, whatever the host and the other threads say (`None`
        /// leaves it to them).
        static FORCED_HELPER: Cell<Option<bool>> = const { Cell::new(None) };
    }

    /// [`run_planned_walks`] reads this before it asks for a core.
    pub(super) fn forced_helper() -> Option<bool> {
        FORCED_HELPER.get()
    }

    #[test]
    fn a_walking_query_assembles_the_same_bits_with_and_without_the_helper() {
        // After a two-thread pass the reserve's records are in an order
        // that depends on which thread claimed which chunk (`Reserve`'s
        // docs), so `iter()` order is not compared here. Everything
        // assembled from the records is: walking TEA+ queries of many
        // chunks, each on a fresh workspace, with the helper forced on
        // and forced off.
        use crate::driver::tests::{complete, TEA_PLUS};
        use crate::QueryWorkspace;
        let g = hk_graph::gen::holme_kim(5_000, 5, 0.4, &mut SmallRng::seed_from_u64(70)).unwrap();
        let params = crate::HkprParams::builder(&g)
            .t(20.0)
            .delta(2e-4)
            .p_f(1e-3)
            .build()
            .unwrap();
        for seed in [3, 1_234, 4_321] {
            let run = |helper: bool| {
                FORCED_HELPER.set(Some(helper));
                let mut ws = QueryWorkspace::new();
                let mut rng = SmallRng::seed_from_u64(seed as u64);
                let out = complete(&g, &params, seed, TEA_PLUS, &mut rng, &mut ws).unwrap();
                FORCED_HELPER.set(None);
                let e = &out.estimate;
                let answer: Vec<_> = e.support().map(|(v, x)| (v, x.to_bits())).collect();
                let mut records: Vec<_> = ws
                    .reserve()
                    .iter()
                    .map(|(v, q, c)| (v, q.to_bits(), c))
                    .collect();
                records.sort_unstable();
                (out.stats, e.offset_coeff().to_bits(), answer, records)
            };
            let (one, two) = (run(false), run(true));
            assert!(
                one.0.random_walks > 2 * CHUNK_WALKS,
                "seed {seed}: {:?}",
                one.0
            );
            assert!(one == two, "seed {seed}");
        }
    }

    #[test]
    fn walk_stays_on_graph() {
        let g = graph_from_edges([(0, 1), (1, 2), (2, 0), (2, 3)]);
        let p = PoissonTable::new(5.0);
        let mut rng = SmallRng::seed_from_u64(1);
        for _ in 0..200 {
            let (end, _) = k_random_walk(&g, &p, 0, 0, &mut rng);
            assert!((end as usize) < g.num_nodes());
        }
    }

    #[test]
    fn expected_steps_bounded_by_t() {
        // Lemma 4: E[steps] <= t.
        let g = graph_from_edges([(0, 1), (1, 2), (2, 0)]);
        let t = 5.0;
        let p = PoissonTable::new(t);
        let mut rng = SmallRng::seed_from_u64(2);
        let n = 50_000;
        let total: u64 = (0..n)
            .map(|_| k_random_walk(&g, &p, 0, 0, &mut rng).1 as u64)
            .sum();
        let mean = total as f64 / n as f64;
        assert!(mean <= t + 0.1, "mean steps {mean} must be <= t={t}");
        // Walks started at hop 0 have expected length exactly t on a
        // regular graph (they stop with the raw Poisson distribution).
        assert!((mean - t).abs() < 0.15, "mean steps {mean}");
    }

    #[test]
    fn higher_start_hop_means_shorter_walks() {
        let g = graph_from_edges([(0, 1), (1, 2), (2, 0)]);
        let p = PoissonTable::new(5.0);
        let mut rng = SmallRng::seed_from_u64(3);
        let n = 20_000;
        let mean_at = |k: usize, rng: &mut SmallRng| -> f64 {
            (0..n)
                .map(|_| k_random_walk(&g, &p, 0, k, rng).1 as u64)
                .sum::<u64>() as f64
                / n as f64
        };
        let m0 = mean_at(0, &mut rng);
        let m8 = mean_at(8, &mut rng);
        assert!(
            m8 < m0,
            "walks starting deeper must be shorter: {m8} vs {m0}"
        );
    }

    #[test]
    fn walk_from_beyond_table_stops_immediately() {
        let g = graph_from_edges([(0, 1)]);
        let p = PoissonTable::new(3.0);
        let mut rng = SmallRng::seed_from_u64(4);
        let (end, steps) = k_random_walk(&g, &p, 0, p.k_max() + 10, &mut rng);
        assert_eq!(end, 0);
        assert_eq!(steps, 0);
    }

    #[test]
    fn isolated_node_absorbs() {
        let mut b = hk_graph::GraphBuilder::new();
        b.add_edge(0, 1);
        b.ensure_nodes(3);
        let g = b.build();
        let p = PoissonTable::new(5.0);
        let mut rng = SmallRng::seed_from_u64(5);
        let (end, steps) = k_random_walk(&g, &p, 2, 0, &mut rng);
        assert_eq!(end, 2);
        assert_eq!(steps, 0);
        assert_eq!(fixed_length_walk(&g, 2, 17, &mut rng), 2);
    }

    /// An empty walk sink begun for `g`'s nodes.
    fn sink_for(g: &Graph) -> Reserve {
        let mut sink = Reserve::new();
        sink.begin(g.num_nodes());
        sink
    }

    #[test]
    #[should_panic(expected = "begin the sink for the graph's 3 nodes (it covers 2)")]
    fn batched_walks_refuse_a_sink_not_begun_for_the_graph() {
        let g = graph_from_edges([(0, 1), (1, 2)]);
        let mut sink = Reserve::new();
        sink.begin(2);
        run_batched_walks(
            &g,
            &PoissonTable::new(5.0),
            &[(0, 2)],
            &AliasTable::new(&[1.0]),
            10,
            1,
            None,
            &mut sink,
            &mut WalkScratch::default(),
        );
    }

    /// Run `nr` walks from `(start, k)` through the lane kernel and return
    /// the endpoint frequencies.
    fn endpoint_distribution(
        g: &Graph,
        p: &PoissonTable,
        start: NodeId,
        k: u32,
        nr: u64,
        master_seed: u64,
    ) -> Vec<f64> {
        let table = AliasTable::new(&[1.0]);
        let mut counts = sink_for(g);
        let mut scratch = WalkScratch::default();
        run_batched_walks(
            g,
            p,
            &[(k, start)],
            &table,
            nr,
            master_seed,
            None,
            &mut counts,
            &mut scratch,
        );
        assert_eq!(counts.iter().map(|(_, _, c)| c).sum::<u64>(), nr);
        let mut freq = vec![0.0; g.num_nodes()];
        for (v, _, c) in counts.iter() {
            freq[v as usize] = c as f64 / nr as f64;
        }
        freq
    }

    /// Exact `h_u^(k)[v]` on a small graph via the dense backward
    /// recursion `h^(k)_u[v] = stop(k)*[u==v] + (1-stop(k)) *
    /// avg_{w in N(u)} h^(k+1)_w[v]`, with `h` beyond the table being the
    /// identity (stop prob 1). A degree-0 node absorbs: its `h` is the
    /// identity at every hop.
    fn exact_h_at_hop<const N: usize>(g: &Graph, p: &PoissonTable, k: usize) -> [[f64; N]; N] {
        let mut next = [[0.0f64; N]; N];
        for (u, row) in next.iter_mut().enumerate() {
            row[u] = 1.0;
        }
        for hop in (k..=p.k_max()).rev() {
            let s = p.stop_prob(hop);
            let mut now = [[0.0; N]; N];
            for (u, row) in now.iter_mut().enumerate() {
                let nbrs = g.neighbors(u as NodeId);
                for (v, h) in row.iter_mut().enumerate() {
                    let stay = if u == v { 1.0 } else { 0.0 };
                    *h = if nbrs.is_empty() {
                        stay
                    } else {
                        let mut avg = 0.0;
                        for &w in nbrs {
                            avg += next[w as usize][v];
                        }
                        avg /= nbrs.len() as f64;
                        s * stay + (1.0 - s) * avg
                    };
                }
            }
            next = now;
        }
        next
    }

    fn assert_matches_exact(what: &str, freq: &[f64], exact: &[f64]) {
        for (v, (&got, &expect)) in freq.iter().zip(exact).enumerate() {
            assert!(
                (got - expect).abs() < 0.01,
                "{what} v={v}: empirical {got} vs exact {expect}"
            );
        }
    }

    #[test]
    fn lemma_2_distribution_on_path() {
        // Path 0 - 1 - 2. h_u^(k)[v] computed by hand for k far beyond the
        // mode is concentrated at u (stop_prob ~ 1); near 0 it spreads.
        // Algorithm 2 as printed and the lane kernel must reproduce the
        // exact backward-recursion distribution; this is the statistical
        // conformance gate of length presampling.
        let g = graph_from_edges([(0, 1), (1, 2)]);
        let p = PoissonTable::new(2.0);
        let n = 100_000usize;

        // The original sequential walk.
        let mut rng = SmallRng::seed_from_u64(6);
        let mut counts = [0usize; 3];
        for _ in 0..n {
            let (end, _) = k_random_walk(&g, &p, 1, 0, &mut rng);
            counts[end as usize] += 1;
        }
        let freq = counts.map(|c| c as f64 / n as f64);
        assert_matches_exact("sequential", &freq, &exact_h_at_hop::<3>(&g, &p, 0)[1]);

        // The lane kernel, from several start hops.
        for k in [0u32, 1, 2] {
            let freq = endpoint_distribution(&g, &p, 1, k, n as u64, 99 + k as u64);
            let exact = exact_h_at_hop::<3>(&g, &p, k as usize);
            assert_matches_exact(&format!("lanes k={k}"), &freq, &exact[1]);
        }

        // Walks that end *mid-walk* on a degree-0 node: one-way arcs
        // 1 -> 2 and 3 -> 2 (only a raw CSR can say that) lead into node 2,
        // which has no row of its own, so only the lane kernel's absorb
        // branch stops a walk there — without it the lane would read the
        // next row's first neighbor (node 1) and walk on. Node 4, the last
        // row, is isolated.
        let g = Graph::from_csr(vec![0, 1, 4, 4, 6, 6], vec![1, 0, 2, 3, 1, 2]);
        for (start, k) in [(1, 0u32), (1, 2), (3, 0), (3, 1), (4, 0)] {
            let freq = endpoint_distribution(&g, &p, start, k, n as u64, 7 + k as u64);
            let exact = exact_h_at_hop::<5>(&g, &p, k as usize);
            assert!(start == 4 || exact[start as usize][2] > 0.2);
            let what = format!("lanes into a sink, start {start} k={k}");
            assert_matches_exact(&what, &freq, &exact[start as usize]);
        }
    }

    #[test]
    fn presampling_kernels_handle_absorbing_and_out_of_table_starts() {
        // Degree-0 start: the lane kernel deposits the walk at the start.
        let mut b = hk_graph::GraphBuilder::new();
        b.add_edge(0, 1);
        b.ensure_nodes(3);
        let g = b.build();
        let p = PoissonTable::new(5.0);
        let freq = endpoint_distribution(&g, &p, 2, 0, 500, 7);
        assert_eq!(freq[2], 1.0, "degree-0 start must absorb");
        // Start hop beyond the table: immediate stop at the start.
        let hop = (p.k_max() + 5) as u32;
        let freq = endpoint_distribution(&g, &p, 0, hop, 500, 8);
        assert_eq!(freq[0], 1.0, "out-of-table start must stop");
    }

    #[test]
    fn no_helper_is_spared_while_every_core_walks() {
        // Other tests walk in this process too, so only this direction is
        // certain: with as many threads counted as the process has cores,
        // no helper is counted in.
        let walking: Vec<Busy> = (0..crate::cores::cores()).map(|_| Busy::enter()).collect();
        assert!(Busy::spare().is_none());
        drop(walking);
    }

    #[test]
    fn a_long_walk_phase_holds_walk_buffers_of_a_fixed_size() {
        // A Monte-Carlo-sized plan of 2M walks from one entry: a
        // two-thread range runs as passes of at most PASS_WALKS walks, so
        // the helper's endpoint log and the eight window buffers stay
        // within a size that does not depend on the walk count. Only the
        // plan grows, by a few words a chunk.
        let mut gen_rng = SmallRng::seed_from_u64(45);
        let g = hk_graph::gen::holme_kim(2_000, 4, 0.3, &mut gen_rng).unwrap();
        let (walks, entries) = (2_000_000u64, [(0u32, 1 as NodeId)]);
        // Short walks (t = 1) keep 2M of them cheap in a debug build.
        let p = PoissonTable::new(1.0);
        let mut scratch = WalkScratch::default();
        let table = AliasTable::new(&[1.0]);
        assert!(plan_batched_walks(
            &entries,
            &table,
            walks,
            5,
            None,
            &mut scratch
        ));
        let num_chunks = scratch.chunks.len();
        let (mut counts, mut cursor) = (sink_for(&g), WalkCursor::default());
        run_planned_walks(
            &g,
            &p,
            &entries,
            5,
            None,
            num_chunks,
            &mut cursor,
            &mut counts,
            &mut scratch,
        );
        assert_eq!(cursor.walks_done, walks);
        let plan = scratch.start_counts.capacity() * std::mem::size_of::<u64>()
            + scratch.work.capacity() * std::mem::size_of::<(u32, u64)>()
            + scratch.chunks.capacity() * std::mem::size_of::<(u32, u32)>()
            + scratch.chunk_walk_prefix.capacity() * std::mem::size_of::<u64>();
        let buffers = scratch.memory_bytes() - plan;
        // A chunk's worst-case walk list (and a few runs) per window slot
        // of each thread, and the log's four bytes per walk of one pass.
        let window = 2 * WINDOW * (MAX_CHUNK_BUF * 4 + 8 * 8);
        let bound = window + PASS_WALKS as usize * 4;
        assert!(buffers <= bound, "{buffers} > {bound}");
        if second_core() {
            assert_eq!(scratch.helper_log.0.capacity(), PASS_WALKS as usize);
        }
    }

    #[test]
    fn walk_scratch_memory_grows_then_releases() {
        // The serve cache budgets against QueryWorkspace::memory_bytes,
        // which folds in this scratch — the lane/length buffers must be
        // visible to it and release() must return to the baseline.
        let mut gen_rng = SmallRng::seed_from_u64(40);
        let g = hk_graph::gen::holme_kim(2_000, 5, 0.3, &mut gen_rng).unwrap();
        let p = PoissonTable::new(5.0);
        let entries: Vec<(u32, NodeId)> = (0..64).map(|i| (0u32, i as NodeId)).collect();
        let weights = vec![1.0; entries.len()];
        let table = AliasTable::new(&weights);
        let mut counts = sink_for(&g);
        let mut scratch = WalkScratch::default();
        let baseline = scratch.memory_bytes();
        run_batched_walks(
            &g,
            &p,
            &entries,
            &table,
            50_000,
            11,
            None,
            &mut counts,
            &mut scratch,
        );
        let grown = scratch.memory_bytes();
        assert!(
            grown > baseline,
            "scratch must account for walk buffers: {grown} vs {baseline}"
        );
        // The presampled-walk buffer for a full chunk must be visible.
        assert!(
            grown >= CHUNK_WALKS as usize * std::mem::size_of::<u32>(),
            "lane buffers unaccounted: {grown}"
        );
        // A pass on two threads sizes the helper's four window buffers
        // and its endpoint log before the helper starts; they count too.
        let num_chunks = scratch.chunks.len();
        assert!(num_chunks >= 2, "{num_chunks} chunks");
        scratch.fit_helper(0, num_chunks);
        let mut cursor = WalkCursor::default();
        run_pass(
            &g,
            p.length_tables(),
            &entries,
            &mut scratch,
            num_chunks,
            &mut cursor,
            11,
            None,
            &mut counts,
            true,
        );
        assert_eq!(cursor.walks_done, 50_000);
        assert_eq!(scratch.helper_log.0.capacity(), PASS_WALKS as usize);
        assert!(scratch
            .helper_bufs
            .iter()
            .all(|b| b.lens.capacity() >= MAX_CHUNK_BUF));
        let helper_bytes = scratch.helper_bytes();
        let lane_bytes: usize = scratch.lane_bufs.iter().map(WalkBuf::memory_bytes).sum();
        assert!(
            scratch.memory_bytes() >= helper_bytes + lane_bytes,
            "helper buffers unaccounted: {} vs {helper_bytes} + {lane_bytes}",
            scratch.memory_bytes()
        );
        scratch.release();
        assert_eq!(scratch.memory_bytes(), baseline);
        // Scratch stays usable after release.
        run_batched_walks(
            &g,
            &p,
            &entries,
            &table,
            1_000,
            12,
            None,
            &mut counts,
            &mut scratch,
        );
        assert!(scratch.memory_bytes() > baseline);
    }

    /// What one execution of a plan left behind: sorted deposits, steps
    /// and walks done.
    type Outcome = (Vec<(NodeId, u64)>, u64, u64);

    fn outcome(counts: &Reserve, cursor: &WalkCursor) -> Outcome {
        (deposits(counts), cursor.steps, cursor.walks_done)
    }

    /// A walk-only sink's `(node, count)` deposits, sorted.
    fn deposits(counts: &Reserve) -> Vec<(NodeId, u64)> {
        let mut deposits: Vec<(NodeId, u64)> = counts.iter().map(|(v, _, c)| (v, c)).collect();
        deposits.sort_unstable();
        deposits
    }

    #[test]
    fn executing_a_plan_in_prefix_increments_deposits_like_one_call() {
        // What makes the tier ladders of `crate::anytime` free: chunk RNG
        // streams are keyed by absolute chunk index and counts add
        // exactly, so where earlier calls stopped cannot show — for a
        // plan over many entries and a one-entry (Monte-Carlo) plan,
        // plans shorter and longer than the executor's window, and a stop
        // at every chunk boundary. A token fired between chunks, by the
        // caller or while a window is in flight, skips exactly the chunks
        // not yet opened.
        let mut gen_rng = SmallRng::seed_from_u64(41);
        let g = hk_graph::gen::holme_kim(1_500, 4, 0.3, &mut gen_rng).unwrap();
        let p = PoissonTable::new(5.0);
        let many: Vec<(u32, NodeId)> = (0..48).map(|i| (i % 3, i as NodeId)).collect();
        let weights: Vec<f64> = (0..many.len()).map(|i| 1.0 + i as f64).collect();
        let one = [(0u32, 3 as NodeId)];
        let plans = [
            (&many[..], AliasTable::new(&weights)),
            (&one[..], AliasTable::new(&[1.0])),
        ];
        for (entries, table) in &plans {
            let plan = |nr: u64| {
                let mut scratch = WalkScratch::default();
                assert!(plan_batched_walks(
                    entries,
                    table,
                    nr,
                    5,
                    None,
                    &mut scratch
                ));
                scratch
            };
            // Execute the plan of `nr` walks up to each of `stops` in
            // turn; the token fires after the call that reached
            // `cancel_after`.
            let run = |nr: u64, stops: &[usize], cancel_after: Option<usize>| {
                let mut counts = sink_for(&g);
                let mut scratch = plan(nr);
                let token = CancelToken::new();
                let mut cursor = WalkCursor::default();
                for &upto in stops {
                    run_planned_walks(
                        &g,
                        &p,
                        entries,
                        5,
                        Some(&token),
                        upto,
                        &mut cursor,
                        &mut counts,
                        &mut scratch,
                    );
                    if cancel_after == Some(upto) {
                        token.cancel();
                    }
                }
                outcome(&counts, &cursor)
            };
            for k in [1usize, 2, 3, 5, 9] {
                // The smallest multiple of 1000 walks cut into `k` chunks.
                let nr = (1..100)
                    .map(|i| i * 1_000)
                    .find(|&nr| plan(nr).chunks.len() == k)
                    .expect("some walk count plans k chunks");
                let what = format!("{} entries, k={k}", entries.len());
                let one_call = run(nr, &[k], None);
                assert_eq!(one_call.2, nr, "{what}");
                let mut stop_sets: Vec<Vec<usize>> = (0..=k).map(|b| vec![b, k]).collect();
                stop_sets.push((1..=k).collect());
                for stops in &stop_sets {
                    assert_eq!(run(nr, stops, None), one_call, "{what}: stops {stops:?}");
                }
                let prefix_plan = plan(nr);
                for b in 0..=k {
                    let what = format!("{what}: cancel at {b}");
                    let cut = run(nr, &[b, k], Some(b));
                    assert_eq!(cut, run(nr, &[b], None), "{what}");
                    assert_eq!(cut.2, prefix_plan.planned_walks_through(b), "{what}");
                }
            }
        }
    }

    /// The master seed of the passes this module's test watches; no
    /// other test plans with it.
    const WATCHED_SEED: u64 = 0x0bad_5eed_0f0c_a11d;

    /// The passes [`opening`] watches, by master seed: the ordinal of the
    /// chunk whose opening fires the pass's token (0: none), and the
    /// chunks opened since [`fire_at_open`]. Each test watches a seed of
    /// its own, so tests running side by side count only their own chunks.
    static WATCHED: Mutex<Vec<(u64, usize, usize)>> = Mutex::new(Vec::new());

    /// Watch the passes planned with `master_seed`: fire the token while
    /// the `m`-th chunk opened from now on is being opened (0: never).
    pub(crate) fn fire_at_open(master_seed: u64, m: usize) {
        let mut watched = WATCHED.lock().unwrap();
        watched.retain(|w| w.0 != master_seed);
        watched.push((master_seed, m, 0));
    }

    /// `Pass::open` calls this as it opens a chunk, on whichever thread
    /// opens it.
    pub(super) fn opening(master_seed: u64, cancel: Option<&CancelToken>) {
        let mut watched = WATCHED.lock().unwrap();
        if let Some((_, at, opened)) = watched.iter_mut().find(|w| w.0 == master_seed) {
            *opened += 1;
            if opened == at {
                cancel.expect("a watched pass has a token").cancel();
            }
        }
    }

    #[test]
    fn a_token_fired_inside_the_window_skips_only_unopened_chunks() {
        // Both threads of a pass open chunks ahead of the ones they are
        // finishing. A token that fires while the m-th chunk is being
        // opened lets every chunk already claimed run to its end and skips
        // the rest whole: the chunks that ran are a prefix [0, c) with
        // c >= m, and the outcome is that of running chunks [0, c). On one
        // thread, c == m.
        let mut gen_rng = SmallRng::seed_from_u64(43);
        let g = hk_graph::gen::holme_kim(1_500, 4, 0.3, &mut gen_rng).unwrap();
        let p = PoissonTable::new(5.0);
        let entries: Vec<(u32, NodeId)> = (0..32).map(|i| (i % 4, i * 7 as NodeId)).collect();
        let table = AliasTable::new(&vec![1.0; entries.len()]);
        let seed = WATCHED_SEED;
        let plan = || {
            let mut scratch = WalkScratch::default();
            assert!(plan_batched_walks(
                &entries,
                &table,
                50_000,
                seed,
                None,
                &mut scratch
            ));
            scratch
        };
        let num_chunks = plan().chunks.len();
        assert!(num_chunks > 2 * WINDOW, "{num_chunks} chunks");
        for helper in [false, true] {
            for m in 1..=num_chunks {
                let mut counts = sink_for(&g);
                let mut scratch = plan();
                let token = CancelToken::new();
                fire_at_open(seed, m);
                if helper {
                    scratch.fit_helper(0, num_chunks);
                }
                let mut cursor = WalkCursor::default();
                run_pass(
                    &g,
                    p.length_tables(),
                    &entries,
                    &mut scratch,
                    num_chunks,
                    &mut cursor,
                    seed,
                    Some(&token),
                    &mut counts,
                    helper,
                );
                let cut = outcome(&counts, &cursor);
                let what = format!("helper {helper}, fired at chunk {m}");
                let c = cursor.next_chunk;
                assert!(token.is_cancelled(), "{what}: the token never fired");
                assert!(c >= m, "{what}: only {c} chunks ran");
                if !helper {
                    assert_eq!(c, m, "{what}");
                }
                assert_eq!(cut.2, scratch.planned_walks_through(c), "{what}");

                let mut counts = sink_for(&g);
                let mut scratch = plan();
                let mut cursor = WalkCursor::default();
                fire_at_open(seed, 0);
                run_planned_walks(
                    &g,
                    &p,
                    &entries,
                    seed,
                    None,
                    c,
                    &mut cursor,
                    &mut counts,
                    &mut scratch,
                );
                assert_eq!(cut, outcome(&counts, &cursor), "{what}");
            }
        }
    }

    #[test]
    fn one_thread_and_two_deposit_the_same_bits() {
        // Which thread runs a chunk cannot show: for a plan over many
        // entries and a one-entry (Monte-Carlo) plan, on a graph whose
        // walks end mid-walk in a row-less node too, a pass with the
        // helper deposits, steps and counts exactly what the calling
        // thread alone does, from any starting chunk — whether or not this
        // machine would spawn the helper by itself.
        let mut gen_rng = SmallRng::seed_from_u64(44);
        let hk = hk_graph::gen::holme_kim(2_000, 4, 0.3, &mut gen_rng).unwrap();
        let sink_graph = Graph::from_csr(vec![0, 1, 4, 4, 6, 6], vec![1, 0, 2, 3, 1, 2]);
        let p = PoissonTable::new(5.0);
        for g in [&hk, &sink_graph] {
            let many: Vec<(u32, NodeId)> = (0..24u32)
                .map(|i| (i % 5, (i * 13) % g.num_nodes() as u32))
                .collect();
            for entries in [&many[..], &[(0, 1)]] {
                let table = AliasTable::new(&vec![1.0; entries.len()]);
                let run = |from: usize, helper: bool| {
                    let mut counts = sink_for(g);
                    let mut scratch = WalkScratch::default();
                    let planned =
                        plan_batched_walks(entries, &table, 40_000, 3, None, &mut scratch);
                    assert!(planned);
                    let num_chunks = scratch.chunks.len();
                    let mut cursor = WalkCursor {
                        next_chunk: from,
                        ..WalkCursor::default()
                    };
                    if helper {
                        scratch.fit_helper(from, num_chunks);
                    }
                    let (s, c, k) = (&mut scratch, &mut cursor, &mut counts);
                    run_pass(
                        g,
                        p.length_tables(),
                        entries,
                        s,
                        num_chunks,
                        c,
                        3,
                        None,
                        k,
                        helper,
                    );
                    assert_eq!(cursor.next_chunk, num_chunks);
                    (num_chunks, outcome(&counts, &cursor))
                };
                let (num_chunks, _) = run(0, false);
                assert!(num_chunks >= 2 * WINDOW, "{num_chunks} chunks");
                for from in [0, 1, num_chunks - 2, num_chunks - 1] {
                    let what = format!(
                        "{} entries, {} nodes, from {from}",
                        entries.len(),
                        g.num_nodes()
                    );
                    assert_eq!(run(from, true), run(from, false), "{what}");
                }
            }
        }
    }

    /// FNV-1a over sorted `(node, count)` deposits, then the step count.
    fn deposit_digest(counts: &Reserve, steps: u64) -> u64 {
        let words = deposits(counts)
            .into_iter()
            .flat_map(|(v, c)| [v as u64, c])
            .chain([steps]);
        words.fold(0xcbf2_9ce4_8422_2325u64, |h, w| {
            w.to_le_bytes()
                .iter()
                .fold(h, |h, &b| (h ^ b as u64).wrapping_mul(0x0100_0000_01b3))
        })
    }

    #[test]
    fn walk_engine_bits_are_pinned() {
        // The goldens' datasets rarely plan more than two chunks, so they
        // cannot see how the executor schedules chunks against each other.
        // These digests pin every deposit and the step count of plans that
        // span many chunks: over many entries, on a Holme–Kim graph and on
        // a graph whose walks end mid-walk in a row-less node, and from
        // the one entry (0, 1), the plan of a Monte-Carlo query.
        let mut gen_rng = SmallRng::seed_from_u64(42);
        let hk = hk_graph::gen::holme_kim(3_000, 4, 0.3, &mut gen_rng).unwrap();
        let sink = Graph::from_csr(vec![0, 1, 4, 4, 6, 6], vec![1, 0, 2, 3, 1, 2]);
        let p = PoissonTable::new(5.0);
        let entries_on =
            |n: u32| -> Vec<(u32, NodeId)> { (0..40u32).map(|i| (i % 7, (i * 37) % n)).collect() };
        let walk = |g: &Graph, entries: &[(u32, NodeId)], nr: u64| {
            let mut counts = sink_for(g);
            let mut scratch = WalkScratch::default();
            let weights: Vec<f64> = (0..entries.len()).map(|i| 1.0 + (i % 5) as f64).collect();
            let table = AliasTable::new(&weights);
            assert!(plan_batched_walks(
                entries,
                &table,
                nr,
                17,
                None,
                &mut scratch
            ));
            let num_chunks = scratch.chunks.len();
            let mut cursor = WalkCursor::default();
            run_planned_walks(
                g,
                &p,
                entries,
                17,
                None,
                num_chunks,
                &mut cursor,
                &mut counts,
                &mut scratch,
            );
            (num_chunks, deposit_digest(&counts, cursor.steps))
        };
        let cases = [
            (
                "holme-kim, 40 entries",
                &hk,
                entries_on(3_000),
                50_000,
                0x3dc7_dfb9_da65_0b2d_u64,
            ),
            (
                "sink graph, 40 entries",
                &sink,
                entries_on(5),
                50_000,
                0x602a_97e4_816c_6ced,
            ),
            (
                "holme-kim, one entry",
                &hk,
                vec![(0, 1)],
                40_000,
                0xff89_2e99_0bb6_6475,
            ),
        ];
        for (what, g, entries, nr, digest) in cases {
            let (num_chunks, got) = walk(g, &entries, nr);
            assert!(num_chunks >= 9, "{what}: only {num_chunks} chunks");
            assert_eq!(got, digest, "{what}: digest {got:#018x}");
        }
    }
}
