//! The parkable executor of a walk plan: frontier-exchange walk execution
//! for sharded serving.
//!
//! The batched walk engine ([`crate::walk`]) plans a walk phase as
//! independent chunks, each with its own RNG stream derived from the
//! master seed, and a single process runs them through the lane kernel.
//! This module is the plan's other executor — the one presampled stepper
//! that walks strictly one walk at a time, which is what lets it run when
//! the graph's *adjacency rows* are partitioned across shard processes:
//! a chunk becomes a migrating [`ShardCursor`] that any shard can step as
//! long as the walk's current node belongs to it, and that **parks**
//! (suspends, to be shipped to the owning shard) the moment the next step
//! would read a row it does not own — *before* consuming any RNG for that
//! step. Because parking is RNG-neutral and deposits are integer counts
//! (merge-order-independent), the union of all shards' deposits is
//! **bitwise identical** for any partition whatsoever — in particular to
//! the one-owner partition, where a single session owns every row and
//! nothing ever parks. That one-owner run is the single-process reference
//! every fleet must reproduce (`LocalClusterer::run_tea_plus_one_owner`).
//!
//! It draws a different (equally distributed) sample than the lane
//! kernel: lane interleaving feeds one `u64` draw to two walks at once,
//! which cannot be split at a partition boundary without changing the
//! stream.
//!
//! Ownership discipline: only `neighbor_flat_unchecked` reads — the
//! adjacency-row loads, all of them in `ExchangeSession::step_walk` — are
//! partition-constrained. Offsets and degrees are global metadata every
//! shard holds (the `.hkg` snapshot is mapped read-only; untouched
//! adjacency pages stay non-resident under mmap), and endpoint deposits go
//! to the local counter regardless of which shard owns the endpoint.

use hk_graph::{Graph, NodeId};
use rand::rngs::SmallRng;
use rand::Rng;

use crate::alias::AliasTable;
use crate::error::HkprError;
use crate::poisson::{LengthTables, PoissonTable};
use crate::walk::{chunk_rng, lemire_pick, plan_batched_walks, WalkScratch};
use crate::workspace::EpochCounter;

/// Serializable execution state of one walk chunk. 56 bytes on the wire;
/// the shard RPC ships these in batched frontier-exchange rounds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShardCursor {
    /// Absolute chunk index (keys the RNG stream; never changes).
    pub chunk: u32,
    /// Absolute index into the plan's flattened work-item list of the
    /// item in progress.
    pub item: u32,
    /// Walks of the current item already deposited.
    pub done: u64,
    /// Current node of the in-flight walk (meaningful iff `rem > 0`).
    pub node: NodeId,
    /// Remaining steps of the in-flight walk. `rem == 0` means the cursor
    /// sits at a walk boundary (next action: draw a length); `rem > 0`
    /// means mid-walk at `node`, whose degree is > 0 by construction.
    pub rem: u32,
    /// Suspended xoshiro256++ state of the chunk's RNG stream.
    pub rng: [u64; 4],
}

/// What [`ExchangeSession::drive`] did with a cursor.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DriveOutcome {
    /// The chunk ran to completion; every walk is deposited.
    Completed,
    /// The next step needs the adjacency row of this (non-owned) node:
    /// ship the cursor to the node's owner.
    Parked(NodeId),
}

/// One shard's view of a planned walk phase: the (replicated, pure) chunk
/// plan plus this shard's endpoint deposits. Every shard builds an
/// identical session from the same `(entries, weights, nr, master_seed)`
/// — the plan's start sampling is a pure function of those — and then
/// drives whichever cursors currently reside with it.
pub struct ExchangeSession<'g> {
    graph: &'g Graph,
    lengths: &'g LengthTables,
    entries: Vec<(u32, NodeId)>,
    work: Vec<(u32, u64)>,
    chunks: Vec<(u32, u32)>,
    master_seed: u64,
    total_walks: u64,
    counts: EpochCounter,
    steps: u64,
    completed_walks: u64,
}

impl<'g> ExchangeSession<'g> {
    /// Build the session: replicate the walk plan (sampling all `nr`
    /// starts from the alias table over `weights`, chunked by
    /// `crate::walk`'s planner) and start an empty local deposit counter.
    /// The inputs may come off the wire: a start node outside the graph or
    /// a weight list of another length is [`HkprError::InvalidParameter`].
    pub fn new(
        graph: &'g Graph,
        poisson: &'g PoissonTable,
        entries: &[(u32, NodeId)],
        weights: &[f64],
        nr: u64,
        master_seed: u64,
    ) -> Result<Self, HkprError> {
        let n = graph.num_nodes();
        if weights.len() != entries.len() || entries.iter().any(|&(_, v)| v as usize >= n) {
            return Err(HkprError::InvalidParameter(format!(
                "walk plan needs one weight per entry and start nodes below {n}"
            )));
        }
        let mut counts = EpochCounter::new();
        let mut scratch = WalkScratch::default();
        // Nothing to walk is an empty, already-complete plan — the default
        // scratch — whatever the weights (there may be none to build an
        // alias table from; the planner would not consult it either).
        if nr > 0 && !entries.is_empty() {
            let table = AliasTable::try_new(weights)?;
            let planned = plan_batched_walks(
                graph,
                entries,
                &table,
                nr,
                master_seed,
                None,
                &mut counts,
                &mut scratch,
            );
            assert!(planned, "planning cannot be cancelled without a token");
        }
        Ok(ExchangeSession {
            graph,
            lengths: poisson.length_tables(),
            entries: entries.to_vec(),
            work: scratch.work().to_vec(),
            chunks: scratch.chunks().to_vec(),
            master_seed,
            total_walks: scratch.work().iter().map(|&(_, walks)| walks).sum(),
            counts,
            steps: 0,
            completed_walks: 0,
        })
    }

    /// Number of chunks (= migrating cursors) in the plan.
    pub fn num_chunks(&self) -> usize {
        self.chunks.len()
    }

    /// Total planned walks across all chunks.
    pub fn total_walks(&self) -> u64 {
        self.total_walks
    }

    /// The start node of a chunk's first work item — the node whose owner
    /// hosts the chunk's initial cursor. Every shard computes the same
    /// assignment from its replicated plan, so initial cursors need no
    /// wire transfer.
    pub fn initial_owner_node(&self, chunk: usize) -> NodeId {
        let (lo, _) = self.chunks[chunk];
        let (entry_idx, _) = self.work[lo as usize];
        self.entries[entry_idx as usize].1
    }

    /// The initial cursor of a chunk: positioned at the chunk's first
    /// item with the chunk's fresh RNG stream.
    pub fn initial_cursor(&self, chunk: usize) -> ShardCursor {
        let (lo, _) = self.chunks[chunk];
        ShardCursor {
            chunk: chunk as u32,
            item: lo,
            done: 0,
            node: 0,
            rem: 0,
            rng: chunk_rng(self.master_seed, chunk as u64).state(),
        }
    }

    /// Check a cursor that arrived from outside the process against this
    /// session's plan, before it may be [`drive`](Self::drive)n: its chunk
    /// and item exist, it counts no more walks than the item holds, and a
    /// walk in flight (`rem > 0`) is one the item can have — no longer than
    /// its start hop can presample, on a node that has a row to step
    /// through. Cursors this plan produced always pass; anything else is
    /// [`HkprError::InvalidParameter`].
    pub fn validate_cursor(&self, cursor: &ShardCursor) -> Result<(), HkprError> {
        let fits = |&(lo, hi): &(u32, u32)| {
            // What the item holds: `walks` to count through, each of at
            // most `reach` steps. Nothing for a finished cursor (`item ==
            // hi`) and for an immobile item, which is deposited whole.
            let (mut walks, mut reach) = (0, 0);
            if (lo..hi).contains(&cursor.item) {
                let (entry_idx, walk_count) = self.work[cursor.item as usize];
                let (hop0, start) = self.entries[entry_idx as usize];
                // Mobile exactly when `drive` finds a length table and a row;
                // the longest length runs to the tables' last hop.
                if self.lengths.table(hop0 as usize).is_some() && self.graph.degree(start) > 0 {
                    (walks, reach) = (walk_count, self.lengths.num_hops() - 1 - hop0 as usize);
                }
            }
            let stranded = cursor.rem > 0
                && (cursor.done == walks
                    || cursor.rem as usize > reach
                    || cursor.node as usize >= self.graph.num_nodes()
                    || self.graph.degree(cursor.node) == 0);
            (lo..=hi).contains(&cursor.item) && cursor.done <= walks && !stranded
        };
        if self.chunks.get(cursor.chunk as usize).is_some_and(fits) {
            return Ok(());
        }
        let what = format!("{cursor:?} does not fit the walk plan");
        Err(HkprError::InvalidParameter(what))
    }

    /// Step a cursor as far as this shard's ownership allows. Returns
    /// [`DriveOutcome::Parked`] with the node whose adjacency row the
    /// next step needs (park happens *before* that step consumes RNG, so
    /// the handoff is invisible to the stream), or
    /// [`DriveOutcome::Completed`] when every walk of the chunk is
    /// deposited. Deposits go into this shard's local counter. Per work
    /// item the hop's length table and the start's row are resolved once;
    /// each walk draws its exact length (one `u64`), then one `u32` a step.
    ///
    /// # Panics
    /// If the cursor fails [`validate_cursor`](Self::validate_cursor): a
    /// caller holding cursors from outside the process checks them first.
    pub fn drive(
        &mut self,
        cursor: &mut ShardCursor,
        owns: impl Fn(NodeId) -> bool,
    ) -> DriveOutcome {
        if let Err(e) = self.validate_cursor(cursor) {
            panic!("{e}");
        }
        let (graph, lengths) = (self.graph, self.lengths);
        let (_, hi) = self.chunks[cursor.chunk as usize];
        let mut rng = SmallRng::from_state(cursor.rng);
        while cursor.item < hi {
            let (entry_idx, walk_count) = self.work[cursor.item as usize];
            let (hop0, start) = self.entries[entry_idx as usize];
            let (row0, deg0) = graph.neighbor_row(start);
            let Some(table) = lengths.table(hop0 as usize).filter(|_| deg0 > 0) else {
                // Immobile item (degree-0 start, or a start hop beyond the
                // Poisson truncation): no RNG is consumed and no row is
                // read, so any shard may deposit it wherever the cursor
                // happens to be. It never parks, so `done` is 0.
                debug_assert_eq!((cursor.done, cursor.rem), (0, 0));
                self.counts.inc(start, walk_count);
                self.completed_walks += walk_count;
                cursor.item += 1;
                continue;
            };
            while cursor.done < walk_count {
                let mut row = (row0, deg0);
                if cursor.rem > 0 {
                    // Resume the walk this cursor parked mid-stream, on a
                    // node `validate_cursor` found a row for.
                    row = graph.neighbor_row(cursor.node);
                } else if owns(start) {
                    (cursor.node, cursor.rem) = (start, table.sample(&mut rng) as u32);
                } else {
                    // The next walk's first step reads start's row: hand
                    // the cursor to start's owner before touching the RNG.
                    cursor.rng = rng.state();
                    return DriveOutcome::Parked(start);
                }
                // A walk of length 0 ends where it starts.
                if cursor.rem > 0 && !self.step_walk(cursor, row, &mut rng, &owns) {
                    cursor.rng = rng.state();
                    return DriveOutcome::Parked(cursor.node);
                }
                self.counts.inc(cursor.node, 1);
                self.completed_walks += 1;
                cursor.done += 1;
                cursor.rem = 0;
            }
            cursor.item += 1;
            cursor.done = 0;
        }
        cursor.rng = rng.state();
        DriveOutcome::Completed
    }

    /// Walk the cursor's in-flight walk (`rem > 0`) on from `cursor.node`,
    /// whose row is `(row, deg)` with `deg > 0`, one `u32` draw a step.
    /// `true`: the walk ended on `cursor.node` — its presampled length ran
    /// out, or a degree-0 node absorbed it (the rest is spent in place).
    /// `false`: the next step needs `cursor.node`'s row, which `owns`
    /// disclaims. The only code in the parkable executor that reads an
    /// adjacency row.
    #[inline]
    fn step_walk(
        &mut self,
        cursor: &mut ShardCursor,
        (mut row, mut deg): (usize, u32),
        rng: &mut SmallRng,
        owns: &impl Fn(NodeId) -> bool,
    ) -> bool {
        debug_assert!(deg > 0 && cursor.rem > 0);
        while owns(cursor.node) {
            let idx = lemire_pick(rng.next_u32(), deg);
            // SAFETY: idx < deg (`drive` enters with `deg > 0`, the test
            // below keeps it), so row + idx is inside the node's row.
            cursor.node = unsafe { self.graph.neighbor_flat_unchecked(row + idx) };
            self.steps += 1;
            cursor.rem -= 1;
            // SAFETY: the node was read out of the CSR arrays (< n).
            (row, deg) = unsafe { self.graph.neighbor_row_unchecked(cursor.node) };
            if deg == 0 || cursor.rem == 0 {
                return true;
            }
        }
        false
    }

    /// This shard's endpoint deposits so far, as a sparse
    /// (first-touch-ordered) list. Summing these lists across shards per
    /// node gives exactly the single-process counter.
    pub fn sparse_counts(&self) -> Vec<(NodeId, u64)> {
        self.counts.iter().collect()
    }

    /// Steps walked on this shard so far.
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Walks this shard deposited (across all shards this sums to the
    /// plan's total once every cursor completes).
    pub fn completed_walks(&self) -> u64 {
        self.completed_walks
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hk_graph::gen::holme_kim;
    use rand::{RngExt, SeedableRng};

    /// The independent oracle of the parkable executor: one chunk's
    /// presampled walks executed one at a time, fused with the length
    /// draw, with no cursor, no ownership test and no way to stop
    /// mid-walk. Immobile walks batch-deposit per work group.
    fn run_presampled(
        graph: &Graph,
        entries: &[(u32, NodeId)],
        lengths: &LengthTables,
        items: &[(u32, u64)],
        rng: &mut SmallRng,
        sink: &mut EpochCounter,
    ) -> u64 {
        let mut steps = 0u64;
        for &(entry_idx, walk_count) in items {
            let (hop0, start) = entries[entry_idx as usize];
            let (row0, deg0) = graph.neighbor_row(start);
            let Some(table) = lengths.table(hop0 as usize).filter(|_| deg0 > 0) else {
                sink.inc(start, walk_count);
                continue;
            };
            let mut immediate = 0u64;
            for _ in 0..walk_count {
                let len = table.sample(rng);
                if len == 0 {
                    immediate += 1;
                    continue;
                }
                let (mut row, mut deg) = (row0, deg0);
                let mut node = start;
                for _ in 0..len {
                    let idx = lemire_pick(rng.next_u32(), deg);
                    // SAFETY: idx < deg, so row + idx is inside node's row.
                    node = unsafe { graph.neighbor_flat_unchecked(row + idx) };
                    steps += 1;
                    // SAFETY: node was read out of the CSR arrays (< n).
                    let (nrow, ndeg) = unsafe { graph.neighbor_row_unchecked(node) };
                    if ndeg == 0 {
                        break; // absorbed; remaining length is spent in place
                    }
                    row = nrow;
                    deg = ndeg;
                }
                sink.inc(node, 1);
            }
            if immediate > 0 {
                sink.inc(start, immediate);
            }
        }
        steps
    }

    /// Execute a full frontier-exchange simulation over `shards` sessions
    /// with an arbitrary node->shard assignment, every parked cursor going
    /// through `ship` on its way to the next shard, and return the merged
    /// (counts, steps, walks).
    #[allow(clippy::too_many_arguments)]
    fn run_exchange(
        graph: &Graph,
        poisson: &PoissonTable,
        entries: &[(u32, NodeId)],
        weights: &[f64],
        nr: u64,
        master_seed: u64,
        owner_of: &dyn Fn(NodeId) -> usize,
        shards: usize,
        ship: &dyn Fn(ShardCursor) -> ShardCursor,
    ) -> (Vec<u64>, u64, u64) {
        let mut sessions: Vec<ExchangeSession> = (0..shards)
            .map(|_| {
                ExchangeSession::new(graph, poisson, entries, weights, nr, master_seed).unwrap()
            })
            .collect();
        // Initial cursors: each shard keeps the chunks whose first start
        // node it owns (every shard computes the same assignment).
        let mut inboxes: Vec<Vec<ShardCursor>> = vec![Vec::new(); shards];
        for c in 0..sessions[0].num_chunks() {
            let owner = owner_of(sessions[0].initial_owner_node(c));
            let cursor = sessions[0].initial_cursor(c);
            inboxes[owner].push(cursor);
        }
        // Frontier-exchange rounds until no cursor parks.
        let mut rounds = 0usize;
        loop {
            let mut parked: Vec<Vec<ShardCursor>> = vec![Vec::new(); shards];
            let mut any = false;
            for (s, session) in sessions.iter_mut().enumerate() {
                let mine = std::mem::take(&mut inboxes[s]);
                for mut cursor in mine {
                    match session.drive(&mut cursor, |v| owner_of(v) == s) {
                        DriveOutcome::Completed => {}
                        DriveOutcome::Parked(dest) => {
                            parked[owner_of(dest)].push(ship(cursor));
                            any = true;
                        }
                    }
                }
            }
            if !any {
                break;
            }
            inboxes = parked;
            rounds += 1;
            assert!(rounds < 1_000_000, "exchange failed to converge");
        }
        let mut merged = vec![0u64; graph.num_nodes()];
        let mut steps = 0u64;
        let mut walks = 0u64;
        for s in &sessions {
            for (v, c) in s.sparse_counts() {
                merged[v as usize] += c;
            }
            steps += s.steps();
            walks += s.completed_walks();
        }
        (merged, steps, walks)
    }

    fn oracle(
        graph: &Graph,
        poisson: &PoissonTable,
        entries: &[(u32, NodeId)],
        weights: &[f64],
        nr: u64,
        master_seed: u64,
    ) -> (Vec<u64>, u64) {
        let table = AliasTable::try_new(weights).unwrap();
        let mut counts = EpochCounter::new();
        let mut scratch = WalkScratch::default();
        assert!(plan_batched_walks(
            graph,
            entries,
            &table,
            nr,
            master_seed,
            None,
            &mut counts,
            &mut scratch,
        ));
        let mut steps = 0u64;
        for (chunk, &(lo, hi)) in scratch.chunks().iter().enumerate() {
            steps += run_presampled(
                graph,
                entries,
                poisson.length_tables(),
                &scratch.work()[lo as usize..hi as usize],
                &mut chunk_rng(master_seed, chunk as u64),
                &mut counts,
            );
        }
        let mut dense = vec![0u64; graph.num_nodes()];
        for (v, c) in counts.iter() {
            dense[v as usize] += c;
        }
        (dense, steps)
    }

    fn fixture(graph_seed: u64) -> (Graph, PoissonTable, Vec<(u32, NodeId)>, Vec<f64>) {
        let mut rng = SmallRng::seed_from_u64(graph_seed);
        let plc = holme_kim(400, 4, 0.3, &mut rng).unwrap();
        // What no generated graph has: node 400 absorbs walks mid-flight —
        // one-way arcs reach it from the hubs 3 and 5 (only a raw CSR can
        // say that) and it has no row of its own — and node 401, the last
        // row, at the very end of the neighbor array, is isolated.
        let (mut offsets, mut neighbors) = (vec![0], Vec::new());
        for v in 0..402 {
            if v < 400 {
                neighbors.extend_from_slice(plc.neighbors(v));
            }
            if v == 3 || v == 5 {
                neighbors.push(400);
            }
            offsets.push(neighbors.len());
        }
        let g = Graph::from_csr(offsets, neighbors);
        let poisson = PoissonTable::new(5.0);
        // A realistic mix of entries: several hops, some repeated nodes,
        // the isolated start and one hop beyond truncation (both immobile).
        let entries: Vec<(u32, NodeId)> = vec![
            (0, 3),
            (0, 401),
            (1, 77),
            (2, 130),
            (0, 299),
            (3, 5),
            (poisson.k_max() as u32 + 4, 200),
            (1, 3),
        ];
        let weights = vec![1.0, 0.5, 0.6, 2.2, 0.4, 1.5, 0.8, 0.3];
        (g, poisson, entries, weights)
    }

    #[test]
    fn any_partition_matches_presampled_oracle_bitwise() {
        let (g, poisson, entries, weights) = fixture(91);
        let nr = 20_000u64;
        for master_seed in [1u64, 0xDEAD_BEEF, 42] {
            let (want_counts, want_steps) =
                oracle(&g, &poisson, &entries, &weights, nr, master_seed);
            // No walk starts on node 400: every deposit there was absorbed.
            assert!(want_counts[400] > 0 && want_counts[401] > 0);
            for shards in [1usize, 2, 3, 5] {
                // Contiguous range partition (the production scheme).
                let n = g.num_nodes() as u32;
                let per = n.div_ceil(shards as u32).max(1);
                let owner = move |v: NodeId| ((v / per) as usize).min(shards - 1);
                let (got_counts, got_steps, got_walks) = run_exchange(
                    &g,
                    &poisson,
                    &entries,
                    &weights,
                    nr,
                    master_seed,
                    &owner,
                    shards,
                    &|cursor| cursor,
                );
                assert_eq!(
                    got_counts, want_counts,
                    "shards={shards} seed={master_seed}"
                );
                assert_eq!(got_steps, want_steps);
                assert_eq!(got_walks, nr);
            }
        }
    }

    #[test]
    fn adversarial_random_partitions_match() {
        // Random (non-contiguous) ownership maximizes boundary crossings:
        // nearly every step parks. The result must still be bitwise equal.
        let (g, poisson, entries, weights) = fixture(17);
        let nr = 5_000u64;
        let master_seed = 7u64;
        let (want_counts, want_steps) = oracle(&g, &poisson, &entries, &weights, nr, master_seed);
        for assign_seed in 0..4u64 {
            let mut arng = SmallRng::seed_from_u64(assign_seed);
            let shards = 4usize;
            let assignment: Vec<usize> = (0..g.num_nodes())
                .map(|_| arng.random_range(0..shards))
                .collect();
            let owner = move |v: NodeId| assignment[v as usize];
            let (got_counts, got_steps, got_walks) = run_exchange(
                &g,
                &poisson,
                &entries,
                &weights,
                nr,
                master_seed,
                &owner,
                shards,
                &|cursor| cursor,
            );
            assert_eq!(got_counts, want_counts, "assign_seed={assign_seed}");
            assert_eq!(got_steps, want_steps);
            assert_eq!(got_walks, nr);
        }
    }

    #[test]
    fn malformed_plans_and_cursors_are_rejected_field_by_field() {
        let (g, poisson, entries, weights) = fixture(37);
        let n = g.num_nodes() as u32;
        let session = |entries: &[(u32, NodeId)], weights: &[f64]| {
            ExchangeSession::new(&g, &poisson, entries, weights, 9_000, 5)
        };
        // A plan off the wire: a start node outside the graph, a weight
        // list of another length.
        let mut outside = entries.clone();
        outside[2].1 = n;
        assert!(session(&outside, &weights).is_err());
        assert!(session(&entries, &weights[1..]).is_err());

        // A cursor the session parked itself, two or more steps into a
        // walk, is the well-formed baseline...
        let mut session = session(&entries, &weights).unwrap();
        let mut good = session.initial_cursor(0);
        let owned = std::cell::Cell::new(session.initial_owner_node(0));
        while good.rem < 2 {
            match session.drive(&mut good, |v| v == owned.get()) {
                DriveOutcome::Parked(at) => owned.set(at),
                DriveOutcome::Completed => panic!("chunk 0 never parked mid-walk"),
            }
        }
        session.validate_cursor(&good).unwrap();
        let (chunks, (lo, hi)) = (session.num_chunks() as u32, session.chunks[0]);
        let walks = session.work[good.item as usize].1;
        let isolated = lo + 1; // the immobile item of entry (0, 401)
        assert_eq!(session.work[isolated as usize].0, 1);
        // ...and each field broken in turn is rejected: stepped, it would
        // be an index panic, a runaway walk or — `rem > 0` on a node
        // without a row — a read past the end of the neighbor array.
        let k_max = poisson.k_max() as u32;
        let broken = |f: &dyn Fn(&mut ShardCursor)| {
            let mut cursor = good;
            f(&mut cursor);
            session.validate_cursor(&cursor).is_err()
        };
        assert!(broken(&|c| c.chunk = chunks), "chunk past the plan");
        assert!(broken(&|c| c.item = hi + 1), "item past its chunk");
        assert!(broken(&|c| c.chunk = 1), "item of another chunk");
        assert!(broken(&|c| c.done = walks + 1), "done past the item");
        assert!(broken(&|c| c.done = walks), "in flight, item exhausted");
        assert!(broken(&|c| c.item = hi), "in flight, chunk finished");
        assert!(broken(&|c| c.item = isolated), "in flight, immobile item");
        assert!(
            broken(&|c| (c.item, c.done, c.rem) = (isolated, 1, 0)),
            "counted into an immobile item"
        );
        assert!(broken(&|c| c.node = n), "node out of range");
        assert!(broken(&|c| c.node = 400), "node is the absorbing one");
        assert!(broken(&|c| c.node = 401), "node is isolated, the last row");
        assert!(broken(&|c| c.rem = k_max + 1), "rem beyond every length");
        assert!(
            broken(&|c| (c.item, c.done, c.rem) = (lo + 2, 0, k_max)),
            "rem beyond what a walk from hop 1 can presample"
        );
        // `drive` refuses to step what `validate_cursor` rejects, whether
        // or not the caller asked first.
        let mut unstepped = ShardCursor { node: 401, ..good };
        let refused = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            session.drive(&mut unstepped, |_| true)
        }));
        assert!(refused.is_err(), "drive stepped a malformed cursor");
    }

    #[test]
    fn single_shard_never_parks() {
        let (g, poisson, entries, weights) = fixture(23);
        let mut session =
            ExchangeSession::new(&g, &poisson, &entries, &weights, 3_000, 11).unwrap();
        for c in 0..session.num_chunks() {
            let mut cursor = session.initial_cursor(c);
            assert_eq!(
                session.drive(&mut cursor, |_| true),
                DriveOutcome::Completed
            );
        }
        assert_eq!(session.completed_walks(), session.total_walks());
    }

    #[test]
    fn empty_plan_is_trivially_complete() {
        let (g, poisson, _, _) = fixture(29);
        let session = ExchangeSession::new(&g, &poisson, &[], &[], 0, 3).unwrap();
        assert_eq!(session.num_chunks(), 0);
        assert_eq!(session.total_walks(), 0);
        assert!(session.sparse_counts().is_empty());
    }

    #[test]
    fn cursor_roundtrips_through_serialization_boundary() {
        // Parked cursors cross a process boundary: field-for-field copy
        // must resume identically (the wire codec is a plain struct map).
        let (g, poisson, entries, weights) = fixture(31);
        let nr = 2_000u64;
        let master_seed = 5u64;
        let (want_counts, want_steps) = oracle(&g, &poisson, &entries, &weights, nr, master_seed);
        // Two shards, but round-trip every parked cursor through an
        // explicit encode/decode of its fields.
        let half = g.num_nodes() as u32 / 2;
        let through_the_wire = |cursor: ShardCursor| {
            let mut bytes = Vec::new();
            bytes.extend_from_slice(&cursor.chunk.to_le_bytes());
            bytes.extend_from_slice(&cursor.item.to_le_bytes());
            bytes.extend_from_slice(&cursor.done.to_le_bytes());
            bytes.extend_from_slice(&cursor.node.to_le_bytes());
            bytes.extend_from_slice(&cursor.rem.to_le_bytes());
            for w in cursor.rng {
                bytes.extend_from_slice(&w.to_le_bytes());
            }
            assert_eq!(bytes.len(), 56);
            let rd = |o: usize| u32::from_le_bytes(bytes[o..o + 4].try_into().unwrap());
            let rd64 = |o: usize| u64::from_le_bytes(bytes[o..o + 8].try_into().unwrap());
            let decoded = ShardCursor {
                chunk: rd(0),
                item: rd(4),
                done: rd64(8),
                node: rd(16),
                rem: rd(20),
                rng: [rd64(24), rd64(32), rd64(40), rd64(48)],
            };
            assert_eq!(decoded, cursor);
            decoded
        };
        let (got_counts, got_steps, _) = run_exchange(
            &g,
            &poisson,
            &entries,
            &weights,
            nr,
            master_seed,
            &|v| usize::from(v >= half),
            2,
            &through_the_wire,
        );
        assert_eq!(got_counts, want_counts);
        assert_eq!(got_steps, want_steps);
    }
}
