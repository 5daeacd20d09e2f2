//! Frontier-exchange walk execution for sharded serving.
//!
//! The batched walk engine ([`crate::walk`]) executes a planned walk
//! phase as independent chunks, each with its own RNG stream derived from
//! the master seed. This module re-executes exactly the same plan when
//! the graph's *adjacency rows* are partitioned across shard processes:
//! a chunk becomes a migrating [`ShardCursor`] that any shard can step as
//! long as the walk's current node belongs to it, and that **parks**
//! (suspends, to be shipped to the owning shard) the moment the next step
//! would read a row it does not own — *before* consuming any RNG for that
//! step. Because parking is RNG-neutral and deposits are integer counts
//! (merge-order-independent), the union of all shards' deposits is
//! **bitwise identical** to a single-process
//! [`crate::walk::WalkKernel::Presampled`] run of the same plan, for any
//! partition whatsoever.
//!
//! The mirrored kernel is `Presampled` (strictly sequential per-walk RNG
//! consumption), not the `Lanes` production kernel: lane interleaving
//! feeds one `u64` draw to two walks at once, which cannot be split at a
//! partition boundary without changing the stream.
//!
//! Ownership discipline: only `neighbor_flat_unchecked` reads — the
//! adjacency-row loads — are partition-constrained. Offsets and degrees
//! are global metadata every shard holds (the `.hkg` snapshot is mapped
//! read-only; untouched adjacency pages stay non-resident under mmap),
//! and endpoint deposits go to the local counter regardless of which
//! shard owns the endpoint.

use hk_graph::{Graph, NodeId};
use rand::rngs::SmallRng;
use rand::Rng;

use crate::alias::AliasTable;
use crate::error::HkprError;
use crate::poisson::{LengthTables, PoissonTable};
use crate::walk::{chunk_rng, lemire_pick, plan_batched_walks_kernel, WalkKernel, WalkScratch};
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
    /// starts from the alias table over `weights`, chunking identically
    /// to [`crate::walk::plan_batched_walks_kernel`] with the
    /// `Presampled` kernel) and start an empty local deposit counter.
    pub fn new(
        graph: &'g Graph,
        poisson: &'g PoissonTable,
        entries: &[(u32, NodeId)],
        weights: &[f64],
        nr: u64,
        master_seed: u64,
    ) -> Result<Self, HkprError> {
        if nr == 0 || entries.is_empty() {
            // Mirror the planner's degenerate early-return (which never
            // consults the alias table): an empty, already-complete plan.
            let mut counts = EpochCounter::new();
            counts.begin(graph.num_nodes());
            return Ok(ExchangeSession {
                graph,
                lengths: poisson.length_tables(),
                entries: Vec::new(),
                work: Vec::new(),
                chunks: Vec::new(),
                master_seed,
                total_walks: 0,
                counts,
                steps: 0,
                completed_walks: 0,
            });
        }
        let table = AliasTable::try_new(weights)?;
        let mut counts = EpochCounter::new();
        let mut scratch = WalkScratch::default();
        let planned = plan_batched_walks_kernel(
            graph,
            entries,
            &table,
            nr,
            master_seed,
            WalkKernel::Presampled,
            None,
            &mut counts,
            &mut scratch,
        );
        assert!(planned, "planning cannot be cancelled without a token");
        Ok(ExchangeSession {
            graph,
            lengths: poisson.length_tables(),
            entries: entries.to_vec(),
            work: scratch.work().to_vec(),
            chunks: scratch.chunks().to_vec(),
            master_seed,
            total_walks: nr,
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

    /// Step a cursor as far as this shard's ownership allows, mirroring
    /// the `Presampled` kernel's RNG consumption exactly. Returns
    /// [`DriveOutcome::Parked`] with the node whose adjacency row the
    /// next step needs (park happens *before* that step consumes RNG, so
    /// the handoff is invisible to the stream), or
    /// [`DriveOutcome::Completed`] when every walk of the chunk is
    /// deposited. Deposits go into this shard's local counter.
    pub fn drive(
        &mut self,
        cursor: &mut ShardCursor,
        owns: impl Fn(NodeId) -> bool,
    ) -> DriveOutcome {
        let (_, hi) = self.chunks[cursor.chunk as usize];

        // Resume an in-flight walk parked mid-stream.
        if cursor.rem > 0 {
            let mut rng = SmallRng::from_state(cursor.rng);
            let mut node = cursor.node;
            let mut rem = cursor.rem;
            let (mut row, mut deg) = self.graph.neighbor_row(node);
            debug_assert!(deg > 0, "parked cursors sit on movable nodes");
            loop {
                if !owns(node) {
                    cursor.node = node;
                    cursor.rem = rem;
                    cursor.rng = rng.state();
                    return DriveOutcome::Parked(node);
                }
                let idx = lemire_pick(rng.next_u32(), deg);
                // SAFETY: idx < deg, so row + idx is inside node's row.
                node = unsafe { self.graph.neighbor_flat_unchecked(row + idx) };
                self.steps += 1;
                rem -= 1;
                // SAFETY: node was read out of the CSR arrays (< n).
                let (nrow, ndeg) = unsafe { self.graph.neighbor_row_unchecked(node) };
                if ndeg == 0 || rem == 0 {
                    break; // absorbed, or the presampled length ran out
                }
                row = nrow;
                deg = ndeg;
            }
            self.counts.inc(node, 1);
            self.completed_walks += 1;
            cursor.done += 1;
            cursor.rem = 0;
            cursor.rng = rng.state();
        }

        // Item loop: exactly run_presampled's traversal order.
        while cursor.item < hi {
            let (entry_idx, walk_count) = self.work[cursor.item as usize];
            let (hop0, start) = self.entries[entry_idx as usize];
            let (row0, deg0) = self.graph.neighbor_row(start);
            let Some(table) = self.lengths.table(hop0 as usize).filter(|_| deg0 > 0) else {
                // Immobile item: no RNG is consumed and no row is read, so
                // any shard may deposit it wherever the cursor happens to
                // be. Partial progress is impossible here (immobile items
                // never park), so `done` is 0.
                debug_assert_eq!(cursor.done, 0);
                self.counts.inc(start, walk_count);
                self.completed_walks += walk_count;
                cursor.item += 1;
                continue;
            };
            if cursor.done >= walk_count {
                cursor.item += 1;
                cursor.done = 0;
                continue;
            }
            if !owns(start) {
                // The next walk's first step reads start's row: hand the
                // cursor to start's owner before touching the RNG.
                return DriveOutcome::Parked(start);
            }
            let mut rng = SmallRng::from_state(cursor.rng);
            while cursor.done < walk_count {
                let len = table.sample(&mut rng);
                if len == 0 {
                    // The monolithic kernel batches these deposits per
                    // item; depositing one at a time yields the same
                    // integer totals.
                    self.counts.inc(start, 1);
                    self.completed_walks += 1;
                    cursor.done += 1;
                    continue;
                }
                let (mut row, mut deg) = (row0, deg0);
                let mut node = start;
                let mut rem = len as u32;
                loop {
                    if !owns(node) {
                        cursor.node = node;
                        cursor.rem = rem;
                        cursor.rng = rng.state();
                        return DriveOutcome::Parked(node);
                    }
                    let idx = lemire_pick(rng.next_u32(), deg);
                    // SAFETY: idx < deg, so row + idx is inside the row.
                    node = unsafe { self.graph.neighbor_flat_unchecked(row + idx) };
                    self.steps += 1;
                    rem -= 1;
                    // SAFETY: node came out of the CSR arrays (< n).
                    let (nrow, ndeg) = unsafe { self.graph.neighbor_row_unchecked(node) };
                    if ndeg == 0 || rem == 0 {
                        break;
                    }
                    row = nrow;
                    deg = ndeg;
                }
                self.counts.inc(node, 1);
                self.completed_walks += 1;
                cursor.done += 1;
            }
            cursor.rng = rng.state();
            cursor.item += 1;
            cursor.done = 0;
        }
        DriveOutcome::Completed
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
    use crate::walk::run_batched_walks_kernel;
    use hk_graph::gen::holme_kim;
    use rand::{RngExt, SeedableRng};

    /// Execute a full frontier-exchange simulation over `shards` sessions
    /// with an arbitrary node->shard assignment, and return the merged
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
                            parked[owner_of(dest)].push(cursor);
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
        let steps = run_batched_walks_kernel(
            graph,
            poisson,
            entries,
            &table,
            nr,
            master_seed,
            1,
            WalkKernel::Presampled,
            None,
            &mut counts,
            &mut scratch,
        );
        let mut dense = vec![0u64; graph.num_nodes()];
        for (v, c) in counts.iter() {
            dense[v as usize] += c;
        }
        (dense, steps)
    }

    fn fixture(graph_seed: u64) -> (Graph, PoissonTable, Vec<(u32, NodeId)>, Vec<f64>) {
        let mut rng = SmallRng::seed_from_u64(graph_seed);
        let g = holme_kim(400, 4, 0.3, &mut rng).unwrap();
        let poisson = PoissonTable::new(5.0);
        // A realistic mix of entries: several hops, some repeated nodes,
        // one hop beyond truncation (immobile), plus an isolated node if
        // the generator made one (holme_kim graphs are connected, so pin
        // the immobile case with the deep hop instead).
        let entries: Vec<(u32, NodeId)> = vec![
            (0, 3),
            (1, 77),
            (2, 130),
            (0, 299),
            (3, 5),
            (poisson.k_max() as u32 + 4, 200),
            (1, 3),
        ];
        let weights = vec![1.0, 0.6, 2.2, 0.4, 1.5, 0.8, 0.3];
        (g, poisson, entries, weights)
    }

    #[test]
    fn any_partition_matches_presampled_oracle_bitwise() {
        let (g, poisson, entries, weights) = fixture(91);
        let nr = 20_000u64;
        for master_seed in [1u64, 0xDEAD_BEEF, 42] {
            let (want_counts, want_steps) =
                oracle(&g, &poisson, &entries, &weights, nr, master_seed);
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
            );
            assert_eq!(got_counts, want_counts, "assign_seed={assign_seed}");
            assert_eq!(got_steps, want_steps);
            assert_eq!(got_walks, nr);
        }
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
        let n = g.num_nodes() as u32;
        let half = n / 2;
        let owner = move |v: NodeId| usize::from(v >= half);
        let mut sessions: Vec<ExchangeSession> = (0..2)
            .map(|_| {
                ExchangeSession::new(&g, &poisson, &entries, &weights, nr, master_seed).unwrap()
            })
            .collect();
        let mut inboxes: Vec<Vec<ShardCursor>> = vec![Vec::new(); 2];
        for c in 0..sessions[0].num_chunks() {
            let o = owner(sessions[0].initial_owner_node(c));
            let cur = sessions[0].initial_cursor(c);
            inboxes[o].push(cur);
        }
        loop {
            let mut parked: Vec<Vec<ShardCursor>> = vec![Vec::new(); 2];
            let mut any = false;
            for s in 0..2 {
                let mine = std::mem::take(&mut inboxes[s]);
                for mut cursor in mine {
                    match sessions[s].drive(&mut cursor, |v| owner(v) == s) {
                        DriveOutcome::Completed => {}
                        DriveOutcome::Parked(dest) => {
                            // Simulated wire roundtrip.
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
                            let rd =
                                |o: usize| u32::from_le_bytes(bytes[o..o + 4].try_into().unwrap());
                            let rd64 =
                                |o: usize| u64::from_le_bytes(bytes[o..o + 8].try_into().unwrap());
                            let decoded = ShardCursor {
                                chunk: rd(0),
                                item: rd(4),
                                done: rd64(8),
                                node: rd(16),
                                rem: rd(20),
                                rng: [rd64(24), rd64(32), rd64(40), rd64(48)],
                            };
                            assert_eq!(decoded, cursor);
                            parked[owner(dest)].push(decoded);
                            any = true;
                        }
                    }
                }
            }
            if !any {
                break;
            }
            inboxes = parked;
        }
        let mut merged = vec![0u64; g.num_nodes()];
        let mut steps = 0;
        for s in &sessions {
            for (v, c) in s.sparse_counts() {
                merged[v as usize] += c;
            }
            steps += s.steps();
        }
        assert_eq!(merged, want_counts);
        assert_eq!(steps, want_steps);
    }
}
