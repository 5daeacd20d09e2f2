//! Sharded, parameter-keyed result cache: an LRU tier and a pinned tier.
//!
//! # Cache key and quantization
//!
//! A cached entry answers exactly one question: "what does this engine
//! return for query `(seed, method, knobs, rng_seed)` on this graph?".
//! The key therefore contains:
//!
//! * the **graph fingerprint** ([`hk_graph::Graph::fingerprint`]) — an
//!   entry cached against one graph can never be served for another, even
//!   if two engines share a process;
//! * the **seed node** and the **RNG stream seed** — the engine inherits
//!   the workspace layer's bit-identical RNG-stream scheme, so the pair
//!   `(seed, rng_seed)` pins the estimator's entire random trajectory;
//! * the **method** itself ([`Method`] is `Eq + Hash`): TEA, TEA+, or
//!   Monte-Carlo with its `max_walks` cap, where `None` (the published
//!   walk count) and `Some(u64::MAX)` are different keys;
//! * the **accuracy knobs** `(t, eps_r, delta, p_f)`, *quantized* to
//!   1/16-decade log buckets ([`ParamsKey`]).
//!
//! # Why quantize — and why the engine canonicalizes
//!
//! Accuracy knobs are order-of-magnitude choices (`delta = 1/n`,
//! `p_f = 1e-6`); callers that compute them at runtime produce values
//! that differ in the last ulps (`1.0 / n as f64` on two code paths) and
//! would never share cache entries under exact keying. A 1/16-decade
//! bucket (~15.5% relative width) merges those while keeping every
//! meaningfully different accuracy level distinct — the paper's own
//! sweeps step knobs by >=2x.
//!
//! Quantization must not break the cache's core contract, *a hit is
//! byte-identical to a recomputation*. If the key were a bucket but the
//! computation used the caller's raw knob, two requests in one bucket
//! would compute different answers and "hit" each other's entries. The
//! engine therefore **canonicalizes**: every request's knobs are snapped
//! to their bucket's canonical value ([`ParamsKey::canonical`]) *before*
//! computing, so all requests in a bucket run — and cache — the same
//! query. `run_batch` (the one-shot batch path) bypasses canonicalization
//! entirely: it takes a pre-built `HkprParams` and performs no caching.
//!
//! # Single-flight miss coalescing
//!
//! Canonicalization guarantees that two concurrent requests with the same
//! [`CacheKey`] would compute **identical bytes** — so computing both is
//! pure waste. The cache therefore tracks *in-flight* keys: the first
//! miss on a key becomes the **leader** ([`FlightClaim::Leader`]) and is
//! the only request enqueued for compute; every concurrent miss on the
//! same key becomes a **follower** ([`FlightClaim::Follower`]) that
//! blocks on the leader's outcome and receives the very same
//! `Arc<ClusterResult>` (or the leader's terminal error — including a
//! deadline shed or cancellation of the leader; followers share the
//! flight's fate, which the serving docs call out). Followers are counted
//! in [`CacheStats::coalesced`]; they are neither hits nor misses, so the
//! `misses == insertions` invariant is untouched.
//!
//! The invariant also survives **degraded answers** (anytime serving): a
//! query whose refinement the deadline watchdog cut short — in the walk
//! ladder *or* mid-push at an eps_r certificate checkpoint — returns
//! best-effort bytes that are *never cached* — the engine records no miss
//! and inserts nothing for it (it reports
//! [`CacheOutcome::Uncached`] and counts in
//! `EngineStats::degraded` instead), so `misses == insertions` keeps
//! counting exactly the full-accuracy compute path. Coalesced followers
//! of a degraded leader receive the same bytes *and* the same
//! [`Degraded`](crate::engine::Degraded) marker through flight
//! settlement, so nobody mistakes a coarsened-push answer for a
//! full-accuracy one.
//!
//! # The pinned tier
//!
//! Beside its LRU map each shard holds **pins**: the answers the hub
//! builder ([`crate::hub`]) precomputed ([`ResultCache::pin`]).
//! [`get`](ResultCache::get) probes them first, under the same lock, and
//! names the tier that answered. Pins charge one global byte budget
//! ([`with_pin_budget`](ResultCache::with_pin_budget)), so the builder
//! stops in degree order once `pin` refuses. They never enter the LRU
//! order and are never evicted, and a pinned hit counts only in
//! [`CacheStats::precomputed`]: the LRU tier and its counters see exactly
//! what they would see without pins. A cache with a zero LRU budget holds
//! only pins, and the engine leaves its misses
//! [`CacheOutcome::Uncached`].

use std::collections::VecDeque;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Mutex};

use hk_cluster::{ClusterResult, Method};
use hk_graph::NodeId;
use hkpr_core::fxhash::{FxHashMap, FxHasher};
use std::sync::Arc;

use crate::engine::CacheOutcome;

/// Buckets per decade of the knob quantizer: `q(x) = round(16 log10 x)`.
const BUCKETS_PER_DECADE: f64 = 16.0;

/// Quantize a strictly positive knob to its 1/16-decade bucket index.
fn quantize(x: f64) -> i32 {
    (x.log10() * BUCKETS_PER_DECADE).round() as i32
}

/// Canonical (bucket-center) value of a bucket index.
fn dequantize(q: i32) -> f64 {
    10f64.powf(q as f64 / BUCKETS_PER_DECADE)
}

/// Quantized accuracy knobs `(t, eps_r, delta, p_f)` — the parameter part
/// of a [`CacheKey`], and the identity under which the engine
/// canonicalizes and builds `HkprParams` (see the module docs).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct ParamsKey {
    t_q: i32,
    eps_q: i32,
    delta_q: i32,
    pf_q: i32,
}

impl ParamsKey {
    /// Quantize resolved knob values. Callers validate positivity first;
    /// this only asserts it.
    pub fn new(t: f64, eps_r: f64, delta: f64, p_f: f64) -> ParamsKey {
        debug_assert!(t > 0.0 && eps_r > 0.0 && delta > 0.0 && p_f > 0.0);
        ParamsKey {
            t_q: quantize(t),
            eps_q: quantize(eps_r),
            delta_q: quantize(delta),
            pf_q: quantize(p_f),
        }
    }

    /// Canonical knob values `(t, eps_r, delta, p_f)` of this bucket —
    /// what the engine actually computes with. The three probability-like
    /// knobs are clamped below 1 so a bucket center can never leave the
    /// open interval `HkprParams` requires (a request with `eps_r = 0.97`
    /// lands in the `1.0` bucket; it still computes with a valid value).
    pub fn canonical(&self) -> (f64, f64, f64, f64) {
        const BELOW_ONE: f64 = 0.99;
        (
            dequantize(self.t_q),
            dequantize(self.eps_q).min(BELOW_ONE),
            dequantize(self.delta_q).min(BELOW_ONE),
            dequantize(self.pf_q).min(BELOW_ONE),
        )
    }
}

/// Full identity of a cacheable query.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// Structural fingerprint of the graph the engine is bound to.
    pub fingerprint: u64,
    /// Seed node.
    pub seed: NodeId,
    /// RNG stream seed (pins the estimator's random trajectory).
    pub rng_seed: u64,
    /// Quantized accuracy knobs.
    pub params: ParamsKey,
    /// Estimator (with Monte-Carlo's walk cap).
    pub method: Method,
}

/// Hit/miss/eviction counters, readable while the cache is live. The last
/// three fields are the pinned tier's, the rest the LRU tier's.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups the LRU tier answered.
    pub hits: u64,
    /// Queries that went to the compute path *and produced a cacheable
    /// (full-accuracy) result* — always equals `insertions`. Shed,
    /// errored and degraded requests count as neither hit nor miss
    /// (degraded answers are never cached; they are `Uncached` and
    /// tallied in `EngineStats::degraded`).
    pub misses: u64,
    /// Entries inserted.
    pub insertions: u64,
    /// Entries evicted to respect the byte budget.
    pub evictions: u64,
    /// Requests that coalesced onto a concurrent identical miss
    /// (single-flight followers; neither hits nor misses).
    pub coalesced: u64,
    /// Bytes currently resident across all shards.
    pub resident_bytes: u64,
    /// Entries currently resident across all shards.
    pub resident_entries: u64,
    /// Lookups the pinned tier answered ([`CacheOutcome::Precomputed`]).
    pub precomputed: u64,
    /// Entries pinned across all shards.
    pub pinned_entries: u64,
    /// Bytes pinned across all shards (the quantity the pin budget caps).
    pub pinned_bytes: u64,
}

struct Shard {
    map: FxHashMap<CacheKey, Arc<ClusterResult>>,
    /// LRU order, most recent at the back. May contain stale duplicates
    /// of recently re-touched keys; each key's live position is its
    /// *last* occurrence, tracked by `pending` occurrence counts so
    /// `evict_one` detects staleness in O(1) instead of scanning.
    order: VecDeque<CacheKey>,
    /// Occurrences of each key currently in `order`.
    pending: FxHashMap<CacheKey, u32>,
    bytes: usize,
    /// The pinned tier: never in `order`, never evicted.
    pinned: FxHashMap<CacheKey, Arc<ClusterResult>>,
}

impl Shard {
    fn new() -> Shard {
        Shard {
            map: FxHashMap::default(),
            order: VecDeque::new(),
            pending: FxHashMap::default(),
            bytes: 0,
            pinned: FxHashMap::default(),
        }
    }

    /// Drop one pending occurrence of `key`, erasing its counter at zero.
    /// Returns the remaining count.
    fn drop_occurrence(&mut self, key: &CacheKey) -> u32 {
        match self.pending.get_mut(key) {
            Some(count) => {
                *count -= 1;
                let left = *count;
                if left == 0 {
                    self.pending.remove(key);
                }
                left
            }
            None => 0,
        }
    }

    /// Drop the least-recently-used entry; returns false if empty.
    fn evict_one(&mut self) -> bool {
        while let Some(key) = self.order.pop_front() {
            // A key can appear multiple times (every touch pushes it
            // again); only its final occurrence is live.
            if self.drop_occurrence(&key) > 0 {
                continue;
            }
            if let Some(entry) = self.map.remove(&key) {
                self.bytes -= entry.memory_bytes();
                return true;
            }
        }
        false
    }

    /// Re-queue `key` as most recently used, compacting the stale-tag
    /// queue if touches have let it outgrow the map.
    fn touch(&mut self, key: CacheKey) {
        self.order.push_back(key);
        *self.pending.entry(key).or_insert(0) += 1;
        if self.order.len() > 4 * self.map.len().max(8) {
            // Rebuild keeping only each live key's last occurrence:
            // walking back-to-front, that is the first time a key shows.
            let mut compact = VecDeque::with_capacity(self.map.len());
            let mut seen: FxHashMap<CacheKey, ()> = FxHashMap::default();
            for key in std::mem::take(&mut self.order).into_iter().rev() {
                if self.map.contains_key(&key) && seen.insert(key, ()).is_none() {
                    compact.push_front(key);
                }
            }
            self.order = compact;
            self.pending = self.order.iter().map(|&k| (k, 1)).collect();
        }
    }
}

/// Sharded `(CacheKey -> Arc<ClusterResult>)` store: an LRU tier whose
/// byte budget is split evenly across shards, and a pinned tier (see the
/// [module docs](self)). Sharding keeps the worker pool from serializing
/// on one mutex; the per-shard budget makes eviction a local decision.
pub struct ResultCache {
    shards: Vec<Mutex<Shard>>,
    shard_budget: usize,
    /// False when built with a zero LRU budget: the cache holds only pins.
    lru: bool,
    /// Pinned-tier byte budget across all shards; 0 = unlimited.
    pin_budget: usize,
    pinned_bytes: AtomicUsize,
    /// Keys whose computation is in flight, with the followers waiting on
    /// the leader's outcome. A key is present from the leader's
    /// [`claim_flight`](Self::claim_flight) until its
    /// [`settle_flight`](Self::settle_flight).
    flights: Mutex<FxHashMap<CacheKey, Vec<mpsc::Sender<FlightResult>>>>,
    hits: AtomicU64,
    misses: AtomicU64,
    insertions: AtomicU64,
    evictions: AtomicU64,
    coalesced: AtomicU64,
    precomputed: AtomicU64,
}

/// Terminal outcome of one in-flight computation, broadcast to every
/// coalesced follower: the shared result bytes (plus the leader's
/// [`Degraded`](crate::engine::Degraded) marker when refinement was cut
/// short — followers share the flight's accuracy, not just its bytes),
/// or the leader's error.
pub type FlightResult =
    Result<(Arc<ClusterResult>, Option<crate::engine::Degraded>), crate::engine::ServeError>;

/// What [`ResultCache::claim_flight`] decided about a missed key.
pub enum FlightClaim {
    /// No computation of this key is in flight; the caller must compute
    /// and then [`settle_flight`](ResultCache::settle_flight).
    Leader,
    /// An identical computation is already in flight; wait for its
    /// broadcast instead of computing.
    Follower(mpsc::Receiver<FlightResult>),
}

impl ResultCache {
    /// A cache whose LRU tier spends at most ~`budget_bytes` across
    /// `shards` shards (each shard holds at least one entry regardless, so
    /// a single oversized result does not wedge the cache). A zero budget
    /// turns the LRU tier off; pins are unlimited until capped.
    pub fn new(budget_bytes: usize, shards: usize) -> ResultCache {
        let shards = shards.clamp(1, 1024);
        ResultCache {
            shard_budget: budget_bytes / shards,
            shards: (0..shards).map(|_| Mutex::new(Shard::new())).collect(),
            lru: budget_bytes > 0,
            pin_budget: 0,
            pinned_bytes: AtomicUsize::new(0),
            flights: Mutex::new(FxHashMap::default()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            insertions: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            coalesced: AtomicU64::new(0),
            precomputed: AtomicU64::new(0),
        }
    }

    /// Cap the pinned tier at `bytes` across all shards (0 = unlimited).
    pub fn with_pin_budget(mut self, bytes: usize) -> ResultCache {
        self.pin_budget = bytes;
        self
    }

    /// Whether the LRU tier is on (the engine caches no miss otherwise).
    pub fn lru(&self) -> bool {
        self.lru
    }

    fn shard_of(&self, key: &CacheKey) -> &Mutex<Shard> {
        let mut h = FxHasher::default();
        key.hash(&mut h);
        &self.shards[(h.finish() as usize) % self.shards.len()]
    }

    /// Look `key` up in the pins, then the LRU map, under one shard lock,
    /// and name the tier that answered. An LRU answer refreshes its
    /// position and counts a hit; a pinned one counts in `precomputed`. A
    /// probe that finds nothing is *not* a miss — the engine calls
    /// [`record_miss`](Self::record_miss) only when it computes and
    /// inserts, so `misses == insertions` holds by construction.
    pub fn get(&self, key: &CacheKey) -> Option<(Arc<ClusterResult>, CacheOutcome)> {
        let mut shard = self.shard_of(key).lock().unwrap();
        if let Some(entry) = shard.pinned.get(key).cloned() {
            drop(shard);
            self.precomputed.fetch_add(1, Ordering::Relaxed);
            return Some((entry, CacheOutcome::Precomputed));
        }
        let entry = shard.map.get(key).cloned()?;
        shard.touch(*key);
        drop(shard);
        self.hits.fetch_add(1, Ordering::Relaxed);
        Some((entry, CacheOutcome::Hit))
    }

    /// Pin `value` under `key`, charging the global pin budget. Returns
    /// false, pinning nothing, once the value would not fit; pinning a key
    /// that is already pinned keeps the first value and returns true.
    pub fn pin(&self, key: CacheKey, value: Arc<ClusterResult>) -> bool {
        let cost = value.memory_bytes();
        let mut shard = self.shard_of(&key).lock().unwrap();
        if shard.pinned.contains_key(&key) {
            return true;
        }
        let charged =
            self.pinned_bytes
                .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |bytes| {
                    let after = bytes + cost;
                    (self.pin_budget == 0 || after <= self.pin_budget).then_some(after)
                });
        if charged.is_ok() {
            shard.pinned.insert(key, value);
        }
        charged.is_ok()
    }

    /// Count one miss (a query that went to the compute path; see
    /// [`get`](Self::get)).
    pub fn record_miss(&self) {
        self.misses.fetch_add(1, Ordering::Relaxed);
    }

    /// Claim `key`'s computation (single-flight): the first claimer since
    /// the last [`settle_flight`](Self::settle_flight) becomes the
    /// leader; later claimers become followers and are counted in
    /// [`CacheStats::coalesced`]. Callers claim only after a failed
    /// [`get`](Self::get); a leader **must** eventually settle (success
    /// or error), or followers block until the engine disconnects.
    pub fn claim_flight(&self, key: CacheKey) -> FlightClaim {
        let mut flights = self.flights.lock().unwrap();
        match flights.entry(key) {
            std::collections::hash_map::Entry::Occupied(mut waiters) => {
                let (tx, rx) = mpsc::channel();
                waiters.get_mut().push(tx);
                drop(flights);
                self.coalesced.fetch_add(1, Ordering::Relaxed);
                FlightClaim::Follower(rx)
            }
            std::collections::hash_map::Entry::Vacant(slot) => {
                slot.insert(Vec::new());
                FlightClaim::Leader
            }
        }
    }

    /// Broadcast `key`'s terminal outcome to every coalesced follower and
    /// close the flight (the next miss on the key leads a new one). On
    /// success the leader inserts into the cache *before* settling, so a
    /// racing request either coalesces or hits — it never recomputes.
    pub fn settle_flight(&self, key: &CacheKey, result: FlightResult) {
        let waiters = self.flights.lock().unwrap().remove(key).unwrap_or_default();
        for tx in waiters {
            // A follower that gave up (dropped its ticket) is skipped.
            let _ = tx.send(result.clone());
        }
    }

    /// Insert (or refresh) `key`, evicting least-recently-used entries
    /// until the shard respects its byte budget again.
    pub fn insert(&self, key: CacheKey, value: Arc<ClusterResult>) {
        let cost = value.memory_bytes();
        let mut shard = self.shard_of(&key).lock().unwrap();
        if let Some(old) = shard.map.insert(key, value) {
            shard.bytes -= old.memory_bytes();
        }
        shard.bytes += cost;
        shard.touch(key);
        let mut evicted = 0u64;
        while shard.bytes > self.shard_budget && shard.map.len() > 1 {
            if !shard.evict_one() {
                break;
            }
            evicted += 1;
        }
        drop(shard);
        self.insertions.fetch_add(1, Ordering::Relaxed);
        if evicted > 0 {
            self.evictions.fetch_add(evicted, Ordering::Relaxed);
        }
    }

    /// Snapshot the counters plus resident and pinned totals.
    pub fn stats(&self) -> CacheStats {
        let (mut bytes, mut entries, mut pinned) = (0u64, 0u64, 0u64);
        for shard in &self.shards {
            let s = shard.lock().unwrap();
            bytes += s.bytes as u64;
            entries += s.map.len() as u64;
            pinned += s.pinned.len() as u64;
        }
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            insertions: self.insertions.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            coalesced: self.coalesced.load(Ordering::Relaxed),
            resident_bytes: bytes,
            resident_entries: entries,
            precomputed: self.precomputed.load(Ordering::Relaxed),
            pinned_entries: pinned,
            pinned_bytes: self.pinned_bytes.load(Ordering::Relaxed) as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hkpr_core::{HkprEstimate, QueryStats};

    fn result_of_size(members: usize) -> Arc<ClusterResult> {
        Arc::new(ClusterResult {
            cluster: (0..members as NodeId).collect(),
            conductance: 0.5,
            estimate: HkprEstimate::new(),
            stats: QueryStats::default(),
            support_size: members,
        })
    }

    fn key(seed: NodeId) -> CacheKey {
        CacheKey {
            fingerprint: 7,
            seed,
            rng_seed: 1,
            params: ParamsKey::new(5.0, 0.5, 1e-4, 1e-6),
            method: Method::TeaPlus,
        }
    }

    #[test]
    fn quantizer_buckets_nearby_values_and_separates_decades() {
        let a = ParamsKey::new(5.0, 0.5, 1e-4, 1e-6);
        // Last-ulp / sub-percent perturbations land in the same bucket.
        let b = ParamsKey::new(5.0 * (1.0 + 1e-12), 0.5001, 1.001e-4, 1e-6);
        assert_eq!(a, b);
        // A 2x change in any knob is a different bucket.
        assert_ne!(a, ParamsKey::new(10.0, 0.5, 1e-4, 1e-6));
        assert_ne!(a, ParamsKey::new(5.0, 0.25, 1e-4, 1e-6));
        assert_ne!(a, ParamsKey::new(5.0, 0.5, 2e-4, 1e-6));
        assert_ne!(a, ParamsKey::new(5.0, 0.5, 1e-4, 2e-6));
    }

    #[test]
    fn canonical_values_stay_in_bucket_and_in_range() {
        for knob in [1e-8, 3.3e-4, 0.05, 0.5, 0.97] {
            let k = ParamsKey::new(5.0, knob, knob, knob);
            let (t, eps, delta, pf) = k.canonical();
            assert!((t - 5.0).abs() / 5.0 < 0.08, "t bucket width");
            for c in [eps, delta, pf] {
                assert!(c > 0.0 && c < 1.0, "canonical {c} out of range");
                // Within one bucket (~7.5% half-width) of the request,
                // except when the below-one clamp engages.
                assert!(c / knob < 1.12 && knob / c < 1.12, "{c} vs {knob}");
            }
        }
        // Idempotence: canonical values quantize back to their own bucket.
        let k = ParamsKey::new(7.3, 0.4, 2e-5, 1e-6);
        let (t, eps, delta, pf) = k.canonical();
        assert_eq!(k, ParamsKey::new(t, eps, delta, pf));
    }

    #[test]
    fn method_keys_distinguish_variants_and_fields() {
        let with = |method: Method| CacheKey { method, ..key(0) };
        assert_ne!(with(Method::Tea), with(Method::TeaPlus));
        assert_ne!(
            with(Method::MonteCarlo { max_walks: None }),
            with(Method::MonteCarlo {
                max_walks: Some(u64::MAX)
            })
        );
        assert_eq!(
            with(Method::MonteCarlo { max_walks: Some(7) }),
            with(Method::MonteCarlo { max_walks: Some(7) })
        );
    }

    #[test]
    fn lru_evicts_oldest_and_counts() {
        // Budget that fits roughly two of the three entries in the single
        // shard.
        let per_entry = result_of_size(100).memory_bytes();
        let cache = ResultCache::new(per_entry * 2 + per_entry / 2, 1);
        cache.insert(key(0), result_of_size(100));
        cache.insert(key(1), result_of_size(100));
        assert!(cache.get(&key(0)).is_some()); // 0 is now more recent than 1
        cache.insert(key(2), result_of_size(100));
        let stats = cache.stats();
        assert_eq!(stats.evictions, 1);
        assert!(cache.get(&key(1)).is_none(), "LRU entry 1 evicted");
        assert!(cache.get(&key(0)).is_some());
        assert!(cache.get(&key(2)).is_some());
        let stats = cache.stats();
        assert_eq!(stats.hits, 3);
        // An empty probe counts nothing; misses are recorded explicitly
        // by the compute path.
        assert_eq!(stats.misses, 0);
        cache.record_miss();
        assert_eq!(cache.stats().misses, 1);
        assert_eq!(stats.insertions, 3);
        assert_eq!(stats.resident_entries, 2);
        assert!(stats.resident_bytes > 0);
    }

    #[test]
    fn reinsert_replaces_without_leaking_bytes() {
        let cache = ResultCache::new(1 << 20, 2);
        cache.insert(key(0), result_of_size(10));
        let before = cache.stats().resident_bytes;
        cache.insert(key(0), result_of_size(10));
        assert_eq!(cache.stats().resident_bytes, before);
        assert_eq!(cache.stats().resident_entries, 1);
    }

    #[test]
    fn single_oversized_entry_survives() {
        let cache = ResultCache::new(8, 1); // absurdly small budget
        cache.insert(key(0), result_of_size(1000));
        assert!(
            cache.get(&key(0)).is_some(),
            "a lone entry is kept even over budget"
        );
        cache.insert(key(1), result_of_size(1000));
        assert_eq!(cache.stats().resident_entries, 1);
    }

    #[test]
    fn single_flight_claims_lead_then_follow_then_broadcast() {
        let cache = ResultCache::new(1 << 20, 2);
        let k = key(7);
        assert!(matches!(cache.claim_flight(k), FlightClaim::Leader));
        let follow = |cache: &ResultCache| match cache.claim_flight(k) {
            FlightClaim::Follower(rx) => rx,
            FlightClaim::Leader => panic!("claim during a flight must follow"),
        };
        let f1 = follow(&cache);
        let f2 = follow(&cache);
        assert_eq!(cache.stats().coalesced, 2);
        let result = result_of_size(5);
        cache.insert(k, Arc::clone(&result));
        cache.settle_flight(&k, Ok((Arc::clone(&result), None)));
        for rx in [f1, f2] {
            let (got, degraded) = rx.recv().unwrap().unwrap();
            assert!(
                Arc::ptr_eq(&got, &result),
                "followers must receive the identical bytes"
            );
            assert!(degraded.is_none());
        }
        // The flight is closed: the next miss leads a fresh one.
        assert!(matches!(cache.claim_flight(k), FlightClaim::Leader));
        cache.settle_flight(&k, Ok((result, None)));
        // Coalescing never skews the miss/insert invariant.
        let stats = cache.stats();
        assert_eq!(stats.misses, 0); // record_miss is the engine's job
        assert_eq!(stats.insertions, 1);
        assert_eq!(stats.coalesced, 2);
    }

    #[test]
    fn failed_flight_broadcasts_the_error() {
        let cache = ResultCache::new(1 << 20, 1);
        let k = key(3);
        assert!(matches!(cache.claim_flight(k), FlightClaim::Leader));
        let rx = match cache.claim_flight(k) {
            FlightClaim::Follower(rx) => rx,
            FlightClaim::Leader => panic!("must follow"),
        };
        let err = crate::engine::ServeError::Overloaded {
            queue_len: 1,
            limit: 1,
        };
        cache.settle_flight(&k, Err(err.clone()));
        assert_eq!(rx.recv().unwrap().unwrap_err(), err);
        // Settling an unknown key is a harmless no-op.
        cache.settle_flight(&key(99), Err(err));
    }

    /// A pinned-tier key (its own fingerprint, so it never collides with
    /// the LRU keys of `key`).
    fn pin_key(seed: NodeId) -> CacheKey {
        CacheKey {
            fingerprint: 8,
            ..key(seed)
        }
    }

    #[test]
    fn pins_survive_a_budget_that_evicts_every_lru_entry() {
        let per_entry = result_of_size(100).memory_bytes();
        // Room for one LRU entry: every insert evicts the one before.
        let cache = ResultCache::new(per_entry + per_entry / 2, 1);
        assert!(cache.pin(pin_key(0), result_of_size(100)));
        assert!(cache.pin(pin_key(1), result_of_size(100)));
        for seed in 0..5 {
            cache.insert(key(seed), result_of_size(100));
        }
        let stats = cache.stats();
        assert_eq!(stats.evictions, 4);
        assert_eq!(stats.resident_entries, 1);
        for seed in 0..2 {
            let (_, tier) = cache.get(&pin_key(seed)).expect("pins are never evicted");
            assert_eq!(tier, CacheOutcome::Precomputed);
        }
        assert_eq!(cache.get(&key(4)).unwrap().1, CacheOutcome::Hit);
        assert!(cache.get(&key(0)).is_none());
    }

    #[test]
    fn pins_never_move_the_lru_counters() {
        let cache = ResultCache::new(1 << 20, 4);
        cache.insert(key(0), result_of_size(10));
        assert!(cache.get(&key(0)).is_some());
        cache.record_miss();
        let before = cache.stats();
        let cost = result_of_size(30).memory_bytes() as u64;
        for seed in 0..3 {
            assert!(cache.pin(pin_key(seed), result_of_size(30)));
        }
        for _ in 0..5 {
            for seed in 0..3 {
                assert!(cache.get(&pin_key(seed)).is_some());
            }
        }
        let after = cache.stats();
        assert_eq!(
            CacheStats {
                precomputed: 0,
                pinned_entries: 0,
                pinned_bytes: 0,
                ..after
            },
            before,
            "pins moved an LRU counter"
        );
        assert_eq!(after.misses, after.insertions);
        assert_eq!(after.precomputed, 15);
        assert_eq!(after.pinned_entries, 3);
        assert_eq!(after.pinned_bytes, 3 * cost);
    }

    #[test]
    fn pinned_hits_leave_the_lru_eviction_sequence_unchanged() {
        // The same LRU traffic twice — once with pinned hits interleaved
        // — must evict the same entries at the same steps.
        let per_entry = result_of_size(20).memory_bytes();
        let run = |with_pins: bool| {
            let cache = ResultCache::new(3 * per_entry, 1);
            if with_pins {
                assert!(cache.pin(pin_key(0), result_of_size(20)));
                assert!(cache.pin(pin_key(1), result_of_size(20)));
            }
            let mut evictions = Vec::new();
            for step in 0..40u32 {
                let seed = (step * 7) % 9;
                if cache.get(&key(seed)).is_none() {
                    cache.insert(key(seed), result_of_size(20));
                }
                if with_pins {
                    assert!(cache.get(&pin_key(step % 2)).is_some());
                }
                evictions.push(cache.stats().evictions);
            }
            let shard = cache.shards[0].lock().unwrap();
            let mut resident: Vec<NodeId> = shard.map.keys().map(|k| k.seed).collect();
            resident.sort_unstable();
            (evictions, resident, shard.order.clone())
        };
        let (plain, pinned) = (run(false), run(true));
        assert!(plain.0.last().unwrap() > &0, "the budget must evict");
        assert_eq!(plain, pinned);
    }

    #[test]
    fn pin_budget_is_global_across_shards() {
        let cost = result_of_size(10).memory_bytes();
        // Three results fit the global budget; a per-shard split of it
        // (3 * cost / 16) would fit none.
        let cache = ResultCache::new(1 << 20, 16).with_pin_budget(3 * cost);
        let pinned: Vec<bool> = (0..10)
            .map(|seed| cache.pin(pin_key(seed), result_of_size(10)))
            .collect();
        assert_eq!(
            pinned,
            [true, true, true, false, false, false, false, false, false, false]
        );
        let shards_used = cache
            .shards
            .iter()
            .filter(|s| !s.lock().unwrap().pinned.is_empty())
            .count();
        assert!(shards_used > 1, "the pins landed in one shard");
        // Re-pinning a pinned key charges nothing.
        assert!(cache.pin(pin_key(0), result_of_size(10)));
        let stats = cache.stats();
        assert_eq!(stats.pinned_entries, 3);
        assert_eq!(stats.pinned_bytes, 3 * cost as u64);
        // A zero LRU budget keeps the pinned tier and turns the LRU off.
        let pins_only = ResultCache::new(0, 4);
        assert!(!pins_only.lru() && cache.lru());
        assert!(pins_only.pin(pin_key(0), result_of_size(10)));
        assert_eq!(
            pins_only.get(&pin_key(0)).unwrap().1,
            CacheOutcome::Precomputed
        );
    }

    #[test]
    fn heavy_touching_compacts_the_order_queue() {
        let cache = ResultCache::new(1 << 20, 1);
        cache.insert(key(0), result_of_size(4));
        cache.insert(key(1), result_of_size(4));
        for _ in 0..1000 {
            assert!(cache.get(&key(0)).is_some());
            assert!(cache.get(&key(1)).is_some());
        }
        let shard = cache.shards[0].lock().unwrap();
        assert!(
            shard.order.len() <= 64,
            "order queue must stay compact, got {}",
            shard.order.len()
        );
    }
}
