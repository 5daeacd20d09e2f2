//! The scheduler's earliest-deadline-first work queue with a total bound
//! and per-graph admission quotas.

use std::collections::BinaryHeap;
use std::time::Instant;

use hkpr_core::fxhash::FxHashMap;

/// What [`DeadlineQueue::push`] decided; rejections hand the item back.
pub(crate) enum Admit<T> {
    /// Queued; carries the depth after the push (for the high-water mark).
    Queued(usize),
    /// The total queue bound is full.
    TotalFull(T),
    /// The graph's admission quota is full.
    QuotaFull(T),
}

struct HeapEntry<T> {
    deadline: Option<Instant>,
    /// Enqueue sequence number: FIFO tiebreak, and the total order that
    /// makes heap entries distinguishable.
    seq: u64,
    graph_key: u64,
    item: T,
}

impl<T> PartialEq for HeapEntry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.seq == other.seq
    }
}
impl<T> Eq for HeapEntry<T> {}
impl<T> PartialOrd for HeapEntry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for HeapEntry<T> {
    /// `BinaryHeap` is a max-heap, so "greater" pops first: greater =
    /// more urgent = earlier deadline (no deadline = infinitely late),
    /// then earlier enqueue sequence.
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        use std::cmp::Ordering::*;
        match (self.deadline, other.deadline) {
            (None, Some(_)) => return Less,
            (Some(_), None) => return Greater,
            (Some(a), Some(b)) => match b.cmp(&a) {
                Equal => {}
                ord => return ord,
            },
            (None, None) => {}
        }
        other.seq.cmp(&self.seq)
    }
}

/// Earliest-deadline-first priority queue with a total bound and a
/// per-graph admission quota. Deadline-free items run FIFO after every
/// deadlined item — attaching a deadline both bounds *and prioritizes* a
/// request.
pub(crate) struct DeadlineQueue<T> {
    heap: BinaryHeap<HeapEntry<T>>,
    /// Queued items per graph admission key (the quota's denominator).
    per_graph: FxHashMap<u64, usize>,
    seq: u64,
    max_total: usize,
    quota: usize,
}

impl<T> DeadlineQueue<T> {
    pub(crate) fn new(max_total: usize, quota: usize) -> DeadlineQueue<T> {
        DeadlineQueue {
            heap: BinaryHeap::new(),
            per_graph: FxHashMap::default(),
            seq: 0,
            max_total: max_total.max(1),
            quota: quota.clamp(1, max_total.max(1)),
        }
    }

    pub(crate) fn push(&mut self, graph_key: u64, deadline: Option<Instant>, item: T) -> Admit<T> {
        if self.heap.len() >= self.max_total {
            return Admit::TotalFull(item);
        }
        let count = self.per_graph.entry(graph_key).or_insert(0);
        if *count >= self.quota {
            return Admit::QuotaFull(item);
        }
        *count += 1;
        self.seq += 1;
        self.heap.push(HeapEntry {
            deadline,
            seq: self.seq,
            graph_key,
            item,
        });
        Admit::Queued(self.heap.len())
    }

    pub(crate) fn pop(&mut self) -> Option<T> {
        let entry = self.heap.pop()?;
        if let Some(count) = self.per_graph.get_mut(&entry.graph_key) {
            *count -= 1;
            if *count == 0 {
                self.per_graph.remove(&entry.graph_key);
            }
        }
        Some(entry.item)
    }

    pub(crate) fn len(&self) -> usize {
        self.heap.len()
    }

    pub(crate) fn total_limit(&self) -> usize {
        self.max_total
    }

    pub(crate) fn quota(&self) -> usize {
        self.quota
    }

    pub(crate) fn queued_for(&self, graph_key: u64) -> usize {
        self.per_graph.get(&graph_key).copied().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn edf_queue_pops_earliest_deadline_first() {
        let now = Instant::now();
        let mut q: DeadlineQueue<&'static str> = DeadlineQueue::new(64, 64);
        let at = |ms: u64| Some(now + Duration::from_millis(ms));
        assert!(matches!(q.push(1, None, "fifo-1"), Admit::Queued(_)));
        assert!(matches!(q.push(1, at(50), "late"), Admit::Queued(_)));
        assert!(matches!(q.push(2, at(5), "urgent"), Admit::Queued(_)));
        assert!(matches!(q.push(2, None, "fifo-2"), Admit::Queued(_)));
        assert!(matches!(q.push(1, at(20), "middle"), Admit::Queued(_)));
        assert!(matches!(q.push(3, at(5), "urgent-2"), Admit::Queued(_)));
        // Deadlines first (earliest first, FIFO on ties), then the
        // deadline-free items in FIFO order.
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(
            order,
            ["urgent", "urgent-2", "middle", "late", "fifo-1", "fifo-2"]
        );
    }

    #[test]
    fn queue_enforces_total_bound_and_per_graph_quota() {
        let mut q: DeadlineQueue<u32> = DeadlineQueue::new(4, 2);
        assert!(matches!(q.push(7, None, 0), Admit::Queued(1)));
        assert!(matches!(q.push(7, None, 1), Admit::Queued(2)));
        // Graph 7 is at quota; graph 8 still admits.
        assert!(matches!(q.push(7, None, 2), Admit::QuotaFull(2)));
        assert!(matches!(q.push(8, None, 3), Admit::Queued(3)));
        assert!(matches!(q.push(9, None, 4), Admit::Queued(4)));
        // Total bound fires before any quota once the queue is full.
        assert!(matches!(q.push(10, None, 5), Admit::TotalFull(5)));
        assert_eq!(q.queued_for(7), 2);
        // Draining graph 7 reopens its quota.
        q.pop();
        q.pop();
        q.pop();
        assert!(q.queued_for(7) < 2);
        assert!(matches!(q.push(7, None, 6), Admit::Queued(_)));
    }
}
