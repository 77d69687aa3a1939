//! Bounded admission queues with backpressure.
//!
//! Two queues live here:
//!
//! * [`BoundedQueue`] — the original FIFO admission buffer behind
//!   [`SpmvServer::run_batch`](crate::SpmvServer::run_batch). The server
//!   never buffers more than `capacity` requests: a burst beyond that is
//!   rejected at admission with [`crate::ServeError::Overloaded`] instead
//!   of growing an unbounded backlog whose tail would blow every deadline
//!   anyway (reject-fast beats queue-and-miss).
//! * [`AdmissionQueue`] — the overload-aware queue behind the open-loop
//!   path ([`SpmvServer::run_open_loop`](crate::SpmvServer::run_open_loop)).
//!   Entries carry a [`Priority`] and an absolute simulated expiry;
//!   dequeue is highest-priority-first (FIFO within a class), entries
//!   whose deadline has already elapsed are *shed at dequeue* instead of
//!   executed (a dead request must not burn a rung attempt), and a full
//!   queue evicts its newest lowest-priority entry to admit a strictly
//!   higher-priority arrival. Every shed is a typed [`ShedReason`] and a
//!   counter bump — nothing disappears silently.

use crate::overload::BrownoutMode;
use std::collections::VecDeque;

/// Request priority class, strongest first. Brownout modes shed the
/// weaker classes first; the admission queue dequeues the stronger
/// classes first and evicts the weaker ones under saturation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Priority {
    /// Interactive / premium traffic: protected through every brownout
    /// mode, dequeued first, never evicted by another class.
    High = 0,
    /// Standard traffic: shed only in the deepest brownout mode.
    Normal = 1,
    /// Batch / best-effort traffic: first to be shed or evicted.
    Low = 2,
}

/// Number of priority classes.
pub const PRIORITIES: usize = 3;

impl Priority {
    /// All classes, strongest first.
    pub const ALL: [Priority; PRIORITIES] = [Priority::High, Priority::Normal, Priority::Low];

    /// Display name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            Priority::High => "high",
            Priority::Normal => "normal",
            Priority::Low => "low",
        }
    }
}

/// Why a request was shed by the overload-control layer instead of
/// executed. Every variant is deliberate load shedding — the request was
/// well-formed; the service chose not to spend work on it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ShedReason {
    /// The deadline had already elapsed when the request reached the head
    /// of the queue: executing it would produce a result nobody is
    /// waiting for. `late_s` is how far past the deadline it was.
    Expired {
        /// Simulated seconds past the deadline at dequeue time.
        late_s: f64,
    },
    /// The admission queue was full and no lower-priority victim was
    /// available to evict.
    QueueFull {
        /// The capacity that was exhausted.
        capacity: usize,
    },
    /// Evicted from the queue to make room for a strictly
    /// higher-priority arrival under saturation.
    Evicted {
        /// The priority class of the arrival that displaced this request.
        by: Priority,
    },
    /// Shed at admission because the server is in a brownout mode that
    /// degrades this priority class.
    Brownout {
        /// The active brownout mode.
        mode: BrownoutMode,
    },
    /// Shed at admission by the adaptive concurrency limit (observed p99
    /// over the request SLO has squeezed the limit below the backlog).
    AdaptiveLimit {
        /// The limit in force at admission time.
        limit: usize,
    },
}

impl std::fmt::Display for ShedReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShedReason::Expired { late_s } => {
                write!(f, "expired in queue ({:.2} us past deadline)", late_s * 1e6)
            }
            ShedReason::QueueFull { capacity } => {
                write!(f, "admission queue full (capacity {capacity})")
            }
            ShedReason::Evicted { by } => {
                write!(f, "evicted for {} priority arrival", by.name())
            }
            ShedReason::Brownout { mode } => write!(f, "brownout ({})", mode.name()),
            ShedReason::AdaptiveLimit { limit } => {
                write!(f, "adaptive concurrency limit ({limit})")
            }
        }
    }
}

/// Per-priority shed counters kept by the admission queue (monotonic).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShedCounters {
    /// Entries shed at dequeue because their deadline had elapsed.
    pub expired: [u64; PRIORITIES],
    /// Entries evicted to admit a higher-priority arrival.
    pub evicted: [u64; PRIORITIES],
    /// Arrivals rejected because the queue was full with no victim.
    pub rejected_full: [u64; PRIORITIES],
}

impl ShedCounters {
    /// Total sheds across classes and reasons.
    pub fn total(&self) -> u64 {
        self.expired.iter().sum::<u64>()
            + self.evicted.iter().sum::<u64>()
            + self.rejected_full.iter().sum::<u64>()
    }
}

/// One queued entry: the payload plus its admission metadata.
#[derive(Debug)]
pub struct Admitted<T> {
    /// The queued payload.
    pub item: T,
    /// The entry's priority class.
    pub priority: Priority,
    /// Absolute simulated time past which the entry is dead; `None`
    /// never expires in queue.
    pub expires_s: Option<f64>,
}

/// Outcome of an [`AdmissionQueue::push`].
#[derive(Debug)]
pub enum PushOutcome<T> {
    /// Admitted; nothing displaced.
    Admitted,
    /// Admitted by evicting a lower-priority entry — the caller must
    /// resolve the victim as shed ([`ShedReason::Evicted`]).
    AdmittedEvicting(Admitted<T>),
    /// Rejected: the queue is full and no lower-priority victim exists.
    /// Hands the item back with the shed reason.
    Rejected(T, ShedReason),
}

/// Outcome of an [`AdmissionQueue::pop`].
#[derive(Debug)]
pub enum Dequeued<T> {
    /// Alive: serve it.
    Ready(Admitted<T>),
    /// Dead on arrival at the head of the queue — the caller must resolve
    /// it as shed ([`ShedReason::Expired`]) without executing anything.
    Expired(Admitted<T>, ShedReason),
}

/// Priority admission queue with deadline expiry at dequeue.
///
/// Capacity bounds the *total* backlog across classes. Push may be given
/// a tighter `effective_capacity` (the adaptive concurrency limit);
/// eviction only ever displaces a strictly lower-priority entry, and
/// takes the *newest* entry of the weakest backlogged class (it has
/// waited least, so shedding it wastes the least invested queue time).
#[derive(Debug)]
pub struct AdmissionQueue<T> {
    classes: [VecDeque<Admitted<T>>; PRIORITIES],
    capacity: usize,
    counters: ShedCounters,
}

impl<T> AdmissionQueue<T> {
    /// An empty queue admitting at most `capacity` entries (minimum 1).
    pub fn new(capacity: usize) -> Self {
        AdmissionQueue {
            classes: [VecDeque::new(), VecDeque::new(), VecDeque::new()],
            capacity: capacity.max(1),
            counters: ShedCounters::default(),
        }
    }

    /// Hard backlog bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Queued entries across all classes.
    pub fn len(&self) -> usize {
        self.classes.iter().map(|c| c.len()).sum()
    }

    /// True when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.classes.iter().all(|c| c.is_empty())
    }

    /// Monotonic shed counters.
    pub fn counters(&self) -> ShedCounters {
        self.counters
    }

    /// Admits an entry under `effective_capacity` (the hard capacity
    /// tightened by the adaptive limit; clamped to the hard bound). When
    /// the bound is hit, the newest entry of the weakest class strictly
    /// below `priority` is evicted to make room; with no such victim the
    /// arrival itself is rejected.
    pub fn push(
        &mut self,
        item: T,
        priority: Priority,
        expires_s: Option<f64>,
        effective_capacity: usize,
    ) -> PushOutcome<T> {
        let cap = effective_capacity.min(self.capacity).max(1);
        let entry = Admitted { item, priority, expires_s };
        if self.len() < cap {
            self.classes[priority as usize].push_back(entry);
            return PushOutcome::Admitted;
        }
        // Saturated: look for a strictly weaker victim, weakest class
        // first, newest entry within it.
        for victim_class in (priority as usize + 1..PRIORITIES).rev() {
            if let Some(victim) = self.classes[victim_class].pop_back() {
                self.counters.evicted[victim_class] += 1;
                self.classes[priority as usize].push_back(entry);
                return PushOutcome::AdmittedEvicting(victim);
            }
        }
        self.counters.rejected_full[priority as usize] += 1;
        let reason = if cap < self.capacity {
            ShedReason::AdaptiveLimit { limit: cap }
        } else {
            ShedReason::QueueFull { capacity: self.capacity }
        };
        PushOutcome::Rejected(entry.item, reason)
    }

    /// Removes the next entry: highest-priority class first, FIFO within
    /// a class. An entry whose expiry has passed at `now_s` is returned
    /// as [`Dequeued::Expired`] — the fix for dead work: the caller sheds
    /// it instead of spending a rung attempt on a request whose client
    /// has already given up.
    pub fn pop(&mut self, now_s: f64) -> Option<Dequeued<T>> {
        for class in 0..PRIORITIES {
            if let Some(entry) = self.classes[class].pop_front() {
                if let Some(expires) = entry.expires_s {
                    if now_s >= expires {
                        self.counters.expired[class] += 1;
                        let reason = ShedReason::Expired { late_s: now_s - expires };
                        return Some(Dequeued::Expired(entry, reason));
                    }
                }
                return Some(Dequeued::Ready(entry));
            }
        }
        None
    }

    /// The entry [`AdmissionQueue::pop`] would hand out next (no expiry
    /// check, nothing removed) — lets the batching window inspect the
    /// head before deciding to hold or drain.
    pub fn peek(&self) -> Option<&Admitted<T>> {
        self.classes.iter().find_map(|c| c.front())
    }

    /// Queued entries matching `pred`, across all classes — how much
    /// coalescible backlog the batching window could drain right now.
    pub fn count_matching(&self, mut pred: impl FnMut(&Admitted<T>) -> bool) -> usize {
        self.classes.iter().flat_map(|c| c.iter()).filter(|e| pred(e)).count()
    }

    /// Removes the next entry *matching `pred`*, scanning classes
    /// strongest-first and FIFO within a class — the coalescing primitive
    /// of the batching window: pull queued requests that share the head's
    /// matrix without reordering anything else. Expiry discipline is
    /// identical to [`AdmissionQueue::pop`]: a matching entry whose
    /// deadline has passed comes back as [`Dequeued::Expired`] so the
    /// caller sheds it (a batch slot must never be filled with dead work).
    pub fn pop_matching(
        &mut self,
        now_s: f64,
        mut pred: impl FnMut(&Admitted<T>) -> bool,
    ) -> Option<Dequeued<T>> {
        for class in 0..PRIORITIES {
            if let Some(pos) = self.classes[class].iter().position(&mut pred) {
                let entry = self.classes[class].remove(pos).expect("position is in range");
                if let Some(expires) = entry.expires_s {
                    if now_s >= expires {
                        self.counters.expired[class] += 1;
                        let reason = ShedReason::Expired { late_s: now_s - expires };
                        return Some(Dequeued::Expired(entry, reason));
                    }
                }
                return Some(Dequeued::Ready(entry));
            }
        }
        None
    }
}

/// FIFO queue that refuses to grow past its capacity.
#[derive(Debug)]
pub struct BoundedQueue<T> {
    items: VecDeque<T>,
    capacity: usize,
}

impl<T> BoundedQueue<T> {
    /// An empty queue admitting at most `capacity` items (minimum 1).
    pub fn new(capacity: usize) -> Self {
        BoundedQueue { items: VecDeque::with_capacity(capacity.max(1)), capacity: capacity.max(1) }
    }

    /// Admission capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Queued items.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// True when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Admits `item`, or hands it back if the queue is full.
    pub fn push(&mut self, item: T) -> Result<(), T> {
        if self.items.len() >= self.capacity {
            Err(item)
        } else {
            self.items.push_back(item);
            Ok(())
        }
    }

    /// Removes and returns the oldest item.
    pub fn pop(&mut self) -> Option<T> {
        self.items.pop_front()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_order_and_capacity() {
        let mut q = BoundedQueue::new(2);
        assert!(q.is_empty());
        assert!(q.push(1).is_ok());
        assert!(q.push(2).is_ok());
        assert_eq!(q.push(3), Err(3), "full queue hands the item back");
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop(), Some(1));
        assert!(q.push(3).is_ok(), "pop frees a slot");
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), Some(3));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn zero_capacity_is_clamped_to_one() {
        let mut q = BoundedQueue::new(0);
        assert_eq!(q.capacity(), 1);
        assert!(q.push('a').is_ok());
        assert_eq!(q.push('b'), Err('b'));
    }

    fn ready<T>(d: Option<Dequeued<T>>) -> T {
        match d {
            Some(Dequeued::Ready(e)) => e.item,
            other => panic!("expected Ready, got {}", kind(&other)),
        }
    }

    fn kind<T>(d: &Option<Dequeued<T>>) -> &'static str {
        match d {
            Some(Dequeued::Ready(_)) => "Ready",
            Some(Dequeued::Expired(..)) => "Expired",
            None => "None",
        }
    }

    #[test]
    fn admission_queue_orders_by_priority_then_fifo() {
        let mut q = AdmissionQueue::new(8);
        assert!(matches!(q.push(1, Priority::Low, None, 8), PushOutcome::Admitted));
        assert!(matches!(q.push(2, Priority::High, None, 8), PushOutcome::Admitted));
        assert!(matches!(q.push(3, Priority::Normal, None, 8), PushOutcome::Admitted));
        assert!(matches!(q.push(4, Priority::High, None, 8), PushOutcome::Admitted));
        assert_eq!(ready(q.pop(0.0)), 2, "high first");
        assert_eq!(ready(q.pop(0.0)), 4, "FIFO within high");
        assert_eq!(ready(q.pop(0.0)), 3, "then normal");
        assert_eq!(ready(q.pop(0.0)), 1, "then low");
        assert!(q.pop(0.0).is_none());
    }

    #[test]
    fn expired_entry_is_shed_at_dequeue_with_typed_reason_and_counter() {
        let mut q = AdmissionQueue::new(4);
        q.push("dead", Priority::Normal, Some(5.0), 4);
        q.push("alive", Priority::Normal, Some(100.0), 4);
        // At t = 7 the first entry's deadline has elapsed: it must come
        // back as Expired (never handed out as servable work).
        match q.pop(7.0) {
            Some(Dequeued::Expired(e, ShedReason::Expired { late_s })) => {
                assert_eq!(e.item, "dead");
                assert!((late_s - 2.0).abs() < 1e-12);
            }
            other => panic!("expected Expired, got {}", kind(&other)),
        }
        assert_eq!(q.counters().expired[Priority::Normal as usize], 1);
        assert_eq!(ready(q.pop(7.0)), "alive");
    }

    #[test]
    fn exactly_at_deadline_counts_as_expired() {
        // Zero remaining budget cannot cover any rung: shed, don't serve.
        let mut q = AdmissionQueue::new(2);
        q.push((), Priority::Low, Some(3.0), 2);
        assert!(matches!(q.pop(3.0), Some(Dequeued::Expired(..))));
    }

    #[test]
    fn saturated_queue_evicts_newest_weakest_for_higher_priority() {
        let mut q = AdmissionQueue::new(3);
        q.push("low-old", Priority::Low, None, 3);
        q.push("normal", Priority::Normal, None, 3);
        q.push("low-new", Priority::Low, None, 3);
        // A high arrival displaces the *newest low* entry, not the normal
        // one and not the older low one.
        match q.push("high", Priority::High, None, 3) {
            PushOutcome::AdmittedEvicting(victim) => {
                assert_eq!(victim.item, "low-new");
                assert_eq!(victim.priority, Priority::Low);
            }
            other => panic!("expected eviction, got {other:?}"),
        }
        assert_eq!(q.counters().evicted[Priority::Low as usize], 1);
        assert_eq!(ready(q.pop(0.0)), "high");
        assert_eq!(ready(q.pop(0.0)), "normal");
        assert_eq!(ready(q.pop(0.0)), "low-old");
    }

    #[test]
    fn equal_priority_never_evicts_and_reports_the_binding_bound() {
        let mut q = AdmissionQueue::new(2);
        q.push(1, Priority::Normal, None, 2);
        q.push(2, Priority::Normal, None, 2);
        // Same class: rejected, hard capacity is the binding bound.
        match q.push(3, Priority::Normal, None, 2) {
            PushOutcome::Rejected(3, ShedReason::QueueFull { capacity: 2 }) => {}
            other => panic!("expected QueueFull, got {other:?}"),
        }
        // Tighter effective capacity (adaptive limit) reports as such.
        let mut q = AdmissionQueue::new(8);
        q.push(1, Priority::Normal, None, 1);
        match q.push(2, Priority::Normal, None, 1) {
            PushOutcome::Rejected(2, ShedReason::AdaptiveLimit { limit: 1 }) => {}
            other => panic!("expected AdaptiveLimit, got {other:?}"),
        }
        assert_eq!(q.counters().rejected_full[Priority::Normal as usize], 1);
    }

    #[test]
    fn peek_mirrors_pop_order_without_removing() {
        let mut q = AdmissionQueue::new(4);
        q.push(1, Priority::Low, None, 4);
        q.push(2, Priority::High, None, 4);
        assert_eq!(q.peek().map(|e| e.item), Some(2), "peek sees the strongest head");
        assert_eq!(q.len(), 2, "peek removes nothing");
        assert_eq!(ready(q.pop(0.0)), 2);
        assert_eq!(q.peek().map(|e| e.item), Some(1));
    }

    #[test]
    fn pop_matching_takes_first_match_in_priority_then_fifo_order() {
        let mut q = AdmissionQueue::new(8);
        q.push(10, Priority::Low, None, 8);
        q.push(21, Priority::Normal, None, 8);
        q.push(20, Priority::Normal, None, 8);
        q.push(11, Priority::Low, None, 8);
        // Even numbers: the Normal-class 20 wins over the older Low 10.
        assert_eq!(ready(q.pop_matching(0.0, |e| e.item % 2 == 0)), 20);
        assert_eq!(ready(q.pop_matching(0.0, |e| e.item % 2 == 0)), 10);
        assert!(q.pop_matching(0.0, |e| e.item % 2 == 0).is_none(), "no match left");
        // Non-matching entries were never disturbed.
        assert_eq!(ready(q.pop(0.0)), 21);
        assert_eq!(ready(q.pop(0.0)), 11);
    }

    #[test]
    fn pop_matching_sheds_expired_matches_like_pop() {
        let mut q = AdmissionQueue::new(4);
        q.push("dead", Priority::Normal, Some(5.0), 4);
        q.push("alive", Priority::Normal, Some(100.0), 4);
        match q.pop_matching(7.0, |_| true) {
            Some(Dequeued::Expired(e, ShedReason::Expired { late_s })) => {
                assert_eq!(e.item, "dead");
                assert!((late_s - 2.0).abs() < 1e-12);
            }
            other => panic!("expected Expired, got {}", kind(&other)),
        }
        assert_eq!(q.counters().expired[Priority::Normal as usize], 1);
        assert_eq!(ready(q.pop_matching(7.0, |_| true)), "alive");
    }

    #[test]
    fn high_priority_is_never_evicted_by_anyone() {
        let mut q = AdmissionQueue::new(1);
        q.push("high", Priority::High, None, 1);
        for p in Priority::ALL {
            match q.push("later", p, None, 1) {
                PushOutcome::Rejected(..) => {}
                other => panic!("{} arrival must not displace high: {other:?}", p.name()),
            }
        }
        assert_eq!(ready(q.pop(0.0)), "high");
    }
}
