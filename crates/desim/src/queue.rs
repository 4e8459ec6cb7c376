//! The future-event list: a binary heap with stable FIFO tie-breaking.

use crate::time::SimTime;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// One scheduled entry. Ordered by `(time, insertion sequence)`, so
/// simultaneous events pop in the order they were scheduled — the property
/// that makes heap-driven schedules deterministic.
struct Scheduled<E> {
    time: SimTime,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Scheduled<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}

impl<E> Eq for Scheduled<E> {}

impl<E> PartialOrd for Scheduled<E> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Scheduled<E> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.time
            .cmp(&other.time)
            .then_with(|| self.seq.cmp(&other.seq))
    }
}

/// A priority queue of timed events with a monotonic clock.
///
/// The clock (`now`) advances when events are popped; scheduling into the
/// past is a caller bug and panics in debug builds (release builds clamp
/// to `now`, which keeps long optimized runs alive through benign float
/// jitter while still never rewinding the clock).
#[derive(Default)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Reverse<Scheduled<E>>>,
    seq: u64,
    now: SimTime,
}

impl<E> EventQueue<E> {
    /// An empty queue with the clock at [`SimTime::ZERO`].
    pub fn new() -> Self {
        Self {
            heap: BinaryHeap::new(),
            seq: 0,
            now: SimTime::ZERO,
        }
    }

    /// The current clock time (the execution time of the last popped
    /// event, or the start time before any pop).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Schedules `event` at `time`. Same-time events pop in scheduling
    /// order. Panics in debug builds if `time` is in the past.
    pub fn schedule(&mut self, time: SimTime, event: E) {
        debug_assert!(
            time >= self.now,
            "scheduled an event in the past: {time} < {}",
            self.now
        );
        let time = time.max(self.now);
        self.heap.push(Reverse(Scheduled {
            time,
            seq: self.seq,
            event,
        }));
        self.seq += 1;
    }

    /// The execution time of the next event, if any, without popping.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|Reverse(s)| s.time)
    }

    /// Pops the next event, advancing the clock to its execution time.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let Reverse(s) = self.heap.pop()?;
        self.now = s.time;
        Some((s.time, s.event))
    }

    /// Pops the next event only if it executes at or before `deadline`
    /// (inclusive). Lets drivers drain "everything due now" — e.g. all
    /// completions within a float-epsilon window — without peek/pop races.
    pub fn pop_until(&mut self, deadline: SimTime) -> Option<(SimTime, E)> {
        if self.peek_time()? <= deadline {
            self.pop()
        } else {
            None
        }
    }
}

impl<E> std::fmt::Debug for EventQueue<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventQueue")
            .field("now", &self.now)
            .field("pending", &self.heap.len())
            .finish()
    }
}

impl<E> Clone for EventQueue<E>
where
    E: Clone,
{
    fn clone(&self) -> Self {
        Self {
            heap: self
                .heap
                .iter()
                .map(|Reverse(s)| {
                    Reverse(Scheduled {
                        time: s.time,
                        seq: s.seq,
                        event: s.event.clone(), // simlint: allow(hot-alloc) — replicate/fork path only — hot via `.clone()` name fan-out, never called from the event loop
                    })
                })
                .collect(), // simlint: allow(hot-alloc) — replicate/fork path only — hot via `.clone()` name fan-out, never called from the event loop
            seq: self.seq,
            now: self.now,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::new(5.0), "c");
        q.schedule(SimTime::new(1.0), "a");
        q.schedule(SimTime::new(3.0), "b");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn ties_break_fifo() {
        let mut q = EventQueue::new();
        for label in ["first", "second", "third", "fourth"] {
            q.schedule(SimTime::new(2.0), label);
        }
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec!["first", "second", "third", "fourth"]);
    }

    #[test]
    fn clock_advances_with_pops() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::new(4.0), ());
        q.schedule(SimTime::new(9.0), ());
        assert_eq!(q.now(), SimTime::ZERO);
        q.pop();
        assert_eq!(q.now(), SimTime::new(4.0));
        q.pop();
        assert_eq!(q.now(), SimTime::new(9.0));
        assert!(q.pop().is_none());
        assert_eq!(q.now(), SimTime::new(9.0), "clock keeps its final value");
    }

    #[test]
    fn pop_until_respects_deadline() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::new(1.0), 1);
        q.schedule(SimTime::new(2.0), 2);
        q.schedule(SimTime::new(10.0), 3);
        assert_eq!(q.pop_until(SimTime::new(2.0)), Some((SimTime::new(1.0), 1)));
        assert_eq!(q.pop_until(SimTime::new(2.0)), Some((SimTime::new(2.0), 2)));
        assert_eq!(q.pop_until(SimTime::new(2.0)), None);
        assert_eq!(q.len(), 1);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "in the past")]
    fn scheduling_into_the_past_panics_in_debug() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::new(10.0), ());
        q.pop();
        q.schedule(SimTime::new(1.0), ());
    }

    #[test]
    #[cfg(not(debug_assertions))]
    fn scheduling_into_the_past_clamps_in_release() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::new(10.0), ());
        q.pop();
        q.schedule(SimTime::new(1.0), ());
        assert_eq!(q.peek_time(), Some(SimTime::new(10.0)));
    }

    #[test]
    fn interleaved_scheduling_keeps_global_order() {
        // Schedule-from-within-pop pattern: each popped tick schedules the
        // next; order must stay strictly increasing with FIFO ties.
        let mut q = EventQueue::new();
        q.schedule(SimTime::ZERO, 0u32);
        let mut seen = Vec::new();
        while let Some((t, k)) = q.pop() {
            seen.push((t.as_secs(), k));
            if k < 5 {
                q.schedule(t + 1.0, k + 1);
                q.schedule(t + 1.0, 100 + k + 1);
            }
        }
        // At every t ≥ 1 the "k" event was scheduled before the "100+k".
        for w in seen.windows(2) {
            assert!(w[0].0 <= w[1].0);
        }
        let at_one: Vec<u32> = seen
            .iter()
            .filter(|(t, _)| *t == 1.0)
            .map(|&(_, k)| k)
            .collect();
        assert_eq!(at_one, vec![1, 101]);
    }
}
