//! Internal event queue used by the clocked simulator: a ring of per-time
//! buckets.
//!
//! Within one clock cycle the simulator settles time points in increasing
//! order, and every event it schedules lands at `now + d`, where `now` is
//! the time point being settled and `d` is one of the cell delays it
//! resolved at construction. So every pending event lies in
//! `[now, now + horizon]`, with `horizon` the largest resolved delay. A
//! ring of `next_power_of_two(horizon + 1)` buckets indexed by
//! `time & mask` gives each of those times its own bucket: a push appends
//! to a bucket and a pop swaps one out, both `O(1)`, and a bucket keeps its
//! events in push order — the deterministic same-time order the delta loop
//! relies on. Finding the next time point walks a cursor over empty
//! buckets, at most once per time unit of the cycle.
//!
//! The settle budget bounds the horizon too. An event past the budget is
//! never delivered, so the queue does not store it: it only counts it, and
//! [`EventQueue::exceeded_budget`] tells the simulator that the cycle
//! cannot settle once every in-budget event has been delivered. In-budget
//! times lie in `[0, budget]`, so the horizon is clamped to the budget.

use glitch_netlist::NetId;

use crate::value::Value;

/// Cumulative traffic statistics of the engine's event queue over a
/// whole run.
///
/// These counters are deterministic — the event stream is a pure function
/// of netlist, stimulus and delay model — so they may participate in the
/// engine's bit-identity guarantees (and in `ShardSummary` equality),
/// unlike wall-clock timings.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueueStats {
    /// Events ever scheduled, including any past the settle budget.
    pub pushes: u64,
    /// Events ever delivered to the delta loop.
    pub pops: u64,
    /// Largest number of simultaneously pending events (counting events
    /// past the settle budget until the cycle is abandoned).
    pub peak_depth: u64,
}

impl QueueStats {
    /// Folds another run's statistics into this one (counts add, the peak
    /// combines by maximum) — shard-order merging, as everywhere else.
    pub fn merge(&mut self, other: QueueStats) {
        self.pushes += other.pushes;
        self.pops += other.pops;
        self.peak_depth = self.peak_depth.max(other.peak_depth);
    }
}

/// A time-ordered queue of pending net-value changes within one clock
/// cycle, stored as a bucket ring (see the module documentation).
///
/// Callers must only push times in `[t, t + horizon]`, where `t` is the
/// last time returned by [`EventQueue::earliest_time`] since the last
/// [`EventQueue::clear`] (or 0).
#[derive(Debug)]
pub(crate) struct EventQueue {
    /// `buckets[time & mask]` holds the events at `time`, in push order.
    /// Drained buckets keep their capacity, so a warmed-up queue does not
    /// allocate.
    buckets: Vec<Vec<(NetId, Value)>>,
    mask: u64,
    /// Times past this are never delivered.
    budget: u64,
    /// No event is pending before this time.
    now: u64,
    /// Events stored in the ring.
    len: u64,
    /// Events pushed past the budget since the last clear.
    beyond_budget: u64,
    /// Cumulative over the queue's lifetime: [`EventQueue::clear`] runs at
    /// the start of every cycle and must not reset run-level statistics.
    stats: QueueStats,
}

impl EventQueue {
    /// An empty queue for delays of at most `horizon` and the given settle
    /// budget.
    pub(crate) fn new(horizon: u64, budget: u64) -> Self {
        let slots = horizon
            .min(budget)
            .checked_add(1)
            .and_then(u64::checked_next_power_of_two)
            .and_then(|slots| usize::try_from(slots).ok())
            .expect("the delay horizon fits in a ring of buckets");
        EventQueue {
            buckets: vec![Vec::new(); slots],
            mask: slots as u64 - 1,
            budget,
            now: 0,
            len: 0,
            beyond_budget: 0,
            stats: QueueStats::default(),
        }
    }

    /// Schedules `net` to take `value` at `time`.
    pub(crate) fn push(&mut self, time: u64, net: NetId, value: Value) {
        self.stats.pushes += 1;
        if time > self.budget {
            self.beyond_budget += 1;
        } else {
            debug_assert!(
                time >= self.now && time - self.now <= self.mask,
                "time {time} outside the ring at {}",
                self.now
            );
            self.buckets[(time & self.mask) as usize].push((net, value));
            self.len += 1;
        }
        let depth = self.len + self.beyond_budget;
        self.stats.peak_depth = self.stats.peak_depth.max(depth);
    }

    /// Earliest time with a pending in-budget event, if any. Advances the
    /// ring's cursor past empty buckets.
    pub(crate) fn earliest_time(&mut self) -> Option<u64> {
        if self.len == 0 {
            return None;
        }
        while self.buckets[(self.now & self.mask) as usize].is_empty() {
            self.now += 1;
        }
        Some(self.now)
    }

    /// Moves the events scheduled at `time` into `out` (replacing its
    /// contents, in push order) when `time` is the earliest pending time;
    /// otherwise leaves both untouched and returns `false`.
    pub(crate) fn pop_at(&mut self, time: u64, out: &mut Vec<(NetId, Value)>) -> bool {
        if self.earliest_time() != Some(time) {
            return false;
        }
        out.clear();
        std::mem::swap(&mut self.buckets[(time & self.mask) as usize], out);
        let popped = out.len() as u64;
        self.len -= popped;
        self.stats.pops += popped;
        true
    }

    /// `true` when an event past the settle budget was pushed since the
    /// last clear: the cycle cannot settle.
    pub(crate) fn exceeded_budget(&self) -> bool {
        self.beyond_budget > 0
    }

    /// Cumulative traffic statistics since construction (or
    /// [`EventQueue::reset_stats`]); *not* reset by [`EventQueue::clear`].
    pub(crate) fn stats(&self) -> QueueStats {
        self.stats
    }

    /// Resets the cumulative statistics (a full simulator reset, not the
    /// per-cycle clear).
    pub(crate) fn reset_stats(&mut self) {
        self.stats = QueueStats::default();
    }

    /// Drops every pending event and rewinds the ring to time 0. Free when
    /// the cycle settled (every bucket is already empty).
    pub(crate) fn clear(&mut self) {
        if self.len > 0 {
            self.buckets.iter_mut().for_each(Vec::clear);
        }
        self.len = 0;
        self.now = 0;
        self.beyond_budget = 0;
    }

    #[cfg(test)]
    fn len(&self) -> u64 {
        self.len
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Pops the earliest time point, if any.
    fn pop_earliest(q: &mut EventQueue) -> Option<(u64, Vec<(NetId, Value)>)> {
        let time = q.earliest_time()?;
        let mut events = Vec::new();
        assert!(q.pop_at(time, &mut events));
        Some((time, events))
    }

    fn nets(events: &[(NetId, Value)]) -> Vec<usize> {
        events.iter().map(|(n, _)| n.index()).collect()
    }

    #[test]
    fn events_come_out_in_time_order() {
        let mut q = EventQueue::new(5, 1_000);
        let n = NetId::from_index(0);
        q.push(5, n, Value::One);
        q.push(1, n, Value::Zero);
        q.push(5, n, Value::Zero);
        assert_eq!(q.len(), 3);
        let (t, evs) = pop_earliest(&mut q).unwrap();
        assert_eq!(t, 1);
        assert_eq!(evs.len(), 1);
        let (t, evs) = pop_earliest(&mut q).unwrap();
        assert_eq!(t, 5);
        assert_eq!(evs.len(), 2);
        assert!(pop_earliest(&mut q).is_none());
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn same_time_events_preserve_push_order() {
        let mut q = EventQueue::new(7, 1_000);
        let all: Vec<NetId> = (0..8).map(NetId::from_index).collect();
        // Interleave two timestamps; within each, push order must survive.
        for (i, &net) in all.iter().enumerate() {
            let time = if i % 2 == 0 { 3 } else { 7 };
            let value = if i % 3 == 0 { Value::One } else { Value::Zero };
            q.push(time, net, value);
        }
        let mut events = Vec::new();
        assert!(q.pop_at(3, &mut events));
        assert_eq!(
            nets(&events),
            vec![0, 2, 4, 6],
            "same-time events must come out in push order"
        );
        // Nothing left at 3; time 7 is next.
        assert!(!q.pop_at(3, &mut events));
        assert!(q.pop_at(7, &mut events));
        assert_eq!(nets(&events), vec![1, 3, 5, 7]);
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn same_time_push_during_delta_iteration_is_seen_by_next_pop() {
        // The delta loop pops all events at time t, evaluates, and newly
        // scheduled time-t events must surface on the next pop_at(t).
        let mut q = EventQueue::new(4, 1_000);
        let a = NetId::from_index(1);
        let b = NetId::from_index(2);
        q.push(4, a, Value::One);
        let mut events = Vec::new();
        assert!(q.pop_at(4, &mut events));
        assert_eq!(events, vec![(a, Value::One)]);
        q.push(4, b, Value::Zero);
        assert!(q.pop_at(4, &mut events));
        assert_eq!(events, vec![(b, Value::Zero)]);
        assert!(!q.pop_at(4, &mut events));
    }

    #[test]
    fn pop_at_wrong_time_returns_none_and_keeps_events() {
        let mut q = EventQueue::new(2, 1_000);
        let n = NetId::from_index(0);
        q.push(2, n, Value::One);
        let mut events = vec![(n, Value::X)];
        assert!(!q.pop_at(1, &mut events));
        assert_eq!(events, vec![(n, Value::X)], "the buffer is untouched");
        assert_eq!(q.len(), 1);
        assert_eq!(q.earliest_time(), Some(2));
    }

    #[test]
    fn clear_empties_the_queue() {
        let mut q = EventQueue::new(3, 1_000);
        q.push(3, NetId::from_index(1), Value::One);
        q.push(2_000, NetId::from_index(2), Value::One);
        assert!(q.exceeded_budget());
        q.clear();
        assert_eq!(q.len(), 0);
        assert_eq!(q.earliest_time(), None);
        assert!(!q.exceeded_budget());
        // The ring restarts at time 0.
        q.push(0, NetId::from_index(1), Value::Zero);
        assert_eq!(q.earliest_time(), Some(0));
    }

    #[test]
    fn stats_survive_clear_and_count_traffic() {
        let mut q = EventQueue::new(2, 1_000);
        let n = NetId::from_index(0);
        q.push(1, n, Value::One);
        q.push(1, n, Value::Zero);
        q.push(2, n, Value::One);
        assert_eq!(q.stats().peak_depth, 3);
        let _ = pop_earliest(&mut q);
        q.clear();
        let stats = q.stats();
        assert_eq!(stats.pushes, 3);
        assert_eq!(stats.pops, 2);
        assert_eq!(stats.peak_depth, 3);
        q.reset_stats();
        assert_eq!(q.stats(), QueueStats::default());
    }

    #[test]
    fn times_wrap_the_ring_many_times_in_order() {
        // A horizon of 3 gives a four-bucket ring; a chain of delay-3 and
        // delay-0 pushes walks it around dozens of times.
        let mut q = EventQueue::new(3, 1_000);
        assert_eq!(q.buckets.len(), 4);
        let n = NetId::from_index(0);
        q.push(0, n, Value::One);
        let mut seen = Vec::new();
        let mut events = Vec::new();
        while let Some(time) = q.earliest_time() {
            assert!(q.pop_at(time, &mut events));
            seen.push(time);
            if time < 150 {
                q.push(time + 3, n, Value::One);
                q.push(time + 2, n, Value::Zero);
            }
        }
        // Times 0, 2, 3, 4, … : every later time is reached from two
        // earlier ones, and each appears exactly once, in order.
        let mut expected: Vec<u64> = (2..=152).collect();
        expected.insert(0, 0);
        assert_eq!(seen, expected);
        assert_eq!(q.stats().pops, q.stats().pushes);
    }

    #[test]
    fn over_budget_pushes_are_counted_but_never_delivered() {
        // Budget 3: the events at 1 and 3 are delivered; the one at 4 only
        // marks the cycle as unsettleable, after the in-budget ones.
        let mut q = EventQueue::new(10, 3);
        assert_eq!(q.buckets.len(), 4, "the horizon is clamped to the budget");
        let n = NetId::from_index(0);
        q.push(1, n, Value::One);
        q.push(4, n, Value::Zero);
        q.push(3, n, Value::X);
        assert!(q.exceeded_budget());
        assert_eq!(q.stats().peak_depth, 3, "pending counts the late event");
        let delivered: Vec<u64> =
            std::iter::from_fn(|| pop_earliest(&mut q).map(|(t, _)| t)).collect();
        assert_eq!(delivered, vec![1, 3]);
        assert!(q.exceeded_budget());
        assert_eq!(q.stats().pops, 2);
        assert_eq!(q.stats().pushes, 3);
    }

    #[test]
    fn queue_stats_merge_adds_and_maxes() {
        let mut a = QueueStats {
            pushes: 3,
            pops: 2,
            peak_depth: 5,
        };
        a.merge(QueueStats {
            pushes: 4,
            pops: 4,
            peak_depth: 2,
        });
        assert_eq!(
            a,
            QueueStats {
                pushes: 7,
                pops: 6,
                peak_depth: 5
            }
        );
    }
}
