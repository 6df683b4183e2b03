//! Open-loop latency computed from closed-loop service times.
//!
//! Every call the monitor makes runs inside the caller's call (the pipelined
//! path blocks in the worker pool, GC and checkpoints run inside `observe`),
//! so one closed-loop pass fixes each frame's service time `s_i`. Offering
//! the same frames on a schedule — frame `i` due at `a_i` — then completes
//! frame `i` at `c_i = max(a_i, c_{i-1}) + s_i`, a single-server FIFO queue.
//! A segment's event-to-verdict latency runs from the due instant of the
//! frame that closed it to the completion of the frame that published it.
//! Computing the queue instead of sleeping through it keeps timer and
//! scheduler jitter out of the figures.

use std::collections::VecDeque;

/// The per-frame record of one closed-loop pass, from the first timed frame
/// on.
pub struct Timeline<'a> {
    /// Local timestamp of each frame (the `End` frame repeats the last one).
    pub stamps: &'a [u64],
    /// Service time of each frame, in nanoseconds.
    pub service_ns: &'a [u64],
    /// Segments each frame closed.
    pub closed: &'a [u32],
    /// Segments each frame published.
    pub published: &'a [u32],
    /// Segments closed before the timed region and published inside it;
    /// their latencies belong to the warm-up and are not sampled.
    pub carried: usize,
    /// Event frames in the timed region (heartbeats are scheduled by their
    /// timestamps but do not count toward the rate).
    pub events: usize,
}

/// The latency samples of one offered rate.
pub struct Latency {
    /// Event-to-verdict latency of every segment closed in the timed region,
    /// in seconds, unsorted.
    pub samples: Vec<f64>,
    /// How far the last frame completed behind its due instant, in seconds:
    /// the backlog left when the offered stream ends.
    pub final_backlog: f64,
}

impl Timeline<'_> {
    /// Runs the queue with frames due at their timestamps, scaled so that
    /// event frames arrive at `rate` per second on average.
    pub fn at_rate(&self, rate: f64) -> Latency {
        let first = self.stamps.first().copied().unwrap_or(0);
        let last = self.stamps.last().copied().unwrap_or(0);
        let span_units = (last - first).max(1) as f64;
        let seconds_per_unit = self.events as f64 / rate / span_units;
        let mut pending: VecDeque<Option<f64>> = VecDeque::new();
        pending.extend(std::iter::repeat_n(None, self.carried));
        let mut samples = Vec::new();
        let mut done = f64::NEG_INFINITY;
        let mut due = 0.0;
        for i in 0..self.stamps.len() {
            due = (self.stamps[i] - first) as f64 * seconds_per_unit;
            done = done.max(due) + self.service_ns[i] as f64 * 1e-9;
            pending.extend(std::iter::repeat_n(Some(due), self.closed[i] as usize));
            for _ in 0..self.published[i] {
                if let Some(Some(closed_at)) = pending.pop_front() {
                    samples.push(done - closed_at);
                }
            }
        }
        Latency {
            samples,
            final_backlog: (done - due).max(0.0),
        }
    }

    /// The highest offered rate (events/s) at which the p99 latency and the
    /// final backlog both stay within `limit` seconds.
    ///
    /// Latency is not monotone in the rate: a segment closed by one frame and
    /// published by a later one (a flush depth above 1) waits for the later
    /// frame's due instant, which moves away as the rate falls. So the search
    /// walks a grid of rates from `1024 · start` down by halves to the first
    /// one that meets the limit, then bisects between it and the grid rate
    /// above it. Returns 0 when no grid rate down to `start / 1024` meets it.
    pub fn max_rate_within(&self, limit: f64, start: f64) -> f64 {
        let meets = |rate: f64| {
            let mut latency = self.at_rate(rate);
            latency.final_backlog <= limit
                && quantile(&mut latency.samples, 0.99).is_some_and(|p99| p99 <= limit)
        };
        let mut hi = start * 2048.0;
        let mut lo = start * 1024.0;
        while !meets(lo) {
            if lo < start / 1024.0 {
                return 0.0;
            }
            hi = lo;
            lo /= 2.0;
        }
        if lo >= start * 1024.0 {
            return lo;
        }
        // Geometric bisection to a relative width of 2^-20.
        for _ in 0..20 {
            let mid = (lo * hi).sqrt();
            if meets(mid) {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        lo
    }
}

/// The `q`-quantile of `values` by nearest rank (`None` when empty).
/// Reorders `values`.
pub fn quantile(values: &mut [f64], q: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let rank = ((q * values.len() as f64).ceil() as usize).clamp(1, values.len()) - 1;
    let (_, value, _) = values.select_nth_unstable_by(rank, f64::total_cmp);
    Some(*value)
}

/// The median of `values` (`0.0` when empty), by nearest rank.
pub fn median(values: &[f64]) -> f64 {
    let mut copy = values.to_vec();
    quantile(&mut copy, 0.5).unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A hand-worked schedule: frames stamped 0, 1, 2, 10, 10, 10, 11 (due
    /// at that many milliseconds at the rate the tests offer), service times
    /// 0.5, 0.5, 2.5, 0.5, 0.5, 0.5, 0.5 ms.
    ///
    /// * frame 2 runs long (2.5 ms), so the queue is still busy at 4.5 ms;
    /// * frames 3–5 arrive together at 10 ms (a burst) and queue behind
    ///   each other: completions 10.5, 11.0, 11.5;
    /// * frame 6 is due at 11 ms but the server is busy until 11.5 ms
    ///   (backlog): it completes at 12.0 ms;
    /// * the idle gap between 4.5 ms and 10 ms resets the queue.
    fn schedule() -> (Vec<u64>, Vec<u64>, Vec<u32>, Vec<u32>) {
        let stamps = vec![0, 1, 2, 10, 10, 10, 11];
        let service_ns = vec![
            500_000, 500_000, 2_500_000, 500_000, 500_000, 500_000, 500_000,
        ];
        // Frame 1 closes a segment that frame 2 publishes; frame 3 closes
        // two that frame 5 publishes; frame 6 closes and publishes one.
        let closed = vec![0, 1, 0, 2, 0, 0, 1];
        let published = vec![0, 0, 1, 0, 0, 2, 1];
        (stamps, service_ns, closed, published)
    }

    #[test]
    fn queue_replay_matches_hand_worked_schedule() {
        let (stamps, service_ns, closed, published) = schedule();
        let timeline = Timeline {
            stamps: &stamps,
            service_ns: &service_ns,
            closed: &closed,
            published: &published,
            carried: 0,
            // 11 time units hold 11 events at 1000 events/s: one unit = 1 ms.
            events: 11,
        };
        let latency = timeline.at_rate(1000.0);
        let ms: Vec<f64> = latency.samples.iter().map(|s| s * 1e3).collect();
        // Segment closed by frame 1 (due 1 ms), published by frame 2, which
        // starts at 2 ms and ends at 4.5 ms: 3.5 ms. Two segments closed by
        // frame 3 (due 10 ms), published by frame 5 at 11.5 ms: 1.5 ms each.
        // Frame 6 due 11 ms, completes 12.0 ms: 1.0 ms.
        let expected = [3.5, 1.5, 1.5, 1.0];
        assert_eq!(ms.len(), expected.len());
        for (got, want) in ms.iter().zip(expected) {
            assert!((got - want).abs() < 1e-9, "{ms:?}");
        }
        assert!((latency.final_backlog * 1e3 - 1.0).abs() < 1e-9);
    }

    #[test]
    fn warm_up_segments_are_not_sampled() {
        let (stamps, service_ns, mut closed, published) = schedule();
        // Pretend frame 1's segment was closed before the timed region.
        closed[1] = 0;
        let timeline = Timeline {
            stamps: &stamps,
            service_ns: &service_ns,
            closed: &closed,
            published: &published,
            carried: 1,
            events: 11,
        };
        assert_eq!(timeline.at_rate(1000.0).samples.len(), 3);
    }

    #[test]
    fn max_rate_finds_the_highest_crossing() {
        let (stamps, service_ns, closed, published) = schedule();
        let timeline = Timeline {
            stamps: &stamps,
            service_ns: &service_ns,
            closed: &closed,
            published: &published,
            carried: 0,
            events: 11,
        };
        // Worked by hand: p99 is 3.0 ms at 2000/s, 3.25 ms at 4000/s and
        // 4.125 ms at 8000/s, so a 3.2 ms limit is crossed between 2000/s
        // and 4000/s and a 4 ms limit between 4000/s and 8000/s.
        let loose = timeline.max_rate_within(0.004, 1000.0);
        let tight = timeline.max_rate_within(0.0032, 1000.0);
        assert!((2000.0..4000.0).contains(&tight), "{tight}");
        assert!((4000.0..8000.0).contains(&loose), "{loose}");
        let mut at = timeline.at_rate(tight).samples;
        assert!(quantile(&mut at, 0.99).unwrap() <= 0.0032);
        // No rate meets a limit below the longest single service time.
        assert_eq!(timeline.max_rate_within(0.002, 1000.0), 0.0);
    }

    #[test]
    fn quantiles_by_nearest_rank() {
        let mut v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&mut v, 0.5), Some(50.0));
        assert_eq!(quantile(&mut v, 0.99), Some(99.0));
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(quantile(&mut [], 0.5), None);
    }
}
