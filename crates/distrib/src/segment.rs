//! Chopping a computation into segments (Sec. V-C).
//!
//! Segmentation bounds the size of each solver instance: a computation of
//! length `l` split into `g` segments yields instances over roughly `l/g`
//! time units of events each. Two modes are provided:
//!
//! * [`SegmentationMode::Disjoint`] — events are partitioned by local time at
//!   the segment boundaries; each segment's admissible occurrence times are
//!   clamped to start at its boundary. This composes exactly with formula
//!   progression and is the monitor's default.
//! * [`SegmentationMode::Overlap`] — the paper's variant: each segment also
//!   re-includes the events that occurred within `ε` before its start, because
//!   those may still be concurrent with events inside the segment.

use crate::{DistributedComputation, EventId, ProcessId};
use rvmtl_mtl::State;

/// How events near segment boundaries are attributed to segments.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SegmentationMode {
    /// Partition events disjointly at the boundaries (exact composition).
    #[default]
    Disjoint,
    /// Re-include events within `ε` before each boundary (the paper's
    /// formulation of `seg_j`).
    Overlap,
}

/// Splits `comp` into `segments` consecutive segments.
///
/// Each returned segment is itself a [`DistributedComputation`]: it keeps the
/// parent's `ε`, its base time is the segment's nominal start boundary, and
/// each process's carried-over initial state is the local state established by
/// its last event before the boundary (so frontier states remain correct
/// across boundaries).
///
/// # Panics
///
/// Panics if `segments == 0`.
pub fn segment(
    comp: &DistributedComputation,
    segments: usize,
    mode: SegmentationMode,
) -> Vec<DistributedComputation> {
    assert!(segments > 0, "segment count must be at least 1");
    segment_at_boundaries(comp, &fence_posts(comp, segments), mode)
}

/// The `segments + 1` evenly spaced fence posts of `comp`, the `j`-th at
/// `base + ⌊j · duration / segments⌋`. The product is taken in `u128`, where
/// it cannot overflow; the quotient is at most the duration, so every post
/// lies between the base time and the last local time.
fn fence_posts(comp: &DistributedComputation, segments: usize) -> Vec<u64> {
    let base = comp.base_time();
    let duration = u128::from(comp.duration());
    (0..=segments)
        .map(|j| base + (j as u128 * duration / segments as u128) as u64)
        .collect()
}

/// Splits `comp` at an explicit, non-decreasing list of boundary points.
///
/// `boundaries` holds the *g + 1* fence posts of *g* segments: the first
/// entry is the base time of the first segment and the last entry is the end
/// of the computation (the final segment is closed on the right so the last
/// event is kept). [`segment`] delegates here with evenly spaced boundaries;
/// the incremental segmenter of [`crate::IncrementalSegmenter`] produces
/// exactly this partition one segment at a time, which is what the streaming
/// differential tests pin.
///
/// # Panics
///
/// Panics if fewer than two boundary points are given.
// Restricting a valid computation preserves every builder invariant.
#[allow(clippy::expect_used)]
pub fn segment_at_boundaries(
    comp: &DistributedComputation,
    boundaries: &[u64],
    mode: SegmentationMode,
) -> Vec<DistributedComputation> {
    assert!(
        boundaries.len() >= 2,
        "at least two boundary points (one segment) are required"
    );
    let base = comp.base_time();
    let segments = boundaries.len() - 1;
    let mut out = Vec::with_capacity(segments);
    for j in 1..=segments {
        let lo = boundaries[j - 1];
        // The last segment is closed on the right so the final event is kept.
        let hi = boundaries[j];
        let last = j == segments;
        let include_lo = match mode {
            SegmentationMode::Disjoint => lo,
            SegmentationMode::Overlap => lo.saturating_sub(comp.epsilon()).max(base),
        };
        let in_segment = |t: u64| -> bool {
            if last {
                t >= include_lo && t <= hi
            } else {
                t >= include_lo && t < hi
            }
        };
        let mut builder = crate::ComputationBuilder::new(comp.process_count(), comp.epsilon());
        builder.base_time(lo);
        // Non-final segments are capped at their end boundary in Disjoint mode
        // so that a segment's events cannot be scheduled past the point at
        // which the next segment takes over; the paper's Overlap mode instead
        // leaves the windows open and re-examines boundary events.
        if !last && mode == SegmentationMode::Disjoint {
            builder.horizon(hi);
        }
        if let Some(h) = comp.horizon() {
            if last || mode == SegmentationMode::Overlap {
                builder.horizon(h);
            }
        }
        // Carried-over initial states: the last local state established
        // strictly before the nominal boundary.
        for p in 0..comp.process_count() {
            let carried: State = comp
                .events_of(ProcessId(p))
                .iter()
                .map(|&id| comp.event(id))
                .rfind(|e| e.local_time < lo)
                .map(|e| e.state.clone())
                .unwrap_or_else(|| comp.initial_state(ProcessId(p)).clone());
            builder.initial_state(p, carried);
        }
        // Events of the segment, with a mapping from parent ids to new ids so
        // message edges can be re-attached.
        let mut id_map = vec![None; comp.event_count()];
        for p in 0..comp.process_count() {
            for &id in comp.events_of(ProcessId(p)) {
                let e = comp.event(id);
                if in_segment(e.local_time) {
                    let new_id = builder.event(p, e.local_time, e.state.clone());
                    id_map[id.0] = Some(new_id);
                }
            }
        }
        for &(send, recv) in comp.messages() {
            if let (Some(s), Some(r)) = (id_map[send.0], id_map[recv.0]) {
                builder.message(s, r);
            }
        }
        out.push(
            builder
                .build()
                .expect("a segment of a valid computation is valid"),
        );
    }
    out
}

/// Computes the number of segments corresponding to a *segment frequency*
/// (segments per unit of time), the sweep parameter of Fig. 5c.
pub fn segments_for_frequency(duration: u64, per_time_unit: f64) -> usize {
    ((duration as f64 * per_time_unit).ceil() as usize).max(1)
}

/// Returns the ids of the events of `comp` whose local times fall within `ε`
/// of a boundary of the given segmentation — the events whose ordering may be
/// unresolved across segments.
pub fn boundary_events(comp: &DistributedComputation, segments: usize) -> Vec<EventId> {
    assert!(segments > 0, "segment count must be at least 1");
    let eps = comp.epsilon();
    let posts = fence_posts(comp, segments);
    let boundaries = &posts[1..segments];
    (0..comp.event_count())
        .map(EventId)
        .filter(|&id| {
            let t = comp.event(id).local_time;
            boundaries.iter().any(|&b| t + eps >= b && t < b + eps)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ComputationBuilder;
    use rvmtl_mtl::state;

    fn sample(epsilon: u64) -> DistributedComputation {
        let mut b = ComputationBuilder::new(2, epsilon);
        for t in 1..=10u64 {
            b.event(0, t, state![format!("a{t}").as_str()]);
            b.event(1, t, state![format!("b{t}").as_str()]);
        }
        b.build().unwrap()
    }

    #[test]
    fn disjoint_segments_partition_events() {
        let comp = sample(1);
        let segs = segment(&comp, 3, SegmentationMode::Disjoint);
        assert_eq!(segs.len(), 3);
        let total: usize = segs.iter().map(|s| s.event_count()).sum();
        assert_eq!(total, comp.event_count());
        // Base times are the boundaries.
        assert_eq!(segs[0].base_time(), comp.base_time());
        assert!(segs[1].base_time() > segs[0].base_time());
        for s in &segs {
            assert_eq!(s.epsilon(), comp.epsilon());
        }
    }

    #[test]
    fn overlap_segments_duplicate_boundary_events() {
        let comp = sample(2);
        let disjoint: usize = segment(&comp, 5, SegmentationMode::Disjoint)
            .iter()
            .map(|s| s.event_count())
            .sum();
        let overlap: usize = segment(&comp, 5, SegmentationMode::Overlap)
            .iter()
            .map(|s| s.event_count())
            .sum();
        assert!(
            overlap > disjoint,
            "overlap mode must re-include events near boundaries"
        );
    }

    #[test]
    fn single_segment_is_whole_computation() {
        let comp = sample(2);
        let segs = segment(&comp, 1, SegmentationMode::Disjoint);
        assert_eq!(segs.len(), 1);
        assert_eq!(segs[0].event_count(), comp.event_count());
        assert_eq!(segs[0].base_time(), comp.base_time());
    }

    #[test]
    fn carried_initial_states_reflect_previous_segment() {
        let comp = sample(1);
        let segs = segment(&comp, 2, SegmentationMode::Disjoint);
        let second = &segs[1];
        let boundary = second.base_time();
        // The carried state of process 0 is its last event before the boundary.
        let expected = format!("a{}", boundary - 1);
        assert!(second.initial_state(ProcessId(0)).holds(&expected));
    }

    #[test]
    fn more_segments_than_duration_yields_empty_segments() {
        let mut b = ComputationBuilder::new(1, 1);
        b.event(0, 0, state!["x"]);
        b.event(0, 1, state!["y"]);
        let comp = b.build().unwrap();
        let segs = segment(&comp, 5, SegmentationMode::Disjoint);
        assert_eq!(segs.len(), 5);
        let total: usize = segs.iter().map(|s| s.event_count()).sum();
        assert_eq!(total, comp.event_count());
        assert!(segs.iter().any(|s| s.is_empty()));
    }

    #[test]
    fn messages_kept_when_both_endpoints_in_segment() {
        let mut b = ComputationBuilder::new(2, 1);
        let s1 = b.event(0, 1, state!["s"]);
        let r1 = b.event(1, 2, state!["r"]);
        b.event(0, 8, state!["s2"]);
        b.event(1, 9, state!["r2"]);
        b.message(s1, r1);
        let comp = b.build().unwrap();
        let segs = segment(&comp, 2, SegmentationMode::Disjoint);
        assert_eq!(segs[0].messages().len(), 1);
        assert_eq!(segs[1].messages().len(), 0);
    }

    #[test]
    fn frequency_helper() {
        assert_eq!(segments_for_frequency(20, 0.5), 10);
        assert_eq!(segments_for_frequency(20, 1.0), 20);
        assert_eq!(segments_for_frequency(0, 1.0), 1);
    }

    #[test]
    fn boundary_events_detected() {
        let comp = sample(2);
        let near = boundary_events(&comp, 2);
        assert!(!near.is_empty());
        // With one boundary in the middle and ε = 2 only events within 2 time
        // units of the boundary qualify.
        let boundary = comp.base_time() + comp.duration() / 2;
        for id in near {
            let t = comp.event(id).local_time;
            assert!(t + 2 >= boundary && t < boundary + 2);
        }
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_segments_panics() {
        let comp = sample(1);
        let _ = segment(&comp, 0, SegmentationMode::Disjoint);
    }
}
