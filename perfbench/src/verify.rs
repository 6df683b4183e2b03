//! Correctness checks and failure accounting, all outside the timed region.
//!
//! * Every timed pass is compared with a reference: the same events fed
//!   straight into a sequential `StreamMonitor` through direct calls.
//! * A prefix of each stream is compared with the batch `Monitor::run` under
//!   aligned segment boundaries.
//! * Checkpoints must restore: on workloads with automatic checkpoints the
//!   reference run restores the newest epoch file after every call that
//!   wrote one; the others restore one snapshot taken at the end of the
//!   stream.

use crate::replay::{replay, NoSpans, Pass, ReplayError};
use crate::workload::{capture_frames, frame_time, Job, Profile};
use rvmtl_distrib::ComputationBuilder;
use rvmtl_monitor::{Integrity, Monitor, MonitorConfig, VerdictSet};
use rvmtl_mtl::Formula;
use rvmtl_runtime::checkpoint::{epoch_path, epochs_newest_first};
use rvmtl_runtime::{StreamConfig, StreamMonitor, StreamReport};
use rvmtl_solver::SolverStats;
use rvmtl_wire::Frame;
use std::collections::BTreeSet;
use std::path::Path;
use std::time::Instant;

/// Operations attempted and failed across a run.
#[derive(Debug, Default)]
pub struct Tally {
    /// Operations attempted: frames replayed, checkpoints written and
    /// restored, outputs compared.
    pub attempted: u64,
    /// Operations that failed, of any class.
    pub failed: u64,
    /// Failures that make the program's outputs wrong (verdict mismatches,
    /// undecodable or rejected frames, worker panics), as opposed to
    /// checkpoints that did not write or restore.
    pub wrong: u64,
    /// A description of the first failures.
    pub notes: Vec<String>,
}

impl Tally {
    /// Counts `count` operations of which `failed` failed; a failure is
    /// `wrong` when it corrupts outputs.
    pub fn count(&mut self, count: u64, failed: u64, wrong: bool, what: impl FnOnce() -> String) {
        self.attempted += count;
        self.failed += failed;
        if wrong {
            self.wrong += failed;
        }
        if failed > 0 && self.notes.len() < 8 {
            self.notes.push(format!("{failed}× {}", what()));
        }
    }

    /// Counts one operation.
    pub fn check(&mut self, ok: bool, wrong: bool, what: impl FnOnce() -> String) {
        self.count(1, u64::from(!ok), wrong, what);
    }

    /// Folds in the tally of one replay pass. Every pass repeats the same
    /// operations (the same frames, queries and checkpoints), so they count
    /// once per run, as in the pass with the most failures: the counts then
    /// depend on the seed, not on how many passes fit in the run's time.
    pub fn repeat(&mut self, pass: Tally) {
        self.attempted = self.attempted.max(pass.attempted);
        self.wrong = self.wrong.max(pass.wrong);
        if pass.failed > self.failed {
            self.failed = pass.failed;
            self.notes = pass.notes;
        }
    }

    /// This tally plus `other`'s operations.
    pub fn plus(&self, other: &Tally) -> Tally {
        let mut notes = self.notes.clone();
        notes.extend(other.notes.iter().cloned());
        Tally {
            attempted: self.attempted + other.attempted,
            failed: self.failed + other.failed,
            wrong: self.wrong + other.wrong,
            notes,
        }
    }

    /// Whether every output matched its reference.
    pub fn correct(&self) -> bool {
        self.wrong == 0
    }
}

/// How solver counters of a pass must relate to the expected ones.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StatsRule {
    /// Every counter equal to the sequential reference's (the sequential
    /// path is deterministic).
    Exact,
    /// `explored_states + memo_hits` equal to the first pipelined pass's:
    /// pipelined workers race for a segment's cache slot, so one may
    /// explore what another memoised. (The pipelined path also collapses
    /// cross-query duplicates that the sequential path counts as memo
    /// hits, so its counters are not comparable with the reference's.)
    ExploredPlusMemo,
}

/// The observable outcome of a stream: what a pass must reproduce.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Outcome {
    /// Final verdict set per query.
    pub verdicts: Vec<VerdictSet>,
    /// Pending rewrites per query before finalisation.
    pub pending: Vec<BTreeSet<Formula>>,
    /// Integrity tag per query.
    pub integrity: Vec<Integrity>,
    /// Segments processed.
    pub segments: usize,
    /// Solver counters.
    pub stats: SolverStats,
}

impl From<&StreamReport> for Outcome {
    fn from(report: &StreamReport) -> Self {
        Outcome {
            verdicts: report.verdicts.clone(),
            pending: report.pending.clone(),
            integrity: report.integrity.clone(),
            segments: report.segments,
            stats: report.stats,
        }
    }
}

/// Checkpoint restores attempted by the reference run.
#[derive(Debug, Default)]
pub struct Restores {
    /// Restores attempted.
    pub attempted: u64,
    /// Restores that failed.
    pub failed: u64,
    /// Wall time of each restore (read + decode), in milliseconds.
    pub millis: Vec<f64>,
    /// Size of the newest checkpoint restored.
    pub newest_bytes: u64,
    /// The first restore error.
    pub first_error: Option<String>,
}

impl Restores {
    fn record(&mut self, started: Instant, bytes: usize, result: Result<StreamMonitor, String>) {
        self.millis.push(started.elapsed().as_secs_f64() * 1e3);
        self.attempted += 1;
        self.newest_bytes = bytes as u64;
        if let Err(e) = result {
            self.failed += 1;
            self.first_error.get_or_insert(e);
        }
    }
}

/// The reference run's outcome and checkpoint restores.
pub struct Reference {
    /// What every pass must reproduce.
    pub outcome: Outcome,
    /// The restores it attempted.
    pub restores: Restores,
    /// Frames the direct feed rejected.
    pub rejected: u64,
}

/// Feeds `job`'s frames straight into a sequential monitor with direct
/// calls. With automatic checkpoints on (written into `checkpoint_dir`), the
/// newest epoch file is restored after every call that wrote one; otherwise
/// one snapshot taken before `finish` is restored.
pub fn reference(job: &Job, checkpoint_dir: &Path) -> Reference {
    let mut config = StreamConfig::new(job.profile.segment_length);
    if let Some(interval) = job.profile.checkpoint_interval {
        config = config.checkpoint(checkpoint_dir, interval);
    }
    let mut monitor =
        StreamMonitor::new(job.profile.processes, job.profile.epsilon, config.clone());
    for phi in &job.initial_queries {
        monitor.add_query(phi);
    }
    let mut restores = Restores::default();
    let mut rejected = 0;
    let mut late = job.late_queries.iter().peekable();
    let mut written = 0;
    for (index, frame) in job.frames.iter().enumerate() {
        let accepted = match frame {
            Frame::Event(e) => monitor.observe(e.process, e.time, e.state.clone()).is_ok(),
            Frame::Heartbeat { process, time } => monitor.heartbeat(*process, *time).is_ok(),
            _ => false,
        };
        rejected += u64::from(!accepted);
        while let Some((_, queries)) = late.next_if(|(after, _)| *after == index) {
            for phi in queries {
                monitor.add_query(phi);
            }
        }
        if monitor.health().checkpoints_written > written {
            written = monitor.health().checkpoints_written;
            restore_newest(checkpoint_dir, &config, &mut restores);
        }
    }
    if job.profile.checkpoint_interval.is_none() {
        let bytes = monitor.checkpoint_bytes();
        let started = Instant::now();
        let restored = StreamMonitor::restore_from_bytes(&bytes, config).map_err(|e| e.to_string());
        restores.record(started, bytes.len(), restored);
    }
    let report = monitor.finish();
    Reference {
        outcome: Outcome::from(&report),
        restores,
        rejected,
    }
}

/// Restores the newest epoch file in `dir` (no fallback to older epochs: a
/// newest epoch that does not restore is a failed checkpoint).
fn restore_newest(dir: &Path, config: &StreamConfig, restores: &mut Restores) {
    let started = Instant::now();
    let newest = epochs_newest_first(dir)
        .map_err(|e| e.to_string())
        .and_then(|epochs| {
            epochs
                .first()
                .copied()
                .ok_or_else(|| "no epoch file".to_string())
        })
        .and_then(|epoch| std::fs::read(epoch_path(dir, epoch)).map_err(|e| e.to_string()));
    let (bytes, restored) = match newest {
        Ok(bytes) => {
            let restored = StreamMonitor::restore_from_bytes(&bytes, config.clone())
                .map_err(|e| e.to_string());
            (bytes.len(), restored)
        }
        Err(e) => (0, Err(e)),
    };
    restores.record(started, bytes, restored);
}

/// Checks one pass against the reference outcome and the expected solver
/// counters, and counts its operations.
pub fn check_pass(
    reference: &Outcome,
    expected: &SolverStats,
    pass: &Pass,
    rule: StatsRule,
    tally: &mut Tally,
) {
    let got = Outcome::from(&pass.report);
    tally.count(pass.service_ns.len() as u64, pass.rejected, true, || {
        "frame(s) rejected by the monitor".into()
    });
    for q in 0..reference.verdicts.len() {
        let same = got.verdicts.get(q) == reference.verdicts.get(q)
            && got.pending.get(q) == reference.pending.get(q)
            && got.integrity.get(q) == reference.integrity.get(q);
        tally.check(same, true, || {
            format!("query {q}: verdicts differ from the reference")
        });
    }
    tally.check(got.verdicts.len() == reference.verdicts.len(), true, || {
        format!(
            "{} queries registered, reference has {}",
            got.verdicts.len(),
            reference.verdicts.len()
        )
    });
    tally.check(got.segments == reference.segments, true, || {
        format!(
            "{} segments, reference has {}",
            got.segments, reference.segments
        )
    });
    let stats_match = match rule {
        StatsRule::Exact => got.stats == *expected,
        StatsRule::ExploredPlusMemo => {
            got.stats.explored_states + got.stats.memo_hits
                == expected.explored_states + expected.memo_hits
        }
    };
    // A counter mismatch on the pipelined path is the cache-slot race, not
    // a wrong output: it is counted as a failed operation only.
    tally.check(stats_match, rule == StatsRule::Exact, || match rule {
        StatsRule::Exact => format!(
            "solver counters {:?} differ from the expected {expected:?}",
            got.stats
        ),
        StatsRule::ExploredPlusMemo => format!(
            "explored_states + memo_hits = {}, the first pipelined pass had {}",
            got.stats.explored_states + got.stats.memo_hits,
            expected.explored_states + expected.memo_hits
        ),
    });
    let health = &pass.report.health;
    tally.count(
        health.checkpoints_written + health.checkpoint_failures,
        health.checkpoint_failures,
        false,
        || {
            format!(
                "checkpoint write(s) failed: {:?}",
                pass.report.last_checkpoint_error
            )
        },
    );
    tally.count(0, health.worker_panics, true, || {
        "work item(s) lost to a worker panic".into()
    });
}

/// Compares a prefix of the stream, replayed from wire bytes through the
/// workload's execution path, with the batch `Monitor::run` under the same
/// segment boundaries. The prefix keeps the event frames only (heartbeats
/// move the watermark, never verdicts) and the queries registered before
/// the first frame. Batch boundaries fall at `j·D/g` for duration `D`, so the
/// prefix is cut where `D` has a divisor `g` with `D/g` near the workload's
/// segment length, and the stream runs with segment length `D/g`.
///
/// Final verdicts alone would miss a monitor that loses obligations along
/// the way and still ends on the same verdict (an untimed `□` residual comes
/// back after every discharged deadline), so the pending-set size after each
/// segment is compared too, wherever a call leaves it observable.
pub fn batch_oracle(job: &Job, prefix_events: usize, tally: &mut Tally) -> Result<(), ReplayError> {
    let events: Vec<Frame> = job
        .frames
        .iter()
        .filter(|f| matches!(f, Frame::Event(_)))
        .take(prefix_events)
        .cloned()
        .collect();
    let length = job.profile.segment_length;
    let cut = (1..=events.len()).rev().find_map(|k| {
        let duration = frame_time(&events[k - 1]);
        if duration == 0 {
            return None;
        }
        let whole = events.get(k).is_none_or(|next| frame_time(next) > duration);
        let g = (length / 2..=2 * length)
            .filter(|&l| duration.is_multiple_of(l))
            .min_by_key(|&l| l.abs_diff(length))
            .map(|l| duration / l);
        whole.then_some(g).flatten().map(|g| (k, g))
    });
    let Some((k, g)) = cut else {
        tally.check(false, true, || "no prefix with aligned boundaries".into());
        return Ok(());
    };
    let prefix = &events[..k];
    let mut builder = ComputationBuilder::new(job.profile.processes, job.profile.epsilon);
    for frame in prefix {
        if let Frame::Event(e) = frame {
            builder.event(e.process, e.time, e.state.clone());
        }
    }
    let comp = builder
        .build()
        .map_err(|e| ReplayError::Protocol(format!("prefix does not build: {e}")))?;
    let prefix_job = Job {
        profile: Profile {
            segment_length: comp.duration() / g,
            ..job.profile
        },
        frames: prefix.to_vec(),
        initial_queries: job.initial_queries.clone(),
        late_queries: Vec::new(),
    };
    let bytes = capture_frames(&prefix_job.hello(), &prefix_job.frames);
    let streamed = replay(
        &prefix_job,
        &bytes,
        prefix_job.config(None, false),
        k,
        &mut NoSpans,
    )?;
    let trajectory = pending_trajectory(&prefix_job);
    for (q, phi) in job.initial_queries.iter().enumerate() {
        let batch = Monitor::new(MonitorConfig::with_segments(g as usize)).run(&comp, phi);
        let same = streamed.report.verdicts.get(q) == Some(&batch.verdicts)
            && streamed.report.pending.get(q) == Some(&batch.pending);
        tally.check(same, true, || {
            format!("query {q}: streamed prefix of {k} events differs from batch Monitor::run")
        });
        let diverged = trajectory.iter().find(|(segments, pending)| {
            batch.segments.get(segments - 1).map(|s| s.pending_out) != Some(pending[q])
        });
        tally.check(diverged.is_none(), true, || {
            format!(
                "query {q}: pending obligations after segment {:?} differ from batch Monitor::run",
                diverged.map(|(segments, _)| segments)
            )
        });
    }
    Ok(())
}

/// Feeds `job` into a sequential monitor by direct calls and records, after
/// every call that processed segments, the count processed so far and each
/// query's pending-set size.
fn pending_trajectory(job: &Job) -> Vec<(usize, Vec<usize>)> {
    let config = StreamConfig::new(job.profile.segment_length);
    let mut monitor = StreamMonitor::new(job.profile.processes, job.profile.epsilon, config);
    let queries: Vec<_> = job
        .initial_queries
        .iter()
        .map(|phi| monitor.add_query(phi))
        .collect();
    let mut trajectory = Vec::new();
    for frame in &job.frames {
        if let Frame::Event(e) = frame {
            let _ = monitor.observe(e.process, e.time, e.state.clone());
        }
        let segments = monitor.segments_processed();
        if segments > trajectory.last().map_or(0, |(seen, _)| *seen) {
            let pending = queries.iter().map(|&q| monitor.pending_count(q)).collect();
            trajectory.push((segments, pending));
        }
    }
    trajectory
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::Workload;
    use rvmtl_mtl::{parse, state};
    use rvmtl_runtime::StreamEvent;

    /// A two-process stream of 40 events, no heartbeats, one timed query.
    fn small_job() -> Job {
        let mut frames = Vec::new();
        for t in 1..=20u64 {
            for process in 0..2 {
                let state = if (t + process as u64).is_multiple_of(3) {
                    state!["p"]
                } else {
                    state!["q"]
                };
                frames.push(Frame::Event(StreamEvent {
                    process,
                    time: 2 * t,
                    state,
                }));
            }
        }
        Job {
            profile: Profile {
                processes: 2,
                epsilon: 1,
                segment_length: 4,
                ..Workload::FischerTimed.profile()
            },
            frames,
            initial_queries: vec![parse("G (q -> F[0,6) p)").unwrap()],
            late_queries: Vec::new(),
        }
    }

    fn scratch(name: &str) -> std::path::PathBuf {
        let dir = Path::new(".perfbench_out").join(format!("test-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn verifier_flags_an_injected_verdict_mismatch() {
        let job = small_job();
        let dir = scratch("mismatch");
        let reference = reference(&job, &dir);
        assert_eq!(reference.rejected, 0);
        let bytes = job.capture();
        let mut pass = replay(&job, &bytes, job.config(None, false), 64, &mut NoSpans).unwrap();
        let mut tally = Tally::default();
        let expected = reference.outcome.stats;
        check_pass(
            &reference.outcome,
            &expected,
            &pass,
            StatsRule::Exact,
            &mut tally,
        );
        assert!(tally.correct() && tally.failed == 0, "{tally:?}");

        let honest = pass.report.verdicts[0].clone();
        pass.report.verdicts[0] = VerdictSet::from_bools([!honest.may_be_satisfied()]);
        assert_ne!(pass.report.verdicts[0], honest);
        check_pass(
            &reference.outcome,
            &expected,
            &pass,
            StatsRule::Exact,
            &mut tally,
        );
        assert!(!tally.correct());
        assert_eq!(tally.failed, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn repeated_passes_count_once_as_the_worst_pass() {
        let pass = |failed: u64| {
            let mut tally = Tally::default();
            tally.count(10, failed, false, || "counter drift".into());
            tally
        };
        let mut passes = Tally::default();
        for failed in [0, 2, 1] {
            passes.repeat(pass(failed));
        }
        assert_eq!((passes.attempted, passes.failed, passes.wrong), (10, 2, 0));
        assert_eq!(passes.notes, ["2× counter drift"]);

        let mut once = Tally::default();
        once.check(false, true, || "verdict mismatch".into());
        let total = once.plus(&passes);
        assert_eq!((total.attempted, total.failed, total.wrong), (11, 3, 1));
        assert!(!total.correct());
    }

    #[test]
    fn verifier_flags_an_unrestorable_checkpoint() {
        // A snapshot of a heartbeat-free stream restores.
        let job = small_job();
        let dir = scratch("restore");
        let restores = reference(&job, &dir).restores;
        assert_eq!((restores.attempted, restores.failed), (1, 0));

        // A damaged newest epoch file does not.
        let config = StreamConfig::new(4);
        let mut monitor = StreamMonitor::new(2, 1, config.clone());
        monitor.add_query(&parse("F[0,4) p").unwrap());
        monitor.observe(0, 1, state!["p"]).unwrap();
        let written = monitor.write_checkpoint(&dir).unwrap();
        let mut restores = Restores::default();
        restore_newest(&dir, &config, &mut restores);
        assert_eq!((restores.attempted, restores.failed), (1, 0));
        let mut bytes = std::fs::read(&written).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        std::fs::write(&written, bytes).unwrap();
        restore_newest(&dir, &config, &mut restores);
        assert_eq!((restores.attempted, restores.failed), (2, 1));
        assert!(restores.first_error.is_some());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
