//! `perfbench`: end-to-end and per-layer benchmark of the rvmtl streaming
//! monitor, driven from wire bytes.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload fischer_timed --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Each run generates its workload's stream from `--seed`, captures it as
//! `.rvw` bytes, checks the program against references (outside the timed
//! region), then replays the capture frame by frame through the public API
//! for `--seconds` seconds. `--trace 0` reports the end-to-end metrics
//! (throughput, event-to-verdict latency, sustainable rate, set-up time,
//! peak memory); `--trace 1` is a separate traced run that reports the
//! per-layer metrics and writes its spans as JSON Lines. The last line of
//! standard output is one JSON object: `correct`, `attempted`, `failed`,
//! `metrics`.
//!
//! Scratch files (checkpoints, span files) go under `.perfbench_out/` in the
//! working directory.

mod layers;
mod queue;
mod replay;
mod verify;
mod workload;

use layers::{Inputs, Recorder, SHARE_TOLERANCE};
use queue::{median, quantile, Timeline};
use replay::{replay, set_up, NoSpans, Pass};
use rvmtl_distrib::IncrementalSegmenter;
use rvmtl_solver::SolverStats;
use rvmtl_wire::Frame;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use verify::{Reference, StatsRule, Tally};
use workload::{frame_time, Job, Workload};

const USAGE: &str = "usage: perfbench --workload <fischer_timed|gossip_firehose|swap_fleet> \
                     --seed <n> --seconds <n> --trace <0|1>";

/// Set-ups timed before each pass for `setup_s` (one takes microseconds, so
/// a single one cannot be timed to a tenth).
const SETUP_REPEATS: usize = 501;
/// The quantile of a run's set-up samples reported as `setup_s`. Not the
/// median: whole batches of set-ups run in a fast or a ~1.5x slower mode
/// depending on the pass before them, and the median jumped between the two
/// modes from run to run (fischer_timed: 2.2 to 3.4 us over ten runs).
const SETUP_QUANTILE: f64 = 0.1;
/// Frames replayed before the timed region of each pass: the first
/// segments cost far more than the steady state (cold solver memo and
/// progression caches).
const WARMUP_FRAMES: usize = 2_000;
/// Replay passes a run makes even when `--seconds` has run out.
const MIN_PASSES: usize = 3;
/// Event frames in the prefix compared with batch `Monitor::run`.
const PREFIX_EVENTS: usize = 1_000;
/// Standalone segmenter passes of a traced run (median reported).
const SEGMENTER_PASSES: usize = 3;
/// Where scratch files go, relative to the working directory. Checkpoints
/// land here too rather than on a tmpfs: the benchmark writes only inside
/// its working directory, so `swap_fleet`'s checkpoint cost includes the
/// fsyncs of whatever disk that is.
const SCRATCH: &str = ".perfbench_out";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} takes a whole number, not {value:?}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => trace = Some(number()? != 0),
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok(output) => print!("{output}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

/// A per-run scratch directory, removed when dropped.
struct Scratch(PathBuf);

impl Scratch {
    fn create(args: &Args) -> Result<Scratch, String> {
        let dir = Path::new(SCRATCH).join(format!(
            "{}-{}-{}",
            args.workload.name(),
            args.seed,
            std::process::id()
        ));
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(Scratch(dir))
    }

    /// An empty subdirectory (emptied if it exists).
    fn fresh(&self, name: &str) -> PathBuf {
        let dir = self.0.join(name);
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// What every run shares: the job (frames dropped after verification), its
/// capture and per-frame schedule, and the checks made so far.
struct Prepared {
    job: Job,
    bytes: Vec<u8>,
    /// Local timestamp of every body frame, then of the `End` frame.
    stamps: Vec<u64>,
    /// Whether each body frame (then `End`) is an event.
    is_event: Vec<bool>,
    events: usize,
    reference: Reference,
    /// Solver counters of the first pipelined pass, which later pipelined
    /// passes must reproduce.
    pipelined_stats: Option<SolverStats>,
    /// Later pipelined passes whose `explored_states + memo_hits` differed
    /// from the first's, and all later pipelined passes.
    drift: (usize, usize),
    /// Operations checked once per run: generation, references, restores.
    tally: Tally,
    /// Operations of the replay passes, folded with [`Tally::repeat`].
    passes: Tally,
    /// Standalone segmenter pass (traced runs only): ns per frame, segments.
    segmenter: Option<(f64, usize)>,
}

fn run(args: &Args) -> Result<String, String> {
    let scratch = Scratch::create(args)?;
    let prepared = prepare(args, &scratch)?;
    if args.trace {
        traced(args, &scratch, prepared)
    } else {
        end_to_end(args, &scratch, prepared)
    }
}

/// Generates and captures the stream, runs the reference and the batch
/// oracle, then drops the generated frames and resets the peak-RSS mark.
fn prepare(args: &Args, scratch: &Scratch) -> Result<Prepared, String> {
    let mut job = Job::generate(args.workload, args.seed);
    let bytes = job.capture();
    let mut stamps: Vec<u64> = job.frames.iter().map(frame_time).collect();
    stamps.push(stamps.last().copied().unwrap_or(0));
    let mut is_event: Vec<bool> = job
        .frames
        .iter()
        .map(|f| matches!(f, Frame::Event(_)))
        .collect();
    is_event.push(false);
    let events = job.event_count();

    let mut tally = Tally::default();
    let reference = verify::reference(&job, &scratch.fresh("reference"));
    tally.count(job.frames.len() as u64, reference.rejected, true, || {
        "frame(s) rejected by the direct-call reference".into()
    });
    let restores = &reference.restores;
    tally.count(restores.attempted, restores.failed, false, || {
        format!(
            "checkpoint(s) did not restore; first error: {}",
            restores.first_error.as_deref().unwrap_or("-")
        )
    });
    verify::batch_oracle(&job, PREFIX_EVENTS, &mut tally).map_err(|e| e.to_string())?;
    let segmenter = args.trace.then(|| segmenter_pass(&job));

    job.frames = Vec::new();
    reset_peak_rss();
    Ok(Prepared {
        job,
        bytes,
        stamps,
        is_event,
        events,
        reference,
        pipelined_stats: None,
        drift: (0, 0),
        tally,
        passes: Tally::default(),
        segmenter,
    })
}

/// The `distrib` layer alone: the frames fed through a standalone
/// `IncrementalSegmenter` (admission plus building every closed segment).
/// Returns the median nanoseconds per frame and the segments closed.
fn segmenter_pass(job: &Job) -> (f64, usize) {
    let p = &job.profile;
    let mut per_frame = Vec::with_capacity(SEGMENTER_PASSES);
    let mut segments = 0;
    for _ in 0..SEGMENTER_PASSES {
        let frames = job.frames.clone();
        let count = frames.len();
        let mut segmenter = IncrementalSegmenter::new(p.processes, p.epsilon, p.segment_length);
        let started = Instant::now();
        let mut closed = 0;
        for frame in frames {
            closed += match frame {
                Frame::Event(e) => segmenter.observe(e.process, e.time, e.state),
                Frame::Heartbeat { process, time } => segmenter.heartbeat(process, time),
                _ => Ok(Vec::new()),
            }
            .map_or(0, |c| c.len());
        }
        closed += segmenter.finish().len();
        per_frame.push(started.elapsed().as_nanos() as f64 / count.max(1) as f64);
        segments = closed;
    }
    (median(&per_frame), segments)
}

/// Frames replayed before the timed region of a pass.
fn warm_frames(prepared: &Prepared) -> usize {
    WARMUP_FRAMES.min(prepared.stamps.len() - 1)
}

/// Event frames replayed per second in the timed region of one pass.
fn events_per_second(prepared: &Prepared, pass: &Pass) -> f64 {
    let warm = warm_frames(prepared);
    let timed_ns: u64 = pass.service_ns[warm..].iter().sum();
    let events = prepared.is_event[warm..].iter().filter(|e| **e).count();
    events as f64 / (timed_ns as f64 * 1e-9)
}

/// The service-time profile of a run: each frame's shortest service time
/// over the run's passes, and the segments it closed and published (the
/// same in every pass).
///
/// A frame's work is the same in every pass, so its shortest time is its
/// cost without interference; a machine stall that lands in one pass (a
/// preempted vCPU takes milliseconds, against tens of microseconds of work)
/// would otherwise queue thousands of later frames behind it in the latency
/// replay, and co-tenant load on a shared machine moves whole passes by
/// ±25 %. The monitor's own pauses (GC, checkpoints, large segments) land
/// on the same frames in every pass and stay in the profile.
struct ServiceProfile {
    service_ns: Vec<u64>,
    closed: Vec<u32>,
    published: Vec<u32>,
}

impl ServiceProfile {
    /// Folds one pass in; `false` if its segment schedule differs.
    fn absorb(profile: &mut Option<ServiceProfile>, pass: Pass) -> bool {
        let Some(p) = profile else {
            *profile = Some(ServiceProfile {
                service_ns: pass.service_ns,
                closed: pass.closed,
                published: pass.published,
            });
            return true;
        };
        for (min, &took) in p.service_ns.iter_mut().zip(&pass.service_ns) {
            *min = (*min).min(took);
        }
        p.closed == pass.closed && p.published == pass.published
    }
}

/// The end-to-end figures of a service profile: its throughput, its latency
/// at the workload's nominal rate, and the rate the latency limit allows.
struct Figures {
    events_per_s: f64,
    p50_ms: f64,
    p99_ms: f64,
    samples: usize,
    slo_rate: f64,
}

fn figures(prepared: &Prepared, profile: &ServiceProfile) -> Figures {
    let workload = &prepared.job.profile;
    let warm = warm_frames(prepared);
    let count = |v: &[u32]| v.iter().map(|&c| c as usize).sum::<usize>();
    let timeline = Timeline {
        stamps: &prepared.stamps[warm..],
        service_ns: &profile.service_ns[warm..],
        closed: &profile.closed[warm..],
        published: &profile.published[warm..],
        carried: count(&profile.closed[..warm]) - count(&profile.published[..warm]),
        events: prepared.is_event[warm..].iter().filter(|e| **e).count(),
    };
    let mut samples = timeline.at_rate(workload.nominal_rate).samples;
    let busy_ns: u64 = timeline.service_ns.iter().sum();
    Figures {
        events_per_s: timeline.events as f64 / (busy_ns as f64 * 1e-9),
        p50_ms: quantile(&mut samples, 0.5).unwrap_or(0.0) * 1e3,
        p99_ms: quantile(&mut samples, 0.99).unwrap_or(0.0) * 1e3,
        samples: samples.len(),
        slo_rate: timeline.max_rate_within(workload.latency_limit_ms * 1e-3, workload.nominal_rate),
    }
}

/// Replays once and checks the outcome; a pass that does not complete is
/// counted as a wrong output.
fn checked_pass<S: replay::Spans>(
    prepared: &mut Prepared,
    config: rvmtl_runtime::StreamConfig,
    spans: &mut S,
) -> Option<Pass> {
    let pipelined = config.pipeline;
    let mut tally = Tally::default();
    let replayed = replay(
        &prepared.job,
        &prepared.bytes,
        config,
        prepared.stamps.len(),
        spans,
    );
    let pass = match replayed {
        Ok(pass) => {
            let (expected, rule) = if pipelined {
                let work = |s: &SolverStats| s.explored_states + s.memo_hits;
                if let Some(first) = prepared.pipelined_stats {
                    prepared.drift.0 += usize::from(work(&pass.report.stats) != work(&first));
                    prepared.drift.1 += 1;
                }
                let first = *prepared.pipelined_stats.get_or_insert(pass.report.stats);
                (first, StatsRule::ExploredPlusMemo)
            } else {
                (prepared.reference.outcome.stats, StatsRule::Exact)
            };
            let reference = &prepared.reference.outcome;
            verify::check_pass(reference, &expected, &pass, rule, &mut tally);
            Some(pass)
        }
        Err(e) => {
            tally.check(false, true, || format!("replay failed: {e}"));
            None
        }
    };
    prepared.passes.repeat(tally);
    pass
}

/// What the output says about pipelined counter drift (nothing for a
/// sequential job).
fn drift_note(prepared: &Prepared) -> String {
    match prepared.drift {
        (_, 0) => String::new(),
        (drifted, compared) => format!(
            "; explored_states + memo_hits differed from the first pipelined pass in \
             {drifted} of {compared} later ones"
        ),
    }
}

/// Times `SETUP_REPEATS` set-ups (`StreamMonitor::new`, the initial
/// `add_query` calls, `FrameReader::new` and the `Hello` handshake) into
/// `samples`, in seconds.
fn time_set_ups(prepared: &Prepared, config: &rvmtl_runtime::StreamConfig, samples: &mut Vec<f64>) {
    for _ in 0..SETUP_REPEATS {
        let started = Instant::now();
        let built = set_up(&prepared.job, &prepared.bytes, config.clone());
        let took = started.elapsed();
        std::hint::black_box(built.is_ok());
        drop(built);
        samples.push(took.as_secs_f64());
    }
}

fn end_to_end(args: &Args, scratch: &Scratch, mut prepared: Prepared) -> Result<String, String> {
    let checkpoints = scratch.fresh("passes");
    let config = prepared.job.config(Some(&checkpoints), false);
    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    let (mut rates, mut set_ups, mut profile) = (Vec::new(), Vec::new(), None);
    let mut same_schedule = true;
    while rates.len() < MIN_PASSES || Instant::now() < deadline {
        // Set-ups are timed in batches between the passes, so that drift
        // over the run reaches both alike.
        time_set_ups(&prepared, &config, &mut set_ups);
        let _ = std::fs::remove_dir_all(&checkpoints);
        let Some(pass) = checked_pass(&mut prepared, config.clone(), &mut NoSpans) else {
            break;
        };
        rates.push(events_per_second(&prepared, &pass));
        same_schedule &= ServiceProfile::absorb(&mut profile, pass);
    }
    prepared.tally.check(same_schedule, true, || {
        "segments closed or published at other frames than in the first pass".into()
    });
    let Some(profile) = profile else {
        return Err(format!(
            "no replay pass completed: {:?}",
            prepared.passes.notes
        ));
    };
    let peak_rss_mb = peak_rss_mib().ok_or("cannot read the peak RSS")?;
    let figures = figures(&prepared, &profile);
    let setup_median = median(&set_ups);
    let setup_s = quantile(&mut set_ups, SETUP_QUANTILE).unwrap_or(0.0);
    let metrics = vec![
        ("events_per_s", figures.events_per_s, "events/s"),
        ("e2v_p50_ms", figures.p50_ms, "ms"),
        ("e2v_p99_ms", figures.p99_ms, "ms"),
        ("slo_rate_events_per_s", figures.slo_rate, "events/s"),
        ("setup_s", setup_s, "s"),
        ("peak_rss_mb", peak_rss_mb, "MiB"),
    ];
    let workload = &prepared.job.profile;
    let mut out = header(args, &prepared);
    let _ = writeln!(
        out,
        "{} passes, {:.0} to {:.0} events/s (median {:.0}); figures from each frame's \
         fastest pass; latency offered at {} events/s: {} samples; p99 limit {} ms; \
         set-up p10 of {} samples, median {:.3} us{}",
        rates.len(),
        rates.iter().copied().fold(f64::INFINITY, f64::min),
        rates.iter().copied().fold(0.0, f64::max),
        median(&rates),
        workload.nominal_rate,
        figures.samples,
        workload.latency_limit_ms,
        set_ups.len(),
        setup_median * 1e6,
        drift_note(&prepared),
    );
    finish_output(out, &prepared.tally.plus(&prepared.passes), &metrics)
}

fn traced(args: &Args, scratch: &Scratch, mut prepared: Prepared) -> Result<String, String> {
    let checkpoints = scratch.fresh("passes");
    let plain = prepared.job.config(Some(&checkpoints), false);
    let telemetry = prepared.job.config(Some(&checkpoints), true);
    let mut sequential_config = plain.clone();
    sequential_config.pipeline = false;
    let pipelined = plain.pipeline;

    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    let (mut untraced_walls, mut traced_walls, mut sequential_walls) =
        (Vec::new(), Vec::new(), Vec::new());
    let mut last_traced = None;
    // Interleave untraced and traced passes (and, for a pipelined job,
    // sequential ones) so drift on the machine hits each alike.
    while traced_walls.len() < 2 || Instant::now() < deadline {
        let _ = std::fs::remove_dir_all(&checkpoints);
        let Some(pass) = checked_pass(&mut prepared, plain.clone(), &mut NoSpans) else {
            break;
        };
        untraced_walls.push(pass.wall_ns as f64);
        drop(pass);

        let _ = std::fs::remove_dir_all(&checkpoints);
        let mut recorder = Recorder::new(prepared.stamps.len() * 4);
        let Some(pass) = checked_pass(&mut prepared, telemetry.clone(), &mut recorder) else {
            break;
        };
        traced_walls.push(pass.wall_ns as f64);
        last_traced = Some((pass, recorder));

        if pipelined {
            let _ = std::fs::remove_dir_all(&checkpoints);
            let Some(pass) = checked_pass(&mut prepared, sequential_config.clone(), &mut NoSpans)
            else {
                break;
            };
            sequential_walls.push(pass.wall_ns as f64);
        }
    }
    let Some((pass, recorder)) = last_traced else {
        return Err(format!(
            "no traced pass completed: {:?}",
            prepared.passes.notes
        ));
    };
    let (segment_ns_per_frame, segmenter_segments) = prepared.segmenter.unwrap_or((0.0, 0));
    let table = layers::table(&Inputs {
        pass: &pass,
        recorder: &recorder,
        events: prepared.events,
        wire_bytes: prepared.bytes.len(),
        workers: if pipelined {
            plain.effective_workers()
        } else {
            0
        },
        segment_ns_per_frame,
        segmenter_segments,
        untraced_wall_ns: median(&untraced_walls),
        traced_wall_ns: median(&traced_walls),
        sequential_wall_ns: pipelined.then(|| median(&sequential_walls)),
        restores: &prepared.reference.restores,
    });
    prepared.tally.check(
        (table.share_sum - 1.0).abs() <= SHARE_TOLERANCE,
        false,
        || {
            format!(
                "layer shares sum to {:.1} % of the traced wall time",
                table.share_sum * 100.0
            )
        },
    );
    let spans_path = Path::new(SCRATCH).join(format!(
        "spans-{}-{}.jsonl",
        args.workload.name(),
        args.seed
    ));
    std::fs::write(&spans_path, recorder.to_jsonl())
        .map_err(|e| format!("{}: {e}", spans_path.display()))?;

    let mut out = header(args, &prepared);
    let _ = writeln!(
        out,
        "{} untraced / {} traced passes interleaved{}; spans of the last traced pass in {}{}",
        untraced_walls.len(),
        traced_walls.len(),
        if pipelined {
            format!(
                ", {} sequential passes ({} workers available)",
                sequential_walls.len(),
                std::thread::available_parallelism().map_or(1, |n| n.get())
            )
        } else {
            String::new()
        },
        spans_path.display(),
        drift_note(&prepared),
    );
    out.push_str(&table.text);
    let metrics: Vec<_> = table
        .metrics
        .iter()
        .map(|m| (m.name, m.value, m.unit))
        .collect();
    finish_output(out, &prepared.tally.plus(&prepared.passes), &metrics)
}

fn header(args: &Args, prepared: &Prepared) -> String {
    let p = &prepared.job.profile;
    format!(
        "perfbench {} seed {}: {} frames ({} events), {} wire bytes, {} queries, {} segments, \
         {} processes, eps {}, segment length {}, {}\n",
        args.workload.name(),
        args.seed,
        prepared.stamps.len() - 1,
        prepared.events,
        prepared.bytes.len(),
        prepared.reference.outcome.verdicts.len(),
        prepared.reference.outcome.segments,
        p.processes,
        p.epsilon,
        p.segment_length,
        match p.pipeline {
            Some((workers, depth)) => format!("pipelined ({workers} workers, flush depth {depth})"),
            None => "sequential".into(),
        }
    )
}

/// Appends the metric lines, the failure summary and the JSON result line.
fn finish_output(
    mut out: String,
    tally: &Tally,
    metrics: &[(&str, f64, &str)],
) -> Result<String, String> {
    for (name, value, unit) in metrics {
        let _ = writeln!(out, "{name:<24} {value:>16.6} {unit}");
    }
    let _ = writeln!(
        out,
        "operations attempted {}, failed {} ({} wrong outputs)",
        tally.attempted, tally.failed, tally.wrong
    );
    for note in &tally.notes {
        let _ = writeln!(out, "  failure: {note}");
    }
    let mut json = String::new();
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let value = if value.is_finite() { *value } else { 0.0 };
        let _ = write!(
            json,
            "{}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}",
            if i == 0 { "" } else { ", " }
        );
    }
    let _ = writeln!(
        out,
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{json}}}}}",
        tally.correct(),
        tally.attempted.max(1),
        tally.failed
    );
    Ok(out)
}

/// Returns freed heap pages to the kernel and resets the process's peak-RSS
/// mark to its current RSS (Linux `clear_refs`), so the peak excludes stream
/// generation and verification: without the trim, whatever those left free
/// but resident in the allocator's arenas (it differs by seed) would count.
fn reset_peak_rss() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> std::os::raw::c_int;
        }
        // SAFETY: glibc's `malloc_trim` has no preconditions; it only walks
        // the allocator's own free lists and releases whole free pages.
        unsafe {
            malloc_trim(0);
        }
    }
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// The process's peak RSS (`VmHWM`) in MiB.
fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arguments_parse_and_reject_garbage() {
        let args = |s: &str| parse_args(s.split_whitespace().map(String::from));
        let parsed = args("--workload swap_fleet --seed 7 --seconds 3 --trace 1").unwrap();
        assert_eq!(parsed.workload, Workload::SwapFleet);
        assert_eq!((parsed.seed, parsed.seconds, parsed.trace), (7, 3, true));
        assert!(args("--workload nope --seed 1").is_err());
        assert!(args("--workload fischer_timed").is_err());
        assert!(args("--workload fischer_timed --seed x").is_err());
        assert!(args("--bogus 1").is_err());
    }
}
