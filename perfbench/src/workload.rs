//! The workloads: seeded stream generation and wire capture.
//!
//! Every stream is built by tiling short seeded base traces (timed-automata
//! runs, protocol executions) with time offsets, so generation stays linear
//! in the stream length. One long `rvmtl_ta::generate` call would not:
//! `ComputationBuilder::build` scans all event pairs for skew and closes the
//! happened-before relation, which grows superlinearly with the trace.

use rvmtl_chain::{
    specs as chain_specs, ActionChoice, Auction, AuctionScenario, ProtocolExecution,
    ThreePartyScenario, ThreePartySwap, TwoPartyScenario, TwoPartySwap,
};
use rvmtl_distrib::DistributedComputation;
use rvmtl_mtl::{Formula, State};
use rvmtl_prng::StdRng;
use rvmtl_runtime::{FaultPolicy, StreamConfig, StreamEvent};
use rvmtl_ta::{generate, specs as ta_specs, Model, TraceConfig};
use rvmtl_wire::{Frame, FrameWriter, Hello};
use std::collections::VecDeque;
use std::path::Path;

/// One of the benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Fig. 5 Fischer input with timed obligations (ϕ3, ϕ4): small states,
    /// the per-segment solver path dominates.
    FischerTimed,
    /// Gossiping people with large states (ϕ6): decode, state-keyed cache
    /// misses and arena GC dominate. Not listed in `BENCHMARK.json`: its GC
    /// is bound by memory traffic, so on a shared host its figures follow
    /// the neighbours' load by more than the benchmark's bounds.
    GossipFirehose,
    /// Back-to-back Fig. 6 protocol sessions with accumulating queries,
    /// heartbeats, the pipelined path and automatic checkpoints.
    SwapFleet,
}

/// The fixed parameters of a workload: monitor configuration, replay
/// schedule and latency limit.
#[derive(Debug, Clone, Copy)]
pub struct Profile {
    /// Number of monitored processes.
    pub processes: usize,
    /// Clock-skew bound ε.
    pub epsilon: u64,
    /// Segment length of the monitor.
    pub segment_length: u64,
    /// `(workers, flush depth)` of the pipelined path; `None` runs the
    /// sequential path.
    pub pipeline: Option<(usize, usize)>,
    /// Write an automatic checkpoint every this many GC epochs (`None`: no
    /// automatic checkpoints).
    pub checkpoint_interval: Option<usize>,
    /// Offered rate (event frames per second) at which `e2v_p50_ms` and
    /// `e2v_p99_ms` are reported.
    pub nominal_rate: f64,
    /// The p99 event-to-verdict limit that defines `slo_rate_events_per_s`.
    pub latency_limit_ms: f64,
}

impl Workload {
    /// Every workload (`BENCHMARK.json` lists all but `GossipFirehose`).
    pub const ALL: [Workload; 3] = [
        Workload::FischerTimed,
        Workload::GossipFirehose,
        Workload::SwapFleet,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::FischerTimed => "fischer_timed",
            Workload::GossipFirehose => "gossip_firehose",
            Workload::SwapFleet => "swap_fleet",
        }
    }

    /// Looks a workload up by its command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's fixed parameters.
    pub fn profile(self) -> Profile {
        match self {
            Workload::FischerTimed => Profile {
                processes: FISCHER_PROCESSES,
                epsilon: FISCHER_EPSILON,
                segment_length: 25,
                pipeline: None,
                checkpoint_interval: None,
                nominal_rate: 25_000.0,
                latency_limit_ms: 1.0,
            },
            Workload::GossipFirehose => Profile {
                processes: GOSSIP_PEOPLE,
                epsilon: 1,
                segment_length: 100,
                pipeline: None,
                checkpoint_interval: None,
                nominal_rate: 8_000.0,
                latency_limit_ms: 100.0,
            },
            Workload::SwapFleet => Profile {
                processes: FLEET_PROCESSES,
                epsilon: FLEET_EPSILON,
                segment_length: FLEET_SEGMENT,
                pipeline: Some((2, 4)),
                // Every 8th epoch, not every one: each write fsyncs, and on
                // a shared disk the fsync time varies several-fold from
                // minute to minute (every-epoch checkpoints took 29 % of
                // the wall time and doubled the run-to-run spread).
                checkpoint_interval: Some(8),
                nominal_rate: 800.0,
                latency_limit_ms: 25.0,
            },
        }
    }
}

const FISCHER_PROCESSES: usize = 2;
const FISCHER_EPSILON: u64 = 3;
/// Local time units per simulated millisecond (one simulator step).
const FISCHER_SCALE: u64 = 5;
/// ϕ4's response bound.
const FISCHER_DEADLINE: u64 = 60;
/// Longest request-to-critical-section time a tile keeps: ϕ4's bound less
/// the skew either event may have (2ε) and one unit of strictness.
const FISCHER_RESPONSE: u64 = FISCHER_DEADLINE - 2 * FISCHER_EPSILON - 1;
const FISCHER_TILE_MS: u64 = 40;
const FISCHER_EVENTS: usize = 60_000;

const GOSSIP_PEOPLE: usize = 6;
const GOSSIP_TILE_MS: u64 = 2_000;
const GOSSIP_EVENTS: usize = 52_000;

const FLEET_PROCESSES: usize = 5;
const FLEET_EPSILON: u64 = 3;
const FLEET_DELTA: u64 = 50;
const FLEET_SEGMENT: u64 = 25;
const FLEET_SESSIONS: usize = 200;

/// A generated stream: the body frames (events and heartbeats, in delivery
/// order) and the query schedule.
#[derive(Debug)]
pub struct Job {
    /// The workload's fixed parameters.
    pub profile: Profile,
    /// Event and heartbeat frames, in delivery order.
    pub frames: Vec<Frame>,
    /// Queries registered before the first frame.
    pub initial_queries: Vec<Formula>,
    /// Queries registered right after body frame `index` was ingested.
    pub late_queries: Vec<(usize, Vec<Formula>)>,
}

impl Job {
    /// Generates the workload's stream from `seed`.
    pub fn generate(workload: Workload, seed: u64) -> Job {
        match workload {
            Workload::FischerTimed => fischer_timed(seed),
            Workload::GossipFirehose => gossip_firehose(seed),
            Workload::SwapFleet => swap_fleet(seed),
        }
    }

    /// The stream's `Hello` handshake.
    pub fn hello(&self) -> Hello {
        Hello {
            epsilon: self.profile.epsilon,
            processes: self.profile.processes,
            fault_policy: FaultPolicy::Strict,
        }
    }

    /// The monitor configuration the workload runs under. `checkpoint_dir`
    /// enables the automatic epoch checkpoints of workloads that use them.
    pub fn config(&self, checkpoint_dir: Option<&Path>, telemetry: bool) -> StreamConfig {
        let mut config = StreamConfig::new(self.profile.segment_length);
        if let Some((workers, depth)) = self.profile.pipeline {
            config = config.pipelined(Some(workers)).flush_depth(depth);
        }
        if let (Some(interval), Some(dir)) = (self.profile.checkpoint_interval, checkpoint_dir) {
            config = config.checkpoint(dir, interval);
        }
        if telemetry {
            config = config.with_telemetry();
        }
        config
    }

    /// Captures the stream as `.rvw` bytes: header, `Hello`, body frames,
    /// `End`.
    pub fn capture(&self) -> Vec<u8> {
        capture_frames(&self.hello(), &self.frames)
    }

    /// Number of event frames.
    pub fn event_count(&self) -> usize {
        self.frames
            .iter()
            .filter(|f| matches!(f, Frame::Event(_)))
            .count()
    }
}

/// Writes `frames` between a `Hello` and the `End` frame.
pub fn capture_frames(hello: &Hello, frames: &[Frame]) -> Vec<u8> {
    // Writing into a `Vec` cannot fail, and every generated frame is far
    // below the frame size bound.
    let mut writer = FrameWriter::new(Vec::new()).expect("in-memory sink");
    writer
        .write_frame(&Frame::Hello(*hello))
        .expect("in-memory sink");
    for frame in frames {
        writer.write_frame(frame).expect("in-memory sink");
    }
    writer.finish().expect("in-memory sink")
}

/// The local timestamp a body frame carries.
pub fn frame_time(frame: &Frame) -> u64 {
    match frame {
        Frame::Event(e) => e.time,
        Frame::Heartbeat { time, .. } => *time,
        _ => 0,
    }
}

/// A sub-seed for tile `index`, so tiles differ from each other and from
/// every other seed's tiles.
fn tile_seed(seed: u64, index: u64) -> u64 {
    let mut rng = StdRng::seed_from_u64(seed ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    rng.next_u64()
}

/// The events of `comp`, merged in `(local time, process)` order with each
/// process's own order kept.
fn merged_events(comp: &DistributedComputation) -> Vec<StreamEvent> {
    let mut keyed: Vec<(u64, usize, usize, StreamEvent)> = Vec::with_capacity(comp.event_count());
    for p in 0..comp.process_count() {
        for (rank, &id) in comp.events_of(p.into()).iter().enumerate() {
            let e = comp.event(id);
            keyed.push((
                e.local_time,
                p,
                rank,
                StreamEvent {
                    process: p,
                    time: e.local_time,
                    state: e.state.clone(),
                },
            ));
        }
    }
    keyed.sort_by_key(|(t, p, rank, _)| (*t, *p, *rank));
    keyed.into_iter().map(|(.., e)| e).collect()
}

/// How a model's tiles are cut into the stream.
struct Tiling {
    /// Local time units per millisecond of the model's simulated time.
    scale: u64,
    /// Gap between consecutive tiles, in local time units.
    gap: u64,
    /// Length of the prefix of a tile's merged events to keep.
    keep: fn(&[StreamEvent]) -> usize,
}

/// Tiles seeded `rvmtl_ta` traces of `model` until at least `target`
/// events, each tile shifted past the previous one's last event. The stream
/// ends with a whole tile.
fn tiled_model_stream(
    model: Model,
    trace: TraceConfig,
    tiling: &Tiling,
    seed: u64,
    target: usize,
) -> Vec<Frame> {
    let mut frames = Vec::with_capacity(target + 64);
    let mut offset = 0u64;
    let mut tile = 0u64;
    while frames.len() < target {
        let comp = generate(
            model,
            &TraceConfig {
                seed: tile_seed(seed, tile),
                ..trace
            },
        );
        let mut events = merged_events(&comp);
        events.truncate((tiling.keep)(&events));
        let mut last = offset;
        for mut event in events {
            event.time = offset + event.time * tiling.scale;
            last = last.max(event.time);
            frames.push(Frame::Event(event));
        }
        offset = last + tiling.gap;
        tile += 1;
    }
    frames
}

/// The longest prefix of a Fischer tile that ends with every process back in
/// location `A` and every request served, cut before the first request its
/// critical section does not follow within [`FISCHER_RESPONSE`] units (tile
/// times are simulated milliseconds, [`FISCHER_SCALE`] units each).
///
/// Each tile restarts the protocol: a tile cut while a process is in its
/// critical section or waiting would meet the next tile's first critical
/// section or miss ϕ4's deadline. And within a tile the simulator's
/// one-transition-per-step Fischer starves requests far past ϕ4's bound; a
/// stream that violated ϕ4 once settles it for the rest of the run, and the
/// run-up to that violation explores orders of magnitude more states than
/// the steady state, by an amount that differs from seed to seed.
fn fischer_served_prefix(events: &[StreamEvent]) -> usize {
    let mut waiting_since = [None::<u64>; FISCHER_PROCESSES];
    let mut idle = [true; FISCHER_PROCESSES];
    let mut cut = 0;
    for (index, e) in events.iter().enumerate() {
        let p = e.process;
        if waiting_since
            .iter()
            .flatten()
            .any(|&since| (e.time - since) * FISCHER_SCALE > FISCHER_RESPONSE)
        {
            break;
        }
        if e.state.holds(&format!("P[{p}].cs")) {
            waiting_since[p] = None;
        } else if e.state.holds(&format!("P[{p}].req")) && waiting_since[p].is_none() {
            waiting_since[p] = Some(e.time);
        }
        idle[p] = e.state.holds(&format!("P[{p}].A"));
        if idle.iter().all(|&i| i) && waiting_since.iter().all(Option::is_none) {
            cut = index + 1;
        }
    }
    cut
}

fn fischer_timed(seed: u64) -> Job {
    let profile = Workload::FischerTimed.profile();
    // One simulator step per millisecond: coarser steps exceed Fischer's
    // 2 ms deadline for setting the lock, and no process would ever enter
    // its critical section. Timestamps are exact (the monitor's ε supplies
    // the uncertainty), scaled so consecutive steps lie FISCHER_SCALE apart.
    let trace = TraceConfig {
        processes: FISCHER_PROCESSES,
        duration_ms: FISCHER_TILE_MS,
        event_rate: 500.0,
        epsilon_ms: 0,
        seed: 0,
    };
    let tiling = Tiling {
        scale: FISCHER_SCALE,
        gap: FISCHER_SCALE,
        keep: fischer_served_prefix,
    };
    Job {
        profile,
        frames: tiled_model_stream(Model::Fischer, trace, &tiling, seed, FISCHER_EVENTS),
        initial_queries: vec![
            ta_specs::phi3(profile.processes),
            ta_specs::phi4(profile.processes, FISCHER_DEADLINE),
        ],
        late_queries: Vec::new(),
    }
}

fn gossip_firehose(seed: u64) -> Job {
    let profile = Workload::GossipFirehose.profile();
    let trace = TraceConfig {
        processes: profile.processes,
        duration_ms: GOSSIP_TILE_MS,
        event_rate: 50.0,
        epsilon_ms: profile.epsilon,
        seed: 0,
    };
    let tiling = Tiling {
        scale: 1,
        gap: 4 * profile.epsilon + 1,
        keep: <[StreamEvent]>::len,
    };
    Job {
        profile,
        frames: tiled_model_stream(Model::Gossip, trace, &tiling, seed, GOSSIP_EVENTS),
        initial_queries: vec![ta_specs::phi6(profile.processes)],
        late_queries: Vec::new(),
    }
}

/// One protocol session of the fleet: its execution and the liveness and
/// conformance queries it registers.
struct Session {
    exec: ProtocolExecution,
    queries: Vec<Formula>,
}

/// The seven Fig. 6 protocol scenarios (three two-party swaps, two
/// three-party swaps, two auctions), executed with step deadline `delta`.
fn fig6_session(index: usize, delta: u64) -> Session {
    let two = TwoPartySwap::new(delta);
    let three = ThreePartySwap::new(delta);
    let auction = Auction::new(delta);
    let two_party_queries = || {
        vec![
            chain_specs::two_party::liveness(delta),
            chain_specs::two_party::alice_conform(delta),
            chain_specs::two_party::bob_conform(delta),
        ]
    };
    let three_party_queries = || {
        vec![
            chain_specs::three_party::liveness(delta),
            chain_specs::three_party::alice_conform(delta),
        ]
    };
    let auction_queries = || {
        vec![
            chain_specs::auction::liveness(delta),
            chain_specs::auction::bob_conform(delta),
        ]
    };
    match index % 7 {
        0 => Session {
            exec: two.execute(&TwoPartyScenario::conforming()),
            queries: two_party_queries(),
        },
        1 => Session {
            exec: two.execute(&TwoPartyScenario::from_encoding(2, 3, 0)),
            queries: two_party_queries(),
        },
        2 => Session {
            exec: two.execute(&TwoPartyScenario::from_encoding(3, 3, 0b001001)),
            queries: two_party_queries(),
        },
        3 => Session {
            exec: three.execute(&ThreePartyScenario::conforming()),
            queries: three_party_queries(),
        },
        4 => Session {
            exec: three.execute(&ThreePartyScenario {
                progress: [3, 2, 1],
                late_bits: 0,
            }),
            queries: three_party_queries(),
        },
        5 => Session {
            exec: auction.execute(&AuctionScenario::conforming()),
            queries: auction_queries(),
        },
        _ => {
            let mut cheating = AuctionScenario::conforming();
            cheating.release_both_secrets = true;
            cheating.actions[3] = ActionChoice::OnTime;
            Session {
                exec: auction.execute(&cheating),
                queries: auction_queries(),
            }
        }
    }
}

/// The segmenter's open-segment base after the watermark moved to
/// `watermark` (the watermark rule of `IncrementalSegmenter`).
fn advance_open_base(mut open_base: u64, watermark: u64, segment_length: u64) -> u64 {
    while open_base + segment_length < watermark {
        open_base += segment_length;
    }
    open_base
}

fn swap_fleet(seed: u64) -> Job {
    let profile = Workload::SwapFleet.profile();
    let mut rng = StdRng::seed_from_u64(seed);
    let length = profile.segment_length;

    // Every seed runs the same number of each scenario (so the query count
    // and the work do not depend on the seed), in a seeded order after a
    // conforming two-party swap (whose queries the set-up registers).
    let mut scenarios: Vec<usize> = (0..FLEET_SESSIONS).map(|k| k % 7).collect();
    for i in (2..scenarios.len()).rev() {
        scenarios.swap(i, 1 + rng.gen_range(0..i as u64) as usize);
    }

    // Lay the sessions out back to back, each starting on a segment
    // boundary, its chains mapped onto a seeded rotation of the processes.
    let mut timed: Vec<(u64, usize, usize, State)> = Vec::new();
    let mut session_queries: Vec<(u64, Vec<Formula>)> = Vec::new();
    let mut start = 0u64;
    for scenario in scenarios {
        let session = fig6_session(scenario, FLEET_DELTA);
        let rotation = rng.gen_range(0..FLEET_PROCESSES as u64) as usize;
        let mut end = start;
        for (chain_index, chain) in session.exec.chains.iter().enumerate() {
            let process = (rotation + chain_index) % FLEET_PROCESSES;
            for (rank, event) in chain.log().iter().enumerate() {
                let time = start + event.time;
                end = end.max(time);
                timed.push((time, process, rank, State::singleton(event.proposition())));
            }
        }
        session_queries.push((start, session.queries));
        start = (end + 1).div_ceil(length) * length;
    }
    timed.sort_by_key(|(t, p, rank, _)| (*t, *p, *rank));

    // Interleave heartbeats: at every segment boundary, each process whose
    // clock is behind it reports the boundary, so the watermark never jumps
    // more than one segment per frame and silent chains never pin it.
    let mut sessions: VecDeque<(u64, Vec<Formula>)> = session_queries.into();
    let (_, initial_queries) = sessions.pop_front().expect("at least one session");
    let mut fleet = FleetFrames {
        frames: Vec::with_capacity(timed.len() * 4),
        clocks: [0; FLEET_PROCESSES],
        open_base: 0,
        sessions,
        late_queries: Vec::new(),
    };
    let mut next_tick = length;
    for (time, process, _, state) in timed {
        while next_tick <= time {
            for p in 0..FLEET_PROCESSES {
                if fleet.clocks[p] < next_tick {
                    let heartbeat = Frame::Heartbeat {
                        process: p,
                        time: next_tick,
                    };
                    fleet.push(p, next_tick, heartbeat);
                }
            }
            next_tick += length;
        }
        let event = Frame::Event(StreamEvent {
            process,
            time,
            state,
        });
        fleet.push(process, time, event);
    }
    Job {
        profile,
        frames: fleet.frames,
        initial_queries,
        late_queries: fleet.late_queries,
    }
}

/// The fleet's frames under construction, with the watermark the monitor
/// will compute from them.
struct FleetFrames {
    frames: Vec<Frame>,
    clocks: [u64; FLEET_PROCESSES],
    open_base: u64,
    /// Sessions not yet registered: `(start, queries)`, in start order.
    sessions: VecDeque<(u64, Vec<Formula>)>,
    late_queries: Vec<(usize, Vec<Formula>)>,
}

impl FleetFrames {
    /// Appends `frame` (`process` reporting `time`) and registers every
    /// session whose start the watermark has reached: once the segment
    /// ending at a session's start has closed, `add_query` anchors the
    /// session's queries at that start.
    fn push(&mut self, process: usize, time: u64, frame: Frame) {
        self.clocks[process] = time;
        self.frames.push(frame);
        let min_clock = self.clocks.iter().copied().min().unwrap_or(0);
        if let Some(watermark) = min_clock.checked_sub(FLEET_EPSILON) {
            self.open_base = advance_open_base(self.open_base, watermark, FLEET_SEGMENT);
        }
        while self
            .sessions
            .front()
            .is_some_and(|(start, _)| *start <= self.open_base)
        {
            let (start, queries) = self.sessions.pop_front().expect("front exists");
            assert_eq!(start, self.open_base, "a session boundary was skipped");
            self.late_queries.push((self.frames.len() - 1, queries));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fischer_trace() -> TraceConfig {
        TraceConfig {
            processes: 2,
            duration_ms: FISCHER_TILE_MS,
            event_rate: 500.0,
            epsilon_ms: 0,
            seed: 0,
        }
    }

    fn fischer_tiling() -> Tiling {
        Tiling {
            scale: FISCHER_SCALE,
            gap: FISCHER_SCALE,
            keep: fischer_served_prefix,
        }
    }

    fn capture_of(frames: Vec<Frame>) -> Vec<u8> {
        let hello = Hello {
            epsilon: FISCHER_EPSILON,
            processes: 2,
            fault_policy: FaultPolicy::Strict,
        };
        capture_frames(&hello, &frames)
    }

    #[test]
    fn same_seed_gives_a_byte_identical_capture() {
        let a = capture_of(tiled_model_stream(
            Model::Fischer,
            fischer_trace(),
            &fischer_tiling(),
            5,
            2_000,
        ));
        let b = capture_of(tiled_model_stream(
            Model::Fischer,
            fischer_trace(),
            &fischer_tiling(),
            5,
            2_000,
        ));
        let c = capture_of(tiled_model_stream(
            Model::Fischer,
            fischer_trace(),
            &fischer_tiling(),
            6,
            2_000,
        ));
        assert_eq!(a, b);
        assert_ne!(a, c);
        let fleet = Job::generate(Workload::SwapFleet, 5).capture();
        assert_eq!(fleet, Job::generate(Workload::SwapFleet, 5).capture());
        assert_ne!(fleet, Job::generate(Workload::SwapFleet, 6).capture());
    }

    #[test]
    fn tiles_keep_each_process_in_time_order() {
        let frames =
            tiled_model_stream(Model::Fischer, fischer_trace(), &fischer_tiling(), 3, 3_000);
        assert!(frames.len() >= 3_000);
        let mut clocks = [0u64; 2];
        for frame in &frames {
            let Frame::Event(e) = frame else {
                panic!("model streams carry events only")
            };
            assert!(e.time >= clocks[e.process]);
            clocks[e.process] = e.time;
        }
    }

    #[test]
    fn fleet_registers_every_session_at_its_start() {
        let job = Job::generate(Workload::SwapFleet, 9);
        assert_eq!(job.late_queries.len() + 1, FLEET_SESSIONS);
        // Through a real segmenter, each late registration happens on the
        // frame whose ingestion closed the segment ending on a boundary, with
        // the next session's first event less than 2Δ after that boundary:
        // `add_query` anchors the session's queries at its start.
        let p = job.profile;
        let mut segmenter =
            rvmtl_distrib::IncrementalSegmenter::new(p.processes, p.epsilon, p.segment_length);
        let mut late = job.late_queries.iter().peekable();
        let mut previous_base = 0;
        for (index, frame) in job.frames.iter().enumerate() {
            match frame {
                Frame::Event(e) => segmenter.observe(e.process, e.time, e.state.clone()),
                Frame::Heartbeat { process, time } => segmenter.heartbeat(*process, *time),
                _ => unreachable!(),
            }
            .expect("generated frames are stream-legal");
            let base = segmenter.open_base();
            if late.next_if(|(after, _)| *after == index).is_some() {
                assert!(previous_base < base && base.is_multiple_of(p.segment_length));
                let next_event = job.frames[index + 1..]
                    .iter()
                    .find_map(|f| match f {
                        Frame::Event(e) if e.time >= base => Some(e.time),
                        _ => None,
                    })
                    .expect("a session follows its registration");
                assert!(next_event - base < 2 * FLEET_DELTA);
            }
            previous_base = base;
        }
        assert!(late.next().is_none());
    }
}
