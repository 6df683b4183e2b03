//! Configuration of the streaming runtime.

use rvmtl_distrib::FaultPolicy;

/// Configuration of a [`crate::StreamMonitor`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StreamConfig {
    /// Nominal segment length in local-time units: segment boundaries fall on
    /// multiples of this from the base time.
    pub segment_length: u64,
    /// Base (anchor) time of the stream: the first segment starts here and
    /// every query is anchored here. Defaults to 0.
    pub base_time: u64,
    /// Process queued closed segments on the pipelined path: each batch's
    /// units — distinct `(entry segment, pending obligation)` pairs — are
    /// dealt to workers with private arenas, the calling thread and the
    /// monitor's pool threads (see the crate documentation, section 2).
    /// Requires `workers > 1` to take effect; the sequential path is used
    /// otherwise.
    pub pipeline: bool,
    /// Worker count for the pipelined path: a batch runs on at most this
    /// many workers, one per unit when it has fewer units. Worker 0 is the
    /// calling thread; the monitor spawns a pool thread for each other
    /// worker the first time a batch deals it a share, keeps it until the
    /// monitor drops, and keeps one arena per worker it has used. `None`
    /// uses [`std::thread::available_parallelism`].
    pub workers: Option<usize>,
    /// Number of closed segments to buffer before processing them as one
    /// batch. On the pipelined path a batch costs one round trip to the
    /// pool threads and one pass over its units' seeds and results whatever
    /// its depth (an obligation seen before in the GC epoch crosses arenas
    /// by lookup), so deeper buffers amortise those over more segments, at
    /// the cost of verdict latency. Defaults to 1 (process as soon as a
    /// segment closes).
    pub flush_depth: usize,
    /// Hard bound on the closed-segment queue (backpressure): when an
    /// [`crate::StreamMonitor::observe`] or
    /// [`crate::StreamMonitor::heartbeat`] call would leave this many
    /// segments queued, the queue is drained synchronously inside that call
    /// even if the flush depth has not been reached — a watermark jump over
    /// an idle period can close arbitrarily many segments at once, and
    /// without a bound the queue (and its buffered events) would grow without
    /// limit. `None` (the default) bounds the queue by the flush depth
    /// alone.
    pub max_queued_segments: Option<usize>,
    /// Upper bound on distinct rewritten formulas kept per pending formula
    /// per segment (`None` = unbounded; see
    /// [`rvmtl_monitor::MonitorConfig::max_solutions_per_segment`]).
    pub max_solutions_per_segment: Option<usize>,
    /// Compact the query-spanning arena every this many processed segments
    /// (the GC epoch; 0 disables compaction). Defaults to 32.
    pub gc_interval: usize,
    /// What ingestion does with faulty events — duplicates, out-of-order
    /// arrivals, events beyond the closed boundary (see
    /// [`FaultPolicy`] and the crate documentation's fault-semantics table).
    /// Defaults to [`FaultPolicy::Strict`]: every fault is an error.
    pub fault_policy: FaultPolicy,
    /// Write an epoch checkpoint to [`StreamConfig::checkpoint_dir`] every
    /// this many GC epochs (0, the default, disables automatic
    /// checkpointing; see the crate documentation's "Checkpoint format &
    /// recovery semantics" section). Has no effect while `checkpoint_dir`
    /// is `None`.
    pub checkpoint_interval: usize,
    /// Directory automatic epoch checkpoints are written to. `None` (the
    /// default) disables automatic checkpointing;
    /// [`crate::StreamMonitor::write_checkpoint`] can still snapshot on
    /// demand.
    pub checkpoint_dir: Option<std::path::PathBuf>,
    /// Enables the timing telemetry instruments and the flight recorder (see
    /// the crate documentation's "Observability" section). Off by default:
    /// with telemetry disabled every instrument is a no-op handle, so the
    /// hot paths pay one never-taken branch per call site and nothing else.
    /// Count-shape metrics ([`crate::StreamMonitor::telemetry`]) are derived
    /// from always-on monitor state and work either way.
    pub telemetry: bool,
    /// Capacity of the flight recorder's event ring (allocated once, never
    /// reallocated; oldest events are overwritten when full). Only consulted
    /// when [`StreamConfig::telemetry`] is on. Defaults to 1024.
    pub flight_capacity: usize,
}

impl StreamConfig {
    /// A configuration with the given segment length and defaults everywhere
    /// else (sequential processing, GC every 32 segments).
    ///
    /// # Panics
    ///
    /// Panics if `segment_length` is 0.
    pub fn new(segment_length: u64) -> Self {
        assert!(segment_length > 0, "segment length must be at least 1");
        StreamConfig {
            segment_length,
            base_time: 0,
            pipeline: false,
            workers: None,
            flush_depth: 1,
            max_queued_segments: None,
            max_solutions_per_segment: None,
            gc_interval: 32,
            fault_policy: FaultPolicy::Strict,
            checkpoint_interval: 0,
            checkpoint_dir: None,
            telemetry: false,
            flight_capacity: 1024,
        }
    }

    /// Enables the timing telemetry instruments and the flight recorder.
    pub fn with_telemetry(mut self) -> Self {
        self.telemetry = true;
        self
    }

    /// Sets the flight recorder's ring capacity (clamped to at least 1; has
    /// effect only together with [`StreamConfig::with_telemetry`]).
    pub fn flight_capacity(mut self, capacity: usize) -> Self {
        self.flight_capacity = capacity.max(1);
        self
    }

    /// Sets the ingestion fault policy (see the crate documentation's
    /// fault-semantics table).
    pub fn fault_policy(mut self, policy: FaultPolicy) -> Self {
        self.fault_policy = policy;
        self
    }

    /// Enables the pipelined path with the given worker count (`None` =
    /// [`std::thread::available_parallelism`]): the calling thread plus
    /// that many minus one pool threads, spawned by the first batch that
    /// needs them.
    pub fn pipelined(mut self, workers: Option<usize>) -> Self {
        self.pipeline = true;
        self.workers = workers;
        self
    }

    /// Sets the closed-segment buffer depth.
    pub fn flush_depth(mut self, depth: usize) -> Self {
        self.flush_depth = depth.max(1);
        self
    }

    /// Bounds the closed-segment queue: `observe`/`heartbeat` drain
    /// synchronously once this many segments are queued, regardless of the
    /// flush depth.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is 0 (a closed segment must be queueable at least
    /// until the ingestion call that closed it returns).
    pub fn max_queued_segments(mut self, bound: usize) -> Self {
        assert!(
            bound > 0,
            "StreamConfig::max_queued_segments: the bound must be at least 1"
        );
        self.max_queued_segments = Some(bound);
        self
    }

    /// Sets the GC epoch length (0 disables compaction).
    pub fn gc_interval(mut self, interval: usize) -> Self {
        self.gc_interval = interval;
        self
    }

    /// Enables automatic epoch checkpoints: every `interval` GC epochs a
    /// crash-safe snapshot is written to `dir` (see
    /// [`crate::StreamMonitor::restore_latest`] for the recovery side).
    ///
    /// # Panics
    ///
    /// Panics if `interval` is 0 — disable checkpointing by not calling
    /// this builder instead.
    pub fn checkpoint(mut self, dir: impl Into<std::path::PathBuf>, interval: usize) -> Self {
        assert!(
            interval > 0,
            "StreamConfig::checkpoint: the interval must be at least 1"
        );
        self.checkpoint_interval = interval;
        self.checkpoint_dir = Some(dir.into());
        self
    }

    /// Bounds the number of distinct rewritten formulas kept per pending
    /// formula per segment.
    ///
    /// # Panics
    ///
    /// Panics if `limit` is 0 (same contract as
    /// [`rvmtl_monitor::MonitorConfig::max_solutions`]).
    pub fn max_solutions(mut self, limit: usize) -> Self {
        assert!(
            limit > 0,
            "StreamConfig::max_solutions: the solution limit must be at least 1"
        );
        self.max_solutions_per_segment = Some(limit);
        self
    }

    /// The effective worker count of the pipelined path.
    pub fn effective_workers(&self) -> usize {
        self.workers.unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_defaults() {
        let cfg = StreamConfig::new(10);
        assert_eq!(cfg.segment_length, 10);
        assert!(!cfg.pipeline);
        assert_eq!(cfg.flush_depth, 1);
        assert_eq!(cfg.gc_interval, 32);
        assert_eq!(cfg.fault_policy, FaultPolicy::Strict);
        assert_eq!(cfg.checkpoint_interval, 0);
        assert_eq!(cfg.checkpoint_dir, None);
        assert!(!cfg.telemetry);
        assert_eq!(cfg.flight_capacity, 1024);
        let cfg = cfg
            .pipelined(Some(4))
            .flush_depth(8)
            .gc_interval(0)
            .max_solutions(2)
            .fault_policy(FaultPolicy::BestEffort)
            .checkpoint("/tmp/ckpt", 3)
            .with_telemetry()
            .flight_capacity(64);
        assert!(cfg.telemetry);
        assert_eq!(cfg.flight_capacity, 64);
        assert!(cfg.pipeline);
        assert_eq!(cfg.effective_workers(), 4);
        assert_eq!(cfg.flush_depth, 8);
        assert_eq!(cfg.gc_interval, 0);
        assert_eq!(cfg.max_solutions_per_segment, Some(2));
        assert_eq!(cfg.fault_policy, FaultPolicy::BestEffort);
        assert_eq!(cfg.checkpoint_interval, 3);
        assert_eq!(
            cfg.checkpoint_dir.as_deref(),
            Some(std::path::Path::new("/tmp/ckpt"))
        );
    }

    #[test]
    #[should_panic(expected = "interval must be at least 1")]
    fn zero_checkpoint_interval_panics() {
        let _ = StreamConfig::new(5).checkpoint("/tmp/ckpt", 0);
    }

    #[test]
    #[should_panic(expected = "segment length")]
    fn zero_length_panics() {
        let _ = StreamConfig::new(0);
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_limit_panics() {
        let _ = StreamConfig::new(5).max_solutions(0);
    }
}
