//! The monitor's instrument panel: every [`rvmtl_obs`] instrument the
//! streaming runtime records into, in one struct.
//!
//! The split of responsibilities (see the crate documentation's
//! "Observability" section): *timing* instruments — histograms of wall-clock
//! spans, the pipeline busy/wall counters, the flight recorder's timestamps —
//! live here and exist only when [`crate::StreamConfig::with_telemetry`]
//! enabled them; with telemetry off every handle is a no-op and each
//! instrumented call site costs one never-taken branch. *Count-shape* metrics
//! (segments processed, GC epochs, cache hits, pending obligations) are
//! bridged from always-on monitor state at snapshot time by
//! [`crate::StreamMonitor::telemetry`] and cost nothing extra at all.

use rvmtl_obs::{Counter, FlightRecorder, Histogram, Registry};

/// All registry-resident instruments of one [`crate::StreamMonitor`].
pub(crate) struct RuntimeMetrics {
    /// The registry the instruments were minted from (snapshotted by
    /// [`crate::StreamMonitor::telemetry`]).
    pub(crate) registry: Registry,
    /// The lifecycle flight recorder. Recorded into **only from the
    /// monitor's own thread at deterministic points**, so the kind sequence
    /// is identical across the sequential and pipelined execution paths.
    pub(crate) flight: FlightRecorder,
    /// Wall time of one segment through the sequential solver stage (ns).
    pub(crate) segment_solve: Histogram,
    /// Wall time of one drained batch through either execution path (ns).
    pub(crate) batch_solve: Histogram,
    /// Per-segment close→solved latency (ns): the time between "this
    /// segment can never change again" and "its verdict contribution is
    /// visible".
    pub(crate) event_to_verdict: Histogram,
    /// Per-query verdict latency (ns), one labelled histogram per query:
    /// close of the newest segment a query observed in a batch → that
    /// query's pending set updated. Indexed by [`crate::QueryId::index`].
    pub(crate) verdict_latency: Vec<Histogram>,
    /// GC epoch pause (ns): query-arena compaction plus emptying the worker
    /// arenas.
    pub(crate) gc_pause: Histogram,
    /// Checkpoint serialize + write + fsync time (ns).
    pub(crate) checkpoint_write: Histogram,
    /// Wall time of one solve (ns): one sample per distinct obligation
    /// progressed through a segment — per distinct pending formula of the
    /// observing queries on the sequential path, per distinct formula of a
    /// worker's units on the pipelined one (units dealt to different
    /// workers may solve the same formula each). Queries that share an
    /// obligation, settled ones included, share its sample.
    pub(crate) work_item: Histogram,
    /// Total nanoseconds pipeline workers spent in solves (summed across
    /// workers, the calling thread's share included; compare against
    /// `pipeline_wall × workers` for idle time).
    pub(crate) pipeline_busy: Counter,
    /// Total wall nanoseconds of the pipelined path's batches, each from
    /// its first job dispatch to its last result.
    pub(crate) pipeline_wall: Counter,
}

impl RuntimeMetrics {
    /// Builds the panel: live instruments when `enabled`, no-ops otherwise.
    pub(crate) fn new(enabled: bool, flight_capacity: usize) -> Self {
        let registry = if enabled {
            Registry::new()
        } else {
            Registry::no_op()
        };
        let flight = if enabled {
            FlightRecorder::with_capacity(flight_capacity.max(1))
        } else {
            FlightRecorder::no_op()
        };
        RuntimeMetrics {
            segment_solve: registry.histogram("rvmtl_segment_solve_nanos", ""),
            batch_solve: registry.histogram("rvmtl_batch_solve_nanos", ""),
            event_to_verdict: registry.histogram("rvmtl_event_to_verdict_nanos", ""),
            verdict_latency: Vec::new(),
            gc_pause: registry.histogram("rvmtl_gc_pause_nanos", ""),
            checkpoint_write: registry.histogram("rvmtl_checkpoint_write_nanos", ""),
            work_item: registry.histogram("rvmtl_work_item_nanos", ""),
            pipeline_busy: registry.counter("rvmtl_pipeline_busy_nanos_total", ""),
            pipeline_wall: registry.counter("rvmtl_pipeline_wall_nanos_total", ""),
            registry,
            flight,
        }
    }

    /// Whether the timing instruments record anywhere.
    pub(crate) fn is_enabled(&self) -> bool {
        self.registry.is_enabled()
    }

    /// Mints the per-query verdict-latency histogram for the next query
    /// (called by [`crate::StreamMonitor::add_query`] in registration
    /// order, so indices stay aligned with [`crate::QueryId::index`]).
    pub(crate) fn register_query(&mut self) {
        let index = self.verdict_latency.len();
        self.verdict_latency.push(
            self.registry
                .histogram("rvmtl_verdict_latency_nanos", &format!("query=\"{index}\"")),
        );
    }
}
