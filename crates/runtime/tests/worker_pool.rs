//! Worker threads end with their monitor: a hundred pipelined monitors,
//! half finished and half dropped mid-stream, leave the process's thread
//! count where it started. The suite holds one test so that no other
//! test's threads are counted.
#![cfg(target_os = "linux")]

use rvmtl_mtl::{parse, state};
use rvmtl_runtime::{StreamConfig, StreamMonitor};

/// The process's live threads.
fn threads() -> usize {
    std::fs::read_dir("/proc/self/task").unwrap().count()
}

#[test]
fn pool_threads_end_with_their_monitor() {
    let start = threads();
    let mut peak = start;
    for round in 0..100 {
        let config = StreamConfig::new(4).pipelined(Some(3)).flush_depth(2);
        let mut monitor = StreamMonitor::new(2, 1, config);
        for spec in ["G[0,inf) (a -> F[0,4) b)", "F[0,50) c", "a U[0,30) b"] {
            monitor.add_query(&parse(spec).unwrap());
        }
        for k in 0..24u64 {
            let label = ["a", "b", "c"][(k % 3) as usize];
            monitor
                .observe((k % 2) as usize, 1 + k, state![label])
                .unwrap();
        }
        peak = peak.max(threads());
        if round % 2 == 0 {
            monitor.finish();
        } else {
            drop(monitor);
        }
    }
    // Each monitor deals three workers, two of them on pool threads.
    assert!(peak >= start + 2, "no pool thread ran: {start} → {peak}");
    let end = threads();
    assert!(
        end.abs_diff(start) <= 2,
        "{start} threads at the start, {end} at the end"
    );
}
