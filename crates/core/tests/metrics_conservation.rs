//! Metrics-correctness under concurrency: the unified plane must not
//! lose or invent counts.
//!
//! * Conservation: every operation issued by every thread shows up in
//!   exactly one of the `core.*` outcome counters.
//! * Monotonicity: snapshots taken *while* writers are mutating only
//!   ever move forward — a later snapshot never shows a smaller counter
//!   than an earlier one (the sharded counters are increment-only).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use ceh_core::{ConcurrentHashFile, Solution1, Solution2};
use ceh_types::{HashFileConfig, Key, Value};

const THREADS: u64 = 4;
const OPS_PER_THREAD: u64 = 2_000;

/// Run a deterministic mixed workload and return (finds, inserts,
/// deletes) issued.
fn hammer(file: &Arc<dyn ConcurrentHashFile>) -> (u64, u64, u64) {
    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let file = Arc::clone(file);
            std::thread::spawn(move || {
                let (mut finds, mut inserts, mut deletes) = (0u64, 0u64, 0u64);
                for i in 0..OPS_PER_THREAD {
                    // Overlapping key space across threads so some
                    // operations hit, some miss, some race.
                    let k = Key((t * OPS_PER_THREAD / 2 + i) % 1024);
                    match i % 4 {
                        0 | 1 => {
                            file.insert(k, Value(i)).expect("insert");
                            inserts += 1;
                        }
                        2 => {
                            file.find(k).expect("find");
                            finds += 1;
                        }
                        _ => {
                            file.delete(k).expect("delete");
                            deletes += 1;
                        }
                    }
                }
                (finds, inserts, deletes)
            })
        })
        .collect();
    let mut total = (0, 0, 0);
    for h in handles {
        let (f, i, d) = h.join().expect("worker");
        total.0 += f;
        total.1 += i;
        total.2 += d;
    }
    total
}

fn check_conservation(file: Arc<dyn ConcurrentHashFile>) {
    let (finds, inserts, deletes) = hammer(&file);
    let m = file.metrics().snapshot();
    assert_eq!(
        m.counter("core.finds_hit") + m.counter("core.finds_miss"),
        finds,
        "find outcomes conserve"
    );
    assert_eq!(
        m.counter("core.finds_optimistic") + m.counter("core.find_fallbacks"),
        finds,
        "every find took exactly one path: the unlocked probe or the ρ-locked fallback"
    );
    assert_eq!(
        m.counter("core.inserts") + m.counter("core.inserts_duplicate"),
        inserts,
        "insert outcomes conserve"
    );
    assert_eq!(
        m.counter("core.deletes") + m.counter("core.deletes_miss"),
        deletes,
        "delete outcomes conserve"
    );
    // The same totals must be visible through the layers below: every
    // update acquired at least one lock (a find may take none: the
    // unlocked probe), and grants == releases at quiescence.
    let grants = m.counter("locks.grants.rho")
        + m.counter("locks.grants.alpha")
        + m.counter("locks.grants.xi");
    assert!(
        grants >= inserts + deletes,
        "lock layer recorded every update"
    );
    // A conversion is an *additional* grant in the new mode that the
    // owner later releases separately, so at quiescence every grant has
    // exactly one matching release.
    assert_eq!(grants, m.counter("locks.releases"), "every grant released");
    assert!(m.counter("storage.reads") > 0, "storage layer recorded");
}

#[test]
fn solution1_ops_issued_equal_ops_counted() {
    let f = Solution1::new(HashFileConfig::tiny().with_bucket_capacity(8)).unwrap();
    check_conservation(Arc::new(f));
}

#[test]
fn solution2_ops_issued_equal_ops_counted() {
    let f = Solution2::new(HashFileConfig::tiny().with_bucket_capacity(8)).unwrap();
    check_conservation(Arc::new(f));
}

#[test]
fn snapshots_are_monotone_under_concurrent_mutation() {
    let file: Arc<dyn ConcurrentHashFile> =
        Arc::new(Solution2::new(HashFileConfig::tiny().with_bucket_capacity(8)).unwrap());
    let stop = Arc::new(AtomicBool::new(false));
    let writers: Vec<_> = (0..THREADS)
        .map(|t| {
            let file = Arc::clone(&file);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut i = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let k = Key((t * 5000 + i) % 2048);
                    let _ = file.insert(k, Value(i));
                    let _ = file.find(k);
                    if i % 3 == 0 {
                        let _ = file.delete(k);
                    }
                    i += 1;
                }
            })
        })
        .collect();

    let handle = file.metrics();
    let mut prev = handle.snapshot();
    for _ in 0..50 {
        let cur = handle.snapshot();
        for (name, &earlier) in &prev.counters {
            let later = cur.counter(name);
            assert!(
                later >= earlier,
                "counter {name} went backwards: {earlier} -> {later}"
            );
        }
        for (name, h) in &prev.hists {
            let later = cur.hist(name).expect("histogram persists");
            assert!(
                later.count >= h.count,
                "histogram {name} lost samples: {} -> {}",
                h.count,
                later.count
            );
        }
        prev = cur;
        std::thread::yield_now();
    }
    stop.store(true, Ordering::Relaxed);
    for w in writers {
        w.join().expect("writer");
    }
}
