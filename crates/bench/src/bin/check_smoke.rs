//! CI smoke test for the `ceh-check` verification subsystem.
//!
//! Four gates, all bounded to finish well inside 60 s:
//!
//! 1. **Exhaustive exploration** — every 2-thread workload (including
//!    the find-merge pair, where an unlocked find races a merge, the
//!    freed page's reuse and a re-insert) is run under *every* schedule
//!    at preemption bound 3 with DPOR pruning off (the coverage claim
//!    rests on no heuristic), asserting zero invariant or
//!    linearizability violations and no truncation;
//! 2. **Pruned exploration** — the 3-thread mixed workload at bound 2
//!    with commutativity pruning on, same assertions;
//! 3. **Real-thread linearizability** — a seeded 4-thread workload runs
//!    against Solution 2 on real OS threads (no virtual scheduler), the
//!    recorded operation history is checked exactly against the
//!    sequential model;
//! 4. **Lock-discipline lint** — `ceh-lint` over `crates/` must be
//!    clean.
//!
//! Exits non-zero with a diagnostic on stderr on any failure, so
//! `scripts/ci.sh` can gate on it.

use std::sync::Arc;

use ceh_check::{check_linearizable, explore, lint_paths, ExploreConfig, Strictness, Workload};
use ceh_core::{ConcurrentHashFile, Solution2};
use ceh_types::{HashFileConfig, Key, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn fail(msg: &str) -> ! {
    eprintln!("check_smoke: FAIL: {msg}");
    std::process::exit(1);
}

fn explore_clean(name: &str, cfg: &ExploreConfig) {
    let w = Workload::by_name(name).unwrap_or_else(|| fail(&format!("unknown workload {name}")));
    let r = explore(&w, cfg).unwrap_or_else(|e| fail(&format!("explore {name}: {e}")));
    if let Some(v) = &r.violation {
        fail(&format!(
            "{name} violated at bound {} after {} schedules: {}\nminimized fixture:\n{}",
            cfg.preemption_bound,
            r.schedules,
            v.detail,
            v.to_fixture().serialize()
        ));
    }
    if r.truncated {
        fail(&format!(
            "{name} truncated at {} schedules: coverage claim void",
            r.schedules
        ));
    }
    println!(
        "check_smoke: explore {name:<26} clean: {} schedules at bound {}{}",
        r.schedules,
        cfg.preemption_bound,
        if cfg.dpor { " (dpor)" } else { " (exhaustive)" },
    );
}

/// Seeded real-thread run: preload, then a 4-thread insert/find/delete
/// mix over a small key space with the history log on, checked exactly.
fn real_thread_linearizability() {
    let file =
        Arc::new(Solution2::new(HashFileConfig::tiny().with_bucket_capacity(4)).expect("file"));
    let metrics = file.core().metrics();

    let mut init = std::collections::HashMap::new();
    for k in 0..32u64 {
        if k % 2 == 0 {
            file.insert(Key(k), Value(k + 1000)).expect("preload");
            init.insert(k, k + 1000);
        }
    }

    metrics.history().enable();
    std::thread::scope(|s| {
        for t in 0..4u64 {
            let file = Arc::clone(&file);
            s.spawn(move || {
                let mut rng = StdRng::seed_from_u64(0xC0FFEE ^ t);
                for _ in 0..1_500 {
                    let k = rng.random_range(0..64u64);
                    match rng.random_range(0..3u32) {
                        0 => drop(file.find(Key(k)).expect("find")),
                        1 => drop(file.insert(Key(k), Value(k + t * 10_000)).expect("insert")),
                        _ => drop(file.delete(Key(k)).expect("delete")),
                    }
                }
            });
        }
    });
    metrics.history().disable();
    let records = metrics.history().drain();
    match check_linearizable(&init, &records, Strictness::Exact) {
        Ok(rep) => println!(
            "check_smoke: linearizable: {} ops over {} keys on real threads ({} pending)",
            rep.ops, rep.keys, rep.pending
        ),
        Err(v) => fail(&format!("real-thread history not linearizable: {v}")),
    }
}

fn main() {
    // Gate 1: the acceptance-criterion workloads, exhaustively.
    let exhaustive = ExploreConfig {
        preemption_bound: 3,
        dpor: false,
        max_schedules: 500_000,
        race: false,
    };
    for name in [
        "s1-insert-insert-split",
        "s2-insert-insert-split",
        "s2-delete-delete-merge",
        "s1-find-merge",
        "s2-find-merge",
    ] {
        explore_clean(name, &exhaustive);
    }

    // Gate 2: three threads, pruned, shallower bound (CI-sized).
    explore_clean(
        "s2-mixed",
        &ExploreConfig {
            preemption_bound: 2,
            dpor: true,
            max_schedules: 500_000,
            race: false,
        },
    );

    // Gate 3: linearizability on genuinely parallel execution.
    real_thread_linearizability();

    // Gate 4: the lint, exactly as CI runs it.
    let findings = lint_paths(&[std::path::PathBuf::from("crates")])
        .unwrap_or_else(|e| fail(&format!("lint: {e}")));
    if !findings.is_empty() {
        for f in &findings {
            eprintln!("{f}");
        }
        fail(&format!("{} lint finding(s)", findings.len()));
    }
    println!("check_smoke: lint clean");
    println!("check_smoke: PASS");
}
