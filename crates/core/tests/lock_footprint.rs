//! The lock footprint of Solution 2's common operations on a quiescent
//! file, as exact counts: which grants each takes, how many page reads
//! and writes, and that none of them waits. These pin the protocol's
//! cost independently of how the lock manager implements a grant.

use ceh_core::{ConcurrentHashFile, Solution2};
use ceh_obs::MetricsHandle;
use ceh_types::{DeleteOutcome, HashFileConfig, InsertOutcome, Key, Value};

/// Counters one operation moved.
#[derive(Debug, PartialEq, Eq)]
struct Footprint {
    /// Grants of ρ, α, ξ.
    grants: [u64; 3],
    waits: u64,
    reads: u64,
    writes: u64,
}

fn counts(m: &MetricsHandle) -> Footprint {
    let s = m.snapshot();
    Footprint {
        grants: ["rho", "alpha", "xi"].map(|k| s.counter(&format!("locks.grants.{k}"))),
        waits: ["rho", "alpha", "xi"]
            .iter()
            .map(|k| s.counter(&format!("locks.waits.{k}")))
            .sum(),
        reads: s.counter("storage.reads"),
        writes: s.counter("storage.writes"),
    }
}

fn footprint(m: &MetricsHandle, op: impl FnOnce()) -> Footprint {
    let a = counts(m);
    op();
    let b = counts(m);
    Footprint {
        grants: [0, 1, 2].map(|i| b.grants[i] - a.grants[i]),
        waits: b.waits - a.waits,
        reads: b.reads - a.reads,
        writes: b.writes - a.writes,
    }
}

/// One 64-record bucket holding 40 keys: no insert below splits and no
/// delete merges.
fn file() -> Solution2 {
    let f = Solution2::new(HashFileConfig::tiny().with_bucket_capacity(64)).unwrap();
    for k in 0..40u64 {
        f.insert(Key(k), Value(k)).unwrap();
    }
    f
}

#[test]
fn insert_into_a_non_full_bucket_takes_rho_dir_and_alpha_page() {
    let f = file();
    let m = f.core().metrics();
    let fp = footprint(&m, || {
        assert_eq!(
            f.insert(Key(100), Value(1)).unwrap(),
            InsertOutcome::Inserted
        );
    });
    assert_eq!(
        fp,
        Footprint {
            grants: [1, 1, 0],
            waits: 0,
            reads: 1,
            writes: 1,
        }
    );
}

#[test]
fn plain_delete_takes_rho_dir_and_xi_page() {
    let f = file();
    let m = f.core().metrics();
    let fp = footprint(&m, || {
        assert_eq!(f.delete(Key(5)).unwrap(), DeleteOutcome::Deleted);
    });
    assert_eq!(
        fp,
        Footprint {
            grants: [1, 0, 1],
            waits: 0,
            reads: 1,
            writes: 1,
        }
    );
}

#[test]
fn find_takes_no_grant() {
    let f = file();
    let m = f.core().metrics();
    for (key, want) in [(Key(7), Some(Value(7))), (Key(999), None)] {
        let fp = footprint(&m, || assert_eq!(f.find(key).unwrap(), want));
        assert_eq!(
            fp,
            Footprint {
                grants: [0, 0, 0],
                waits: 0,
                reads: 1,
                writes: 0,
            }
        );
    }
}
