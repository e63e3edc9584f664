//! The unlocked, zero-copy find: its cost on a quiescent file (the
//! gated count — no lock grant, one page read, no page copy) and the
//! conditions that send it to the ρ-locked path.

use std::sync::Arc;

use ceh_core::{ConcurrentHashFile, FileCore, Solution1, Solution1Options, Solution2};
use ceh_locks::{LockId, LockManager, LockManagerConfig, LockMode};
use ceh_obs::MetricsHandle;
use ceh_storage::{PageStore, PageStoreConfig};
use ceh_types::bucket::Bucket;
use ceh_types::{identity_pseudokey, HashFileConfig, Key, PageId, Value};

fn grants(m: &MetricsHandle) -> u64 {
    let s = m.snapshot();
    s.counter("locks.grants.rho") + s.counter("locks.grants.alpha") + s.counter("locks.grants.xi")
}

fn reads(m: &MetricsHandle) -> u64 {
    m.snapshot().counter("storage.reads")
}

fn filled(file: &dyn ConcurrentHashFile) {
    for k in 0..200u64 {
        file.insert(Key(k), Value(k + 1)).unwrap();
    }
}

/// One find on a quiescent file, hit or miss: 0 lock grants, exactly 1
/// page read, answered by the unlocked path.
fn assert_find_cost(file: &dyn ConcurrentHashFile, core: &FileCore) {
    let m = core.metrics();
    for (key, want) in [(Key(17), Some(Value(18))), (Key(9_999), None)] {
        let (g0, r0) = (grants(&m), reads(&m));
        let opt0 = core.stats().snapshot().finds_optimistic;
        assert_eq!(file.find(key).unwrap(), want);
        assert_eq!(grants(&m) - g0, 0, "find of {key:?} took a lock");
        assert_eq!(reads(&m) - r0, 1, "find of {key:?} read one page");
        assert_eq!(core.stats().snapshot().finds_optimistic - opt0, 1);
    }
    assert_eq!(core.stats().snapshot().find_fallbacks, 0);
}

#[test]
fn quiescent_find_takes_no_lock_and_one_page_read_solution1() {
    let f = Solution1::new(HashFileConfig::tiny().with_bucket_capacity(8)).unwrap();
    filled(&f);
    assert_find_cost(&f, f.core());
}

#[test]
fn quiescent_find_takes_no_lock_and_one_page_read_solution2() {
    let f = Solution2::new(HashFileConfig::tiny().with_bucket_capacity(8)).unwrap();
    filled(&f);
    assert_find_cost(&f, f.core());
}

/// Identity pseudokeys so the test knows which page a key lives on.
fn identity_file() -> Solution2 {
    let metrics = MetricsHandle::new();
    let store = PageStore::new_shared_with_metrics(
        PageStoreConfig {
            page_size: Bucket::page_size_for(2),
            ..Default::default()
        },
        &metrics,
    );
    let locks = Arc::new(LockManager::with_metrics(
        LockManagerConfig::default(),
        &metrics,
    ));
    let core = FileCore::with_parts_metrics(
        HashFileConfig::tiny().with_bucket_capacity(2),
        store,
        locks,
        identity_pseudokey,
        &metrics,
    )
    .unwrap();
    let f = Solution2::from_core(core);
    for k in [0b00u64, 0b10, 0b01, 0b11] {
        f.insert(Key(k), Value(k)).unwrap();
    }
    f
}

#[test]
fn xi_on_the_directory_sends_the_find_to_the_locked_path() {
    let f = Arc::new(identity_file());
    let locks = Arc::clone(f.core().locks());
    let o = locks.new_owner();
    locks.lock(o, LockId::Directory, LockMode::Xi);
    let reader = {
        let f = Arc::clone(&f);
        std::thread::spawn(move || f.find(Key(0b01)).unwrap())
    };
    // The reader refused the unlocked path and queued for ρ behind the ξ.
    while locks.stats().waits_rho == 0 {
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
    locks.unlock(o, LockId::Directory, LockMode::Xi);
    assert_eq!(reader.join().unwrap(), Some(Value(0b01)));
    let s = f.core().stats().snapshot();
    assert_eq!((s.finds_optimistic, s.find_fallbacks), (0, 1));
}

#[test]
fn xi_on_another_page_leaves_the_find_unlocked() {
    let f = identity_file();
    let locks = f.core().locks();
    let page = f.core().dir().index(0b01);
    // Every page has its own lock word: a ξ on another page is no
    // conflict.
    let neighbour = LockId::Page(PageId(page.0 + 1024));
    let o = locks.new_owner();
    locks.lock(o, neighbour, LockMode::Xi);
    assert_eq!(f.find(Key(0b01)).unwrap(), Some(Value(0b01)));
    locks.unlock(o, neighbour, LockMode::Xi);
    let s = f.core().stats().snapshot();
    assert_eq!((s.finds_optimistic, s.find_fallbacks), (1, 0));
}

#[test]
fn wrong_bucket_is_left_to_the_locked_walk() {
    let f = identity_file();
    // Split bucket 1 (localdepth 1) behind a stale directory: write the
    // halves 01 and 11 by hand, leaving the directory entry for 0b111
    // on the old page.
    let core = f.core();
    let old = core.dir().index(0b01);
    let new = core.alloc_page().unwrap();
    let mut buf = core.new_buf();
    let mut bucket = core.getbucket(old, &mut buf).unwrap();
    assert_eq!((bucket.localdepth, bucket.commonbits), (1, 0b1));
    let mut half = Bucket::new(2, 0b11);
    half.next = bucket.next;
    bucket.localdepth += 1;
    bucket.next = new;
    core.putbucket(new, &half, &mut buf).unwrap();
    core.putbucket(old, &bucket, &mut buf).unwrap();
    let before = core.stats().snapshot();
    assert_eq!(f.find(Key(0b111)).unwrap(), None);
    let d = core.stats().snapshot().since(&before);
    assert_eq!((d.finds_optimistic, d.find_fallbacks), (0, 1));
    assert_eq!(d.wrong_bucket_recoveries, 1, "the locked path walked next");
}

#[test]
fn pessimistic_find_always_takes_the_locked_path() {
    let f = Solution1::with_options(
        HashFileConfig::tiny().with_bucket_capacity(8),
        Solution1Options {
            pessimistic_find: true,
        },
    )
    .unwrap();
    filled(&f);
    let m = f.core().metrics();
    let g0 = grants(&m);
    assert_eq!(f.find(Key(3)).unwrap(), Some(Value(4)));
    assert_eq!(grants(&m) - g0, 2, "ρ on the directory and the page");
    let s = f.core().stats().snapshot();
    assert_eq!((s.finds_optimistic, s.find_fallbacks), (0, 1));
}
