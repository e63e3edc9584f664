//! The lock-word paths: the waiters bit that sends fast-path newcomers
//! to the parking queue, the conversion bypass while it is set, the
//! direct-indexed page table's bounds, and conversion counting on every
//! grant path.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use ceh_locks::{LockId, LockManager, LockManagerConfig, LockMode};
use ceh_types::PageId;
use LockMode::*;

const R: LockId = LockId::Page(PageId(5));
const DIR: LockId = LockId::Directory;

/// Spin (with sleeps) until `cond` holds: a waited-path test must see
/// its waiter queued before it releases.
fn eventually(cond: impl Fn() -> bool) {
    for _ in 0..2000 {
        if cond() {
            return;
        }
        thread::sleep(Duration::from_millis(1));
    }
    panic!("condition never held");
}

/// Queue a ξ on `id`, which the caller holds incompatibly, from another
/// thread; the returned handle finishes once the ξ was granted and
/// released, having set `xi_done` while it still held ξ.
fn queue_xi(m: &Arc<LockManager>, id: LockId, xi_done: &Arc<AtomicBool>) -> thread::JoinHandle<()> {
    let waits = m.stats().waits_xi;
    let h = {
        let m = Arc::clone(m);
        let xi_done = Arc::clone(xi_done);
        thread::spawn(move || {
            let x = m.new_owner();
            m.lock(x, id, Xi);
            xi_done.store(true, Ordering::Release);
            m.unlock(x, id, Xi);
        })
    };
    eventually(|| m.stats().waits_xi > waits);
    h
}

#[test]
fn queued_xi_is_not_starved_by_fast_path_readers() {
    for id in [DIR, R] {
        let m = Arc::new(LockManager::default());
        let reader = m.new_owner();
        m.lock(reader, id, Rho);
        let xi_done = Arc::new(AtomicBool::new(false));
        let xi = queue_xi(&m, id, &xi_done);
        // Every newcomer ρ is compatible with the word (only ρ is
        // granted), but the waiters bit sends it to the queue, where
        // FIFO puts it behind the ξ.
        for _ in 0..1000 {
            assert!(!m.try_lock(m.new_owner(), id, Rho), "ρ jumped the ξ");
        }
        let late = {
            let m = Arc::clone(&m);
            let xi_done = Arc::clone(&xi_done);
            thread::spawn(move || {
                let r = m.new_owner();
                m.lock(r, id, Rho);
                let after_xi = xi_done.load(Ordering::Acquire);
                m.unlock(r, id, Rho);
                after_xi
            })
        };
        eventually(|| m.stats().waits_rho == 1);
        m.unlock(reader, id, Rho);
        xi.join().unwrap();
        assert!(late.join().unwrap(), "the late ρ was granted before the ξ");
        assert_eq!(m.total_granted(), 0);
        // The queue drained: the fast path is open again.
        let o = m.new_owner();
        assert!(m.try_lock(o, id, Xi));
        m.unlock(o, id, Xi);
    }
}

#[test]
fn conversion_bypasses_a_queued_xi_while_the_waiters_bit_is_set() {
    for id in [DIR, R] {
        let m = Arc::new(LockManager::default());
        let o = m.new_owner();
        m.lock(o, id, Rho);
        let xi_done = Arc::new(AtomicBool::new(false));
        let xi = queue_xi(&m, id, &xi_done);
        assert!(!m.try_lock(m.new_owner(), id, Alpha), "ordinary α queues");
        // ρ→α: o already holds the resource, so it is checked against
        // grants only — queuing behind the ξ would deadlock (§2.5).
        assert!(m.try_lock(o, id, Alpha), "try_lock conversion bypasses");
        m.unlock(o, id, Alpha);
        m.lock(o, id, Alpha);
        assert_eq!(m.held(o, id), vec![Rho, Alpha]);
        assert!(!xi_done.load(Ordering::Acquire));
        m.unlock(o, id, Alpha);
        m.unlock(o, id, Rho);
        xi.join().unwrap();
        assert!(xi_done.load(Ordering::Acquire));
        assert_eq!(m.total_granted(), 0);
    }
}

#[test]
fn pages_on_both_sides_of_chunk_boundaries_are_independent() {
    let m = LockManager::default();
    let (a, b) = (m.new_owner(), m.new_owner());
    let last = LockManager::MAX_PAGES - 1;
    for p in [0, 511, 512, 513, 1023, 1024, 4095, 4096, last - 1, last] {
        let id = LockId::Page(PageId(p));
        let v = m.xi_epoch(id).expect("quiescent");
        m.lock(a, id, Xi);
        assert!(!m.try_lock(b, id, Rho), "page {p}: ξ excludes ρ");
        for q in [p.wrapping_sub(1), p + 1] {
            if q < LockManager::MAX_PAGES {
                let neighbour = LockId::Page(PageId(q));
                assert!(m.xi_epoch(neighbour).is_some(), "page {q} beside {p}");
                assert!(m.try_lock(b, neighbour, Xi), "page {q} beside {p}");
                m.unlock(b, neighbour, Xi);
            }
        }
        m.unlock(a, id, Xi);
        assert!(!m.xi_validate(id, v), "page {p}: its own ξ is seen");
    }
    assert_eq!(m.total_granted(), 0);
}

#[test]
#[should_panic(expected = "beyond the lock manager's maximum page id")]
fn a_page_beyond_the_maximum_panics() {
    let m = LockManager::default();
    m.lock(
        m.new_owner(),
        LockId::Page(PageId(LockManager::MAX_PAGES)),
        Rho,
    );
}

#[test]
#[should_panic(expected = "beyond the lock manager's maximum page id")]
fn an_epoch_beyond_the_maximum_panics() {
    let m = LockManager::default();
    let _ = m.xi_epoch(LockId::Page(PageId(u64::MAX)));
}

#[test]
fn every_grant_path_counts_its_conversion() {
    let m = Arc::new(LockManager::new(LockManagerConfig {
        watchdog: Some(Duration::from_millis(5)),
    }));
    let conversions = || m.stats().conversions;
    let o = m.new_owner();

    // Immediate and try_lock upgrades.
    m.lock(o, DIR, Rho);
    let c = conversions();
    m.lock(o, DIR, Alpha);
    assert_eq!(conversions(), c + 1, "immediate ρ→α");
    m.unlock(o, DIR, Alpha);
    assert!(m.try_lock(o, DIR, Alpha));
    assert_eq!(conversions(), c + 2, "try_lock ρ→α");
    m.unlock(o, DIR, Alpha);
    // A reentrant acquisition is no conversion.
    m.lock(o, DIR, Rho);
    assert_eq!(conversions(), c + 2, "reentrant ρ");
    m.unlock(o, DIR, Rho);

    // A waited upgrade, past several watchdog timeouts.
    let other = m.new_owner();
    m.lock(other, DIR, Alpha);
    let upgrader = {
        let m = Arc::clone(&m);
        thread::spawn(move || {
            m.lock(o, DIR, Alpha);
            m.unlock(o, DIR, Alpha);
        })
    };
    eventually(|| m.stats().waits_alpha == 1);
    thread::sleep(Duration::from_millis(20));
    m.unlock(other, DIR, Alpha);
    upgrader.join().unwrap();
    assert_eq!(conversions(), c + 3, "waited ρ→α");
    m.unlock(o, DIR, Rho);
    assert_eq!(m.total_granted(), 0);
}
