//! The ξ-epoch invariant: a resource's epoch word reads "active"
//! ([`LockManager::xi_epoch`] returns `None`) exactly while some owner
//! holds ξ on it, and any ξ granted after a snapshot fails the
//! snapshot's validation. ρ and α grants never move the word.
//!
//! Every ξ grant path is covered — immediate, `try_lock`, waited,
//! reentrant-nested and conversion — and every release path: `unlock` of
//! the last nesting level, `release_all`, and a `ceh-core` protocol
//! error that bails out through `release_all`.

use std::sync::Arc;
use std::thread;
use std::time::Duration;

use ceh_locks::{LockId, LockManager, LockMode};
use ceh_types::PageId;
use LockMode::*;

const P: LockId = LockId::Page(PageId(3));
const DIR: LockId = LockId::Directory;

fn active(m: &LockManager, id: LockId) -> bool {
    m.xi_epoch(id).is_none()
}

/// Spin (with sleeps) until `cond` holds; the waited-grant tests need
/// the waiter to be queued before they release.
fn eventually(cond: impl Fn() -> bool) {
    for _ in 0..500 {
        if cond() {
            return;
        }
        thread::sleep(Duration::from_millis(2));
    }
    panic!("condition never held");
}

#[test]
fn immediate_grant_and_unlock_bracket_the_epoch() {
    let m = LockManager::default();
    let v0 = m.xi_epoch(P).expect("quiescent at start");
    let o = m.new_owner();
    m.lock(o, P, Xi);
    assert!(active(&m, P), "ξ held");
    assert!(!m.xi_validate(P, v0), "a ξ since the snapshot must fail it");
    m.unlock(o, P, Xi);
    let v1 = m.xi_epoch(P).expect("quiescent after unlock");
    assert_ne!(v1, v0, "a completed ξ still moves the generation");
    assert!(!m.xi_validate(P, v0));
    assert!(m.xi_validate(P, v1));
}

#[test]
fn try_lock_grant_opens_the_epoch_and_a_refusal_does_not() {
    let m = LockManager::default();
    let holder = m.new_owner();
    m.lock(holder, P, Rho);
    let v0 = m.xi_epoch(P).unwrap();
    assert!(!m.try_lock(m.new_owner(), P, Xi), "refused under ρ");
    assert!(m.xi_validate(P, v0), "a refused ξ never started");
    m.unlock(holder, P, Rho);

    let o = m.new_owner();
    assert!(m.try_lock(o, P, Xi));
    assert!(active(&m, P));
    m.unlock(o, P, Xi);
    assert!(!active(&m, P));
}

#[test]
fn waited_grant_opens_the_epoch_only_when_granted() {
    let m = Arc::new(LockManager::default());
    let reader = m.new_owner();
    m.lock(reader, P, Rho);
    let v0 = m.xi_epoch(P).unwrap();
    let deleter = {
        let m = Arc::clone(&m);
        thread::spawn(move || {
            let d = m.new_owner();
            m.lock(d, P, Xi);
            assert!(active(&m, P), "ξ granted after the wait");
            m.unlock(d, P, Xi);
        })
    };
    eventually(|| m.stats().waits_xi == 1);
    assert!(
        m.xi_validate(P, v0),
        "a queued ξ is not active: the ρ holder still excludes it"
    );
    m.unlock(reader, P, Rho);
    deleter.join().unwrap();
    assert!(!active(&m, P));
    assert!(!m.xi_validate(P, v0));
}

#[test]
fn reentrant_xi_stays_active_until_the_last_level_unlocks() {
    let m = LockManager::default();
    let o = m.new_owner();
    m.lock(o, P, Xi);
    m.lock(o, P, Xi);
    assert!(m.try_lock(o, P, Xi), "third nesting level");
    m.unlock(o, P, Xi);
    m.unlock(o, P, Xi);
    assert!(active(&m, P), "one level still held");
    m.unlock(o, P, Xi);
    assert!(!active(&m, P));
}

#[test]
fn conversion_to_xi_opens_the_epoch() {
    let m = LockManager::default();
    let o = m.new_owner();
    m.lock(o, DIR, Rho);
    m.lock(o, DIR, Alpha);
    let v0 = m.xi_epoch(DIR).expect("ρ and α leave the word alone");
    m.lock(o, DIR, Xi); // conversion: o already holds the directory
    assert!(active(&m, DIR));
    m.unlock(o, DIR, Alpha);
    m.unlock(o, DIR, Rho);
    assert!(active(&m, DIR), "ξ outlives the other modes");
    m.unlock(o, DIR, Xi);
    assert!(!active(&m, DIR));
    assert!(!m.xi_validate(DIR, v0));
}

#[test]
fn waited_conversion_to_xi_opens_the_epoch() {
    let m = Arc::new(LockManager::default());
    let other = m.new_owner();
    m.lock(other, P, Rho);
    let converter = {
        let m = Arc::clone(&m);
        thread::spawn(move || {
            let o = m.new_owner();
            m.lock(o, P, Rho);
            m.lock(o, P, Xi); // waits for `other`'s ρ
            assert!(active(&m, P));
            m.unlock(o, P, Xi);
            m.unlock(o, P, Rho);
        })
    };
    eventually(|| m.stats().waits_xi == 1);
    assert!(!active(&m, P), "queued conversion is not active");
    m.unlock(other, P, Rho);
    converter.join().unwrap();
    assert!(!active(&m, P));
}

#[test]
fn release_all_ends_every_xi_the_owner_held() {
    let m = LockManager::default();
    let o = m.new_owner();
    let q = LockId::Page(PageId(4));
    m.lock(o, DIR, Xi);
    m.lock(o, P, Xi);
    m.lock(o, P, Xi); // nested: still one grant to end
    m.lock(o, q, Rho);
    assert!(active(&m, DIR) && active(&m, P));
    m.release_all(o);
    assert!(!active(&m, DIR));
    assert!(!active(&m, P));
    assert!(!active(&m, q));
    assert_eq!(m.total_granted(), 0);
}

#[test]
fn rho_and_alpha_never_move_the_word() {
    let m = LockManager::default();
    let v_dir = m.xi_epoch(DIR).unwrap();
    let v_page = m.xi_epoch(P).unwrap();
    let (a, b) = (m.new_owner(), m.new_owner());
    for id in [DIR, P] {
        m.lock(a, id, Rho);
        m.lock(a, id, Rho); // reentrant
        m.lock(b, id, Rho);
        m.lock(b, id, Alpha); // conversion
        assert!(m.try_lock(m.new_owner(), id, Rho));
        assert!(!m.try_lock(m.new_owner(), id, Alpha), "second α refused");
        m.unlock(b, id, Alpha);
        m.lock(a, id, Alpha);
        m.unlock(a, id, Alpha);
    }
    m.release_all(a);
    m.release_all(b);
    assert!(m.xi_validate(DIR, v_dir));
    assert!(m.xi_validate(P, v_page));
}

/// Every page has its own word: a ξ on one page neither hides nor
/// invents a ξ on another, however their ids relate.
#[test]
fn pages_1024_apart_have_independent_epochs() {
    let m = LockManager::default();
    let p = LockId::Page(PageId(7));
    let q = LockId::Page(PageId(7 + 1024));
    let (a, b) = (m.new_owner(), m.new_owner());
    // A ξ on q leaves p's snapshot valid.
    let vp = m.xi_epoch(p).unwrap();
    m.lock(a, q, Xi);
    assert!(!active(&m, p), "q's ξ is not p's");
    m.unlock(a, q, Xi);
    assert!(m.xi_validate(p, vp), "no false conflict");
    // Each page's own ξ is still seen, also while the other holds ξ.
    let vq = m.xi_epoch(q).unwrap();
    m.lock(a, p, Xi);
    m.lock(b, q, Xi);
    assert!(active(&m, p) && active(&m, q));
    m.unlock(a, p, Xi);
    assert!(!active(&m, p) && active(&m, q));
    assert!(!m.xi_validate(p, vp));
    m.unlock(b, q, Xi);
    assert!(!active(&m, q));
    assert!(!m.xi_validate(q, vq));
}

#[test]
fn the_directory_word_is_separate_from_the_pages() {
    let m = LockManager::default();
    let v_dir = m.xi_epoch(DIR).unwrap();
    let o = m.new_owner();
    m.lock(o, LockId::Page(PageId(0)), Xi);
    assert!(m.xi_validate(DIR, v_dir));
    m.lock(o, DIR, Xi);
    assert!(active(&m, DIR));
    m.release_all(o);
    assert!(!active(&m, DIR));
}

/// A `ceh-core` protocol step that fails while holding ξ bails out
/// through `try_or_release!` → `release_all`; the epoch words must come
/// back quiescent, or every later find would fall back forever.
#[test]
fn core_error_path_under_xi_leaves_the_words_quiescent() {
    use ceh_core::{ConcurrentHashFile, FileCore, Solution1};
    use ceh_obs::MetricsHandle;
    use ceh_storage::{DurableConfig, DurableStore, PageStoreConfig};
    use ceh_types::bucket::Bucket;
    use ceh_types::{identity_pseudokey, Error, HashFileConfig, Key, Value};

    let cfg = HashFileConfig::tiny().with_bucket_capacity(4);
    let metrics = MetricsHandle::new();
    let wal = DurableStore::new(
        DurableConfig {
            page: PageStoreConfig {
                page_size: Bucket::page_size_for(4),
                ..Default::default()
            },
            ..Default::default()
        },
        &metrics,
    );
    let locks = Arc::new(LockManager::default());
    let core = FileCore::with_durable_metrics(
        cfg,
        Arc::clone(&wal),
        Arc::clone(&locks),
        identity_pseudokey,
        &metrics,
    )
    .unwrap();
    let f = Solution1::from_core(core);
    for k in 0..6u64 {
        f.insert(Key(k), Value(k)).unwrap();
    }
    let page = LockId::Page(f.core().dir().lookup(identity_pseudokey(Key(0))).1);
    // Reads still come from the cache; every logged write now fails.
    wal.power_off();
    // Solution 1's delete takes ξ on the directory and the page, then
    // its putbucket fails.
    let xi_before = locks.stats().grants_xi;
    assert!(matches!(f.delete(Key(0)), Err(Error::PowerLoss)));
    assert!(locks.stats().grants_xi >= xi_before + 2, "failed under ξ");
    assert_eq!(
        locks.total_granted(),
        0,
        "the error path released everything"
    );
    assert!(locks.xi_epoch(DIR).is_some(), "directory word quiescent");
    assert!(locks.xi_epoch(page).is_some(), "page word quiescent");
    assert_eq!(f.find(Key(1)).unwrap(), Some(Value(1)));
    assert_eq!(
        f.core().stats().snapshot().finds_optimistic,
        1,
        "the find after the failure still takes the unlocked path"
    );
}
