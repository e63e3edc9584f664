//! The uncontended lock path allocates nothing once warm: grants are a
//! CAS on the resource's word plus an entry in a ledger `Vec` that keeps
//! its capacity. Counted with a global allocator that tallies this
//! thread's allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use ceh_locks::{LockId, LockManager, LockMode};
use ceh_types::PageId;

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

// ceh-lint: allow(unsafe-block) — GlobalAlloc is an unsafe trait; every method forwards to System unchanged
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        // SAFETY: forwarded with the caller's layout, which GlobalAlloc's
        // contract already makes valid for System.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `alloc` above, i.e. from System, with
        // this layout.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocs() -> u64 {
    ALLOCS.with(|c| c.get())
}

/// `n` lock/unlock pairs in every mode on the directory and on pages
/// 0..64, plus a ρ→α→ξ conversion ladder on each resource.
fn pairs(m: &LockManager, n: u64) {
    let ids = |i: u64| [LockId::Directory, LockId::Page(PageId(i % 64))];
    for i in 0..n {
        let o = m.new_owner();
        for id in ids(i) {
            for mode in LockMode::ALL {
                m.lock(o, id, mode);
                m.unlock(o, id, mode);
            }
            m.lock(o, id, LockMode::Rho);
            assert!(m.try_lock(o, id, LockMode::Alpha));
            m.lock(o, id, LockMode::Xi);
            m.unlock(o, id, LockMode::Xi);
            m.unlock(o, id, LockMode::Alpha);
            m.unlock(o, id, LockMode::Rho);
        }
    }
}

#[test]
fn uncontended_lock_unlock_allocates_nothing_after_warm_up() {
    let m = LockManager::default();
    pairs(&m, 1_000); // warm-up: page chunk, ledger capacity
    let before = allocs();
    pairs(&m, 10_000);
    let after = allocs();
    assert_eq!(after - before, 0, "allocations on the uncontended path");
    assert_eq!(m.total_granted(), 0);
    let s = m.stats();
    assert_eq!(s.total_waits(), 0);
    assert_eq!(s.conversions, 11_000 * 2 * 2, "two conversions per ladder");
}
