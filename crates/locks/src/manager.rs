//! The lock manager: lock words on the fast path, parking queues on the
//! slow path, and an owner ledger for everything that needs holders.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use crate::hook::WaitHook;
use crate::ledger::{self, Holding, Ledger};
use crate::mode::{compatible, LockId, LockMode};
use crate::parking::{Parking, Queues, Waiter};
use crate::shadow::{unscheduled, TrackedAtomicU64};
use crate::stats::{lock_trace_target, LockStats, LockStatsSnapshot};
use crate::word::{self, Modes, Words, WAITERS};

/// Identifies a lock-holding process (one logical operation).
///
/// The paper's "processes" map to operations here, not OS threads: each
/// `find`/`insert`/`delete` call takes a fresh owner from
/// [`LockManager::new_owner`], so a thread running operations back to back
/// never accidentally inherits locks across operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct OwnerId(pub u64);

/// Configuration for a [`LockManager`].
#[derive(Debug, Clone, Default)]
pub struct LockManagerConfig {
    /// If set, a waiter that has blocked for this long runs the deadlock
    /// detector and panics with the cycle if it is part of one. Armed by
    /// the stress tests; `None` (default) waits indefinitely.
    pub watchdog: Option<Duration>,
}

/// Bits of an [`OwnerId`] that name the thread that minted it.
const OWNER_THREAD_BITS: u32 = 24;

/// Mint an owner id: the calling thread's index in the low bits and a
/// per-thread sequence number above them (ids repeat only after 2²⁴
/// threads or 2⁴⁰ operations of one thread). No shared counter is
/// touched, and the ledger shard (the low bits) is the same for every
/// operation a thread runs, so two threads share a ledger line only if
/// their indices fall in the same shard.
fn mint_owner() -> OwnerId {
    use std::cell::Cell;
    static THREADS: AtomicU64 = AtomicU64::new(0);
    thread_local! {
        /// The next id this thread hands out; 0 until first use.
        static NEXT: Cell<u64> = const { Cell::new(0) };
    }
    NEXT.with(|next| {
        let mut id = next.get();
        if id == 0 {
            // Sequence 1, so no id is 0.
            let thread = THREADS.fetch_add(1, Ordering::Relaxed) & ((1 << OWNER_THREAD_BITS) - 1);
            id = (1 << OWNER_THREAD_BITS) | thread;
        }
        next.set(id.wrapping_add(1 << OWNER_THREAD_BITS));
        OwnerId(id)
    })
}

/// The three-mode lock manager. See the crate docs for semantics.
///
/// Page ids must be below [`LockManager::MAX_PAGES`]; locking a page
/// beyond it panics.
///
/// ```
/// use ceh_locks::{LockId, LockManager, LockMode};
///
/// let mgr = LockManager::default();
/// let reader = mgr.new_owner();
/// let inserter = mgr.new_owner();
/// // ρ and α are compatible: a reader shares the directory with an
/// // inserter...
/// mgr.lock(reader, LockId::Directory, LockMode::Rho);
/// mgr.lock(inserter, LockId::Directory, LockMode::Alpha);
/// // ...but a deleter's ξ must wait for both.
/// let deleter = mgr.new_owner();
/// assert!(!mgr.try_lock(deleter, LockId::Directory, LockMode::Xi));
/// mgr.unlock(reader, LockId::Directory, LockMode::Rho);
/// mgr.unlock(inserter, LockId::Directory, LockMode::Alpha);
/// assert!(mgr.try_lock(deleter, LockId::Directory, LockMode::Xi));
/// mgr.unlock(deleter, LockId::Directory, LockMode::Xi);
/// ```
pub struct LockManager {
    words: Words,
    ledger: Ledger,
    parking: Parking,
    next_ticket: AtomicU64,
    watchdog: Option<Duration>,
    stats: LockStats,
    /// Fast-path flag for `wait_hook` (one relaxed load when unset).
    hooked: AtomicBool,
    wait_hook: Mutex<Option<Arc<dyn WaitHook>>>,
}

impl std::fmt::Debug for LockManager {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LockManager")
            .field("stats", &self.stats.snapshot())
            .finish()
    }
}

impl Default for LockManager {
    fn default() -> Self {
        Self::new(LockManagerConfig::default())
    }
}

impl LockManager {
    /// Page ids a manager can lock: `0..MAX_PAGES`.
    pub const MAX_PAGES: u64 = word::MAX_PAGES;

    /// Create a manager with a private metrics registry.
    pub fn new(cfg: LockManagerConfig) -> Self {
        Self::with_metrics(cfg, &ceh_obs::MetricsHandle::default())
    }

    /// Create a manager whose statistics land in `metrics`' registry
    /// (under the `locks.` prefix), correlated with every other layer
    /// wired to the same handle.
    pub fn with_metrics(cfg: LockManagerConfig, metrics: &ceh_obs::MetricsHandle) -> Self {
        LockManager {
            words: Words::new(),
            ledger: Ledger::new(),
            parking: Parking::new(),
            next_ticket: AtomicU64::new(1),
            watchdog: cfg.watchdog,
            stats: LockStats::with_handle(metrics),
            hooked: AtomicBool::new(false),
            wait_hook: Mutex::new(None),
        }
    }

    /// Install (or clear) a [`WaitHook`]. Used by `ceh-check`'s schedule
    /// explorer to take control of blocking; see [`crate::WaitHook`].
    ///
    /// Must be set while the manager is quiescent (no waiters): threads
    /// already parked on the internal condvar are not migrated to the hook.
    pub fn set_wait_hook(&self, hook: Option<Arc<dyn WaitHook>>) {
        let mut slot = self.wait_hook.lock();
        self.hooked.store(hook.is_some(), Ordering::Release);
        *slot = hook;
    }

    /// The installed hook, if any (fast path: one relaxed load).
    #[inline]
    fn hook(&self) -> Option<Arc<dyn WaitHook>> {
        // A stale `false` just skips the hook for an in-flight operation;
        // install (`set_wait_hook`) happens before any hooked run starts.
        // ceh-lint: allow(relaxed-ordering) — monotonic fast-path flag, ordered by the install handshake above
        if !self.hooked.load(Ordering::Relaxed) {
            return None;
        }
        self.wait_hook.lock().clone()
    }

    /// Allocate a fresh owner token for one logical operation. Tokens
    /// are minted per thread and are unique across the process's
    /// managers.
    pub fn new_owner(&self) -> OwnerId {
        mint_owner()
    }

    /// Lock statistics so far.
    pub fn stats(&self) -> LockStatsSnapshot {
        self.stats.snapshot()
    }

    /// Reset statistics (between benchmark phases).
    pub fn reset_stats(&self) {
        self.stats.reset()
    }

    /// Snapshot the ξ-epoch of `id` for an unlocked read: `None` while
    /// some owner holds ξ on it, else a value to hand to
    /// [`LockManager::xi_validate`] after the read.
    ///
    /// A read bracketed by a successful snapshot and validation saw no
    /// ξ holder on `id` — the state a ρ holder would have seen. ρ and α
    /// grants never move the epoch. Fires [`WaitHook::at_optimistic`]
    /// after the load, so a scheduler can run a writer between the
    /// snapshot and the read it guards.
    #[track_caller]
    #[inline]
    pub fn xi_epoch(&self, id: LockId) -> Option<u64> {
        let v = self.words.epoch(id);
        if let Some(h) = self.hook() {
            h.at_optimistic(id);
        }
        (v & word::XI == 0).then_some(v)
    }

    /// True iff no ξ on `id` has been granted since
    /// [`LockManager::xi_epoch`] returned `v`. Fires
    /// [`WaitHook::at_optimistic`] before the load, so a scheduler can run
    /// a writer between the read and its validation.
    #[track_caller]
    #[inline]
    #[must_use]
    pub fn xi_validate(&self, id: LockId, v: u64) -> bool {
        if let Some(h) = self.hook() {
            h.at_optimistic(id);
        }
        // The reads being validated were atomic loads or page reads under
        // the page latch; a ξ holder's write seen by them was preceded by
        // its generation bump, which this load therefore sees (coherence).
        self.words.epoch(id) == v
    }

    /// CAS `mode` into `id`'s word if it is compatible with the other
    /// owners' grants, clearing the waiters bit if `last_waiter`. With
    /// `fast`, a set waiters bit refuses instead (newcomers queue behind
    /// waiters). Returns whether the grant was made.
    fn cas_grant(
        &self,
        word: &TrackedAtomicU64,
        id: LockId,
        mode: LockMode,
        own: Modes,
        fast: bool,
        last_waiter: bool,
    ) -> bool {
        // Made with a ledger or stripe mutex held: never a schedule point.
        unscheduled(|| {
            let mut cur = word.load(Ordering::Acquire);
            loop {
                if (fast && cur & WAITERS != 0) || !word::compatible_with(cur, mode, own) {
                    return false;
                }
                let mut new = word::with_grant(cur, mode, id);
                if last_waiter {
                    new &= !WAITERS;
                }
                // Acquire: pairs with the Release of every earlier
                // holder's release, so this holder sees their writes.
                match word.compare_exchange(cur, new, Ordering::Acquire, Ordering::Acquire) {
                    Ok(_) => return true,
                    Err(v) => cur = v,
                }
            }
        })
    }

    /// Enter a fresh grant in the owner's ledger shard, opening the
    /// directory's ξ-epoch for a directory ξ.
    fn enter(&self, shard: &mut Vec<Holding>, owner: OwnerId, id: LockId, mode: LockMode) {
        shard.push(Holding {
            owner,
            id,
            mode,
            count: 1,
        });
        if mode == LockMode::Xi && id == LockId::Directory {
            unscheduled(|| self.words.dir_xi_begin());
        }
    }

    /// The fast path: nest a reentrant request, or grant with one CAS on
    /// the word when no one is queued and the word is compatible.
    /// `Ok(conversion)` if granted, else `Err` with the owner's modes
    /// on `id` for the slow path.
    #[inline]
    fn acquire_fast(&self, owner: OwnerId, id: LockId, mode: LockMode) -> Result<bool, Modes> {
        let word = self.words.word(id);
        let mut shard = self.ledger.shard(owner);
        let own = ledger::own(&shard, owner, id, mode);
        if let Some(i) = own.same {
            shard[i].count += 1;
            return Ok(false);
        }
        if !self.cas_grant(word, id, mode, own.modes, true, false) {
            return Err(own.modes);
        }
        self.enter(&mut shard, owner, id, mode);
        Ok(!own.modes.is_empty())
    }

    /// Bookkeeping for a grant made without waiting.
    fn granted(
        &self,
        owner: OwnerId,
        id: LockId,
        mode: LockMode,
        conversion: bool,
        hook: Option<&dyn WaitHook>,
    ) {
        let target = lock_trace_target(id);
        self.stats.record_grant(mode, false, target);
        if conversion {
            self.stats.record_conversion(target);
        }
        if let Some(h) = hook {
            h.at_granted(owner, id, mode);
        }
    }

    /// Acquire `mode` on `id` for `owner`, blocking until granted.
    ///
    /// Reentrant: acquiring a (resource, mode) pair the owner already
    /// holds nests. An owner holding *any* lock on the resource makes this
    /// a conversion-style request (queue bypass; see crate docs).
    pub fn lock(&self, owner: OwnerId, id: LockId, mode: LockMode) {
        let hook = self.hook();
        if let Some(h) = &hook {
            h.at_acquire(owner, id, mode);
        }
        match self.acquire_fast(owner, id, mode) {
            Ok(conversion) => self.granted(owner, id, mode, conversion, hook.as_deref()),
            Err(own) => self.lock_slow(owner, id, mode, own, hook),
        }
    }

    /// The slow path: queue on `id`'s parking stripe, set the waiters
    /// bit, and re-check after every wake-up until granted.
    fn lock_slow(
        &self,
        owner: OwnerId,
        id: LockId,
        mode: LockMode,
        own: Modes,
        hook: Option<Arc<dyn WaitHook>>,
    ) {
        let target = lock_trace_target(id);
        let is_conversion = !own.is_empty();
        let ticket = self.next_ticket.fetch_add(1, Ordering::Relaxed);
        let word = self.words.word(id);
        let stripe = self.parking.stripe(id);
        let mut queues = stripe.queues.lock();
        queues.push(
            id,
            Waiter {
                owner,
                mode,
                ticket,
            },
            is_conversion,
        );
        // From here until the queue empties, fast-path newcomers divert
        // to this stripe. A release made before this RMW is seen by the
        // check below; one made after it sees the bit and notifies.
        unscheduled(|| word.fetch_or(WAITERS, Ordering::AcqRel));
        let mut wait: Option<(ceh_obs::TraceCtx, Instant)> = None;
        let mut timed_out = false;
        loop {
            if self.grant_queued(
                &mut queues,
                word,
                owner,
                id,
                mode,
                own,
                is_conversion,
                ticket,
            ) {
                drop(queues);
                match wait {
                    Some((span, started)) => {
                        self.stats
                            .record_wait_end(span, mode, target, started.elapsed())
                    }
                    None => self.stats.record_grant(mode, false, target),
                }
                if is_conversion {
                    self.stats.record_conversion(target);
                }
                if let Some(h) = &hook {
                    h.at_granted(owner, id, mode);
                }
                return;
            }
            if timed_out {
                drop(queues);
                // The panicking waiter stays queued: the other waiters on
                // its cycle must still find it and panic too.
                if let Some(cycle) = self.detect_deadlock() {
                    panic!(
                        "deadlock detected while {owner:?} waits for {mode} on {id}: \
                         cycle {cycle:?}\n{}",
                        self.dump()
                    );
                }
                queues = stripe.queues.lock();
                timed_out = false;
                continue;
            }
            if wait.is_none() {
                wait = Some((self.stats.record_wait_start(mode, target), Instant::now()));
            }
            match (&hook, self.watchdog) {
                // Hook-driven waiting: the scheduler decides when to
                // re-check; the condvar is never used (the releaser's
                // notify is harmless).
                (Some(h), _) => {
                    drop(queues);
                    h.at_block(owner, id, mode);
                    queues = stripe.queues.lock();
                }
                (None, Some(d)) => timed_out = stripe.cv.wait_for(&mut queues, d).timed_out(),
                (None, None) => stripe.cv.wait(&mut queues),
            }
        }
    }

    /// Grant the queued request with `ticket` if the queue's FIFO and
    /// conversion rules admit it and the word is compatible; on success
    /// it leaves the queue (clearing the waiters bit if it was the last)
    /// and enters the ledger. Called with `id`'s stripe mutex held.
    #[allow(clippy::too_many_arguments)]
    fn grant_queued(
        &self,
        queues: &mut Queues,
        word: &TrackedAtomicU64,
        owner: OwnerId,
        id: LockId,
        mode: LockMode,
        own: Modes,
        is_conversion: bool,
        ticket: u64,
    ) -> bool {
        let q = queues.get(id).expect("a queued request has a queue");
        if !q.admits(owner, mode, is_conversion, ticket) {
            return false;
        }
        let last = q.conversions.len() + q.waiting.len() == 1;
        if !self.cas_grant(word, id, mode, own, false, last) {
            return false;
        }
        queues.remove(id, ticket);
        self.enter(&mut self.ledger.shard(owner), owner, id, mode);
        true
    }

    /// Try to acquire without blocking. Returns whether the lock was
    /// granted. Respects the same fairness rules as [`LockManager::lock`]
    /// (it will not jump ahead of earlier waiters).
    pub fn try_lock(&self, owner: OwnerId, id: LockId, mode: LockMode) -> bool {
        let hook = self.hook();
        if let Some(h) = &hook {
            h.at_acquire(owner, id, mode);
        }
        let conversion = match self.acquire_fast(owner, id, mode) {
            Ok(conversion) => conversion,
            Err(own) => {
                // Queued requests (or a release racing the fast path):
                // decide as a newcomer behind every queued request.
                let is_conversion = !own.is_empty();
                let queues = self.parking.stripe(id).queues.lock();
                let admitted = queues
                    .get(id)
                    .map_or(true, |q| q.admits(owner, mode, is_conversion, u64::MAX));
                if !admitted || !self.cas_grant(self.words.word(id), id, mode, own, false, false) {
                    return false;
                }
                self.enter(&mut self.ledger.shard(owner), owner, id, mode);
                drop(queues);
                is_conversion
            }
        };
        self.granted(owner, id, mode, conversion, hook.as_deref());
        true
    }

    /// Release one acquisition of `mode` on `id` by `owner`.
    ///
    /// Panics if the owner does not hold such a lock — in this codebase
    /// that is always a protocol-transcription bug worth failing loudly on.
    pub fn unlock(&self, owner: OwnerId, id: LockId, mode: LockMode) {
        let mut shard = self.ledger.shard(owner);
        let Some(i) = shard
            .iter()
            .position(|h| h.owner == owner && h.id == id && h.mode == mode)
        else {
            drop(shard);
            panic!("{owner:?} unlocking {mode} on {id}: not held");
        };
        shard[i].count -= 1;
        let before = if shard[i].count == 0 {
            shard.remove(i);
            unscheduled(|| self.words.release(id, mode))
        } else {
            0
        };
        drop(shard);
        if before & WAITERS != 0 {
            self.parking.notify(id);
        }
        self.stats.record_release(mode);
        if let Some(h) = self.hook() {
            h.at_release(owner, id, mode);
        }
    }

    /// Release *all* locks held by `owner` (panic-recovery in tests and
    /// guard teardown).
    pub fn release_all(&self, owner: OwnerId) {
        let mut woken = Vec::new();
        let mut shard = self.ledger.shard(owner);
        shard.retain(|h| {
            if h.owner != owner {
                return true;
            }
            if unscheduled(|| self.words.release(h.id, h.mode)) & WAITERS != 0 {
                woken.push(h.id);
            }
            false
        });
        drop(shard);
        for id in woken {
            self.parking.notify(id);
        }
    }

    /// The modes `owner` currently holds on `id` (diagnostic).
    pub fn held(&self, owner: OwnerId, id: LockId) -> Vec<LockMode> {
        self.ledger
            .shard(owner)
            .iter()
            .filter(|h| h.owner == owner && h.id == id)
            .map(|h| h.mode)
            .collect()
    }

    /// Total number of locks currently granted (diagnostic; quiescent
    /// tests assert this returns 0).
    pub fn total_granted(&self) -> usize {
        self.ledger.lock_all().iter().map(|s| s.len()).sum()
    }

    /// Build the waits-for graph and look for a cycle. Returns the owners
    /// on a cycle, if any.
    ///
    /// A waiter waits-for (a) every other owner holding an incompatible
    /// granted lock on its resource, and (b) under FIFO fairness, every
    /// earlier incompatible waiter on the same resource (conversions wait
    /// only on grants and earlier conversions).
    pub fn detect_deadlock(&self) -> Option<Vec<OwnerId>> {
        // A consistent snapshot: every stripe, then every ledger shard,
        // in index order — the order the slow path nests them in.
        let stripes = self.parking.lock_all();
        let ledgers = self.ledger.lock_all();
        let mut edges: HashMap<OwnerId, Vec<OwnerId>> = HashMap::new();
        for q in stripes.iter().flat_map(|s| s.iter()) {
            let mut consider = |w: &Waiter, include_queue_fifo: bool| {
                let out = edges.entry(w.owner).or_default();
                for h in ledgers.iter().flat_map(|s| s.iter()) {
                    if h.id == q.id && h.owner != w.owner && !compatible(w.mode, h.mode) {
                        out.push(h.owner);
                    }
                }
                for c in &q.conversions {
                    if c.ticket < w.ticket && c.owner != w.owner && !compatible(w.mode, c.mode) {
                        out.push(c.owner);
                    }
                }
                if include_queue_fifo {
                    for o in &q.waiting {
                        if o.ticket < w.ticket && o.owner != w.owner && !compatible(w.mode, o.mode)
                        {
                            out.push(o.owner);
                        }
                    }
                    // Ordinary waiters also wait on all conversions.
                    for c in &q.conversions {
                        if c.owner != w.owner && !compatible(w.mode, c.mode) {
                            out.push(c.owner);
                        }
                    }
                }
            };
            for c in &q.conversions {
                consider(c, false);
            }
            for w in &q.waiting {
                consider(w, true);
            }
        }
        drop(ledgers);
        drop(stripes);
        // DFS cycle detection.
        #[derive(Clone, Copy, PartialEq)]
        enum Color {
            White,
            Gray,
            Black,
        }
        let mut color: HashMap<OwnerId, Color> = HashMap::new();
        let mut stack_path: Vec<OwnerId> = Vec::new();

        fn dfs(
            v: OwnerId,
            edges: &HashMap<OwnerId, Vec<OwnerId>>,
            color: &mut HashMap<OwnerId, Color>,
            path: &mut Vec<OwnerId>,
        ) -> Option<Vec<OwnerId>> {
            color.insert(v, Color::Gray);
            path.push(v);
            if let Some(next) = edges.get(&v) {
                for &u in next {
                    match color.get(&u).copied().unwrap_or(Color::White) {
                        Color::Gray => {
                            let start = path.iter().position(|&x| x == u).unwrap_or(0);
                            return Some(path[start..].to_vec());
                        }
                        Color::White => {
                            if let Some(c) = dfs(u, edges, color, path) {
                                return Some(c);
                            }
                        }
                        Color::Black => {}
                    }
                }
            }
            path.pop();
            color.insert(v, Color::Black);
            None
        }

        let owners: Vec<OwnerId> = edges.keys().copied().collect();
        for v in owners {
            if color.get(&v).copied().unwrap_or(Color::White) == Color::White {
                if let Some(c) = dfs(v, &edges, &mut color, &mut stack_path) {
                    return Some(c);
                }
            }
        }
        None
    }

    /// Human-readable dump of the grants and queues (diagnostics on
    /// watchdog panic).
    pub fn dump(&self) -> String {
        use std::fmt::Write as _;
        let stripes = self.parking.lock_all();
        let ledgers = self.ledger.lock_all();
        let holdings = || ledgers.iter().flat_map(|s| s.iter());
        let queues = || stripes.iter().flat_map(|s| s.iter());
        let mut ids: Vec<LockId> = Vec::new();
        for id in holdings().map(|h| h.id).chain(queues().map(|q| q.id)) {
            if !ids.contains(&id) {
                ids.push(id);
            }
        }
        let mut out = String::new();
        for id in ids {
            let _ = writeln!(out, "{id}:");
            for h in holdings().filter(|h| h.id == id) {
                let _ = writeln!(out, "  granted {} to {:?} x{}", h.mode, h.owner, h.count);
            }
            for q in queues().filter(|q| q.id == id) {
                for c in &q.conversions {
                    let _ = writeln!(
                        out,
                        "  converting {} for {:?} (t{})",
                        c.mode, c.owner, c.ticket
                    );
                }
                for w in &q.waiting {
                    let _ = writeln!(
                        out,
                        "  waiting {} for {:?} (t{})",
                        w.mode, w.owner, w.ticket
                    );
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ceh_types::PageId;
    use std::sync::Arc;
    use std::thread;
    use std::time::Duration;
    use LockMode::*;

    const R: LockId = LockId::Page(PageId(1));

    #[test]
    fn contended_lock_emits_wait_span_with_mode_and_wait_ns() {
        let metrics = ceh_obs::MetricsHandle::new();
        metrics.tracer().enable(256);
        let m = Arc::new(LockManager::with_metrics(
            LockManagerConfig::default(),
            &metrics,
        ));
        let a = m.new_owner();
        m.lock(a, R, Xi);
        let m2 = Arc::clone(&m);
        let waiter = thread::spawn(move || {
            let b = m2.new_owner();
            m2.lock(b, R, Rho); // blocks until a releases ξ
            m2.unlock(b, R, Rho);
        });
        thread::sleep(Duration::from_millis(20));
        m.unlock(a, R, Xi);
        waiter.join().unwrap();
        let ev = metrics.tracer().drain();
        let begin = ev
            .iter()
            .find(|e| {
                e.layer == "locks" && e.event == "wait.rho" && e.kind == ceh_obs::EventKind::Begin
            })
            .expect("wait begin recorded");
        let end = ev
            .iter()
            .find(|e| {
                e.layer == "locks" && e.event == "wait.rho" && e.kind == ceh_obs::EventKind::End
            })
            .expect("wait end recorded");
        assert_eq!(begin.span, end.span, "begin/end pair up");
        assert_eq!(end.a, 1, "target is the encoded page id");
        assert!(end.b > 0, "end carries the wait in nanoseconds");
        assert!(
            ev.iter()
                .any(|e| e.layer == "locks" && e.event == "acquire.xi"),
            "uncontended grants stamp acquire instants when traced"
        );
    }

    #[test]
    fn reentrant_same_mode() {
        let m = LockManager::default();
        let o = m.new_owner();
        m.lock(o, R, Rho);
        m.lock(o, R, Rho);
        assert_eq!(m.held(o, R), vec![Rho]);
        m.unlock(o, R, Rho);
        assert_eq!(m.held(o, R), vec![Rho]);
        m.unlock(o, R, Rho);
        assert!(m.held(o, R).is_empty());
        assert_eq!(m.total_granted(), 0);
    }

    #[test]
    fn compatible_modes_coexist() {
        let m = LockManager::default();
        let (a, b) = (m.new_owner(), m.new_owner());
        m.lock(a, R, Rho);
        m.lock(b, R, Alpha); // α compatible with ρ
        assert!(m.try_lock(m.new_owner(), R, Rho)); // another ρ fine
        assert!(!m.try_lock(m.new_owner(), R, Alpha)); // second α refused
        assert!(!m.try_lock(m.new_owner(), R, Xi)); // ξ refused
    }

    #[test]
    fn xi_excludes_everything() {
        let m = LockManager::default();
        let o = m.new_owner();
        m.lock(o, R, Xi);
        for mode in LockMode::ALL {
            assert!(
                !m.try_lock(m.new_owner(), R, mode),
                "{mode} must be refused under ξ"
            );
        }
        m.unlock(o, R, Xi);
        assert!(m.try_lock(m.new_owner(), R, Xi));
    }

    #[test]
    fn blocking_waiter_wakes_on_release() {
        let m = Arc::new(LockManager::default());
        let a = m.new_owner();
        m.lock(a, R, Xi);
        let m2 = Arc::clone(&m);
        let t = thread::spawn(move || {
            let b = m2.new_owner();
            m2.lock(b, R, Rho);
            m2.unlock(b, R, Rho);
        });
        thread::sleep(Duration::from_millis(20));
        m.unlock(a, R, Xi);
        t.join().unwrap();
        assert_eq!(m.total_granted(), 0);
    }

    #[test]
    fn fifo_readers_do_not_starve_xi() {
        // a holds ρ; x queues for ξ; then c requests ρ — c must NOT be
        // granted ahead of x (it queues), so after a releases, x gets the
        // resource first.
        let m = Arc::new(LockManager::default());
        let a = m.new_owner();
        m.lock(a, R, Rho);

        let m_x = Arc::clone(&m);
        let x_thread = thread::spawn(move || {
            let x = m_x.new_owner();
            m_x.lock(x, R, Xi);
            // Hold briefly so the late reader demonstrably waited.
            thread::sleep(Duration::from_millis(30));
            m_x.unlock(x, R, Xi);
        });
        thread::sleep(Duration::from_millis(20)); // let x start waiting
        assert!(
            !m.try_lock(m.new_owner(), R, Rho),
            "ρ must queue behind waiting ξ"
        );

        let m_c = Arc::clone(&m);
        let started = std::time::Instant::now();
        let c_thread = thread::spawn(move || {
            let c = m_c.new_owner();
            m_c.lock(c, R, Rho);
            m_c.unlock(c, R, Rho);
        });
        thread::sleep(Duration::from_millis(10));
        m.unlock(a, R, Rho); // x should be granted now, then c
        x_thread.join().unwrap();
        c_thread.join().unwrap();
        assert!(
            started.elapsed() >= Duration::from_millis(25),
            "late ρ should have waited for the ξ ahead of it"
        );
        assert_eq!(m.total_granted(), 0);
    }

    #[test]
    fn conversion_bypasses_waiting_queue() {
        // The §2.5 scenario: owner holds ρ on the directory; a ξ is
        // waiting (it can't be granted because of the ρ); owner requests α
        // — if the α queued behind the ξ this would deadlock. It must be
        // granted immediately.
        let m = Arc::new(LockManager::default());
        let o = m.new_owner();
        m.lock(o, R, Rho);

        let m2 = Arc::clone(&m);
        let xi_thread = thread::spawn(move || {
            let d = m2.new_owner();
            m2.lock(d, R, Xi);
            m2.unlock(d, R, Xi);
        });
        thread::sleep(Duration::from_millis(20)); // ξ is now waiting

        // Conversion must not block behind the waiting ξ.
        m.lock(o, R, Alpha);
        assert_eq!(m.held(o, R).len(), 2);
        m.unlock(o, R, Alpha);
        m.unlock(o, R, Rho);
        xi_thread.join().unwrap();
        assert_eq!(m.total_granted(), 0);
    }

    #[test]
    fn two_conversions_serialize() {
        // Two owners hold ρ, both request α: one gets it, the other waits
        // until the first releases its α. No deadlock.
        let m = Arc::new(LockManager::default());
        let a = m.new_owner();
        let b = m.new_owner();
        m.lock(a, R, Rho);
        m.lock(b, R, Rho);
        m.lock(a, R, Alpha);
        let m2 = Arc::clone(&m);
        let t = thread::spawn(move || {
            m2.lock(b, R, Alpha);
            m2.unlock(b, R, Alpha);
            m2.unlock(b, R, Rho);
        });
        thread::sleep(Duration::from_millis(20));
        m.unlock(a, R, Alpha);
        m.unlock(a, R, Rho);
        t.join().unwrap();
        assert_eq!(m.total_granted(), 0);
    }

    #[test]
    fn release_all_drops_everything() {
        let m = LockManager::default();
        let o = m.new_owner();
        m.lock(o, R, Rho);
        m.lock(o, LockId::Directory, Rho);
        m.lock(o, LockId::Page(PageId(9)), Xi);
        m.release_all(o);
        assert_eq!(m.total_granted(), 0);
    }

    #[test]
    fn detects_abba_deadlock() {
        // Manufactured AB-BA deadlock between two ξ owners (our protocols
        // never do this; the detector exists to prove they don't).
        let m = Arc::new(LockManager::new(LockManagerConfig { watchdog: None }));
        let ra = LockId::Page(PageId(1));
        let rb = LockId::Page(PageId(2));
        let a = m.new_owner();
        let b = m.new_owner();
        m.lock(a, ra, Xi);
        m.lock(b, rb, Xi);
        let m2 = Arc::clone(&m);
        let _t1 = thread::spawn(move || m2.lock(a, rb, Xi));
        let m3 = Arc::clone(&m);
        let _t2 = thread::spawn(move || m3.lock(b, ra, Xi));
        thread::sleep(Duration::from_millis(50));
        let cycle = m.detect_deadlock().expect("AB-BA cycle must be found");
        assert_eq!(cycle.len(), 2);
        // Break the deadlock so the detached threads can finish; the test
        // process exits regardless.
        m.release_all(a);
        m.release_all(b);
    }

    #[test]
    fn no_false_positive_deadlock() {
        let m = Arc::new(LockManager::default());
        let a = m.new_owner();
        m.lock(a, R, Xi);
        let m2 = Arc::clone(&m);
        let t = thread::spawn(move || {
            let b = m2.new_owner();
            m2.lock(b, R, Xi);
            m2.unlock(b, R, Xi);
        });
        thread::sleep(Duration::from_millis(20));
        assert!(
            m.detect_deadlock().is_none(),
            "simple waiting is not deadlock"
        );
        m.unlock(a, R, Xi);
        t.join().unwrap();
    }

    #[test]
    fn stats_count_grants_and_waits() {
        let m = Arc::new(LockManager::default());
        let a = m.new_owner();
        m.lock(a, R, Xi);
        let m2 = Arc::clone(&m);
        let t = thread::spawn(move || {
            let b = m2.new_owner();
            m2.lock(b, R, Rho);
            m2.unlock(b, R, Rho);
        });
        thread::sleep(Duration::from_millis(20));
        m.unlock(a, R, Xi);
        t.join().unwrap();
        let s = m.stats();
        assert_eq!(s.grants_xi, 1);
        assert_eq!(s.grants_rho, 1);
        assert_eq!(s.waits_rho, 1);
        assert!(s.wait_ns_rho > 0);
    }

    #[test]
    #[should_panic(expected = "not held")]
    fn unlock_unheld_panics() {
        let m = LockManager::default();
        let o = m.new_owner();
        m.lock(o, R, Rho);
        m.unlock(o, R, Xi);
    }

    #[test]
    fn watchdog_panics_on_manufactured_deadlock() {
        let m = Arc::new(LockManager::new(LockManagerConfig {
            watchdog: Some(Duration::from_millis(50)),
        }));
        let ra = LockId::Page(PageId(1));
        let rb = LockId::Page(PageId(2));
        let a = m.new_owner();
        let b = m.new_owner();
        m.lock(a, ra, Xi);
        m.lock(b, rb, Xi);
        let m2 = Arc::clone(&m);
        let t1 = thread::spawn(move || m2.lock(a, rb, Xi));
        let m3 = Arc::clone(&m);
        let t2 = thread::spawn(move || m3.lock(b, ra, Xi));
        let r1 = t1.join();
        let r2 = t2.join();
        assert!(
            r1.is_err() || r2.is_err(),
            "at least one waiter must panic via the watchdog"
        );
        // Clean up whatever survived.
        m.release_all(a);
        m.release_all(b);
    }
}
