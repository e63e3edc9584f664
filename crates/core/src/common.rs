//! State and helpers shared by both concurrent solutions.

use std::sync::atomic::Ordering;
use std::sync::Arc;

use ceh_locks::shadow::{self, TrackedAtomicUsize};
use ceh_locks::{LockId, LockManager, LockManagerConfig, LockMode, OwnerId};
use ceh_obs::MetricsHandle;
use ceh_storage::{
    DiskHandle, DurableConfig, DurableStore, DurableTxn, PageBuf, PageStore, PageStoreConfig,
    RecoveryReport,
};
use ceh_types::bucket::{Bucket, Probe};
use ceh_types::{hash_key, Error, HashFileConfig, Key, PageId, Pseudokey, Result, Value};

use crate::directory::Directory;
use crate::stats::OpStats;

/// Propagate an error out of a protocol function after dropping every
/// lock the operation holds. Mid-protocol failures (page store exhausted,
/// directory at max depth) must not leave locks behind.
macro_rules! try_or_release {
    ($core:expr, $owner:expr, $e:expr) => {
        match $e {
            Ok(v) => v,
            Err(err) => {
                $core.locks().release_all($owner);
                return Err(err);
            }
        }
    };
}
pub(crate) use try_or_release;

/// The shared-state core of a concurrent extendible hash file: the page
/// store (disk), lock manager, directory, configuration, and counters.
///
/// Solution 1 and Solution 2 are thin protocol layers over this; both
/// expose it via `core()` so tests and the invariant checker can inspect
/// structure without duplicating plumbing.
pub struct FileCore {
    store: Arc<PageStore>,
    /// The durability layer, when this file is crash-consistent: every
    /// mutation funnels through it ([`FileCore::alloc_page`],
    /// [`FileCore::dealloc_page`], [`FileCore::putbucket`]), and the
    /// restructuring sections bracket themselves with
    /// [`FileCore::begin_txn`]. `None` = the volatile simulation
    /// (`store` is then the only storage).
    wal: Option<Arc<DurableStore>>,
    locks: Arc<LockManager>,
    dir: Directory,
    cfg: HashFileConfig,
    hasher: fn(Key) -> Pseudokey,
    stats: OpStats,
    metrics: MetricsHandle,
    len: TrackedAtomicUsize,
}

impl std::fmt::Debug for FileCore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FileCore")
            .field("dir", &self.dir)
            .field("len", &self.len())
            .finish()
    }
}

impl FileCore {
    /// Build a core with its own page store and lock manager. The
    /// configured `io_latency_ns` is applied to every page read/write —
    /// the paper's buckets live on disk, and the protocols' value shows
    /// when I/O, not lock-manager software overhead, is the unit of cost.
    ///
    /// One [`MetricsHandle`] is threaded through every layer it builds,
    /// so the file's lock, storage, and operation metrics land in one
    /// registry, retrievable as a coherent [`ceh_obs::RunReport`] via
    /// [`FileCore::metrics`].
    pub fn new(cfg: HashFileConfig) -> Result<Self> {
        let metrics = MetricsHandle::new();
        let store = PageStore::new_shared_with_metrics(
            PageStoreConfig {
                page_size: Bucket::page_size_for(cfg.bucket_capacity),
                io_latency_ns: cfg.io_latency_ns,
                ..Default::default()
            },
            &metrics,
        );
        let locks = Arc::new(LockManager::with_metrics(
            LockManagerConfig::default(),
            &metrics,
        ));
        Self::with_parts_metrics(cfg, store, locks, hash_key, &metrics)
    }

    /// Build a core over caller-supplied substrates (tests inject the
    /// identity pseudokey function and watchdog-armed lock managers).
    /// The core's own counters get a fresh private registry; construct
    /// the substrates with [`MetricsHandle`]-aware constructors and use
    /// [`FileCore::with_parts_metrics`] for one correlated registry.
    pub fn with_parts(
        cfg: HashFileConfig,
        store: Arc<PageStore>,
        locks: Arc<LockManager>,
        hasher: fn(Key) -> Pseudokey,
    ) -> Result<Self> {
        Self::with_parts_metrics(cfg, store, locks, hasher, &MetricsHandle::default())
    }

    /// [`FileCore::with_parts`] with the core's operation counters (and
    /// tracer) registered in `metrics`' registry. Pass the same handle
    /// the store and lock manager were built with to get one coherent
    /// run report.
    pub fn with_parts_metrics(
        cfg: HashFileConfig,
        store: Arc<PageStore>,
        locks: Arc<LockManager>,
        hasher: fn(Key) -> Pseudokey,
        metrics: &MetricsHandle,
    ) -> Result<Self> {
        cfg.validate()?;
        if Bucket::capacity_for(store.page_size()) < cfg.bucket_capacity {
            return Err(Error::Config(format!(
                "page size {} holds only {} records, config wants {}",
                store.page_size(),
                Bucket::capacity_for(store.page_size()),
                cfg.bucket_capacity
            )));
        }
        let root = store.alloc()?;
        let bucket = Bucket::new(0, 0);
        let mut buf = PageBuf::zeroed(store.page_size());
        bucket.encode(&mut buf)?;
        store.write(root, &buf)?;
        let dir = Directory::new(cfg.max_depth, root)?;
        Ok(FileCore {
            store,
            wal: None,
            locks,
            dir,
            cfg,
            hasher,
            stats: OpStats::with_handle(metrics),
            metrics: metrics.clone(),
            len: TrackedAtomicUsize::new(0, "core.len"),
        })
    }

    /// Build a **crash-consistent** core over a durable store: the root
    /// bucket's creation is logged, and every later mutation funnels
    /// through the WAL. The volatile read path (`store()`) is the
    /// durable store's cache, so readers cost the same as ever.
    pub fn with_durable_metrics(
        cfg: HashFileConfig,
        wal: Arc<DurableStore>,
        locks: Arc<LockManager>,
        hasher: fn(Key) -> Pseudokey,
        metrics: &MetricsHandle,
    ) -> Result<Self> {
        cfg.validate()?;
        if Bucket::capacity_for(wal.page_size()) < cfg.bucket_capacity {
            return Err(Error::Config(format!(
                "page size {} holds only {} records, config wants {}",
                wal.page_size(),
                Bucket::capacity_for(wal.page_size()),
                cfg.bucket_capacity
            )));
        }
        let txn = wal.begin_txn()?;
        let root = wal.alloc()?;
        let bucket = Bucket::new(0, 0);
        let mut buf = PageBuf::zeroed(wal.page_size());
        bucket.encode(&mut buf)?;
        wal.write(root, &buf)?;
        txn.commit()?;
        let dir = Directory::new(cfg.max_depth, root)?;
        Ok(FileCore {
            store: Arc::clone(wal.cache()),
            wal: Some(wal),
            locks,
            dir,
            cfg,
            hasher,
            stats: OpStats::with_handle(metrics),
            metrics: metrics.clone(),
            len: TrackedAtomicUsize::new(0, "core.len"),
        })
    }

    /// Crash-recover a core from a durable medium: replay the WAL
    /// ([`DurableStore::recover`]), sweep bucket-level garbage
    /// (tombstones and debris that decode as junk) with **logged**
    /// deallocations, then rebuild the directory from the surviving
    /// buckets' `commonbits`/local depths (the same scan as
    /// [`FileCore::recover`]).
    pub fn recover_durable_metrics(
        cfg: HashFileConfig,
        disk: &DiskHandle,
        dcfg: DurableConfig,
        locks: Arc<LockManager>,
        hasher: fn(Key) -> Pseudokey,
        metrics: &MetricsHandle,
    ) -> Result<(Self, RecoveryReport)> {
        let (wal, report) = DurableStore::recover(disk, dcfg, metrics)?;
        // Bucket-level garbage pass, durably: a page that decodes as a
        // live bucket stays; everything else (tombstones, poison,
        // uncommitted-alloc zero pages) is deallocated *through the
        // log* so the medium converges with the recovered structure.
        let mut buf = PageBuf::zeroed(wal.page_size());
        for p in wal.allocated_page_ids() {
            wal.read(p, &mut buf)?;
            let garbage = match Bucket::decode(&buf) {
                Ok(b) => b.is_deleted(),
                Err(_) => true,
            };
            if garbage {
                wal.dealloc(p)?;
            }
        }
        if wal.allocated_page_ids().is_empty() {
            // Nothing recoverable (a crash before the first commit):
            // initialize fresh, through the log.
            let core = Self::with_durable_metrics(cfg, wal, locks, hasher, metrics)?;
            return Ok((core, report));
        }
        let mut core =
            Self::recover_with_metrics(cfg, Arc::clone(wal.cache()), locks, hasher, metrics)?;
        core.wal = Some(wal);
        Ok((core, report))
    }

    /// Rebuild a core from an existing (typically file-backed) store by
    /// scanning its pages — the concurrent-file recovery path. Reuses the
    /// sequential recovery scan (see
    /// [`ceh_sequential::SequentialHashFile::recover`]), then installs
    /// the rebuilt layout into the concurrent directory.
    pub fn recover(
        cfg: HashFileConfig,
        store: Arc<PageStore>,
        locks: Arc<LockManager>,
        hasher: fn(Key) -> Pseudokey,
    ) -> Result<Self> {
        Self::recover_with_metrics(cfg, store, locks, hasher, &MetricsHandle::default())
    }

    /// [`FileCore::recover`] with the core's counters registered in
    /// `metrics`' registry.
    pub fn recover_with_metrics(
        cfg: HashFileConfig,
        store: Arc<PageStore>,
        locks: Arc<LockManager>,
        hasher: fn(Key) -> Pseudokey,
        metrics: &MetricsHandle,
    ) -> Result<Self> {
        let recovered =
            ceh_sequential::SequentialHashFile::recover(cfg.clone(), Arc::clone(&store), hasher)?;
        let snap = recovered.snapshot()?;
        let dir = Directory::restore(cfg.max_depth, &snap.entries, snap.depthcount)?;
        let len = recovered.len();
        drop(recovered);
        Ok(FileCore {
            store,
            wal: None,
            locks,
            dir,
            cfg,
            hasher,
            stats: OpStats::with_handle(metrics),
            metrics: metrics.clone(),
            len: TrackedAtomicUsize::new(len, "core.len"),
        })
    }

    /// The directory.
    pub fn dir(&self) -> &Directory {
        &self.dir
    }

    /// The page store (the volatile cache when durable).
    pub fn store(&self) -> &Arc<PageStore> {
        &self.store
    }

    /// The durability layer, when this file is crash-consistent.
    pub fn wal(&self) -> Option<&Arc<DurableStore>> {
        self.wal.as_ref()
    }

    /// Allocate a page — logged when durable (`allocbucket`).
    pub fn alloc_page(&self) -> Result<PageId> {
        match &self.wal {
            Some(w) => w.alloc(),
            None => self.store.alloc(),
        }
    }

    /// Deallocate a page — logged when durable (`deallocbucket`).
    /// Announced to the race detector as a plain write of the page's
    /// allocation (see [`shadow::page_dealloc`]).
    #[track_caller]
    pub fn dealloc_page(&self, page: PageId) -> Result<()> {
        shadow::page_dealloc(page.0);
        match &self.wal {
            Some(w) => w.dealloc(page),
            None => self.store.dealloc(page),
        }
    }

    /// Open a logged transaction bracketing a multi-page restructuring
    /// (split, merge, GC). A no-op guard in volatile mode, so callers
    /// bracket unconditionally; see [`DurableTxn`].
    pub fn begin_txn(&self) -> Result<DurableTxn> {
        match &self.wal {
            Some(w) => w.begin_txn(),
            None => Ok(DurableTxn::noop()),
        }
    }

    /// The lock manager.
    pub fn locks(&self) -> &Arc<LockManager> {
        &self.locks
    }

    /// The configuration.
    pub fn config(&self) -> &HashFileConfig {
        &self.cfg
    }

    /// Operation counters.
    pub fn stats(&self) -> &OpStats {
        &self.stats
    }

    /// The metrics handle this core (and, when built via
    /// [`FileCore::new`] or the `_metrics` constructors with a shared
    /// handle, its store and lock manager) reports through.
    pub fn metrics(&self) -> MetricsHandle {
        self.metrics.clone()
    }

    /// Open a `core.<event>` span under the calling thread's ambient
    /// [`ceh_obs::TraceCtx`] (a fresh trace root when standalone; the
    /// distributed envelope's context when a slave installed one).
    /// No-op returning the sentinel while the tracer is disabled.
    #[inline]
    pub(crate) fn trace_begin(&self, event: &'static str, a: u64, b: u64) -> ceh_obs::TraceCtx {
        self.metrics
            .trace_begin(ceh_obs::TraceCtx::current(), "core", event, a, b)
    }

    /// Close a span opened by [`FileCore::trace_begin`].
    #[inline]
    pub(crate) fn trace_end(&self, ctx: ceh_obs::TraceCtx, event: &'static str, a: u64, b: u64) {
        self.metrics.trace_end(ctx, "core", event, a, b);
    }

    /// Open an operation span (`core.find` / `core.insert` /
    /// `core.delete`) and install it as the thread's ambient context,
    /// so lock waits and structural child spans nest beneath it. The
    /// span closes when the guard drops — on every return path,
    /// including errors. While the tracer is disabled the only cost is
    /// one relaxed atomic load.
    #[inline]
    pub(crate) fn op_span(&self, event: &'static str, a: u64) -> OpSpan<'_> {
        if !self.metrics.tracer().is_enabled() {
            return OpSpan {
                core: self,
                ctx: ceh_obs::TraceCtx::NONE,
                event,
                _scope: None,
            };
        }
        let ctx = self
            .metrics
            .trace_begin(ceh_obs::TraceCtx::current(), "core", event, a, 0);
        OpSpan {
            core: self,
            ctx,
            event,
            _scope: Some(ctx.scope()),
        }
    }

    /// Record an operation's invoke edge in the shared history log
    /// (no-op — one relaxed load — unless the log is enabled; see
    /// [`ceh_obs::HistoryLog`]).
    #[inline]
    pub(crate) fn hist_invoke(
        &self,
        kind: ceh_obs::HistKind,
        key: Key,
        value: u64,
    ) -> ceh_obs::HistToken {
        self.metrics.history().invoke(kind, key.0, value)
    }

    /// Record an operation's return edge (pair of [`FileCore::hist_invoke`]).
    #[inline]
    pub(crate) fn hist_ret(&self, token: ceh_obs::HistToken, result: ceh_obs::HistResult) {
        self.metrics.history().ret(token, result);
    }

    /// The pseudokey function in use.
    pub fn hasher(&self) -> fn(Key) -> Pseudokey {
        self.hasher
    }

    /// Record count (exact at quiescence).
    pub fn len(&self) -> usize {
        // ceh-lint: allow(relaxed-ordering) — statistics counter, exact only at quiescence
        self.len.load(Ordering::Relaxed)
    }

    /// Is the file empty (quiescent)?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub(crate) fn len_inc(&self) {
        self.len.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn len_dec(&self) {
        self.len.fetch_sub(1, Ordering::Relaxed);
    }

    /// Fresh page buffer.
    pub fn new_buf(&self) -> PageBuf {
        PageBuf::zeroed(self.store.page_size())
    }

    /// `getbucket(page, buffer)`: read and decode. Announced to the race
    /// detector as a page-granular acquire read (the page store
    /// serializes the physical I/O; the ρ/α protocol is what keeps the
    /// *contents* coherent, and that is what the shadow access models).
    #[track_caller]
    pub fn getbucket(&self, page: PageId, buf: &mut PageBuf) -> Result<Bucket> {
        shadow::page_read(page.0);
        self.store.read(page, buf)?;
        Bucket::decode(buf)
    }

    /// `putbucket(page, buffer)`: encode and write — through the WAL
    /// when durable (redo record first, then the cache). Announced to
    /// the race detector as a page-granular release write.
    #[track_caller]
    pub fn putbucket(&self, page: PageId, bucket: &Bucket, buf: &mut PageBuf) -> Result<()> {
        bucket.encode(buf)?;
        shadow::page_write(page.0);
        match &self.wal {
            Some(w) => w.write(page, buf),
            None => self.store.write(page, buf),
        }
    }

    /// Lock-manager shorthands keeping the transliterations readable:
    /// `rho_lock(owner, LockId::Directory)` reads like the figure's
    /// `RhoLock (directory)`.
    #[inline]
    // ceh-lint: allow(unpaired-lock) — delegating shorthand; pairing is the caller's obligation
    pub(crate) fn rho_lock(&self, o: OwnerId, id: LockId) {
        self.locks.lock(o, id, LockMode::Rho);
    }

    #[inline]
    pub(crate) fn un_rho_lock(&self, o: OwnerId, id: LockId) {
        self.locks.unlock(o, id, LockMode::Rho);
    }

    #[inline]
    // ceh-lint: allow(unpaired-lock) — delegating shorthand; pairing is the caller's obligation
    pub(crate) fn alpha_lock(&self, o: OwnerId, id: LockId) {
        self.locks.lock(o, id, LockMode::Alpha);
    }

    #[inline]
    pub(crate) fn un_alpha_lock(&self, o: OwnerId, id: LockId) {
        self.locks.unlock(o, id, LockMode::Alpha);
    }

    #[inline]
    // ceh-lint: allow(unpaired-lock) — delegating shorthand; pairing is the caller's obligation
    pub(crate) fn xi_lock(&self, o: OwnerId, id: LockId) {
        self.locks.lock(o, id, LockMode::Xi);
    }

    #[inline]
    pub(crate) fn un_xi_lock(&self, o: OwnerId, id: LockId) {
        self.locks.unlock(o, id, LockMode::Xi);
    }

    /// The find of both solutions ("The procedure for the find operation
    /// is the same as before", §2.4): first the unlocked probe of
    /// [`FileCore::find_optimistic`], and when that cannot vouch for its
    /// answer, the algorithm of Figure 5. With `hold_directory` set, runs
    /// only the "more pessimistic approach" §2.2 mentions and rejects —
    /// the reader keeps its ρ-lock on the directory until it holds the
    /// right bucket — which is the A1 ablation baseline.
    pub(crate) fn find_impl(&self, key: Key, hold_directory: bool) -> Result<Option<Value>> {
        let _op = self.op_span("find", key.0);
        let pk = (self.hasher)(key);
        if !hold_directory {
            if let Some(found) = self.find_optimistic(key, pk) {
                self.stats.finds_optimistic();
                match found {
                    Some(_) => self.stats.finds_hit(),
                    None => self.stats.finds_miss(),
                }
                return Ok(found);
            }
        }

        let owner = self.locks.new_owner();
        let mut buf = self.new_buf();

        self.rho_lock(owner, LockId::Directory);
        let (_depth, mut oldpage) = self.dir.lookup(pk);
        self.rho_lock(owner, LockId::Page(oldpage));
        if !hold_directory {
            self.un_rho_lock(owner, LockId::Directory);
        }
        let mut current = self.getbucket(oldpage, &mut buf)?;
        let mut recovered = false;
        let mut recovery = ceh_obs::TraceCtx::NONE;
        let mut hops = 0u64;
        while !current.owns(pk) {
            /* WRONG BUCKET */
            if !recovered {
                recovery = self.trace_begin("find.recover", oldpage.0, 0);
            }
            recovered = true;
            hops += 1;
            self.stats.chain_hops();
            let newpage = current.next;
            if newpage.is_null() {
                // Structurally impossible under the protocols; if it
                // happens the structure is corrupt and silence would be
                // worse than an error.
                self.un_rho_lock(owner, LockId::Page(oldpage));
                if hold_directory {
                    self.un_rho_lock(owner, LockId::Directory);
                }
                return Err(Error::Corrupt(format!(
                    "find({key:?}): wrong bucket {oldpage} has no next link"
                )));
            }
            self.rho_lock(owner, LockId::Page(newpage));
            current = self.getbucket(newpage, &mut buf)?;
            self.un_rho_lock(owner, LockId::Page(oldpage));
            oldpage = newpage;
        }
        if recovered {
            self.stats.wrong_bucket_recoveries();
            self.trace_end(recovery, "find.recover", oldpage.0, hops);
        }
        if hold_directory {
            self.un_rho_lock(owner, LockId::Directory);
        }
        let found = current.search(key);
        self.un_rho_lock(owner, LockId::Page(oldpage));
        self.stats.find_fallbacks();
        match found {
            Some(_) => self.stats.finds_hit(),
            None => self.stats.finds_miss(),
        }
        Ok(found)
    }

    /// The unlocked, zero-copy find: snapshot the directory's ξ-epoch,
    /// look the pseudokey up, snapshot the page's ξ-epoch, probe the
    /// page's bytes in place, then validate the page and the directory.
    ///
    /// ρ conflicts only with ξ (§2.1): inserters and plain deleters
    /// rewrite pages under α while ρ readers look on. So a read that no
    /// ξ holder overlapped — on the directory from lookup to the end, on
    /// the page across the probe — saw a state that a reader holding
    /// both ρ-locks could have seen. Returns `None` (take the locked
    /// path) on an active or changed epoch, an unallocated or
    /// unreadable page, or a wrong bucket: the `next` walk stays with
    /// the locked path.
    #[inline]
    fn find_optimistic(&self, key: Key, pk: Pseudokey) -> Option<Option<Value>> {
        let dir_epoch = self.locks.xi_epoch(LockId::Directory)?;
        let (_depth, page) = self.dir.lookup(pk);
        let page_epoch = self.locks.xi_epoch(LockId::Page(page))?;
        // Dropped without a commit on every early return: the read is
        // discarded, so the race detector discards it too.
        let spec = shadow::speculate();
        shadow::page_alloc_read_speculative(page.0);
        shadow::page_read(page.0);
        let probe = |bytes: &[u8]| ceh_types::bucket::probe(bytes, key, pk);
        #[cfg(not(feature = "check-inject"))]
        let probed = self.store.read_in_place(page, probe)?;
        // check-inject: trust whatever the slot holds, freed or not.
        #[cfg(feature = "check-inject")]
        let probed = self.store.read_in_place_unchecked(page, probe)?;
        let found = match probed {
            Ok(Probe::Hit(v)) => Some(v),
            Ok(Probe::Miss) => None,
            Ok(Probe::WrongBucket(_)) | Err(_) => return None,
        };
        // check-inject: skip both validations.
        let valid = cfg!(feature = "check-inject")
            || (self.locks.xi_validate(LockId::Page(page), page_epoch)
                && self.locks.xi_validate(LockId::Directory, dir_epoch));
        if !valid {
            return None;
        }
        spec.commit();
        Some(found)
    }
}

/// Guard for one operation's `core.*` span: closes the span and
/// restores the previous ambient context when dropped (see
/// [`FileCore::op_span`]).
pub(crate) struct OpSpan<'a> {
    core: &'a FileCore,
    ctx: ceh_obs::TraceCtx,
    event: &'static str,
    _scope: Option<ceh_obs::CtxScope>,
}

impl Drop for OpSpan<'_> {
    fn drop(&mut self) {
        self.core
            .metrics
            .trace_end(self.ctx, "core", self.event, 0, 0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn core_initializes_with_one_empty_bucket() {
        let core = FileCore::new(HashFileConfig::tiny()).unwrap();
        assert_eq!(core.dir().depth(), 0);
        assert_eq!(core.dir().depthcount(), 1);
        assert!(core.is_empty());
        let mut buf = core.new_buf();
        let root = core.dir().index(0);
        let b = core.getbucket(root, &mut buf).unwrap();
        assert_eq!(b.localdepth, 0);
        assert_eq!(b.count(), 0);
    }

    #[test]
    fn find_on_empty_file_misses() {
        let core = FileCore::new(HashFileConfig::tiny()).unwrap();
        assert_eq!(core.find_impl(Key(42), false).unwrap(), None);
        assert_eq!(core.find_impl(Key(42), true).unwrap(), None);
        let s = core.stats().snapshot();
        assert_eq!(s.finds_miss, 2);
        assert_eq!(core.locks().total_granted(), 0, "find released everything");
    }

    #[test]
    fn rejects_capacity_beyond_page() {
        let store = PageStore::new_shared(PageStoreConfig {
            page_size: 128,
            ..Default::default()
        });
        let locks = Arc::new(LockManager::default());
        let cfg = HashFileConfig::tiny().with_bucket_capacity(1000);
        assert!(FileCore::with_parts(cfg, store, locks, hash_key).is_err());
    }
}
