//! Shadow-access seam: instrumentation wrappers the happens-before race
//! detector observes shared-memory accesses through.
//!
//! The schedule explorer in `ceh-check` serializes threads at lock-manager
//! wait points, which proves linearizability but says nothing about *data
//! races*: two accesses to the same location, at least one a write, with no
//! happens-before edge between them. ROADMAP item 1 (optimistic seqlock
//! readers) replaces ρ locks with raw atomics, so the verifier needs to see
//! individual shared accesses, not just lock operations. This module is
//! that seam:
//!
//! * [`Tracked<T>`] — a shared word the detector models as **plain**
//!   (non-atomic) data. Physically it is a relaxed atomic, so racy test
//!   programs stay UB-free, but the detector treats every `get`/`set` as
//!   an unsynchronized access and reports any pair not ordered by
//!   happens-before. This is the wrapper seqlock payloads go through.
//! * [`TrackedAtomicU32`]/[`TrackedAtomicU64`]/[`TrackedAtomicUsize`] —
//!   drop-in atomic wrappers. The detector never reports races *between*
//!   atomics; instead it extracts synchronization edges from their
//!   orderings: a `Release` store publishes the writer's vector clock to
//!   the location, an `Acquire` load joins it. A `Relaxed` store creates
//!   **no** edge — which is exactly how a missing `Release` is caught.
//! * [`page_read`]/[`page_write`] — whole-bucket-page accesses. The page
//!   store serializes page-granular reads/writes internally, so they are
//!   modeled as acquire/release atomic accesses on a per-page location.
//! * [`speculate`] — a validated-speculative-read scope for seqlock-style
//!   readers: reads inside the scope are buffered, not checked; on
//!   [`Speculation::commit`] (after the version validates) the detector
//!   checks that each read's last writer happens-before the *commit
//!   point* — the validating `Acquire` load supplies that edge in a
//!   correct seqlock. On [`Speculation::abort`] the reads are discarded
//!   unchecked (the reader threw the values away). **Seam contract:** a
//!   committed speculative read is not recorded as a read, so
//!   write-after-validated-read is deliberately not checked — the seqlock
//!   version word, not happens-before, is what orders those.
//!
//! Everything here is feature-gated on `check-race`: with the feature off
//! there is no sink, no label storage, and every access compiles down to
//! the bare atomic operation.

use std::sync::atomic::{AtomicU32, AtomicU64, AtomicUsize, Ordering};

#[cfg(feature = "check-race")]
use std::sync::atomic::AtomicBool;
#[cfg(feature = "check-race")]
use std::sync::Arc;

/// Identifies one shadowed memory location for the duration of a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ShadowLoc {
    /// A tracked word, identified by its address (stable while the run's
    /// data structures are alive).
    Addr(usize),
    /// A whole bucket page behind the page store.
    Page(u64),
    /// A page's allocation: written when the page is freed, read by an
    /// unlocked reader that relies on it still being allocated.
    PageAlloc(u64),
}

/// What kind of access a [`ShadowAccess`] records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessKind {
    /// Plain (non-atomic) read — race-checked.
    Read,
    /// Plain (non-atomic) write — race-checked.
    Write,
    /// Atomic load — never races; `Acquire` joins the location's clock.
    AtomicLoad,
    /// Atomic store — never races; `Release` publishes the thread's clock.
    AtomicStore,
    /// Atomic read-modify-write — never races; edges per its ordering.
    AtomicRmw,
}

/// One shadowed access, as delivered to the [`ShadowSink`].
#[derive(Debug, Clone, Copy)]
pub struct ShadowAccess {
    /// Where.
    pub loc: ShadowLoc,
    /// Human label for the location (`"dir.entry"`, `"seqlock.payload"`).
    pub label: &'static str,
    /// What kind of access.
    pub kind: AccessKind,
    /// True if the access has acquire semantics (`Acquire`/`AcqRel`/`SeqCst`).
    pub acquire: bool,
    /// True if the access has release semantics (`Release`/`AcqRel`/`SeqCst`).
    pub release: bool,
    /// True for a plain read inside a [`speculate`] scope: buffered and
    /// checked at commit time instead of immediately.
    pub speculative: bool,
    /// False for an access made inside [`unscheduled`] (a lock-manager
    /// critical section): a scheduler must not park the thread there,
    /// since every other thread's next lock call would block on the
    /// mutex it holds.
    pub schedulable: bool,
    /// Source location of the access (via `#[track_caller]`).
    pub site: &'static std::panic::Location<'static>,
}

/// Consumer of shadowed accesses — implemented by `ceh-check`'s race
/// detector. Installed process-globally with [`set_shadow_sink`]; calls
/// arrive on whatever thread performed the access.
#[cfg(feature = "check-race")]
pub trait ShadowSink: Send + Sync {
    /// An access happened (called *before* the physical operation, with
    /// the calling thread guaranteed to perform it before yielding).
    fn on_access(&self, a: &ShadowAccess);
    /// A speculative-read scope validated; check its buffered reads
    /// against happens-before as of now.
    fn on_spec_commit(&self, site: &'static std::panic::Location<'static>);
    /// A speculative-read scope failed validation; discard its reads.
    fn on_spec_abort(&self);
}

#[cfg(feature = "check-race")]
static SINK_ON: AtomicBool = AtomicBool::new(false);
#[cfg(feature = "check-race")]
static SINK: parking_lot::Mutex<Option<Arc<dyn ShadowSink>>> = parking_lot::Mutex::new(None);

/// Install (or clear) the process-global [`ShadowSink`]. The caller must
/// serialize instrumented runs (the detector holds a global run lock);
/// install while no instrumented accesses are in flight.
#[cfg(feature = "check-race")]
pub fn set_shadow_sink(sink: Option<Arc<dyn ShadowSink>>) {
    let mut slot = SINK.lock();
    SINK_ON.store(sink.is_some(), Ordering::Release);
    *slot = sink;
}

/// The installed sink, if any (fast path: one relaxed load).
#[cfg(feature = "check-race")]
#[inline]
fn sink() -> Option<Arc<dyn ShadowSink>> {
    // A stale `false` skips instrumentation for an access already in
    // flight during install; the run lock forbids that interleaving.
    // ceh-lint: allow(relaxed-ordering) — fast-path flag ordered by the install handshake in set_shadow_sink
    if !SINK_ON.load(Ordering::Relaxed) {
        return None;
    }
    SINK.lock().clone()
}

#[cfg(feature = "check-race")]
#[inline]
fn emit(
    loc: ShadowLoc,
    label: &'static str,
    kind: AccessKind,
    order: Ordering,
    speculative: bool,
    site: &'static std::panic::Location<'static>,
) {
    if let Some(s) = sink() {
        let schedulable = UNSCHEDULED.with(|c| c.get() == 0);
        s.on_access(&ShadowAccess {
            loc,
            label,
            kind,
            acquire: has_acquire(order),
            release: has_release(order),
            speculative,
            schedulable,
            site,
        });
    }
}

#[cfg(feature = "check-race")]
thread_local! {
    /// Nesting depth of [`unscheduled`] scopes on this thread.
    static UNSCHEDULED: std::cell::Cell<u32> = const { std::cell::Cell::new(0) };
}

/// Run `f`, whose shadowed accesses are still observed (their
/// happens-before edges count) but are never schedule points. For
/// accesses made while holding an internal mutex — the lock manager's
/// lock-word updates, made under a ledger or parking-stripe mutex —
/// where parking the thread would deadlock the serialized run.
#[inline]
pub fn unscheduled<R>(f: impl FnOnce() -> R) -> R {
    #[cfg(feature = "check-race")]
    UNSCHEDULED.with(|c| c.set(c.get() + 1));
    let r = f();
    #[cfg(feature = "check-race")]
    UNSCHEDULED.with(|c| c.set(c.get() - 1));
    r
}

/// Does `order` give the access acquire semantics? Classifies the
/// caller's ordering into an HB edge — it does not choose one.
#[cfg(feature = "check-race")]
fn has_acquire(order: Ordering) -> bool {
    use Ordering::{AcqRel, Acquire, SeqCst};
    // ceh-lint: allow(atomics-ordering) — this match IS the classifier for the caller's order
    matches!(order, Acquire | AcqRel | SeqCst)
}

/// Does `order` give the access release semantics?
#[cfg(feature = "check-race")]
fn has_release(order: Ordering) -> bool {
    use Ordering::{AcqRel, Release, SeqCst};
    // ceh-lint: allow(atomics-ordering) — this match IS the classifier for the caller's order
    matches!(order, Release | AcqRel | SeqCst)
}

/// The model order [`Tracked`] passes to [`emit`]: the access is modeled
/// *plain* (no HB edge), and the physical cell's ordering is handled
/// separately by [`TrackedWord`]. A named constant so the lint's
/// relaxed-ordering audit has one justification site instead of three.
#[cfg(feature = "check-race")]
// ceh-lint: allow(relaxed-ordering) — sentinel meaning "modeled plain", not an atomic access
const PLAIN: Ordering = Ordering::Relaxed;

mod sealed {
    pub trait Sealed {}
    impl Sealed for u32 {}
    impl Sealed for u64 {}
    impl Sealed for usize {}
}

/// Word types [`Tracked`] can hold. Sealed; implemented for `u32`,
/// `u64`, and `usize`.
pub trait TrackedWord: Copy + sealed::Sealed {
    /// The physical cell backing the word (an atomic, so racy test
    /// programs stay UB-free even though the access is *modeled* plain).
    #[doc(hidden)]
    type Repr: Sync + Send;
    /// Wrap a value.
    #[doc(hidden)]
    fn new_repr(v: Self) -> Self::Repr;
    /// Physical load.
    #[doc(hidden)]
    fn load_repr(r: &Self::Repr) -> Self;
    /// Physical store.
    #[doc(hidden)]
    fn store_repr(r: &Self::Repr, v: Self);
}

macro_rules! tracked_word {
    ($int:ty, $atomic:ty) => {
        impl TrackedWord for $int {
            type Repr = $atomic;
            fn new_repr(v: Self) -> Self::Repr {
                <$atomic>::new(v)
            }
            fn load_repr(r: &Self::Repr) -> Self {
                // Physically relaxed: the wrapper *models* a plain access
                // and the detector checks the protocol orders it; relaxed
                // on an atomic cell just keeps racy tests UB-free.
                // ceh-lint: allow(relaxed-ordering) — modeled as a plain access; ordering is the race detector's job
                r.load(Ordering::Relaxed)
            }
            fn store_repr(r: &Self::Repr, v: Self) {
                // ceh-lint: allow(relaxed-ordering) — modeled as a plain access; ordering is the race detector's job
                r.store(v, Ordering::Relaxed)
            }
        }
    };
}

tracked_word!(u32, AtomicU32);
tracked_word!(u64, AtomicU64);
tracked_word!(usize, AtomicUsize);

/// A shared word the race detector models as **plain** (unsynchronized)
/// data: every `get`/`set` pair on different threads must be ordered by
/// happens-before or the detector reports a race. Use for data whose
/// safety argument is "the protocol orders it" — seqlock payloads,
/// fields guarded by a version word.
///
/// Zero-cost when `check-race` is off: a relaxed atomic with no label
/// and no sink consultation.
pub struct Tracked<T: TrackedWord> {
    cell: T::Repr,
    #[cfg(feature = "check-race")]
    label: &'static str,
}

impl<T: TrackedWord> Tracked<T> {
    /// A tracked word. `label` names the location in race reports.
    pub fn new(v: T, label: &'static str) -> Self {
        #[cfg(not(feature = "check-race"))]
        let _ = label;
        Tracked {
            cell: T::new_repr(v),
            #[cfg(feature = "check-race")]
            label,
        }
    }

    #[cfg(feature = "check-race")]
    fn loc(&self) -> ShadowLoc {
        ShadowLoc::Addr(self as *const Self as usize)
    }

    /// Read the word (modeled as a plain read).
    #[track_caller]
    pub fn get(&self) -> T {
        #[cfg(feature = "check-race")]
        emit(
            self.loc(),
            self.label,
            AccessKind::Read,
            PLAIN,
            false,
            std::panic::Location::caller(),
        );
        T::load_repr(&self.cell)
    }

    /// Read the word inside a [`speculate`] scope: buffered, race-checked
    /// only if the scope commits.
    #[track_caller]
    pub fn get_speculative(&self) -> T {
        #[cfg(feature = "check-race")]
        emit(
            self.loc(),
            self.label,
            AccessKind::Read,
            PLAIN,
            true,
            std::panic::Location::caller(),
        );
        T::load_repr(&self.cell)
    }

    /// Write the word (modeled as a plain write).
    #[track_caller]
    pub fn set(&self, v: T) {
        #[cfg(feature = "check-race")]
        emit(
            self.loc(),
            self.label,
            AccessKind::Write,
            PLAIN,
            false,
            std::panic::Location::caller(),
        );
        T::store_repr(&self.cell, v)
    }
}

impl<T: TrackedWord + std::fmt::Debug> std::fmt::Debug for Tracked<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Tracked({:?})", T::load_repr(&self.cell))
    }
}

macro_rules! tracked_atomic {
    ($(#[$meta:meta])* $name:ident, $atomic:ty, $int:ty) => {
        $(#[$meta])*
        pub struct $name {
            v: $atomic,
            #[cfg(feature = "check-race")]
            label: &'static str,
        }

        impl $name {
            /// A tracked atomic. `label` names the location in reports.
            pub fn new(v: $int, label: &'static str) -> Self {
                #[cfg(not(feature = "check-race"))]
                let _ = label;
                $name {
                    v: <$atomic>::new(v),
                    #[cfg(feature = "check-race")]
                    label,
                }
            }

            #[cfg(feature = "check-race")]
            fn loc(&self) -> ShadowLoc {
                ShadowLoc::Addr(self as *const Self as usize)
            }

            /// Atomic load; `Acquire` joins the location's release clock.
            #[track_caller]
            #[inline]
            pub fn load(&self, order: Ordering) -> $int {
                #[cfg(feature = "check-race")]
                emit(
                    self.loc(),
                    self.label,
                    AccessKind::AtomicLoad,
                    order,
                    false,
                    std::panic::Location::caller(),
                );
                self.v.load(order)
            }

            /// Atomic store; `Release` publishes the thread's clock.
            #[track_caller]
            #[inline]
            pub fn store(&self, v: $int, order: Ordering) {
                #[cfg(feature = "check-race")]
                emit(
                    self.loc(),
                    self.label,
                    AccessKind::AtomicStore,
                    order,
                    false,
                    std::panic::Location::caller(),
                );
                self.v.store(v, order)
            }

            /// Atomic add; acquire/release edges per `order`.
            #[track_caller]
            #[inline]
            pub fn fetch_add(&self, v: $int, order: Ordering) -> $int {
                #[cfg(feature = "check-race")]
                emit(
                    self.loc(),
                    self.label,
                    AccessKind::AtomicRmw,
                    order,
                    false,
                    std::panic::Location::caller(),
                );
                self.v.fetch_add(v, order)
            }

            /// Atomic subtract; acquire/release edges per `order`.
            #[track_caller]
            #[inline]
            pub fn fetch_sub(&self, v: $int, order: Ordering) -> $int {
                #[cfg(feature = "check-race")]
                emit(
                    self.loc(),
                    self.label,
                    AccessKind::AtomicRmw,
                    order,
                    false,
                    std::panic::Location::caller(),
                );
                self.v.fetch_sub(v, order)
            }

            /// Atomic bitwise or; acquire/release edges per `order`.
            #[track_caller]
            #[inline]
            pub fn fetch_or(&self, v: $int, order: Ordering) -> $int {
                #[cfg(feature = "check-race")]
                emit(
                    self.loc(),
                    self.label,
                    AccessKind::AtomicRmw,
                    order,
                    false,
                    std::panic::Location::caller(),
                );
                self.v.fetch_or(v, order)
            }

            /// Strong compare-and-exchange. Modeled as a load with
            /// `failure`'s edges (the comparison, made whether or not it
            /// succeeds), followed on success by a read-modify-write with
            /// `success`'s edges — so a failed exchange publishes nothing.
            #[track_caller]
            #[inline]
            pub fn compare_exchange(
                &self,
                current: $int,
                new: $int,
                success: Ordering,
                failure: Ordering,
            ) -> Result<$int, $int> {
                #[cfg(feature = "check-race")]
                let site = std::panic::Location::caller();
                #[cfg(feature = "check-race")]
                emit(self.loc(), self.label, AccessKind::AtomicLoad, failure, false, site);
                let r = self.v.compare_exchange(current, new, success, failure);
                // The exchange has already happened: not a schedule point.
                #[cfg(feature = "check-race")]
                if r.is_ok() {
                    unscheduled(|| {
                        emit(self.loc(), self.label, AccessKind::AtomicRmw, success, false, site)
                    });
                }
                r
            }
        }

        impl std::fmt::Debug for $name {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                // Diagnostic-only peek; not an instrumented access.
                // ceh-lint: allow(relaxed-ordering) — Debug peek, not a protocol access
                write!(f, "{}({})", stringify!($name), self.v.load(Ordering::Relaxed))
            }
        }
    };
}

tracked_atomic!(
    /// `AtomicU32` with shadow-access instrumentation (see module docs).
    TrackedAtomicU32,
    AtomicU32,
    u32
);
tracked_atomic!(
    /// `AtomicU64` with shadow-access instrumentation (see module docs).
    TrackedAtomicU64,
    AtomicU64,
    u64
);
tracked_atomic!(
    /// `AtomicUsize` with shadow-access instrumentation (see module docs).
    TrackedAtomicUsize,
    AtomicUsize,
    usize
);

/// Record a whole-page read from the bucket store. Modeled as an
/// acquire-atomic access on the page's location: the page store
/// serializes page-granular reads and writes internally, so pages cannot
/// race at this granularity (the lock protocol above, not this call, is
/// what keeps their *contents* coherent; the unlocked find additionally
/// records [`page_alloc_read_speculative`]).
#[track_caller]
#[inline]
pub fn page_read(page: u64) {
    #[cfg(not(feature = "check-race"))]
    let _ = page;
    #[cfg(feature = "check-race")]
    emit(
        ShadowLoc::Page(page),
        "bucket.page",
        AccessKind::AtomicLoad,
        Ordering::Acquire,
        false,
        std::panic::Location::caller(),
    );
}

/// Record a whole-page write to the bucket store. Modeled as a
/// release-atomic access; see [`page_read`].
#[track_caller]
#[inline]
pub fn page_write(page: u64) {
    #[cfg(not(feature = "check-race"))]
    let _ = page;
    #[cfg(feature = "check-race")]
    emit(
        ShadowLoc::Page(page),
        "bucket.page",
        AccessKind::AtomicStore,
        Ordering::Release,
        false,
        std::panic::Location::caller(),
    );
}

/// Record a page deallocation: a **plain** write to the page's
/// allocation location. Deallocations happen under ξ on the page, so a
/// ρ-locked reader is always ordered with them by the lock edges; an
/// unlocked reader must be ordered by its validation instead (see
/// [`page_alloc_read_speculative`]).
#[track_caller]
#[inline]
pub fn page_dealloc(page: u64) {
    #[cfg(not(feature = "check-race"))]
    let _ = page;
    #[cfg(feature = "check-race")]
    emit(
        ShadowLoc::PageAlloc(page),
        "bucket.page.alloc",
        AccessKind::Write,
        PLAIN,
        false,
        std::panic::Location::caller(),
    );
}

/// An unlocked reader, inside a [`speculate`] scope, relies on `page`
/// being allocated. Checked at [`Speculation::commit`]: the page's last
/// deallocation must happen-before the commit point, which the
/// validating `Acquire` load of the page's ξ-epoch supplies. A reader
/// that commits a read of a page freed under it without validating is
/// reported as a race with the [`page_dealloc`].
#[track_caller]
#[inline]
pub fn page_alloc_read_speculative(page: u64) {
    #[cfg(not(feature = "check-race"))]
    let _ = page;
    #[cfg(feature = "check-race")]
    emit(
        ShadowLoc::PageAlloc(page),
        "bucket.page.alloc",
        AccessKind::Read,
        PLAIN,
        true,
        std::panic::Location::caller(),
    );
}

/// Open a validated-speculative-read scope (see module docs). Reads made
/// with [`Tracked::get_speculative`] while the scope is open are buffered;
/// [`Speculation::commit`] race-checks them as of the commit point,
/// [`Speculation::abort`] (or dropping the scope) discards them.
pub fn speculate() -> Speculation {
    Speculation {
        #[cfg(feature = "check-race")]
        open: true,
    }
}

/// A speculative-read scope returned by [`speculate`].
#[must_use = "speculative reads are only race-checked if the scope is committed"]
pub struct Speculation {
    #[cfg(feature = "check-race")]
    open: bool,
}

impl Speculation {
    /// The guarded version validated: race-check the buffered reads
    /// against happens-before as of now.
    #[track_caller]
    pub fn commit(mut self) {
        #[cfg(feature = "check-race")]
        {
            self.open = false;
            if let Some(s) = sink() {
                s.on_spec_commit(std::panic::Location::caller());
            }
        }
        let _ = &mut self;
    }

    /// Validation failed: the reads were discarded by the caller, so
    /// discard their shadow records unchecked.
    pub fn abort(mut self) {
        #[cfg(feature = "check-race")]
        {
            self.open = false;
            if let Some(s) = sink() {
                s.on_spec_abort();
            }
        }
        let _ = &mut self;
    }
}

impl Drop for Speculation {
    fn drop(&mut self) {
        #[cfg(feature = "check-race")]
        if self.open {
            self.open = false;
            if let Some(s) = sink() {
                s.on_spec_abort();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tracked_word_roundtrips() {
        let t: Tracked<u64> = Tracked::new(7, "test.word");
        assert_eq!(t.get(), 7);
        t.set(9);
        assert_eq!(t.get(), 9);
        assert_eq!(t.get_speculative(), 9);
        assert_eq!(format!("{t:?}"), "Tracked(9)");
    }

    #[test]
    fn tracked_atomics_mirror_std() {
        let a = TrackedAtomicU32::new(1, "test.u32");
        assert_eq!(a.load(Ordering::Acquire), 1);
        a.store(5, Ordering::Release);
        assert_eq!(a.fetch_add(2, Ordering::Relaxed), 5);
        assert_eq!(a.fetch_sub(3, Ordering::Relaxed), 7);
        assert_eq!(a.load(Ordering::Relaxed), 4);
        let b = TrackedAtomicUsize::new(0, "test.usize");
        b.fetch_add(1, Ordering::Relaxed);
        assert_eq!(b.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn tracked_rmws_mirror_std() {
        let a = TrackedAtomicU64::new(4, "test.u64");
        assert_eq!(a.fetch_or(8, Ordering::AcqRel), 4);
        assert_eq!(
            a.compare_exchange(12, 1, Ordering::AcqRel, Ordering::Acquire),
            Ok(12)
        );
        assert_eq!(
            a.compare_exchange(12, 2, Ordering::AcqRel, Ordering::Acquire),
            Err(1)
        );
    }

    #[test]
    fn speculation_scope_is_inert_without_a_sink() {
        let s = speculate();
        s.commit();
        let s = speculate();
        s.abort();
        let _dropped = speculate(); // abort-on-drop path
    }
}
