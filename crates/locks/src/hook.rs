//! Wait-point hooks: the seam a deterministic scheduler plugs into.
//!
//! `ceh-check`'s schedule explorer needs to control *exactly* when each
//! virtual thread acquires, blocks on, and releases a lock. Rather than
//! fork the lock manager, the manager exposes its three scheduling-relevant
//! points as a [`WaitHook`]:
//!
//! * **`at_acquire`** — fired before an acquisition attempt is evaluated
//!   (the thread is *about to* lock). A scheduler may suspend the caller
//!   here to explore a different interleaving.
//! * **`at_block`** — fired, with no manager-internal mutex held, each time a
//!   queued request finds itself ungrantable. The manager re-checks
//!   grantability when the call returns, so a hook that parks the calling
//!   thread until "something changed" replaces the internal condvar wait
//!   entirely: the manager never sleeps on its own while a hook is
//!   installed and the wait loop becomes deterministic.
//! * **`at_granted`** — fired after an acquisition has actually been
//!   granted (immediate, reentrant, conversion, or at the end of a wait);
//!   like `at_acquire` and `at_release` it fires on the lock-word fast
//!   path too, while `at_block` fires only on the slow path.
//!   The happens-before race detector records its lock-acquire edge here:
//!   `at_acquire` fires *before* the grant decision, which is too early —
//!   the edge must join the clocks of releases that happened while the
//!   request waited.
//! * **`at_release`** — fired after a release has been applied (waiters on
//!   the resource are now eligible).
//! * **`at_optimistic`** — fired just after an unlocked reader snapshots
//!   a ξ-epoch ([`crate::LockManager::xi_epoch`]) and just before it
//!   validates one ([`crate::LockManager::xi_validate`]). Unlocked reads
//!   take no lock, so without this point a scheduler could not run a
//!   writer between a find's snapshot, its read and its validation.
//!
//! A hook is per-manager and must be cheap to consult: the fast path is
//! one relaxed atomic load when no hook is installed. All callbacks run
//! with **no** manager-internal mutex held, so a hook may block the
//! calling thread for as long as it likes; it must not call back into the
//! same `LockManager`.

use crate::mode::{LockId, LockMode};
use crate::OwnerId;

/// Observer/controller of the lock manager's wait points. See module docs.
///
/// All methods default to no-ops so a hook may override only the points
/// it cares about.
pub trait WaitHook: Send + Sync {
    /// An acquisition of `mode` on `id` for `owner` is about to be
    /// evaluated (called before any grant decision, including reentrant
    /// and `try_lock` acquisitions).
    fn at_acquire(&self, owner: OwnerId, id: LockId, mode: LockMode) {
        let _ = (owner, id, mode);
    }

    /// The queued request (`owner`, `mode` on `id`) is not currently
    /// grantable. Called with no manager-internal mutex held; when this returns
    /// the manager re-checks grantability. A scheduler should park the
    /// calling thread here until another thread has released a lock.
    fn at_block(&self, owner: OwnerId, id: LockId, mode: LockMode) {
        let _ = (owner, id, mode);
    }

    /// The acquisition of `mode` on `id` by `owner` has been granted
    /// (including reentrant nesting and successful `try_lock`s). Called
    /// with no manager-internal mutex held. Under a serializing hook (the
    /// schedule explorer) every release that made the grant possible has
    /// already fired its [`WaitHook::at_release`] — the ordering the
    /// race detector's lock edges rely on.
    fn at_granted(&self, owner: OwnerId, id: LockId, mode: LockMode) {
        let _ = (owner, id, mode);
    }

    /// A release of `mode` on `id` by `owner` has been applied and any
    /// waiters on the resource are eligible to be re-checked.
    fn at_release(&self, owner: OwnerId, id: LockId, mode: LockMode) {
        let _ = (owner, id, mode);
    }

    /// An unlocked reader has just snapshotted, or is about to validate,
    /// the ξ-epoch of `id`. Called with no manager-internal mutex held; a
    /// scheduler may suspend the caller here like at
    /// [`WaitHook::at_acquire`].
    fn at_optimistic(&self, id: LockId) {
        let _ = id;
    }
}
