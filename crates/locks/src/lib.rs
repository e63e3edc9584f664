//! # ceh-locks — ρ/α/ξ locking
//!
//! The paper's concurrency control rests on three lock modes placed "on the
//! directory (as a whole) and on individual buckets" (§2.1):
//!
//! | request ↓ \ existing → | ρ | α | ξ |
//! |---|---|---|---|
//! | **ρ** (read-lock)      | yes | yes | no |
//! | **α** (selective lock) | yes | no  | no |
//! | **ξ** (exclusive lock) | no  | no  | no |
//!
//! The α ("selective") mode is the interesting one: it admits concurrent
//! readers but excludes other updaters — it is what lets inserters run
//! under readers in both solutions.
//!
//! [`LockManager`] implements:
//!
//! * **lock words**: every lockable object has one `u64` holding its ρ
//!   count, α bit, ξ bit, a waiters bit and its ξ generation. An
//!   uncontended grant or release is one atomic read-modify-write on
//!   that word; page words sit in a lazily allocated, direct-indexed
//!   table (page ids below [`LockManager::MAX_PAGES`]);
//! * a **parking table** for requests that must wait: per-resource FIFO
//!   queues in power-of-two mutex+condvar stripes. A queued request sets
//!   its resource's waiters bit, which sends every newcomer to the queue
//!   too;
//! * an **owner ledger**: which owner holds what, sharded by owner, for
//!   reentrancy, conversions, [`LockManager::release_all`],
//!   [`LockManager::held`] and the deadlock detector;
//! * **fair FIFO granting "subject to the compatibility relationship"**
//!   (the fairness assumption of §2.3): a request is granted only when it
//!   is compatible with every granted lock *and* every earlier waiter, so
//!   a stream of readers cannot starve a waiting ξ;
//! * **conversion-style requests**: an owner that already holds a lock on
//!   a resource (Figure 8's inserter holds ρ on the directory and then
//!   requests α on it) bypasses the waiting queue and is checked against
//!   granted locks only — precisely the reasoning of §2.5 ("a process
//!   requesting an α-lock on the directory already holds a ρ-lock on it
//!   (essentially doing lock conversion) … The lock cannot be a ξ-lock
//!   because of the existing ρ-lock"). Queuing a conversion behind a
//!   waiting ξ would deadlock; bypassing is both safe and faithful;
//! * **reentrancy**: the same owner may acquire the same (resource, mode)
//!   multiple times; counts nest;
//! * **ξ-epochs** ([`LockManager::xi_epoch`], [`LockManager::xi_validate`]):
//!   the ξ bit and generation of each page's word (the directory's live
//!   on a cache line of their own), bumped at every ξ grant and final ξ
//!   release. ρ conflicts only with ξ, so a reader that validates an
//!   unchanged, quiescent epoch around an unlocked read saw what a ρ
//!   holder could have seen — the find fast path of `ceh-core`;
//! * **statistics** ([`LockStats`]) — grants, waits, wait time by mode —
//!   consumed by the benchmark harness;
//! * **wait-point hooks** ([`WaitHook`]): the acquire/block/release seam
//!   `ceh-check`'s deterministic schedule explorer plugs a cooperative
//!   scheduler into (one relaxed atomic load when unused);
//! * a **waits-for deadlock detector** ([`LockManager::detect_deadlock`]),
//!   armed by the stress tests to check the §2.3/§2.5 deadlock-freedom
//!   arguments empirically, with an optional watchdog that panics with the
//!   cycle when a wait exceeds a configured bound;
//! * **shadow-access instrumentation** ([`shadow`]): `Tracked`/
//!   `TrackedAtomic*` wrappers and a process-global [`shadow::ShadowSink`]
//!   seam that `ceh check race`'s happens-before detector observes shared
//!   accesses through (compiled away unless the `check-race` feature is
//!   on), plus the seqlock [`VersionWord`] primitive the detector gates.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod guard;
mod hook;
mod ledger;
mod manager;
mod mode;
mod parking;
pub mod shadow;
mod stats;
mod version;
mod word;

pub use guard::LockGuard;
pub use hook::WaitHook;
pub use manager::{LockManager, LockManagerConfig, OwnerId};
pub use mode::{compatible, LockId, LockMode};
pub use stats::{lock_trace_target, LockStats, LockStatsSnapshot};
pub use version::VersionWord;
