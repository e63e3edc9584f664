//! The owner ledger: which locks each owner holds, and how deeply.
//!
//! Lock words record *that* a mode is granted, not to whom. Reentrancy,
//! conversions, `release_all`, `held` and the deadlock detector need the
//! holders, so each grant is also entered here. The ledger is sharded by
//! [`OwnerId`] with one cache-line-padded mutex per shard: an operation
//! touches only its own owner's shard, so two threads running different
//! operations share no ledger line. Shards keep their `Vec` capacity, so
//! after warm-up recording a grant allocates nothing.

use parking_lot::{Mutex, MutexGuard};

use crate::manager::OwnerId;
use crate::mode::{LockId, LockMode};
use crate::word::Modes;

/// Ledger shards (a power of two).
const SHARDS: usize = 64;

/// One owner's grant of one mode on one resource.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Holding {
    pub(crate) owner: OwnerId,
    pub(crate) id: LockId,
    pub(crate) mode: LockMode,
    /// Nesting depth (reentrant acquisitions).
    pub(crate) count: u32,
}

#[repr(align(64))]
struct Shard(Mutex<Vec<Holding>>);

pub(crate) struct Ledger {
    shards: Box<[Shard]>,
}

/// What an owner holds on one resource.
pub(crate) struct Own {
    /// Every mode held.
    pub(crate) modes: Modes,
    /// Index of the holding of the requested mode, if held.
    pub(crate) same: Option<usize>,
}

impl Ledger {
    pub(crate) fn new() -> Self {
        Ledger {
            shards: (0..SHARDS).map(|_| Shard(Mutex::new(Vec::new()))).collect(),
        }
    }

    /// The shard holding `owner`'s grants.
    #[inline]
    pub(crate) fn shard(&self, owner: OwnerId) -> MutexGuard<'_, Vec<Holding>> {
        self.shards[(owner.0 as usize) & (SHARDS - 1)].0.lock()
    }

    /// Every shard, locked in index order (the deadlock detector's
    /// consistent snapshot).
    pub(crate) fn lock_all(&self) -> Vec<MutexGuard<'_, Vec<Holding>>> {
        self.shards.iter().map(|s| s.0.lock()).collect()
    }
}

/// What `owner` holds on `id` in `shard`, and where its `mode` grant is.
#[inline]
pub(crate) fn own(shard: &[Holding], owner: OwnerId, id: LockId, mode: LockMode) -> Own {
    let mut own = Own {
        modes: Modes::default(),
        same: None,
    };
    for (i, h) in shard.iter().enumerate() {
        if h.owner == owner && h.id == id {
            own.modes = own.modes.with(h.mode);
            if h.mode == mode {
                own.same = Some(i);
            }
        }
    }
    own
}
