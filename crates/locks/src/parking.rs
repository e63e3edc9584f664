//! The parking table: per-resource FIFO queues for requests that must
//! wait, in a power-of-two array of mutex+condvar stripes.
//!
//! Only the slow path comes here. A resource's queue lives in the
//! stripe its id maps to; the stripe mutex guards the queue and is held
//! whenever the resource's waiters bit is set or cleared, and a releaser
//! that saw the bit notifies the stripe's condvar. Resources sharing a
//! stripe share a mutex and a condvar, never a queue: a wake-up for one
//! is a spurious re-check for the other.

use parking_lot::{Condvar, Mutex, MutexGuard};

use crate::manager::OwnerId;
use crate::mode::{compatible, LockId, LockMode};

/// Parking stripes (a power of two).
const STRIPES: usize = 64;

/// A queued request.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Waiter {
    pub(crate) owner: OwnerId,
    pub(crate) mode: LockMode,
    pub(crate) ticket: u64,
}

/// The queued requests on one resource.
#[derive(Debug)]
pub(crate) struct Queue {
    pub(crate) id: LockId,
    /// Conversion requests: the owner already holds some lock on the
    /// resource. Checked against grants and earlier conversions only —
    /// never queued behind ordinary waiters (§2.5).
    pub(crate) conversions: Vec<Waiter>,
    /// Ordinary requests, FIFO by ticket.
    pub(crate) waiting: Vec<Waiter>,
}

impl Queue {
    /// Does the queue let `(owner, mode)` — a conversion or not, with
    /// `ticket` — be granted now, given it is compatible with the
    /// resource's grants? FIFO "subject to the compatibility
    /// relationship" (§2.3): an ordinary request also yields to every
    /// pending conversion and every earlier ordinary waiter it conflicts
    /// with, so a stream of readers cannot starve a queued ξ.
    pub(crate) fn admits(
        &self,
        owner: OwnerId,
        mode: LockMode,
        is_conversion: bool,
        ticket: u64,
    ) -> bool {
        let blocks = |w: &Waiter| w.owner != owner && !compatible(mode, w.mode);
        if self
            .conversions
            .iter()
            .any(|c| c.ticket < ticket && blocks(c))
        {
            return false;
        }
        if is_conversion {
            return true;
        }
        !self.conversions.iter().any(blocks)
            && !self.waiting.iter().any(|w| w.ticket < ticket && blocks(w))
    }

    fn is_empty(&self) -> bool {
        self.conversions.is_empty() && self.waiting.is_empty()
    }
}

/// The queues of one stripe's resources.
#[derive(Debug, Default)]
pub(crate) struct Queues(Vec<Queue>);

impl Queues {
    pub(crate) fn get(&self, id: LockId) -> Option<&Queue> {
        self.0.iter().find(|q| q.id == id)
    }

    pub(crate) fn iter(&self) -> impl Iterator<Item = &Queue> {
        self.0.iter()
    }

    /// Queue `w` on `id`.
    pub(crate) fn push(&mut self, id: LockId, w: Waiter, is_conversion: bool) {
        let q = match self.0.iter().position(|q| q.id == id) {
            Some(i) => &mut self.0[i],
            None => {
                self.0.push(Queue {
                    id,
                    conversions: Vec::new(),
                    waiting: Vec::new(),
                });
                self.0.last_mut().expect("just pushed")
            }
        };
        if is_conversion {
            q.conversions.push(w);
        } else {
            q.waiting.push(w);
        }
    }

    /// Remove the waiter with `ticket` from `id`'s queue, dropping the
    /// queue once it is empty.
    pub(crate) fn remove(&mut self, id: LockId, ticket: u64) {
        let i = self
            .0
            .iter()
            .position(|q| q.id == id)
            .expect("queued resource has a queue");
        let q = &mut self.0[i];
        for list in [&mut q.conversions, &mut q.waiting] {
            if let Some(pos) = list.iter().position(|w| w.ticket == ticket) {
                list.remove(pos);
            }
        }
        if q.is_empty() {
            self.0.swap_remove(i);
        }
    }
}

#[repr(align(64))]
pub(crate) struct Stripe {
    pub(crate) queues: Mutex<Queues>,
    pub(crate) cv: Condvar,
}

pub(crate) struct Parking {
    stripes: Box<[Stripe]>,
}

impl Parking {
    pub(crate) fn new() -> Self {
        Parking {
            stripes: (0..STRIPES)
                .map(|_| Stripe {
                    queues: Mutex::new(Queues::default()),
                    cv: Condvar::new(),
                })
                .collect(),
        }
    }

    /// The stripe `id`'s queue lives in.
    #[inline]
    pub(crate) fn stripe(&self, id: LockId) -> &Stripe {
        let i = match id {
            LockId::Directory => 0,
            LockId::Page(p) => (p.0 as usize).wrapping_add(1),
        };
        &self.stripes[i & (STRIPES - 1)]
    }

    /// Wake every waiter parked on `id`'s stripe to re-check.
    pub(crate) fn notify(&self, id: LockId) {
        let s = self.stripe(id);
        // Taking the mutex orders this notify after any waiter that set
        // the waiters bit has gone to sleep (it holds the mutex from
        // setting the bit until the condvar releases it).
        drop(s.queues.lock());
        s.cv.notify_all();
    }

    /// Every stripe, locked in index order.
    pub(crate) fn lock_all(&self) -> Vec<MutexGuard<'_, Queues>> {
        self.stripes.iter().map(|s| s.queues.lock()).collect()
    }
}
