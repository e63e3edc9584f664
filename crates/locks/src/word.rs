//! Lock words: one `u64` per lockable object, holding its grants.
//!
//! ```text
//!  63 ............ 23 | 22 | 21 | 20 | 19 ........ 0
//!   ξ generation      |  W |  ξ |  α |  ρ grants
//! ```
//!
//! * **ρ grants** — how many owners hold ρ (an owner's nested ρ counts
//!   once; nesting lives in the owner ledger);
//! * **α**, **ξ** — set while some owner holds that mode (α and ξ are
//!   self-incompatible, so one bit each suffices);
//! * **W** — the resource has queued requests. Set and cleared only
//!   under the resource's parking stripe mutex; while it is set every
//!   new request takes the slow path, so newcomers queue behind waiters;
//! * **ξ generation** — bumped at every ξ grant and every final ξ
//!   release. [`LockManager::xi_epoch`](crate::LockManager::xi_epoch)
//!   compares the ξ bit and the generation only, so ρ and α traffic
//!   never invalidates an unlocked reader's snapshot.
//!
//! Pages keep their generation in their own word. The directory's
//! generation lives in a second word on its own cache line: every
//! updater writes the directory's lock word, every find reads its
//! generation, and sharing a line would put a miss into each find that
//! follows an update.
//!
//! Page words sit in a direct-indexed two-level table of lazily
//! allocated 1 KiB groups of 4 KiB chunks: no hashing, no stripes, so no
//! false conflicts; lookups take no lock; and a manager that locks few
//! pages pays for few chunks.

use std::sync::atomic::Ordering;
use std::sync::OnceLock;

use ceh_types::PageId;

use crate::mode::{LockId, LockMode};
use crate::shadow::TrackedAtomicU64;

/// Width of the ρ-grant count.
const RHO_BITS: u32 = 20;
/// The ρ-grant count.
pub(crate) const RHO_MASK: u64 = (1 << RHO_BITS) - 1;
/// One ρ grant.
pub(crate) const RHO_ONE: u64 = 1;
/// Some owner holds α.
pub(crate) const ALPHA: u64 = 1 << RHO_BITS;
/// Some owner holds ξ.
pub(crate) const XI: u64 = 1 << (RHO_BITS + 1);
/// The resource has queued requests.
pub(crate) const WAITERS: u64 = 1 << (RHO_BITS + 2);
/// One ξ-generation step.
pub(crate) const GEN: u64 = 1 << (RHO_BITS + 3);
/// The bits an epoch snapshot covers: the ξ bit and the generation.
pub(crate) const EPOCH_MASK: u64 = XI | !(GEN - 1);

/// Page words per chunk: 512 × 8 B = one 4 KiB allocation.
const CHUNK_WORDS: usize = 512;
/// Chunk slots per group: 64 × 16 B = one 1 KiB allocation.
const GROUP_CHUNKS: usize = 64;
/// Group slots, inline in the manager: 32 × 16 B.
const GROUPS: usize = 32;
/// Page ids must be below this (2²⁰ pages).
pub(crate) const MAX_PAGES: u64 = (CHUNK_WORDS * GROUP_CHUNKS * GROUPS) as u64;

type Chunk = [TrackedAtomicU64; CHUNK_WORDS];
type Group = [OnceLock<Box<Chunk>>; GROUP_CHUNKS];

/// The modes one owner holds on one resource, as a bit set.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct Modes(u8);

impl Modes {
    fn bit(mode: LockMode) -> u8 {
        match mode {
            LockMode::Rho => 1,
            LockMode::Alpha => 2,
            LockMode::Xi => 4,
        }
    }

    pub(crate) fn with(self, mode: LockMode) -> Modes {
        Modes(self.0 | Self::bit(mode))
    }

    pub(crate) fn has(self, mode: LockMode) -> bool {
        self.0 & Self::bit(mode) != 0
    }

    pub(crate) fn is_empty(self) -> bool {
        self.0 == 0
    }
}

/// May `mode` be granted to an owner holding `own` on a resource whose
/// word is `word`? Compatibility is checked against every *other*
/// owner's grants (§2.1), so the owner's own grants are subtracted:
/// Figure 8's inserter holds ρ and α on the directory at once.
#[inline]
pub(crate) fn compatible_with(word: u64, mode: LockMode, own: Modes) -> bool {
    let others_xi = word & XI != 0 && !own.has(LockMode::Xi);
    let others_alpha = word & ALPHA != 0 && !own.has(LockMode::Alpha);
    let others_rho = (word & RHO_MASK).saturating_sub(own.has(LockMode::Rho) as u64);
    match mode {
        LockMode::Rho => !others_xi,
        LockMode::Alpha => !others_xi && !others_alpha,
        LockMode::Xi => !others_xi && !others_alpha && others_rho == 0,
    }
}

/// `word` with a new grant of `mode` (which the owner does not hold)
/// recorded; a page's ξ grant also bumps its generation.
#[inline]
pub(crate) fn with_grant(word: u64, mode: LockMode, id: LockId) -> u64 {
    match mode {
        LockMode::Rho => {
            assert!(word & RHO_MASK < RHO_MASK, "ρ-grant count overflow on {id}");
            word + RHO_ONE
        }
        LockMode::Alpha => word | ALPHA,
        LockMode::Xi => match id {
            LockId::Directory => word | XI,
            LockId::Page(_) => (word | XI).wrapping_add(GEN),
        },
    }
}

/// The amount a final release of `mode` adds (wrapping) to the word:
/// clears the grant; a page's ξ release also bumps its generation.
#[inline]
fn release_delta(mode: LockMode, id: LockId) -> u64 {
    match (mode, id) {
        (LockMode::Rho, _) => RHO_ONE.wrapping_neg(),
        (LockMode::Alpha, _) => ALPHA.wrapping_neg(),
        (LockMode::Xi, LockId::Directory) => XI.wrapping_neg(),
        (LockMode::Xi, LockId::Page(_)) => GEN - XI,
    }
}

/// A word on a cache line of its own.
#[repr(align(64))]
struct Padded(TrackedAtomicU64);

/// Every lock word of one manager.
pub(crate) struct Words {
    /// The directory's lock word.
    dir: Padded,
    /// The directory's ξ bit and generation (see module docs).
    dir_epoch: Padded,
    /// Page words: groups of chunks of words, each allocated when a
    /// page in it is first locked.
    pages: [OnceLock<Box<Group>>; GROUPS],
}

impl Words {
    pub(crate) fn new() -> Self {
        Words {
            dir: Padded(TrackedAtomicU64::new(0, "locks.word.dir")),
            dir_epoch: Padded(TrackedAtomicU64::new(0, "locks.xi_epoch.dir")),
            pages: std::array::from_fn(|_| OnceLock::new()),
        }
    }

    /// Group, chunk and word index of page `p`; panics past
    /// [`MAX_PAGES`].
    #[inline]
    fn slot(p: PageId) -> (usize, usize, usize) {
        if p.0 >= MAX_PAGES {
            beyond_max(p);
        }
        let i = p.0 as usize;
        let c = i / CHUNK_WORDS;
        (c / GROUP_CHUNKS, c % GROUP_CHUNKS, i % CHUNK_WORDS)
    }

    /// The lock word of `id`, allocating its group and chunk on first
    /// use.
    #[inline]
    pub(crate) fn word(&self, id: LockId) -> &TrackedAtomicU64 {
        match id {
            LockId::Directory => &self.dir.0,
            LockId::Page(p) => {
                let (g, c, i) = Self::slot(p);
                let group = self.pages[g]
                    .get_or_init(|| Box::new(std::array::from_fn(|_| OnceLock::new())));
                &group[c].get_or_init(new_chunk)[i]
            }
        }
    }

    /// The word holding `id`'s ξ bit and generation, or `None` for a
    /// page whose chunk no lock has touched yet (its epoch is 0).
    #[inline]
    fn epoch_word(&self, id: LockId) -> Option<&TrackedAtomicU64> {
        match id {
            LockId::Directory => Some(&self.dir_epoch.0),
            LockId::Page(p) => {
                let (g, c, i) = Self::slot(p);
                let chunk = self.pages[g].get()?[c].get()?;
                Some(&chunk[i])
            }
        }
    }

    /// `id`'s epoch bits (the ξ bit and the generation).
    #[track_caller]
    #[inline]
    pub(crate) fn epoch(&self, id: LockId) -> u64 {
        // Acquire: pairs with the Release of the last final ξ release,
        // so reads that follow see everything that ξ holder wrote.
        self.epoch_word(id)
            .map_or(0, |w| w.load(Ordering::Acquire) & EPOCH_MASK)
    }

    /// A ξ on the directory was granted: open its epoch. Called by the
    /// new holder before it writes anything.
    pub(crate) fn dir_xi_begin(&self) {
        self.dir_epoch.0.fetch_add(GEN + XI, Ordering::AcqRel);
    }

    /// The directory's ξ holder is about to release: close its epoch.
    /// Called after its last write and before the lock word lets
    /// anyone else in, so the epoch word has one writer at a time.
    fn dir_xi_end(&self) {
        self.dir_epoch.0.fetch_add(GEN - XI, Ordering::AcqRel);
    }

    /// Apply a final release of `mode` on `id` to its word; returns the
    /// word as it was before.
    pub(crate) fn release(&self, id: LockId, mode: LockMode) -> u64 {
        if mode == LockMode::Xi && id == LockId::Directory {
            self.dir_xi_end();
        }
        // Release: the next holder's Acquire grant sees this holder's
        // writes; for a page's ξ, so does an unlocked reader's snapshot.
        self.word(id)
            .fetch_add(release_delta(mode, id), Ordering::Release)
    }
}

#[cold]
#[inline(never)]
fn beyond_max(p: PageId) -> ! {
    panic!(
        "lock on page {} beyond the lock manager's maximum page id {}",
        p.0,
        MAX_PAGES - 1
    );
}

fn new_chunk() -> Box<Chunk> {
    Box::new(std::array::from_fn(|_| {
        TrackedAtomicU64::new(0, "locks.word.page")
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use LockMode::*;

    const P: LockId = LockId::Page(PageId(1));

    #[test]
    fn layout_fields_do_not_overlap() {
        assert_eq!(RHO_MASK & (ALPHA | XI | WAITERS | EPOCH_MASK), 0);
        assert_eq!(EPOCH_MASK & (ALPHA | WAITERS), 0);
        assert_eq!(EPOCH_MASK & XI, XI);
    }

    #[test]
    fn grants_and_releases_invert_except_the_generation() {
        for mode in LockMode::ALL {
            let w = with_grant(0, mode, P);
            assert_eq!(w.wrapping_add(release_delta(mode, P)) & !EPOCH_MASK, 0);
        }
        let w = with_grant(0, Xi, P);
        assert_eq!(w & EPOCH_MASK, XI | GEN);
        assert_eq!(w.wrapping_add(release_delta(Xi, P)), 2 * GEN);
        let d = with_grant(0, Xi, LockId::Directory);
        assert_eq!(d.wrapping_add(release_delta(Xi, LockId::Directory)), 0);
    }

    #[test]
    fn own_grants_are_subtracted() {
        let none = Modes::default();
        let rho = none.with(Rho);
        let w = with_grant(0, Rho, P);
        assert!(!compatible_with(w, Xi, none));
        assert!(compatible_with(w, Xi, rho), "sole ρ holder may convert");
        assert!(compatible_with(w, Alpha, none));
        let w = with_grant(w, Alpha, P);
        assert!(!compatible_with(w, Alpha, rho));
        assert!(compatible_with(w, Xi, rho.with(Alpha)));
        assert!(compatible_with(w, Rho, none));
        let w = with_grant(0, Xi, P);
        for mode in LockMode::ALL {
            assert!(!compatible_with(w, mode, none));
            assert!(compatible_with(w, mode, none.with(Xi)));
        }
    }

    #[test]
    fn chunks_allocate_lazily() {
        let words = Words::new();
        assert_eq!(words.epoch(P), 0);
        assert!(words.epoch_word(P).is_none(), "a read allocates nothing");
        words.word(P);
        assert!(words.epoch_word(P).is_some());
        let far = LockId::Page(PageId(CHUNK_WORDS as u64));
        assert!(words.epoch_word(far).is_none(), "next chunk untouched");
        let farther = LockId::Page(PageId((CHUNK_WORDS * GROUP_CHUNKS) as u64));
        assert!(words.pages[1].get().is_none(), "next group untouched");
        words.word(farther);
        assert!(words.epoch_word(farther).is_some());
    }
}
