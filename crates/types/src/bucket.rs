//! The bucket: contents of one disk page.
//!
//! Figure 3 (centralized concurrent) gives a bucket `localdepth`,
//! `commonbits`, `count`, `next`, and the records; Figure 10 (distributed)
//! adds `prev` links, manager ids for `next`/`prev`, and a `version`
//! number. One struct carries all of them — the sequential and centralized
//! solutions simply leave the distributed fields at their sentinels, which
//! keeps a single page codec for the whole workspace.
//!
//! Serialization is a fixed little-endian layout so a bucket is exactly one
//! page (see [`Bucket::capacity_for`]), and decoding is defensive: a page
//! of garbage (e.g. poison bytes from a freed page) fails with
//! [`Error::Corrupt`] rather than yielding a bucket.

use crate::bits::mask;
use crate::error::{Error, Result};
use crate::ids::{ManagerId, PageId};
use crate::key::{Key, Pseudokey, Record, Value};

/// Magic tag at the start of every encoded bucket page.
const MAGIC: u32 = 0xE111_5EC4;

/// Byte size of the encoded bucket header.
pub const BUCKET_HEADER_BYTES: usize = 56;

/// Byte size of one encoded record.
pub const RECORD_BYTES: usize = 16;

/// The `commonbits` sentinel marking a deleted bucket.
///
/// Solution 2 "mark[s] the old partner as 'deleted' (we use the commonbits
/// field for this)" (§2.4). Real commonbits are at most `mask(max_depth)`
/// and `max_depth ≤ 32`, so `u64::MAX` can never be a legitimate value.
pub const DELETED: u64 = u64::MAX;

/// A bucket, as held in a process's private buffer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Bucket {
    /// Number of low pseudokey bits shared by every record here.
    pub localdepth: u32,
    /// The shared low-bit pattern itself (or [`DELETED`]).
    pub commonbits: u64,
    /// Link to the bucket that split off from this one most recently
    /// (Figure 3); the recovery path for concurrent searches.
    pub next: PageId,
    /// Manager owning `next` (distributed only; [`ManagerId::NONE`] otherwise).
    pub next_mgr: ManagerId,
    /// Link to the bucket this one originally split off from (Figure 10);
    /// locates the "0" partner without consulting the directory.
    pub prev: PageId,
    /// Manager owning `prev` (distributed only).
    pub prev_mgr: ManagerId,
    /// Increases with each update that causes a directory update (§3);
    /// orders asynchronous directory-copy updates.
    pub version: u64,
    /// The records; `count` in the paper is `records.len()` here.
    pub records: Vec<Record>,
}

impl Bucket {
    /// An empty bucket with the given identity.
    pub fn new(localdepth: u32, commonbits: u64) -> Self {
        debug_assert_eq!(
            commonbits & !mask(localdepth),
            0,
            "commonbits wider than localdepth"
        );
        Bucket {
            localdepth,
            commonbits,
            next: PageId::NULL,
            next_mgr: ManagerId::NONE,
            prev: PageId::NULL,
            prev_mgr: ManagerId::NONE,
            version: 0,
            records: Vec::new(),
        }
    }

    /// How many records fit in a page of `page_size` bytes.
    pub const fn capacity_for(page_size: usize) -> usize {
        (page_size - BUCKET_HEADER_BYTES) / RECORD_BYTES
    }

    /// The page size needed to hold `capacity` records.
    pub const fn page_size_for(capacity: usize) -> usize {
        BUCKET_HEADER_BYTES + capacity * RECORD_BYTES
    }

    /// Number of records (the paper's `count` field).
    #[inline]
    pub fn count(&self) -> usize {
        self.records.len()
    }

    /// Has this bucket been marked deleted (Solution 2 / distributed)?
    #[inline]
    pub fn is_deleted(&self) -> bool {
        self.commonbits == DELETED
    }

    /// Mark the bucket deleted (§2.4: "we use the commonbits field for
    /// this").
    pub fn mark_deleted(&mut self) {
        self.commonbits = DELETED;
    }

    /// Does `pk` belong in this bucket? The wrong-bucket test:
    /// `(mask(localdepth) & pseudokey) == commonbits`. Always false for a
    /// deleted bucket, which is exactly how Solution 2 routes searches
    /// away from merged buckets and onto their `next` recovery path.
    #[inline]
    pub fn owns(&self, pk: Pseudokey) -> bool {
        !self.is_deleted() && pk.matches(self.commonbits, self.localdepth)
    }

    /// The §2.1 *alternative* wrong-bucket test: instead of storing a
    /// `commonbits` field, "one could reapply the hash function to any
    /// key stored in the bucket and use this for comparison with the
    /// target pseudokey as long as the possibility of an empty bucket is
    /// taken care of". An empty bucket gives no evidence either way; the
    /// conservative answer is "wrong bucket" (forcing a `next` chase),
    /// which is safe because recovery terminates at the right bucket
    /// regardless. The A2 ablation measures what this saves (8 bytes per
    /// bucket) against what it costs (a hash per hop + spurious chases
    /// through empty buckets).
    pub fn owns_by_rehash(&self, pk: Pseudokey, hasher: fn(Key) -> Pseudokey) -> bool {
        if self.is_deleted() {
            return false;
        }
        match self.records.first() {
            Some(r) => {
                let resident = hasher(r.key);
                resident.low_bits(self.localdepth) == pk.low_bits(self.localdepth)
            }
            None => false, // empty bucket: cannot prove ownership
        }
    }

    /// The paper's `search(current, z)`: linear scan for the key.
    pub fn search(&self, key: Key) -> Option<Value> {
        self.records.iter().find(|r| r.key == key).map(|r| r.value)
    }

    /// The paper's `add(current, z)`. Caller checks fullness first, as the
    /// listings do; adding past capacity is a protocol bug, so this only
    /// debug-asserts against a caller-supplied capacity in the codec.
    pub fn add(&mut self, record: Record) {
        debug_assert!(self.search(record.key).is_none(), "add of a present key");
        self.records.push(record);
    }

    /// The paper's `remove(z, current)`: delete by key, reporting whether
    /// anything was removed.
    pub fn remove(&mut self, key: Key) -> bool {
        match self.records.iter().position(|r| r.key == key) {
            Some(i) => {
                self.records.swap_remove(i);
                true
            }
            None => false,
        }
    }

    /// The paper's `split(current, half1, half2, z, newpage)`.
    ///
    /// Distributes this bucket's records between two buckets of
    /// `localdepth + 1` by the new pseudokey bit, threads the `next`
    /// chain — "the next link of the original bucket is reassigned to
    /// point to the newly created bucket. The new bucket gets the
    /// original bucket's old next pointer" (§2.1, Figure 4) — sets the
    /// new half's `prev` to the splitting bucket (Figure 10), and tries
    /// to place the new record in its half. Returns `(half1, half2,
    /// done)`; `done` is false when the record's half had no room (the
    /// caller retries, possibly splitting again: `if (!done) insert(z)`).
    ///
    /// `oldpage`/`old_mgr` identify the splitting bucket (for the new
    /// half's `prev` link); `newpage`/`new_mgr` the freshly allocated one.
    #[allow(clippy::too_many_arguments)]
    pub fn split(
        &self,
        key: Key,
        value: Value,
        capacity: usize,
        hasher: fn(Key) -> Pseudokey,
        oldpage: PageId,
        old_mgr: ManagerId,
        newpage: PageId,
        new_mgr: ManagerId,
    ) -> (Bucket, Bucket, bool) {
        debug_assert!(!self.is_deleted());
        let d = self.localdepth + 1;
        let bit = crate::bits::partner_bit(d);
        let mut half1 = Bucket::new(d, self.commonbits);
        let mut half2 = Bucket::new(d, self.commonbits | bit);
        for r in &self.records {
            if hasher(r.key).0 & bit == 0 {
                half1.records.push(*r);
            } else {
                half2.records.push(*r);
            }
        }
        half1.next = newpage;
        half1.next_mgr = new_mgr;
        half2.next = self.next;
        half2.next_mgr = self.next_mgr;
        half1.prev = self.prev;
        half1.prev_mgr = self.prev_mgr;
        half2.prev = oldpage;
        half2.prev_mgr = old_mgr;
        // "Each bucket contains a version number that increases with each
        // update that causes a directory update" (§3) — a split is one.
        half1.version = self.version + 1;
        half2.version = self.version + 1;

        let pk = hasher(key);
        let target = if pk.0 & bit == 0 {
            &mut half1
        } else {
            &mut half2
        };
        let done = if target.records.len() < capacity {
            target.add(Record { key, value });
            true
        } else {
            false
        };
        (half1, half2, done)
    }

    /// Encode into a page buffer. Fails if the records overflow the page.
    pub fn encode(&self, page: &mut [u8]) -> Result<()> {
        if self.records.len() > Self::capacity_for(page.len()) {
            return Err(Error::Corrupt(format!(
                "bucket with {} records does not fit a {}-byte page",
                self.records.len(),
                page.len()
            )));
        }
        page[0..4].copy_from_slice(&MAGIC.to_le_bytes());
        page[4..8].copy_from_slice(&self.localdepth.to_le_bytes());
        page[8..16].copy_from_slice(&self.commonbits.to_le_bytes());
        page[16..20].copy_from_slice(&(self.records.len() as u32).to_le_bytes());
        page[20..24].copy_from_slice(&self.next_mgr.0.to_le_bytes());
        page[24..32].copy_from_slice(&self.next.0.to_le_bytes());
        page[32..36].copy_from_slice(&self.prev_mgr.0.to_le_bytes());
        page[36..40].copy_from_slice(&0u32.to_le_bytes()); // reserved
        page[40..48].copy_from_slice(&self.prev.0.to_le_bytes());
        page[48..56].copy_from_slice(&self.version.to_le_bytes());
        let mut off = BUCKET_HEADER_BYTES;
        for r in &self.records {
            page[off..off + 8].copy_from_slice(&r.key.0.to_le_bytes());
            page[off + 8..off + 16].copy_from_slice(&r.value.0.to_le_bytes());
            off += RECORD_BYTES;
        }
        Ok(())
    }

    /// Decode from a page buffer, validating the header.
    pub fn decode(page: &[u8]) -> Result<Bucket> {
        let Header {
            localdepth,
            commonbits,
            count,
        } = Header::parse(page)?;
        let next_mgr = ManagerId(u32::from_le_bytes(
            page[20..24].try_into().expect("slice len"),
        ));
        let next = next_link(page);
        let prev_mgr = ManagerId(u32::from_le_bytes(
            page[32..36].try_into().expect("slice len"),
        ));
        let prev = PageId(u64::from_le_bytes(
            page[40..48].try_into().expect("slice len"),
        ));
        let version = u64::from_le_bytes(page[48..56].try_into().expect("slice len"));
        let records = record_bytes(page, count)
            .map(|r| {
                let (key, value) = record_at(r);
                Record { key, value }
            })
            .collect();
        Ok(Bucket {
            localdepth,
            commonbits,
            next,
            next_mgr,
            prev,
            prev_mgr,
            version,
            records,
        })
    }
}

/// The header fields every reader of a page validates.
struct Header {
    localdepth: u32,
    commonbits: u64,
    count: usize,
}

impl Header {
    /// Check the magic and bound `localdepth` and `count`, so a page of
    /// garbage (poison, zeroes, a torn frame) is refused before any
    /// record is read.
    fn parse(page: &[u8]) -> Result<Header> {
        if page.len() < BUCKET_HEADER_BYTES {
            return Err(Error::Corrupt(format!(
                "page of {} bytes is too small",
                page.len()
            )));
        }
        let magic = u32::from_le_bytes(page[0..4].try_into().expect("slice len"));
        if magic != MAGIC {
            return Err(Error::Corrupt(format!("bad magic {magic:#010x}")));
        }
        let localdepth = u32::from_le_bytes(page[4..8].try_into().expect("slice len"));
        let commonbits = u64::from_le_bytes(page[8..16].try_into().expect("slice len"));
        let count = u32::from_le_bytes(page[16..20].try_into().expect("slice len")) as usize;
        if localdepth > 64 {
            return Err(Error::Corrupt(format!(
                "localdepth {localdepth} out of range"
            )));
        }
        if count > Bucket::capacity_for(page.len()) {
            return Err(Error::Corrupt(format!(
                "count {count} exceeds page capacity"
            )));
        }
        Ok(Header {
            localdepth,
            commonbits,
            count,
        })
    }
}

fn next_link(page: &[u8]) -> PageId {
    PageId(u64::from_le_bytes(
        page[24..32].try_into().expect("slice len"),
    ))
}

/// The first `count` encoded records (`count` already bounded by
/// [`Header::parse`]).
fn record_bytes(page: &[u8], count: usize) -> std::slice::ChunksExact<'_, u8> {
    page[BUCKET_HEADER_BYTES..BUCKET_HEADER_BYTES + count * RECORD_BYTES].chunks_exact(RECORD_BYTES)
}

fn record_at(r: &[u8]) -> (Key, Value) {
    let key = u64::from_le_bytes(r[0..8].try_into().expect("slice len"));
    let value = u64::from_le_bytes(r[8..16].try_into().expect("slice len"));
    (Key(key), Value(value))
}

/// What [`probe`] found on an encoded bucket page.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Probe {
    /// The bucket owns the pseudokey and holds the key with this value.
    Hit(Value),
    /// The bucket owns the pseudokey and does not hold the key.
    Miss,
    /// The bucket does not own the pseudokey — it is deleted, or split
    /// since the directory entry was read. The search continues at the
    /// carried `next` link.
    WrongBucket(PageId),
}

/// Search an encoded bucket page for `key` in place: the header checks
/// of [`Bucket::decode`], then the wrong-bucket test of [`Bucket::owns`],
/// then a scan of the records. Allocates nothing and decodes no bucket —
/// the find fast path runs it on the page store's own bytes.
pub fn probe(page: &[u8], key: Key, pk: Pseudokey) -> Result<Probe> {
    let h = Header::parse(page)?;
    if h.commonbits == DELETED || !pk.matches(h.commonbits, h.localdepth) {
        return Ok(Probe::WrongBucket(next_link(page)));
    }
    Ok(record_bytes(page, h.count)
        .map(record_at)
        .find(|&(k, _)| k == key)
        .map_or(Probe::Miss, |(_, v)| Probe::Hit(v)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Bucket {
        let mut b = Bucket::new(3, 0b101);
        b.next = PageId(9);
        b.prev = PageId(4);
        b.next_mgr = ManagerId(2);
        b.prev_mgr = ManagerId(1);
        b.version = 7;
        b.add(Record::new(100, 1));
        b.add(Record::new(200, 2));
        b
    }

    #[test]
    fn encode_decode_roundtrip() {
        let b = sample();
        let mut page = vec![0u8; 256];
        b.encode(&mut page).unwrap();
        assert_eq!(Bucket::decode(&page).unwrap(), b);
    }

    #[test]
    fn probe_agrees_with_decode_then_search() {
        let b = sample();
        let mut page = vec![0u8; 256];
        b.encode(&mut page).unwrap();
        let owned = Pseudokey(0b10101);
        assert_eq!(probe(&page, Key(200), owned).unwrap(), Probe::Hit(Value(2)));
        assert_eq!(probe(&page, Key(300), owned).unwrap(), Probe::Miss);
        // Another bucket's pseudokey: redirected along `next`, even for
        // a key that happens to be stored here.
        assert_eq!(
            probe(&page, Key(100), Pseudokey(0b10100)).unwrap(),
            Probe::WrongBucket(PageId(9))
        );
    }

    #[test]
    fn probe_sends_deleted_buckets_along_next() {
        let mut b = sample();
        b.mark_deleted();
        let mut page = vec![0u8; 256];
        b.encode(&mut page).unwrap();
        assert_eq!(
            probe(&page, Key(100), Pseudokey(0b10101)).unwrap(),
            Probe::WrongBucket(PageId(9))
        );
    }

    #[test]
    fn probe_refuses_garbage_pages() {
        let pk = Pseudokey(0);
        for page in [vec![0xDEu8; 256], vec![0u8; 256], vec![0u8; 8]] {
            assert!(matches!(probe(&page, Key(1), pk), Err(Error::Corrupt(_))));
        }
        // A valid header whose count overruns the page.
        let mut page = vec![0u8; Bucket::page_size_for(2)];
        Bucket::new(0, 0).encode(&mut page).unwrap();
        page[16..20].copy_from_slice(&3u32.to_le_bytes());
        assert!(matches!(probe(&page, Key(1), pk), Err(Error::Corrupt(_))));
        assert!(matches!(Bucket::decode(&page), Err(Error::Corrupt(_))));
    }

    #[test]
    fn capacity_math() {
        assert_eq!(Bucket::capacity_for(4096), (4096 - 56) / 16);
        assert_eq!(Bucket::page_size_for(2), 56 + 32);
        // page_size_for and capacity_for are inverses (up to slack).
        for cap in [1usize, 2, 8, 250] {
            assert_eq!(Bucket::capacity_for(Bucket::page_size_for(cap)), cap);
        }
    }

    #[test]
    fn overflow_encode_fails() {
        let mut b = Bucket::new(0, 0);
        for i in 0..10 {
            b.add(Record::new(i, i));
        }
        let mut page = vec![0u8; Bucket::page_size_for(9)];
        assert!(matches!(b.encode(&mut page), Err(Error::Corrupt(_))));
    }

    #[test]
    fn poison_page_fails_decode() {
        let page = vec![0xDEu8; 256];
        assert!(matches!(Bucket::decode(&page), Err(Error::Corrupt(_))));
    }

    #[test]
    fn zero_page_fails_decode() {
        let page = vec![0u8; 256];
        assert!(matches!(Bucket::decode(&page), Err(Error::Corrupt(_))));
    }

    #[test]
    fn search_add_remove() {
        let mut b = sample();
        assert_eq!(b.search(Key(100)), Some(Value(1)));
        assert_eq!(b.search(Key(999)), None);
        assert!(b.remove(Key(100)));
        assert!(!b.remove(Key(100)));
        assert_eq!(b.count(), 1);
    }

    #[test]
    fn deleted_marker() {
        let mut b = sample();
        assert!(!b.is_deleted());
        assert!(b.owns(Pseudokey(0b10101)));
        b.mark_deleted();
        assert!(b.is_deleted());
        assert!(!b.owns(Pseudokey(0b10101)), "deleted bucket owns nothing");
        // Deleted-ness survives the codec.
        let mut page = vec![0u8; 256];
        b.encode(&mut page).unwrap();
        assert!(Bucket::decode(&page).unwrap().is_deleted());
    }

    #[test]
    fn owns_by_rehash_agrees_with_commonbits_when_nonempty() {
        use crate::key::hash_key;
        let key = Key(42);
        let pk = hash_key(key);
        let ld = 5;
        let mut b = Bucket::new(ld, pk.low_bits(ld));
        b.add(Record {
            key,
            value: Value(0),
        });
        // For any probe pseudokey, the two tests agree while the bucket
        // holds a resident witness.
        for probe in [
            pk,
            Pseudokey(pk.0 ^ 1),
            Pseudokey(0),
            Pseudokey(u64::MAX - 1),
        ] {
            assert_eq!(
                b.owns(probe),
                b.owns_by_rehash(probe, hash_key),
                "probe {probe:?}"
            );
        }
        // Empty bucket: rehash test is conservatively negative.
        let empty = Bucket::new(ld, pk.low_bits(ld));
        assert!(empty.owns(pk));
        assert!(!empty.owns_by_rehash(pk, hash_key));
    }

    #[test]
    fn owns_respects_localdepth() {
        let b = Bucket::new(2, 0b01);
        assert!(b.owns(Pseudokey(0b1101)));
        assert!(!b.owns(Pseudokey(0b1111)));
        assert!(!b.owns(Pseudokey(0b1100)));
    }
}
