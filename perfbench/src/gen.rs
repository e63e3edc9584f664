//! Seeded operation plans: every operation a run sends is generated
//! before the clock starts.
//!
//! Each of the client threads owns the keys `k` with `k % threads ==
//! thread`, and tracks which of its own keys are live. An insert always
//! adds an absent owned key and a delete always removes a live owned key,
//! so every update does real work, and every answer is predictable even
//! under concurrency: owned keys change only in their owner's program
//! order. Finds draw from the whole key space.
//!
//! A thread's plan is a cycle: the generated operations, then the same
//! operations in reverse order with inserts and deletes swapped. The
//! second half undoes the first, so the cycle ends in the state it began
//! in and a thread replays it for as long as the run lasts. The plan's
//! size (and the benchmark's memory) does not depend on how fast the
//! system under test is, and no run can outrun its plan.

/// A splitmix64 stream: tiny, fast, and identical on every platform.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A stream for `seed`.
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x5EED_CE11_BE4C_4A11)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[0, n)` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }
}

/// Zipf(`s`) over ranks `0..n` by binary search in a precomputed CDF.
///
/// A guide table of equal-probability cells narrows each search to the
/// ranks one cell spans, so a draw costs a couple of cache misses instead
/// of a full `log2(n)`-step walk over an `n`-entry table.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
    guide: Vec<u32>,
}

impl Zipf {
    /// Cells in the guide table.
    const GUIDE: usize = 1 << 16;

    /// The distribution over `n` ranks (`1 <= n <= 2^32`) with exponent `s`.
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n >= 1 && n as u64 <= 1 << 32, "zipf over {n} ranks");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0f64;
        for r in 0..n {
            acc += 1.0 / ((r + 1) as f64).powf(s);
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        cdf[n - 1] = 1.0;
        let mut guide = Vec::with_capacity(Self::GUIDE + 1);
        let mut r = 0usize;
        for j in 0..Self::GUIDE {
            let u = j as f64 / Self::GUIDE as f64;
            while cdf[r] <= u {
                r += 1;
            }
            guide.push(r as u32);
        }
        guide.push((n - 1) as u32);
        Zipf { cdf, guide }
    }

    /// The rank for a uniform draw `u` in `[0, 1)`: the first rank whose
    /// cumulative probability exceeds `u`.
    pub fn rank_of(&self, u: f64) -> usize {
        let j = ((u * Self::GUIDE as f64) as usize).min(Self::GUIDE - 1);
        let (lo, hi) = (self.guide[j] as usize, self.guide[j + 1] as usize);
        lo + self.cdf[lo..=hi].partition_point(|&c| c <= u)
    }

    /// One draw.
    pub fn sample(&self, rng: &mut Rng) -> usize {
        self.rank_of(rng.next_f64())
    }
}

/// How finds choose their keys.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum KeyChoice {
    /// Uniform over the key space.
    Uniform,
    /// Zipf with this exponent over the whole key space; ranks map to
    /// keys through a fixed bijection so hot keys are scattered, and the
    /// same keys are hot whatever the seed (the seed varies the draws,
    /// not which buckets are hot).
    Zipf(f64),
}

/// Operation mix in percent (finds, inserts, deletes; sums to 100).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Mix {
    /// Finds.
    pub find: u32,
    /// Inserts.
    pub insert: u32,
    /// Deletes.
    pub delete: u32,
}

/// What one planned operation is, with the answer the model expects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Insert an absent owned key (expects `Inserted`).
    Insert,
    /// Delete a live owned key (expects `Deleted`).
    Delete,
    /// Find an owned key the model says is live.
    FindOwnedLive,
    /// Find an owned key the model says is absent.
    FindOwnedAbsent,
    /// Find a key another thread owns; `live` is its state had the
    /// threads run in lockstep (used only for the generated hit ratio).
    FindOther {
        /// Live under the lockstep model.
        live: bool,
    },
}

impl Op {
    fn code(self) -> u32 {
        match self {
            Op::Insert => 0,
            Op::Delete => 1,
            Op::FindOwnedLive => 2,
            Op::FindOwnedAbsent => 3,
            Op::FindOther { live: false } => 4,
            Op::FindOther { live: true } => 5,
        }
    }

    fn from_code(c: u32) -> Op {
        match c {
            0 => Op::Insert,
            1 => Op::Delete,
            2 => Op::FindOwnedLive,
            3 => Op::FindOwnedAbsent,
            4 => Op::FindOther { live: false },
            _ => Op::FindOther { live: true },
        }
    }

    /// The operation that undoes this one (finds undo nothing).
    fn inverse(self) -> Op {
        match self {
            Op::Insert => Op::Delete,
            Op::Delete => Op::Insert,
            find => find,
        }
    }

    /// Index of the operation kind: 0 find, 1 insert, 2 delete.
    pub fn kind(self) -> usize {
        match self {
            Op::Insert => 1,
            Op::Delete => 2,
            _ => 0,
        }
    }

    /// Does the model expect this find to hit (lockstep for other keys)?
    pub fn expects_hit(self) -> bool {
        matches!(self, Op::FindOwnedLive | Op::FindOther { live: true })
    }
}

/// Names of the operation kinds, indexed by [`Op::kind`].
pub const KIND_NAMES: [&str; 3] = ["find", "insert", "delete"];

/// One planned operation packed into 32 bits: key << 3 | op code.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Planned(u32);

impl Planned {
    fn new(key: u32, op: Op) -> Self {
        Planned(key << 3 | op.code())
    }

    /// The key.
    pub fn key(self) -> u64 {
        u64::from(self.0 >> 3)
    }

    /// The operation.
    pub fn op(self) -> Op {
        Op::from_code(self.0 & 7)
    }

    fn inverse(self) -> Self {
        Planned::new(self.0 >> 3, self.op().inverse())
    }
}

/// The value stored under `key`: a fixed function of the key, so any
/// find that hits can be checked, whoever inserted the record.
pub fn value_of(key: u64) -> u64 {
    let mut z = key ^ 0xCE11_0000_DA7A_0001;
    z = (z ^ (z >> 33)).wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    z ^ (z >> 33)
}

/// A workload's generated inputs.
#[derive(Debug)]
pub struct Plan {
    /// Keys are `0..key_space`.
    pub key_space: u64,
    /// Live keys before the measured phase (the preload), per key.
    pub live_at_start: Vec<bool>,
    /// The preload, per thread: the owned live keys, in insertion order.
    pub preload: Vec<Vec<u64>>,
    /// Each thread's generated operations, in program order: the first
    /// half of its cycle (see [`Plan::at`]).
    pub ops: Vec<Vec<Planned>>,
}

/// Maximum key-space size: keys must fit beside the op code in 32 bits.
pub const MAX_KEY_BITS: u32 = 28;

impl Plan {
    /// Generate `ops_per_thread` operations for each of `threads` client
    /// threads over `2^key_bits` keys, half of them preloaded. Each
    /// thread's cycle is twice as long.
    ///
    /// The preloaded half is fixed for a key space: the seed varies the
    /// operations, not the data set. A seeded preload changed the file's
    /// layout (and, over TCP, how buckets spread across sites) from seed
    /// to seed, and with it the latency tail.
    pub fn generate(
        seed: u64,
        key_bits: u32,
        threads: usize,
        ops_per_thread: usize,
        mix: Mix,
        keys: KeyChoice,
    ) -> Plan {
        assert!(key_bits <= MAX_KEY_BITS && threads >= 1);
        assert_eq!(mix.find + mix.insert + mix.delete, 100, "mix sums to 100");
        let n = 1usize << key_bits;
        let mut rng = Rng::new(seed);
        let mut data_rng = Rng::new(u64::from(key_bits));
        let zipf = match keys {
            KeyChoice::Zipf(s) => Some(Zipf::new(n, s)),
            KeyChoice::Uniform => None,
        };
        // Fixed bijection rank -> key (odd multiplier mod 2^key_bits).
        let (mul, add) = (0x9E37_79B9_7F4A_7C15u64, 0x2545_F491_4F6C_DD1Du64);
        let mask = (n - 1) as u64;

        // Per thread: owned live and absent keys, with each key's slot
        // in whichever list holds it, for O(1) random choice and removal.
        let mut live_now = vec![false; n];
        let mut slot = vec![0u32; n];
        let mut live: Vec<Vec<u32>> = vec![Vec::new(); threads];
        let mut absent: Vec<Vec<u32>> = vec![Vec::new(); threads];
        for k in 0..n {
            absent[k % threads].push(k as u32);
        }
        let mut preload = vec![Vec::new(); threads];
        for t in 0..threads {
            // Preload a random half of each thread's keys.
            let owned = absent[t].len();
            let list = &mut absent[t];
            for i in 0..owned {
                let j = i + data_rng.below((owned - i) as u64) as usize;
                list.swap(i, j);
            }
            let keep = owned - owned / 2;
            let chosen = list.split_off(keep);
            for &k in &chosen {
                live_now[k as usize] = true;
                preload[t].push(u64::from(k));
            }
            live[t] = chosen;
            for (i, &k) in live[t].iter().enumerate() {
                slot[k as usize] = i as u32;
            }
            for (i, &k) in absent[t].iter().enumerate() {
                slot[k as usize] = i as u32;
            }
        }
        let live_at_start = live_now.clone();

        fn take(list: &mut Vec<u32>, slot: &mut [u32], i: usize) -> u32 {
            let k = list.swap_remove(i);
            if let Some(&moved) = list.get(i) {
                slot[moved as usize] = i as u32;
            }
            k
        }

        let mut ops: Vec<Vec<Planned>> = (0..threads)
            .map(|_| Vec::with_capacity(ops_per_thread))
            .collect();
        // Lockstep: op i of every thread before op i + 1 of any.
        for _ in 0..ops_per_thread {
            for t in 0..threads {
                let r = rng.below(100) as u32;
                let mut update = if r < mix.find {
                    None
                } else if r < mix.find + mix.insert {
                    Some(Op::Insert)
                } else {
                    Some(Op::Delete)
                };
                // Bounded key space: when a thread has no absent (live)
                // key left, its insert (delete) becomes the other update.
                if update == Some(Op::Insert) && absent[t].is_empty() {
                    update = Some(Op::Delete);
                } else if update == Some(Op::Delete) && live[t].is_empty() {
                    update = Some(Op::Insert);
                }
                let planned = match update {
                    Some(Op::Insert) => {
                        let i = rng.below(absent[t].len() as u64) as usize;
                        let k = take(&mut absent[t], &mut slot, i);
                        slot[k as usize] = live[t].len() as u32;
                        live[t].push(k);
                        live_now[k as usize] = true;
                        Planned::new(k, Op::Insert)
                    }
                    Some(_) => {
                        let i = rng.below(live[t].len() as u64) as usize;
                        let k = take(&mut live[t], &mut slot, i);
                        slot[k as usize] = absent[t].len() as u32;
                        absent[t].push(k);
                        live_now[k as usize] = false;
                        Planned::new(k, Op::Delete)
                    }
                    None => {
                        let k = match &zipf {
                            Some(z) => {
                                (z.sample(&mut rng) as u64)
                                    .wrapping_mul(mul)
                                    .wrapping_add(add)
                                    & mask
                            }
                            None => rng.next_u64() & mask,
                        } as usize;
                        let op = match (k % threads == t, live_now[k]) {
                            (true, true) => Op::FindOwnedLive,
                            (true, false) => Op::FindOwnedAbsent,
                            (false, l) => Op::FindOther { live: l },
                        };
                        Planned::new(k as u32, op)
                    }
                };
                ops[t].push(planned);
            }
        }
        Plan {
            key_space: n as u64,
            live_at_start,
            preload,
            ops,
        }
    }

    /// Number of client threads.
    pub fn threads(&self) -> usize {
        self.ops.len()
    }

    /// Operations in thread `t`'s cycle.
    pub fn cycle_len(&self, t: usize) -> usize {
        2 * self.ops[t].len()
    }

    /// Thread `t`'s `i`-th operation, counting from the start of the run:
    /// position `i` of its cycle, replayed as often as needed. The second
    /// half of the cycle is the first one backwards, each update undone;
    /// a find there sees the state it saw in the first half.
    pub fn at(&self, t: usize, i: usize) -> Planned {
        let ops = &self.ops[t];
        let n = ops.len();
        match i % (2 * n) {
            j if j < n => ops[j],
            j => ops[2 * n - 1 - j].inverse(),
        }
    }

    /// Live keys before the measured phase.
    pub fn live_start(&self) -> usize {
        self.preload.iter().map(Vec::len).sum()
    }

    /// The generated prefix of thread `t` whose end state equals the state
    /// after its first `done` operations: after `j` steps into the second
    /// half the state is the one `j` steps before the first half's end.
    fn equivalent_prefix(&self, t: usize, done: usize) -> &[Planned] {
        let n = self.ops[t].len();
        let r = done % (2 * n);
        &self.ops[t][..r.min(2 * n - r)]
    }

    /// The model's live set after each thread ran its first `done[t]`
    /// operations.
    pub fn live_after(&self, done: &[usize]) -> Vec<bool> {
        let mut live = self.live_at_start.clone();
        for (t, &d) in done.iter().enumerate() {
            for p in self.equivalent_prefix(t, d) {
                match p.op() {
                    Op::Insert => live[p.key() as usize] = true,
                    Op::Delete => live[p.key() as usize] = false,
                    _ => {}
                }
            }
        }
        live
    }

    /// The model's live-record count after each thread ran its first
    /// `done[t]` operations.
    pub fn live_count(&self, done: &[usize]) -> usize {
        let mut n = self.live_start();
        for (t, &d) in done.iter().enumerate() {
            for p in self.equivalent_prefix(t, d) {
                match p.op() {
                    Op::Insert => n += 1,
                    Op::Delete => n -= 1,
                    _ => {}
                }
            }
        }
        n
    }

    /// Workload properties of the operations each thread ran (its first
    /// `done[t]`): (generated find hit ratio under the lockstep model,
    /// distinct keys touched).
    pub fn touched(&self, done: &[usize]) -> (f64, u64) {
        let mut seen = vec![false; self.key_space as usize];
        let (mut finds, mut hits, mut distinct) = (0u64, 0u64, 0u64);
        for (t, &d) in done.iter().enumerate() {
            // Both halves of a cycle hold the same finds, and the second
            // touches no key the first did not.
            let ops = &self.ops[t];
            let n = ops.len();
            let (cycles, r) = (d / (2 * n), d % (2 * n));
            let count = |range: std::ops::Range<usize>, finds: &mut u64, hits: &mut u64| {
                for p in &ops[range] {
                    if p.op().kind() == 0 {
                        *finds += 1;
                        *hits += u64::from(p.op().expects_hit());
                    }
                }
            };
            let (mut half_finds, mut half_hits) = (0, 0);
            count(0..n, &mut half_finds, &mut half_hits);
            finds += 2 * cycles as u64 * half_finds;
            hits += 2 * cycles as u64 * half_hits;
            count(0..r.min(n), &mut finds, &mut hits);
            if r > n {
                count(2 * n - r..n, &mut finds, &mut hits);
            }
            for p in &ops[..d.min(n)] {
                let s = &mut seen[p.key() as usize];
                if !*s {
                    *s = true;
                    distinct += 1;
                }
            }
        }
        (ratio(hits, finds), distinct)
    }
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_matches_its_pmf() {
        let z = Zipf::new(1 << 12, 0.99);
        let mut rng = Rng::new(3);
        let draws = 400_000;
        let mut counts = vec![0u32; 1 << 12];
        for _ in 0..draws {
            counts[z.sample(&mut rng)] += 1;
        }
        for r in [0usize, 1, 10, 100] {
            let p = z.cdf[r] - if r == 0 { 0.0 } else { z.cdf[r - 1] };
            let want = p * draws as f64;
            let got = f64::from(counts[r]);
            assert!(
                (got - want).abs() < 5.0 * want.sqrt() + 5.0,
                "rank {r}: {got} vs {want}"
            );
        }
    }

    #[test]
    fn zipf_search_agrees_with_a_linear_scan() {
        let z = Zipf::new(1000, 1.2);
        let mut rng = Rng::new(9);
        for _ in 0..10_000 {
            let u = rng.next_f64();
            let linear = z.cdf.iter().position(|&c| c > u).expect("cdf ends at 1");
            assert_eq!(z.rank_of(u), linear);
        }
    }

    #[test]
    fn plans_are_seeded_and_updates_are_effective() {
        let mix = Mix {
            find: 50,
            insert: 25,
            delete: 25,
        };
        let a = Plan::generate(7, 10, 2, 5000, mix, KeyChoice::Zipf(0.99));
        let b = Plan::generate(7, 10, 2, 5000, mix, KeyChoice::Zipf(0.99));
        assert_eq!(a.ops, b.ops);
        let mut live = a.live_at_start.clone();
        for t in 0..2 {
            for p in &a.ops[t] {
                let k = p.key() as usize;
                if p.op() != (Op::FindOther { live: true })
                    && p.op() != (Op::FindOther { live: false })
                {
                    assert_eq!(k % 2, t, "thread {t} touched a key it does not own");
                }
            }
        }
        // Replaying thread by thread: owned state never depends on the
        // other thread, so every planned answer holds.
        for t in 0..2 {
            for p in &a.ops[t] {
                let k = p.key() as usize;
                match p.op() {
                    Op::Insert => assert!(!std::mem::replace(&mut live[k], true)),
                    Op::Delete => assert!(std::mem::replace(&mut live[k], false)),
                    Op::FindOwnedLive => assert!(live[k]),
                    Op::FindOwnedAbsent => assert!(!live[k]),
                    Op::FindOther { .. } => {}
                }
            }
        }
        assert_eq!(live, a.live_after(&[5000, 5000]));
    }

    #[test]
    fn a_cycle_undoes_itself_and_replays_exactly() {
        let mix = Mix {
            find: 50,
            insert: 25,
            delete: 25,
        };
        let plan = Plan::generate(11, 10, 2, 3000, mix, KeyChoice::Uniform);
        let cycle = plan.cycle_len(0);
        assert_eq!(cycle, 6000);
        // Two and a half cycles: every planned answer holds throughout,
        // and the state after the replayed prefix is what live_after says.
        let mut live = plan.live_at_start.clone();
        for t in 0..2 {
            for i in 0..5 * cycle / 2 {
                let p = plan.at(t, i);
                let k = p.key() as usize;
                match p.op() {
                    Op::Insert => assert!(!std::mem::replace(&mut live[k], true), "{t} {i}"),
                    Op::Delete => assert!(std::mem::replace(&mut live[k], false), "{t} {i}"),
                    Op::FindOwnedLive => assert!(live[k]),
                    Op::FindOwnedAbsent => assert!(!live[k]),
                    Op::FindOther { .. } => {}
                }
                if i + 1 == cycle {
                    let mut mine = plan.live_at_start.clone();
                    for (j, m) in mine.iter_mut().enumerate() {
                        if j % 2 != t {
                            *m = live[j];
                        }
                    }
                    assert_eq!(live, mine, "thread {t}: a cycle ends where it began");
                }
            }
        }
        let done = [5 * cycle / 2, 5 * cycle / 2];
        assert_eq!(live, plan.live_after(&done));
        let count = live.iter().filter(|&&l| l).count();
        assert_eq!(count, plan.live_count(&done));
        // Hit ratio and distinct keys over several cycles equal those of
        // the generated half.
        assert_eq!(plan.touched(&done).1, plan.touched(&[3000, 3000]).1);
        let (a, b) = (plan.touched(&[2 * cycle; 2]).0, plan.touched(&[3000; 2]).0);
        assert!((a - b).abs() < 1e-12, "{a} vs {b}");
    }
}
