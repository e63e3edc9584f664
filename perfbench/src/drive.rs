//! The measured phase: closed-loop client threads replaying their plans,
//! timing every operation and checking every answer against the model.

use std::collections::HashSet;
use std::sync::Barrier;
use std::time::{Duration, Instant};

use ceh_core::ConcurrentHashFile;
use ceh_dist::DistClient;
use ceh_types::{DeleteOutcome, InsertOutcome, Key, Result, Value};

use crate::gen::{value_of, Op, Plan};
use crate::report::Hist;
use crate::trace::{SpanRec, SPAN_CAP};

/// The operations a client thread sends: a local concurrent file or a
/// distributed-file client.
pub trait OpTarget {
    /// Look up a key.
    fn find(&self, key: Key) -> Result<Option<Value>>;
    /// Insert a key.
    fn insert(&self, key: Key, value: Value) -> Result<InsertOutcome>;
    /// Delete a key.
    fn delete(&self, key: Key) -> Result<DeleteOutcome>;
}

impl<F: ConcurrentHashFile + ?Sized> OpTarget for &F {
    fn find(&self, key: Key) -> Result<Option<Value>> {
        (**self).find(key)
    }
    fn insert(&self, key: Key, value: Value) -> Result<InsertOutcome> {
        (**self).insert(key, value)
    }
    fn delete(&self, key: Key) -> Result<DeleteOutcome> {
        (**self).delete(key)
    }
}

impl OpTarget for DistClient {
    fn find(&self, key: Key) -> Result<Option<Value>> {
        DistClient::find(self, key)
    }
    fn insert(&self, key: Key, value: Value) -> Result<InsertOutcome> {
        DistClient::insert(self, key, value)
    }
    fn delete(&self, key: Key) -> Result<DeleteOutcome> {
        DistClient::delete(self, key)
    }
}

/// One client thread's progress and verdicts, carried across phases.
#[derive(Debug, Default)]
pub struct ThreadState {
    /// Operations sent so far; the next one is `plan.at(thread, next)`.
    pub next: usize,
    /// Operations that returned an error (or timed out).
    pub failed: u64,
    /// Operations whose answer contradicted the model.
    pub wrong: u64,
    /// The first few contradictions, for the report.
    pub notes: Vec<String>,
    /// Owned keys whose last update failed: their state is unknown until
    /// the next update of that key succeeds.
    uncertain: HashSet<u64>,
}

impl ThreadState {
    /// Fresh state for each thread of `plan`.
    pub fn for_plan(plan: &Plan) -> Vec<ThreadState> {
        (0..plan.threads())
            .map(|_| ThreadState::default())
            .collect()
    }

    /// Owned keys whose state the model cannot vouch for.
    pub fn uncertain(&self) -> &HashSet<u64> {
        &self.uncertain
    }

    fn contradict(&mut self, note: impl FnOnce() -> String) {
        self.wrong += 1;
        if self.notes.len() < 8 {
            self.notes.push(note());
        }
    }

    /// Record one operation's outcome against the model.
    fn judge(&mut self, op: Op, key: u64, answer: Result<Answer>) {
        let answer = match answer {
            Ok(a) => a,
            Err(_) => {
                self.failed += 1;
                if matches!(op, Op::Insert | Op::Delete) {
                    self.uncertain.insert(key);
                }
                return;
            }
        };
        let unsure = !self.uncertain.is_empty() && self.uncertain.contains(&key);
        match answer {
            Answer::Inserted(o) => {
                if o != InsertOutcome::Inserted && !unsure {
                    self.contradict(|| format!("insert {key}: {o:?}, model says absent"));
                }
                self.uncertain.remove(&key);
            }
            Answer::Deleted(o) => {
                if o != DeleteOutcome::Deleted && !unsure {
                    self.contradict(|| format!("delete {key}: {o:?}, model says live"));
                }
                self.uncertain.remove(&key);
            }
            Answer::Found(v) => {
                if let Some(v) = v {
                    if v.0 != value_of(key) {
                        self.contradict(|| format!("find {key}: value {} is not the key's", v.0));
                    }
                }
                let expected = match op {
                    Op::FindOwnedLive => Some(true),
                    Op::FindOwnedAbsent => Some(false),
                    _ => None,
                };
                if let Some(live) = expected {
                    if live != v.is_some() && !unsure {
                        self.contradict(|| format!("find {key}: {v:?}, model says live={live}"));
                    }
                }
            }
        }
    }
}

enum Answer {
    Found(Option<Value>),
    Inserted(InsertOutcome),
    Deleted(DeleteOutcome),
}

fn call<T: OpTarget>(target: &T, op: Op, key: u64) -> Result<Answer> {
    let k = Key(key);
    match op {
        Op::Insert => target.insert(k, Value(value_of(key))).map(Answer::Inserted),
        Op::Delete => target.delete(k).map(Answer::Deleted),
        _ => target.find(k).map(Answer::Found),
    }
}

/// What one measured phase recorded.
#[derive(Debug, Default)]
pub struct Phase {
    /// Wall time from the first thread's start to the last one's end.
    pub elapsed: Duration,
    /// Operations completed (successfully or not).
    pub ops: u64,
    /// Latencies per operation kind (find, insert, delete), pooled over
    /// threads: the call as the client saw it (in a traced phase, the
    /// span of the layer call).
    pub lat: [Hist; 3],
    /// Spans recorded in a traced phase (the first [`SPAN_CAP`] operations
    /// of each thread).
    pub spans: Vec<SpanRec>,
}

impl Phase {
    /// Completed operations per second.
    pub fn ops_per_s(&self) -> f64 {
        self.ops as f64 / self.elapsed.as_secs_f64().max(1e-9)
    }

    /// Latencies of every operation kind together.
    pub fn pooled(&self) -> Hist {
        let mut all = self.lat[0].clone();
        all.merge(&self.lat[1]);
        all.merge(&self.lat[2]);
        all
    }
}

/// Run every thread's plan from where it stopped, closed loop, for
/// `seconds` or until it has sent `upto` operations in all, whichever
/// comes first. `make(t)` builds thread `t`'s client on that thread.
/// `traced` records a root span per operation with a child span around
/// the layer call.
pub fn drive<T, F>(
    plan: &Plan,
    states: &mut [ThreadState],
    make: F,
    seconds: f64,
    upto: usize,
    traced: bool,
) -> Phase
where
    T: OpTarget,
    F: Fn(usize) -> T + Sync,
{
    let barrier = Barrier::new(states.len());
    let epoch = Instant::now();
    let dur = Duration::from_secs_f64(seconds);
    let outs: Vec<ThreadOut> = std::thread::scope(|s| {
        let handles: Vec<_> = states
            .iter_mut()
            .enumerate()
            .map(|(t, st)| {
                let (make, barrier) = (&make, &barrier);
                s.spawn(move || {
                    let target = make(t);
                    barrier.wait();
                    if traced {
                        run_thread::<T, true>(&target, plan, t, upto, st, epoch, dur)
                    } else {
                        run_thread::<T, false>(&target, plan, t, upto, st, epoch, dur)
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut phase = Phase::default();
    let first = outs.iter().map(|o| o.start).min().unwrap_or(epoch);
    let last = outs.iter().map(|o| o.end).max().unwrap_or(epoch);
    phase.elapsed = last.duration_since(first);
    for o in outs {
        phase.ops += o.ops;
        for (all, mine) in phase.lat.iter_mut().zip(&o.lat) {
            all.merge(mine);
        }
        phase.spans.extend(o.spans);
    }
    phase
}

struct ThreadOut {
    start: Instant,
    end: Instant,
    ops: u64,
    lat: [Hist; 3],
    spans: Vec<SpanRec>,
}

fn since(epoch: Instant, t: Instant) -> u64 {
    t.duration_since(epoch).as_nanos() as u64
}

fn run_thread<T: OpTarget, const TRACED: bool>(
    target: &T,
    plan: &Plan,
    thread: usize,
    upto: usize,
    st: &mut ThreadState,
    epoch: Instant,
    dur: Duration,
) -> ThreadOut {
    let mut lat: [Hist; 3] = Default::default();
    let mut spans = Vec::with_capacity(if TRACED { SPAN_CAP } else { 0 });
    let start = Instant::now();
    let deadline = start + dur;
    let mut now = start;
    let first = st.next;
    while st.next < upto && now < deadline {
        let seq = st.next;
        let root_start = now;
        let planned = plan.at(thread, seq);
        let (op, key) = (planned.op(), planned.key());
        let t0 = Instant::now();
        let answer = call(target, op, key);
        let t1 = Instant::now();
        lat[op.kind()].record(t1.duration_since(t0).as_nanos() as u64);
        st.judge(op, key, answer);
        st.next += 1;
        now = if TRACED { Instant::now() } else { t1 };
        if TRACED && spans.len() < SPAN_CAP {
            spans.push(SpanRec {
                thread: thread as u8,
                seq: seq as u64,
                kind: op.kind() as u8,
                key: key as u32,
                root: (since(epoch, root_start), since(epoch, now)),
                child: (since(epoch, t0), since(epoch, t1)),
            });
        }
    }
    ThreadOut {
        start,
        end: now,
        ops: (st.next - first) as u64,
        lat,
        spans,
    }
}
