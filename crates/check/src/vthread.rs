//! Cooperative virtual-thread scheduler over the lock manager's wait
//! points.
//!
//! Each *virtual thread* is a real OS thread, but a token-passing
//! [`Scheduler`] guarantees at most one of them executes at a time: a
//! thread runs until its next *yield point* — a lock acquire, a blocking
//! wait, a release, or an unlocked reader's ξ-epoch snapshot or
//! validation, surfaced by a [`ceh_locks::WaitHook`]
//! ([`ExplorerHook`]) — then parks until the controller hands it the
//! token again. The sequence of "which thread got the token" choices is
//! the **schedule**; replaying the same choices replays the same
//! execution bit for bit, which is what makes exploration and fixture
//! replay deterministic.
//!
//! Blocking is virtualized too: when the lock manager would put a thread
//! on a condvar, [`ExplorerHook::at_block`] parks it in the scheduler
//! instead, marked *blocked on* that lock. A release wakes every thread
//! blocked on the released lock back to ready; the manager then re-checks
//! grantability when the thread is next scheduled (and the thread simply
//! parks again if a FIFO-earlier waiter still excludes it). If no thread
//! is ready and not all are done, the virtual threads have genuinely
//! deadlocked — the scheduler reports it and aborts the run by panicking
//! the parked workers with a sentinel payload.

use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use ceh_locks::{LockId, LockMode, OwnerId, WaitHook};
use parking_lot::{Condvar, Mutex};

thread_local! {
    static VTHREAD: Cell<Option<usize>> = const { Cell::new(None) };
}

/// Panic payload used to tear parked workers out of the lock manager
/// when a run is aborted (deadlock or divergence). Expected; the worker
/// wrapper swallows it.
pub const ABORT_MSG: &str = "ceh-check: schedule aborted";

/// The id of the virtual thread running on this OS thread, if any.
/// Threads not registered with a scheduler (the controller running
/// setup, for example) see `None` and bypass all yield points.
pub fn current_vthread() -> Option<usize> {
    VTHREAD.with(|c| c.get())
}

/// The next action a ready virtual thread will take when scheduled —
/// the granularity at which the explorer reasons about independence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pending {
    /// Not started yet; first action unknown.
    Start,
    /// Will attempt to acquire this lock.
    Acquire(LockId),
    /// Just released this lock; next visible action unknown.
    AfterRelease(LockId),
    /// Will snapshot or validate this lock's ξ-epoch for an unlocked
    /// read; the read's footprint (directory entries, page bytes) is
    /// not tracked, so it is dependent with everything.
    Optimistic(LockId),
}

impl Pending {
    /// Two pending actions are *dependent* if reordering them could
    /// change the execution. Acquires on distinct locks commute; any
    /// action whose footprint is unknown is conservatively dependent
    /// with everything.
    pub fn dependent(self, other: Pending) -> bool {
        match (self, other) {
            (Pending::Acquire(a), Pending::Acquire(b)) => a == b,
            _ => true,
        }
    }
}

/// One scheduling decision: which ready thread got the token, and which
/// *other* choices would have been legal under the preemption bound (the
/// explorer forks a new schedule prefix for each alternative).
#[derive(Debug, Clone)]
pub struct Decision {
    /// The thread that was scheduled.
    pub chosen: usize,
    /// Ready threads that could legally have been scheduled instead.
    pub alternatives: Vec<usize>,
}

/// Everything one serialized execution produced.
#[derive(Debug)]
pub struct RunOutcome {
    /// The decision at every scheduling point, in order. The `chosen`
    /// projection is the full replayable schedule.
    pub decisions: Vec<Decision>,
    /// First execution failure: an operation error, a worker panic, or
    /// a virtual-thread deadlock. `None` for a clean run.
    pub failure: Option<String>,
    /// The prefix named a thread that was not ready, so the run fell
    /// back to the default policy. Never happens when replaying choices
    /// recorded from a deterministic workload; minimization uses it to
    /// discard mangled candidate schedules.
    pub diverged: bool,
}

impl RunOutcome {
    /// The schedule that reproduces this execution when passed back as
    /// a prefix.
    pub fn choices(&self) -> Vec<usize> {
        self.decisions.iter().map(|d| d.chosen).collect()
    }
}

/// Knobs for the controller's choice enumeration.
#[derive(Debug, Clone, Copy)]
pub struct ControllerConfig {
    /// Maximum number of *preemptions* (switching away from a thread
    /// that could have kept running) per execution. Forced switches —
    /// the running thread blocked or finished — are free.
    pub preemption_bound: usize,
    /// Prune preemptions between threads whose pending actions are
    /// provably independent (acquires on distinct locks). A big cut for
    /// 3+-thread workloads; heuristic, so the small acceptance workloads
    /// are also run with it off.
    pub dpor: bool,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum St {
    Ready,
    Running,
    Blocked,
    Done,
}

struct Inner {
    st: Vec<St>,
    pending: Vec<Pending>,
    blocked_on: Vec<Option<LockId>>,
    /// The thread currently holding the execution token.
    current: Option<usize>,
    /// The last thread scheduled (for preemption accounting).
    last: Option<usize>,
    abort: bool,
    failure: Option<String>,
    diverged: bool,
}

/// Token-passing scheduler for one serialized execution. Create one per
/// run with [`Scheduler::new`], install an [`ExplorerHook`] pointing at
/// it, then call [`Scheduler::run`].
pub struct Scheduler {
    inner: Mutex<Inner>,
    cv: Condvar,
}

/// A virtual thread's body: runs the ops, returns `Err` with a
/// description on the first operation failure.
pub type Body<'env> = Box<dyn FnOnce() -> Result<(), String> + Send + 'env>;

impl Scheduler {
    /// A scheduler for `n` virtual threads, all initially ready.
    pub fn new(n: usize) -> Arc<Self> {
        Arc::new(Scheduler {
            inner: Mutex::new(Inner {
                st: vec![St::Ready; n],
                pending: vec![Pending::Start; n],
                blocked_on: vec![None; n],
                current: None,
                last: None,
                abort: false,
                failure: None,
                diverged: false,
            }),
            cv: Condvar::new(),
        })
    }

    /// Run the bodies to completion under `prefix`: decisions at
    /// positions covered by the prefix follow it; beyond it the default
    /// policy applies (keep running the previous thread, else the
    /// lowest-index ready one), with every legal alternative recorded
    /// for the explorer to fork on.
    pub fn run<'env>(
        self: &Arc<Self>,
        bodies: Vec<Body<'env>>,
        prefix: &[usize],
        cfg: &ControllerConfig,
    ) -> RunOutcome {
        assert_eq!(bodies.len(), self.inner.lock().st.len());
        std::thread::scope(|s| {
            for (i, body) in bodies.into_iter().enumerate() {
                let sched = Arc::clone(self);
                s.spawn(move || worker_main(sched, i, body));
            }
            self.run_controller(prefix, cfg)
        })
    }

    fn run_controller(&self, prefix: &[usize], cfg: &ControllerConfig) -> RunOutcome {
        let mut decisions: Vec<Decision> = Vec::new();
        let mut preemptions = 0usize;
        let mut inner = self.inner.lock();
        loop {
            while inner.current.is_some() {
                self.cv.wait(&mut inner);
            }
            if inner.st.iter().all(|&s| s == St::Done) {
                break;
            }
            let ready: Vec<usize> = (0..inner.st.len())
                .filter(|&i| inner.st[i] == St::Ready)
                .collect();
            if ready.is_empty() {
                // Genuine deadlock among the virtual threads (or a
                // worker errored out and released locks behind the
                // hook's back, stranding its waiters — the recorded op
                // failure then takes precedence).
                if inner.failure.is_none() {
                    let blocked: Vec<String> = (0..inner.st.len())
                        .filter(|&i| inner.st[i] == St::Blocked)
                        .map(|i| format!("t{} on {:?}", i, inner.blocked_on[i]))
                        .collect();
                    inner.failure = Some(format!(
                        "virtual-thread deadlock: no runnable thread ({})",
                        blocked.join(", ")
                    ));
                }
                inner.abort = true;
                self.cv.notify_all();
                while !inner.st.iter().all(|&s| s == St::Done) {
                    self.cv.wait(&mut inner);
                }
                break;
            }

            let prev_ready = inner.last.filter(|&p| inner.st[p] == St::Ready);
            let default = prev_ready.unwrap_or(ready[0]);
            let pos = decisions.len();
            let mut chosen = prefix.get(pos).copied().unwrap_or(default);
            if inner.st.get(chosen).copied() != Some(St::Ready) {
                // Either the workload is nondeterministic (a real
                // problem the caller must surface) or a minimization
                // candidate mangled the prefix (routine; the candidate
                // is discarded). Flag it and fall back to the default.
                inner.diverged = true;
                chosen = default;
            }

            let mut alternatives = Vec::new();
            for &r in &ready {
                if r == chosen {
                    continue;
                }
                let legal = match prev_ready {
                    // The previous thread blocked or finished: any
                    // switch is forced, hence free and always legal.
                    None => true,
                    // Returning to the thread that could keep running
                    // is the zero-cost default.
                    Some(p) if r == p => true,
                    Some(p) => {
                        preemptions < cfg.preemption_bound
                            && (!cfg.dpor || inner.pending[p].dependent(inner.pending[r]))
                    }
                };
                if legal {
                    alternatives.push(r);
                }
            }
            if let Some(p) = prev_ready {
                if chosen != p {
                    preemptions += 1;
                }
            }
            decisions.push(Decision {
                chosen,
                alternatives,
            });
            inner.st[chosen] = St::Running;
            inner.current = Some(chosen);
            inner.last = Some(chosen);
            self.cv.notify_all();
        }
        RunOutcome {
            decisions,
            failure: inner.failure.take(),
            diverged: inner.diverged,
        }
    }

    /// Park until the controller hands `me` the token. Returns `false`
    /// if the run was aborted instead — the caller must drop the guard
    /// and panic with [`ABORT_MSG`] (panicking while the guard is held
    /// would poison the mutex under the std-backed compat parking_lot).
    #[must_use]
    fn wait_for_turn(&self, inner: &mut parking_lot::MutexGuard<'_, Inner>, me: usize) -> bool {
        loop {
            if inner.abort {
                return false;
            }
            if inner.current == Some(me) {
                return true;
            }
            self.cv.wait(inner);
        }
    }

    fn start_point(&self, me: usize) {
        let mut inner = self.inner.lock();
        if !self.wait_for_turn(&mut inner, me) {
            drop(inner);
            panic!("{ABORT_MSG}");
        }
        inner.st[me] = St::Running;
    }

    pub(crate) fn yield_point(&self, me: usize, pending: Pending) {
        let mut inner = self.inner.lock();
        inner.st[me] = St::Ready;
        inner.pending[me] = pending;
        inner.current = None;
        self.cv.notify_all();
        if !self.wait_for_turn(&mut inner, me) {
            drop(inner);
            panic!("{ABORT_MSG}");
        }
        inner.st[me] = St::Running;
    }

    fn block_point(&self, me: usize, id: LockId) {
        let mut inner = self.inner.lock();
        inner.st[me] = St::Blocked;
        inner.blocked_on[me] = Some(id);
        // When a release wakes us, our next action is retrying this
        // acquire.
        inner.pending[me] = Pending::Acquire(id);
        inner.current = None;
        self.cv.notify_all();
        if !self.wait_for_turn(&mut inner, me) {
            drop(inner);
            panic!("{ABORT_MSG}");
        }
        inner.st[me] = St::Running;
        inner.blocked_on[me] = None;
    }

    fn release_point(&self, me: usize, id: LockId) {
        let mut inner = self.inner.lock();
        for j in 0..inner.st.len() {
            if inner.st[j] == St::Blocked && inner.blocked_on[j] == Some(id) {
                inner.st[j] = St::Ready;
                inner.blocked_on[j] = None;
            }
        }
        inner.st[me] = St::Ready;
        inner.pending[me] = Pending::AfterRelease(id);
        inner.current = None;
        self.cv.notify_all();
        if !self.wait_for_turn(&mut inner, me) {
            drop(inner);
            panic!("{ABORT_MSG}");
        }
        inner.st[me] = St::Running;
    }

    fn record_failure(&self, me: usize, msg: &str) {
        let mut inner = self.inner.lock();
        if inner.failure.is_none() {
            inner.failure = Some(format!("t{me}: {msg}"));
        }
    }

    fn finish(&self, me: usize) {
        let mut inner = self.inner.lock();
        inner.st[me] = St::Done;
        if inner.current == Some(me) {
            inner.current = None;
        }
        self.cv.notify_all();
    }
}

fn worker_main(sched: Arc<Scheduler>, me: usize, body: Body<'_>) {
    VTHREAD.with(|c| c.set(Some(me)));
    let r = catch_unwind(AssertUnwindSafe(|| {
        sched.start_point(me);
        body()
    }));
    match r {
        Ok(Ok(())) => {}
        Ok(Err(msg)) => sched.record_failure(me, &msg),
        Err(payload) => {
            let msg = panic_message(payload.as_ref());
            if msg != ABORT_MSG {
                sched.record_failure(me, &format!("panic: {msg}"));
            }
        }
    }
    sched.finish(me);
    VTHREAD.with(|c| c.set(None));
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// The [`WaitHook`] that routes a lock manager's wait points into a
/// [`Scheduler`]. Threads without a virtual-thread id (the controller
/// doing setup, stray background threads) pass straight through.
pub struct ExplorerHook {
    sched: Arc<Scheduler>,
}

impl ExplorerHook {
    /// A hook feeding `sched`.
    pub fn new(sched: Arc<Scheduler>) -> Self {
        ExplorerHook { sched }
    }
}

impl WaitHook for ExplorerHook {
    fn at_acquire(&self, _owner: OwnerId, id: LockId, _mode: LockMode) {
        if let Some(me) = current_vthread() {
            self.sched.yield_point(me, Pending::Acquire(id));
        }
    }

    fn at_block(&self, _owner: OwnerId, id: LockId, _mode: LockMode) {
        match current_vthread() {
            Some(me) => self.sched.block_point(me, id),
            // An unregistered thread blocking while the hook is
            // installed would otherwise busy-spin in the manager's
            // hook-driven wait loop.
            None => std::thread::yield_now(),
        }
    }

    fn at_release(&self, _owner: OwnerId, id: LockId, _mode: LockMode) {
        if let Some(me) = current_vthread() {
            self.sched.release_point(me, id);
        }
    }

    fn at_optimistic(&self, id: LockId) {
        if let Some(me) = current_vthread() {
            self.sched.yield_point(me, Pending::Optimistic(id));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ceh_locks::{LockManager, LockManagerConfig};
    use ceh_types::PageId;

    fn manager_with_hook(sched: &Arc<Scheduler>) -> Arc<LockManager> {
        let m = Arc::new(LockManager::new(LockManagerConfig::default()));
        m.set_wait_hook(Some(Arc::new(ExplorerHook::new(Arc::clone(sched)))));
        m
    }

    #[test]
    fn serializes_two_contending_threads() {
        let sched = Scheduler::new(2);
        let m = manager_with_hook(&sched);
        let out = sched.run(
            (0..2)
                .map(|_| {
                    let m = Arc::clone(&m);
                    Box::new(move || {
                        let o = m.new_owner();
                        m.lock(o, LockId::Page(PageId(1)), LockMode::Xi);
                        m.unlock(o, LockId::Page(PageId(1)), LockMode::Xi);
                        Ok(())
                    }) as Body<'_>
                })
                .collect(),
            &[],
            &ControllerConfig {
                preemption_bound: 3,
                dpor: false,
            },
        );
        assert!(out.failure.is_none(), "{:?}", out.failure);
        assert!(!out.decisions.is_empty());
    }

    #[test]
    fn reports_virtual_thread_deadlock() {
        let sched = Scheduler::new(2);
        let m = manager_with_hook(&sched);
        let a = LockId::Page(PageId(1));
        let b = LockId::Page(PageId(2));
        // Classic AB/BA: force the interleaving where both grab their
        // first lock before either tries the second.
        let mk = |first: LockId, second: LockId| {
            let m = Arc::clone(&m);
            Box::new(move || {
                let o = m.new_owner();
                m.lock(o, first, LockMode::Xi);
                m.lock(o, second, LockMode::Xi);
                Ok(())
            }) as Body<'_>
        };
        let out = sched.run(
            vec![mk(a, b), mk(b, a)],
            // t0 runs to its second acquire attempt, then t1 does.
            &[0, 0, 1, 1, 0, 1],
            &ControllerConfig {
                preemption_bound: 4,
                dpor: false,
            },
        );
        let failure = out.failure.expect("AB/BA must deadlock");
        assert!(failure.contains("deadlock"), "{failure}");
    }

    #[test]
    fn replaying_choices_reproduces_decisions() {
        let run_once = |prefix: &[usize]| {
            let sched = Scheduler::new(2);
            let m = manager_with_hook(&sched);
            sched.run(
                (0..2)
                    .map(|i| {
                        let m = Arc::clone(&m);
                        Box::new(move || {
                            let o = m.new_owner();
                            let id = LockId::Page(PageId(i));
                            m.lock(o, id, LockMode::Alpha);
                            m.lock(o, LockId::Directory, LockMode::Rho);
                            m.unlock(o, LockId::Directory, LockMode::Rho);
                            m.unlock(o, id, LockMode::Alpha);
                            Ok(())
                        }) as Body<'_>
                    })
                    .collect(),
                prefix,
                &ControllerConfig {
                    preemption_bound: 2,
                    dpor: false,
                },
            )
        };
        let first = run_once(&[]);
        assert!(first.failure.is_none());
        let replay = run_once(&first.choices());
        assert!(replay.failure.is_none());
        assert_eq!(first.choices(), replay.choices());
    }
}
