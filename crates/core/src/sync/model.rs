#![cfg(feature = "model-check")]
//! Deterministic concurrency model checker: instrumented sync primitives
//! plus a bounded-DFS schedule explorer.
//!
//! # How it works
//!
//! An [`Execution`] runs one scenario (a closure using the
//! [`sync`](crate::sync) primitives) on real OS threads but with **at most
//! one runnable task at a time**: every visible operation — mutex acquire,
//! condvar wait/notify, atomic access, join — is a *scheduling point* where
//! the running task hands control to a scheduler that picks who runs next.
//! Whenever more than one task could run (or more than one condvar waiter
//! could be woken), that pick is a recorded *decision*; the sequence of
//! decisions fully determines the interleaving, so a `Vec<u32>` of choices
//! is both a replayable seed and a DFS tree path.
//!
//! [`explore`] enumerates schedules depth-first: run once following a
//! choice prefix (defaulting to "keep the current task running" beyond it),
//! record every decision point passed, then backtrack to the deepest point
//! with an untried alternative. Alternatives that would exceed the
//! configured *preemption bound* (switching away from a still-runnable
//! task) are pruned — the classic CHESS result: almost all real concurrency
//! bugs manifest within two preemptions.
//!
//! Failures surface deterministically:
//! - **Deadlock / lost wakeup** — every live task is blocked. The model has
//!   no spurious wakeups and notifying an empty waiter set is a no-op, so a
//!   notify that races ahead of its wait *stays* lost and the wait blocks
//!   forever, which the scheduler reports the moment no task can run.
//! - **Assertion failures / panics** in scenario code are caught at task
//!   exit and reported with the schedule that produced them.
//!
//! Both carry the decision trace as a seed; re-running with
//! `ExploreOpts::replay(seed)` reproduces the exact interleaving.
//!
//! Registration is per-thread: tasks spawned via [`thread::Builder`] inside
//! an execution join the cooperative scheduler, while unregistered threads
//! (anything outside `explore`) fall through to the real `std` primitives.
//! A registered task that is *unwinding* (scenario assertion or scheduler
//! abort) also leaves the cooperative protocol — its remaining cleanup runs
//! in a degraded mode that keeps mutual exclusion via the real locks and
//! keeps waking cooperative tasks, but never blocks on the baton and never
//! panics again (a second panic during unwind would abort the process).

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::io;
use std::panic;
use std::sync::atomic::{AtomicU64 as StdAtomicU64, Ordering};
use std::sync::{
    Arc, Condvar as StdCondvar, LockResult, Mutex as StdMutex, MutexGuard as StdMutexGuard, Once,
    PoisonError,
};
use std::time::{Duration, Instant};

type TaskId = usize;

/// Sentinel for "no task holds the baton" (only while every task is
/// blocked-or-detached and a degraded thread is expected to make progress).
const NO_TASK: TaskId = usize::MAX;

/// Payload of the panic used to tear down tasks of a failed execution.
struct AbortExecution;

thread_local! {
    static CURRENT: RefCell<Option<TaskHandle>> = const { RefCell::new(None) };
    /// Set when this task is being torn down by the scheduler (as opposed
    /// to failing an assertion of its own).
    static ABORTED: Cell<bool> = const { Cell::new(false) };
}

#[derive(Clone)]
struct TaskHandle {
    exec: Arc<Execution>,
    id: TaskId,
}

/// How the calling thread relates to the model runtime right now.
enum OpMode {
    /// Not part of any execution: delegate to real `std` primitives.
    Unregistered,
    /// Registered and running normally: full cooperative scheduling.
    Model(TaskHandle),
    /// Registered but unwinding: keep bookkeeping consistent, never block
    /// on the baton, never panic.
    Degraded(TaskHandle),
}

fn op_mode() -> OpMode {
    match CURRENT.with(|c| c.borrow().clone()) {
        None => OpMode::Unregistered,
        Some(h) => {
            if std::thread::panicking() {
                h.exec.detach(h.id);
                OpMode::Degraded(h)
            } else {
                OpMode::Model(h)
            }
        }
    }
}

fn abort_task() -> ! {
    ABORTED.with(|a| a.set(true));
    panic::panic_any(AbortExecution)
}

fn next_object_id() -> u64 {
    static NEXT: StdAtomicU64 = StdAtomicU64::new(1);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum TaskStatus {
    Runnable,
    BlockedLock(u64),
    BlockedCv(u64),
    BlockedJoin(TaskId),
    /// Unwinding outside the cooperative protocol; alive but unscheduled.
    Detached,
    Finished,
}

/// One recorded nondeterministic decision.
#[derive(Clone, Copy, Debug)]
struct ChoicePoint {
    /// Number of alternatives that existed (>= 2, singletons aren't
    /// recorded).
    ncand: u32,
    /// Which one this run took (index into the canonical candidate order).
    chosen: u32,
    /// Whether taking an alternative other than 0 costs a preemption (the
    /// yielding task was still runnable and choice 0 keeps it running).
    preemptive: bool,
}

struct ExecState {
    tasks: Vec<TaskStatus>,
    names: Vec<String>,
    current: TaskId,
    /// Mutex object id -> owning task, present iff owned.
    lock_owner: HashMap<u64, TaskId>,
    /// Condvar object id -> waiting tasks in wait order.
    cv_waiters: HashMap<u64, Vec<TaskId>>,
    /// Prescribed choice prefix; beyond it the default (0) is taken.
    prefix: Vec<u32>,
    trace: Vec<ChoicePoint>,
    steps: u64,
    step_limit: u64,
    failure: Option<String>,
    done: bool,
}

impl ExecState {
    fn fail(&mut self, msg: String) {
        if self.failure.is_none() {
            self.failure = Some(msg);
        }
    }

    fn describe_tasks(&self) -> String {
        self.tasks
            .iter()
            .enumerate()
            .map(|(i, t)| format!("{} [{}]: {:?}", i, self.names[i], t))
            .collect::<Vec<_>>()
            .join("; ")
    }
}

struct Execution {
    state: StdMutex<ExecState>,
    /// Tasks park here for their turn; also signaled on completion/failure.
    turn: StdCondvar,
}

impl Execution {
    fn new(prefix: Vec<u32>, step_limit: u64) -> Self {
        Execution {
            state: StdMutex::new(ExecState {
                tasks: Vec::new(),
                names: Vec::new(),
                current: 0,
                lock_owner: HashMap::new(),
                cv_waiters: HashMap::new(),
                prefix,
                trace: Vec::new(),
                steps: 0,
                step_limit,
                failure: None,
                done: false,
            }),
            turn: StdCondvar::new(),
        }
    }

    fn lock_state(&self) -> StdMutexGuard<'_, ExecState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn register_task(&self, name: String) -> TaskId {
        let mut st = self.lock_state();
        st.tasks.push(TaskStatus::Runnable);
        st.names.push(name);
        st.tasks.len() - 1
    }

    /// Record a decision with `ncand` alternatives, returning the index
    /// taken. Singleton "decisions" are free and unrecorded.
    fn pick(&self, st: &mut ExecState, ncand: u32, preemptive: bool, record: bool) -> u32 {
        if ncand <= 1 {
            return 0;
        }
        if !record {
            return 0;
        }
        let k = st.trace.len();
        let chosen = if k < st.prefix.len() {
            st.prefix[k].min(ncand - 1)
        } else {
            0
        };
        st.trace.push(ChoicePoint {
            ncand,
            chosen,
            preemptive,
        });
        chosen
    }

    /// Choose who holds the baton next. `me` is the task reaching the
    /// scheduling point (its status must already be updated).
    fn choose_next(&self, st: &mut ExecState, me: TaskId, record: bool) {
        if st.failure.is_some() || st.done {
            self.turn.notify_all();
            return;
        }
        st.steps += 1;
        if st.steps > st.step_limit {
            st.fail(format!(
                "step limit ({}) exceeded — livelock or runaway schedule",
                st.step_limit
            ));
            self.turn.notify_all();
            return;
        }
        // Canonical candidate order: `me` first if still runnable (so choice
        // 0 = "continue, no preemption"), then everyone else by task id.
        let me_runnable = me != NO_TASK && matches!(st.tasks.get(me), Some(TaskStatus::Runnable));
        let mut cands: Vec<TaskId> = Vec::new();
        if me_runnable {
            cands.push(me);
        }
        for (id, t) in st.tasks.iter().enumerate() {
            if id != me && matches!(t, TaskStatus::Runnable) {
                cands.push(id);
            }
        }
        if cands.is_empty() {
            if st.tasks.iter().all(|t| matches!(t, TaskStatus::Finished)) {
                st.done = true;
            } else if st.tasks.iter().any(|t| matches!(t, TaskStatus::Detached)) {
                // A detached (unwinding) thread is alive outside the baton
                // protocol and will move things along; park the baton.
                st.current = NO_TASK;
            } else {
                let report = st.describe_tasks();
                st.fail(format!("deadlock: every live task is blocked — {report}"));
            }
            self.turn.notify_all();
            return;
        }
        let chosen = self.pick(&mut *st, cands.len() as u32, me_runnable, record);
        st.current = cands[chosen as usize];
        self.turn.notify_all();
    }

    /// Park until it's `me`'s turn. Strict mode aborts the task when the
    /// execution has failed; degraded mode gives up after a real-time grace
    /// period instead (returning `false`).
    fn wait_for_turn(
        &self,
        mut st: StdMutexGuard<'_, ExecState>,
        me: TaskId,
        strict: bool,
    ) -> bool {
        let give_up_at = Instant::now() + Duration::from_secs(5);
        loop {
            if strict && st.failure.is_some() {
                drop(st);
                abort_task();
            }
            if st.current == me && matches!(st.tasks[me], TaskStatus::Runnable) {
                return true;
            }
            if strict {
                st = self.turn.wait(st).unwrap_or_else(PoisonError::into_inner);
            } else {
                if Instant::now() >= give_up_at {
                    return false;
                }
                let (g, _) = self
                    .turn
                    .wait_timeout(st, Duration::from_millis(20))
                    .unwrap_or_else(PoisonError::into_inner);
                st = g;
            }
        }
    }

    /// A scheduling point before a visible operation; `me` stays runnable.
    fn op_point(&self, me: TaskId) {
        let mut st = self.lock_state();
        if st.failure.is_some() {
            drop(st);
            abort_task();
        }
        self.choose_next(&mut st, me, true);
        self.wait_for_turn(st, me, true);
    }

    /// Take the baton away from a task that started unwinding.
    fn detach(&self, me: TaskId) {
        let mut st = self.lock_state();
        if matches!(st.tasks[me], TaskStatus::Detached | TaskStatus::Finished) {
            return;
        }
        st.tasks[me] = TaskStatus::Detached;
        if st.current == me {
            self.choose_next(&mut st, NO_TASK, false);
        }
    }

    /// Acquire model ownership of mutex `mid`. Returns `true` if ownership
    /// was taken (the guard must release it); degraded mode may give up and
    /// fall back to the real lock alone.
    fn lock_acquire(&self, me: TaskId, mid: u64, strict: bool, yield_first: bool) -> bool {
        if strict && yield_first {
            self.op_point(me);
        }
        loop {
            let mut st = self.lock_state();
            if strict && st.failure.is_some() {
                drop(st);
                abort_task();
            }
            if let std::collections::hash_map::Entry::Vacant(e) = st.lock_owner.entry(mid) {
                e.insert(me);
                return true;
            }
            if strict {
                st.tasks[me] = TaskStatus::BlockedLock(mid);
                self.choose_next(&mut st, me, true);
                self.wait_for_turn(st, me, true);
            } else {
                // Degraded: wait (bounded, off-baton) for the owner to
                // release; on timeout trust the real mutex for exclusion.
                let give_up_at = Instant::now() + Duration::from_secs(5);
                loop {
                    if let std::collections::hash_map::Entry::Vacant(e) = st.lock_owner.entry(mid) {
                        e.insert(me);
                        return true;
                    }
                    if Instant::now() >= give_up_at {
                        return false;
                    }
                    let (g, _) = self
                        .turn
                        .wait_timeout(st, Duration::from_millis(20))
                        .unwrap_or_else(PoisonError::into_inner);
                    st = g;
                }
            }
        }
    }

    /// Release model ownership of `mid` and make contenders runnable.
    /// Release is not itself a yield point: any interleaving it could
    /// expose is exposed by the contenders' own acquire points.
    fn lock_release(&self, me: TaskId, mid: u64) {
        let mut st = self.lock_state();
        if st.lock_owner.get(&mid) == Some(&me) {
            st.lock_owner.remove(&mid);
        }
        let mut woke = false;
        for t in st.tasks.iter_mut() {
            if *t == TaskStatus::BlockedLock(mid) {
                *t = TaskStatus::Runnable;
                woke = true;
            }
        }
        if woke && st.current == NO_TASK {
            self.choose_next(&mut st, NO_TASK, false);
        } else if woke {
            self.turn.notify_all();
        }
    }

    /// Atomically enqueue on condvar `cvid`, release mutex `mid`, and block
    /// until notified. The caller reacquires the mutex afterwards.
    fn cv_wait(&self, me: TaskId, cvid: u64, mid: u64) {
        let mut st = self.lock_state();
        if st.failure.is_some() {
            drop(st);
            abort_task();
        }
        st.cv_waiters.entry(cvid).or_default().push(me);
        if st.lock_owner.get(&mid) == Some(&me) {
            st.lock_owner.remove(&mid);
        }
        for t in st.tasks.iter_mut() {
            if *t == TaskStatus::BlockedLock(mid) {
                *t = TaskStatus::Runnable;
            }
        }
        st.tasks[me] = TaskStatus::BlockedCv(cvid);
        self.choose_next(&mut st, me, true);
        self.wait_for_turn(st, me, true);
    }

    /// Wake one waiter (a recorded decision when several wait) or all.
    fn cv_notify(&self, me: TaskId, cvid: u64, all: bool, strict: bool) {
        if strict {
            self.op_point(me);
        }
        let mut st = self.lock_state();
        let waiters = st.cv_waiters.remove(&cvid).unwrap_or_default();
        if waiters.is_empty() {
            // Nobody parked: the notification is lost, exactly like std.
            return;
        }
        if all {
            for w in waiters {
                st.tasks[w] = TaskStatus::Runnable;
            }
        } else {
            let mut waiters = waiters;
            // Which waiter wakes is genuine nondeterminism: a decision
            // point, but never a preemption (the notifier keeps running).
            let idx = self.pick(&mut st, waiters.len() as u32, false, strict);
            let w = waiters.remove(idx as usize);
            st.tasks[w] = TaskStatus::Runnable;
            if !waiters.is_empty() {
                st.cv_waiters.insert(cvid, waiters);
            }
        }
        if st.current == NO_TASK {
            self.choose_next(&mut st, NO_TASK, false);
        } else {
            self.turn.notify_all();
        }
    }

    /// Block until `target` finishes.
    fn join_task(&self, me: TaskId, target: TaskId, strict: bool) {
        loop {
            let mut st = self.lock_state();
            if strict && st.failure.is_some() {
                drop(st);
                abort_task();
            }
            if matches!(st.tasks[target], TaskStatus::Finished) {
                return;
            }
            if strict {
                st.tasks[me] = TaskStatus::BlockedJoin(target);
                self.choose_next(&mut st, me, true);
                self.wait_for_turn(st, me, true);
            } else if !self.wait_for_turn_degraded_until_finished(st, target) {
                return; // grace period expired; fall through to real join
            }
        }
    }

    fn wait_for_turn_degraded_until_finished(
        &self,
        mut st: StdMutexGuard<'_, ExecState>,
        target: TaskId,
    ) -> bool {
        let give_up_at = Instant::now() + Duration::from_secs(5);
        loop {
            if matches!(st.tasks[target], TaskStatus::Finished) {
                return true;
            }
            if Instant::now() >= give_up_at {
                return false;
            }
            let (g, _) = self
                .turn
                .wait_timeout(st, Duration::from_millis(20))
                .unwrap_or_else(PoisonError::into_inner);
            st = g;
        }
    }

    /// Mark `me` finished, report a failure if it died of a real panic,
    /// wake joiners, and pass the baton. Called from every task's exit
    /// guard; never blocks.
    fn finish_task(&self, me: TaskId, panicked: Option<String>) {
        let mut st = self.lock_state();
        if let Some(msg) = panicked {
            let seed = encode_schedule(&st.trace);
            let name = st.names[me].clone();
            st.fail(format!(
                "task {me} [{name}] panicked: {msg} (schedule: {seed})"
            ));
        }
        st.tasks[me] = TaskStatus::Finished;
        for t in st.tasks.iter_mut() {
            if *t == TaskStatus::BlockedJoin(me) {
                *t = TaskStatus::Runnable;
            }
        }
        let record = st.failure.is_none();
        self.choose_next(&mut st, me, record);
    }
}

/// Drops at task exit: reports panics (except scheduler-driven aborts) and
/// always marks the task finished so joiners and the driver can proceed.
struct FinishGuard {
    exec: Arc<Execution>,
    id: TaskId,
}

impl Drop for FinishGuard {
    fn drop(&mut self) {
        let panicked = if std::thread::panicking() && !ABORTED.with(|a| a.get()) {
            Some("scenario assertion or panic".to_string())
        } else {
            None
        };
        self.exec.finish_task(self.id, panicked);
    }
}

// ---------------------------------------------------------------------------
// Instrumented primitives
// ---------------------------------------------------------------------------

/// Model-aware mutex; same API surface as [`std::sync::Mutex`] (the subset
/// the engine uses).
pub struct Mutex<T: ?Sized> {
    id: u64,
    inner: StdMutex<T>,
}

impl<T> Mutex<T> {
    pub fn new(t: T) -> Self {
        Mutex {
            id: next_object_id(),
            inner: StdMutex::new(t),
        }
    }
}

impl<T: ?Sized> Mutex<T> {
    pub(crate) fn lock(&self) -> LockResult<MutexGuard<'_, T>> {
        match op_mode() {
            OpMode::Unregistered => match self.inner.lock() {
                Ok(g) => Ok(MutexGuard {
                    lock: self,
                    inner: Some(g),
                    model: None,
                }),
                Err(p) => Err(PoisonError::new(MutexGuard {
                    lock: self,
                    inner: Some(p.into_inner()),
                    model: None,
                })),
            },
            OpMode::Model(h) => {
                h.exec.lock_acquire(h.id, self.id, true, true);
                let g = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
                Ok(MutexGuard {
                    lock: self,
                    inner: Some(g),
                    model: Some(h),
                })
            }
            OpMode::Degraded(h) => {
                let owned = h.exec.lock_acquire(h.id, self.id, false, false);
                let g = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
                Ok(MutexGuard {
                    lock: self,
                    inner: Some(g),
                    model: owned.then_some(h),
                })
            }
        }
    }
}

impl<T: ?Sized + std::fmt::Debug> std::fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Mutex").finish_non_exhaustive()
    }
}

/// Guard for [`Mutex`]; releases model ownership after the real lock.
pub struct MutexGuard<'a, T: ?Sized> {
    lock: &'a Mutex<T>,
    inner: Option<StdMutexGuard<'a, T>>,
    model: Option<TaskHandle>,
}

impl<T: ?Sized> std::ops::Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.inner.as_deref().expect("guard holds the lock")
    }
}

impl<T: ?Sized> std::ops::DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.inner.as_deref_mut().expect("guard holds the lock")
    }
}

impl<T: ?Sized> Drop for MutexGuard<'_, T> {
    fn drop(&mut self) {
        // Real lock first (so a woken contender can take it immediately),
        // then model ownership.
        self.inner = None;
        if let Some(h) = self.model.take() {
            h.exec.lock_release(h.id, self.lock.id);
        }
    }
}

/// Model-aware condition variable paired with [`Mutex`].
pub struct Condvar {
    id: u64,
    inner: StdCondvar,
}

impl Condvar {
    #[allow(clippy::new_without_default)]
    pub fn new() -> Self {
        Condvar {
            id: next_object_id(),
            inner: StdCondvar::new(),
        }
    }

    pub(crate) fn wait<'a, T>(
        &self,
        mut guard: MutexGuard<'a, T>,
    ) -> LockResult<MutexGuard<'a, T>> {
        let lock = guard.lock;
        match op_mode() {
            OpMode::Unregistered => {
                let std_guard = guard.inner.take().expect("guard holds the lock");
                match self.inner.wait(std_guard) {
                    Ok(g) => {
                        guard.inner = Some(g);
                        Ok(guard)
                    }
                    Err(p) => {
                        guard.inner = Some(p.into_inner());
                        Err(PoisonError::new(guard))
                    }
                }
            }
            OpMode::Model(h) => {
                // Release both layers, park on the model waiter list, then
                // reacquire like any contender. Defuse the guard so an
                // abort while parked doesn't double-release.
                guard.inner = None;
                guard.model = None;
                drop(guard);
                h.exec.cv_wait(h.id, self.id, lock.id);
                h.exec.lock_acquire(h.id, lock.id, true, false);
                let g = lock.inner.lock().unwrap_or_else(PoisonError::into_inner);
                Ok(MutexGuard {
                    lock,
                    inner: Some(g),
                    model: Some(h),
                })
            }
            OpMode::Degraded(_) => {
                // Spurious wakeup: legal per the contract, and the only
                // non-blocking option while unwinding. Callers loop on
                // their predicate. Brief sleep so predicate loops that
                // depend on other tasks' progress don't spin hot.
                std::thread::sleep(Duration::from_micros(100));
                Ok(guard)
            }
        }
    }

    pub fn notify_one(&self) {
        match op_mode() {
            OpMode::Unregistered => self.inner.notify_one(),
            OpMode::Model(h) => h.exec.cv_notify(h.id, self.id, false, true),
            OpMode::Degraded(h) => h.exec.cv_notify(h.id, self.id, false, false),
        }
    }

    pub(crate) fn notify_all(&self) {
        match op_mode() {
            OpMode::Unregistered => self.inner.notify_all(),
            OpMode::Model(h) => h.exec.cv_notify(h.id, self.id, true, true),
            OpMode::Degraded(h) => h.exec.cv_notify(h.id, self.id, true, false),
        }
    }
}

impl std::fmt::Debug for Condvar {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Condvar").finish_non_exhaustive()
    }
}

/// Model-aware `AtomicU64`: every access is a scheduling point, the value
/// itself lives in a real atomic.
#[derive(Debug, Default)]
pub struct AtomicU64 {
    v: StdAtomicU64,
}

impl AtomicU64 {
    pub(crate) fn new(v: u64) -> Self {
        AtomicU64 {
            v: StdAtomicU64::new(v),
        }
    }

    pub(crate) fn load(&self, order: Ordering) -> u64 {
        if let OpMode::Model(h) = op_mode() {
            h.exec.op_point(h.id);
        }
        self.v.load(order)
    }

    pub fn store(&self, val: u64, order: Ordering) {
        if let OpMode::Model(h) = op_mode() {
            h.exec.op_point(h.id);
        }
        self.v.store(val, order)
    }

    pub(crate) fn fetch_add(&self, val: u64, order: Ordering) -> u64 {
        if let OpMode::Model(h) = op_mode() {
            h.exec.op_point(h.id);
        }
        self.v.fetch_add(val, order)
    }
}

/// Model-aware thread spawn/join.
pub mod thread {
    use super::*;

    /// Drop-in for [`std::thread::Builder`]: spawning from a registered
    /// task registers the child with the same execution.
    #[derive(Debug, Default)]
    pub struct Builder {
        name: Option<String>,
    }

    impl Builder {
        pub fn new() -> Self {
            Builder { name: None }
        }

        #[must_use]
        pub fn name(mut self, name: String) -> Self {
            self.name = Some(name);
            self
        }

        pub fn spawn<F, T>(self, f: F) -> io::Result<JoinHandle<T>>
        where
            F: FnOnce() -> T + Send + 'static,
            T: Send + 'static,
        {
            let mut b = std::thread::Builder::new();
            let name = self.name.clone().unwrap_or_else(|| "model-task".into());
            if let Some(n) = self.name {
                b = b.name(n);
            }
            match op_mode() {
                OpMode::Unregistered => Ok(JoinHandle(Handle::Real(b.spawn(f)?))),
                OpMode::Model(h) | OpMode::Degraded(h) => {
                    let exec = Arc::clone(&h.exec);
                    let id = exec.register_task(name);
                    let exec2 = Arc::clone(&exec);
                    let real = b.spawn(move || {
                        CURRENT.with(|c| {
                            *c.borrow_mut() = Some(TaskHandle {
                                exec: Arc::clone(&exec2),
                                id,
                            });
                        });
                        let _finish = FinishGuard {
                            exec: Arc::clone(&exec2),
                            id,
                        };
                        // Park until scheduled for the first time.
                        let st = exec2.lock_state();
                        exec2.wait_for_turn(st, id, true);
                        f()
                    })?;
                    Ok(JoinHandle(Handle::Model { real, exec, id }))
                }
            }
        }
    }

    enum Handle<T> {
        Real(std::thread::JoinHandle<T>),
        Model {
            real: std::thread::JoinHandle<T>,
            exec: Arc<Execution>,
            id: TaskId,
        },
    }

    /// Drop-in for [`std::thread::JoinHandle`].
    pub struct JoinHandle<T>(Handle<T>);

    impl<T> JoinHandle<T> {
        pub fn join(self) -> std::thread::Result<T> {
            match self.0 {
                Handle::Real(h) => h.join(),
                Handle::Model { real, exec, id } => {
                    match op_mode() {
                        OpMode::Unregistered => {}
                        OpMode::Model(h) => exec.join_task(h.id, id, true),
                        OpMode::Degraded(h) => exec.join_task(h.id, id, false),
                    }
                    real.join()
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Explorer
// ---------------------------------------------------------------------------

/// Bounds and replay input for [`explore`].
#[derive(Clone, Debug)]
pub struct ExploreOpts {
    /// Maximum preemptive context switches per schedule (CHESS-style
    /// bound). Non-preemptive switches (the running task blocked) are free.
    pub preemption_bound: u32,
    /// Stop after this many executions (0 = unlimited).
    pub max_executions: u64,
    /// Stop when this deadline passes (checked between executions).
    pub deadline: Option<Instant>,
    /// Per-execution scheduling-step limit (livelock guard).
    pub step_limit: u64,
    /// Decision prefix to start from; with `replay_only` this pins the
    /// whole schedule.
    pub prefix: Vec<u32>,
    /// Run exactly one execution following `prefix`.
    pub replay_only: bool,
}

impl Default for ExploreOpts {
    fn default() -> Self {
        ExploreOpts {
            preemption_bound: 2,
            max_executions: 0,
            deadline: None,
            step_limit: 200_000,
            prefix: Vec::new(),
            replay_only: false,
        }
    }
}

impl ExploreOpts {
    /// Replay a single schedule from an encoded seed
    /// (a [`Counterexample::seed`]).
    pub(crate) fn replay(seed: &str) -> Result<Self, String> {
        Ok(ExploreOpts {
            prefix: decode_schedule(seed)?,
            replay_only: true,
            ..ExploreOpts::default()
        })
    }
}

/// Outcome of an exploration.
#[derive(Clone, Debug)]
pub struct ExploreOutcome {
    /// Executions (distinct schedules) run.
    pub executions: u64,
    /// Total decision points traversed across all executions.
    pub decisions: u64,
    /// The DFS fully enumerated every schedule within the preemption bound.
    pub exhausted: bool,
    /// First failing schedule found, if any.
    pub failure: Option<Counterexample>,
}

/// A failing schedule: the decision seed reproduces it deterministically.
#[derive(Clone, Debug)]
pub struct Counterexample {
    /// Encoded decision vector; feed to [`ExploreOpts::replay`].
    pub seed: String,
    /// What went wrong (deadlock report or panic message).
    pub message: String,
}

/// Encode a decision vector as a replayable seed string (`mc1:` followed
/// by dot-separated choice indices).
fn encode_schedule(trace: &[ChoicePoint]) -> String {
    let choices: Vec<String> = trace.iter().map(|c| c.chosen.to_string()).collect();
    format!("mc1:{}", choices.join("."))
}

/// Decode a [`Counterexample::seed`] back into a decision vector.
pub fn decode_schedule(seed: &str) -> Result<Vec<u32>, String> {
    let body = seed
        .trim()
        .strip_prefix("mc1:")
        .ok_or_else(|| format!("seed {seed:?} does not start with \"mc1:\""))?;
    if body.is_empty() {
        return Ok(Vec::new());
    }
    body.split('.')
        .map(|p| {
            p.parse::<u32>()
                .map_err(|e| format!("bad seed component {p:?}: {e}"))
        })
        .collect()
}

struct RunResult {
    trace: Vec<ChoicePoint>,
    failure: Option<String>,
}

fn run_one(prefix: &[u32], step_limit: u64, scenario: Arc<dyn Fn() + Send + Sync>) -> RunResult {
    let exec = Arc::new(Execution::new(prefix.to_vec(), step_limit));
    let root_id = exec.register_task("root".into());
    debug_assert_eq!(root_id, 0);
    let exec2 = Arc::clone(&exec);
    let root = std::thread::Builder::new()
        .name("model-root".into())
        .spawn(move || {
            CURRENT.with(|c| {
                *c.borrow_mut() = Some(TaskHandle {
                    exec: Arc::clone(&exec2),
                    id: root_id,
                });
            });
            let _finish = FinishGuard {
                exec: Arc::clone(&exec2),
                id: root_id,
            };
            scenario();
        })
        .expect("spawn model-check root thread");
    let _ = root.join();
    // Root exit does not imply quiescence (it may have leaked tasks, or a
    // failure teardown is still unwinding workers); wait for every task.
    let give_up_at = Instant::now() + Duration::from_secs(30);
    let mut st = exec.lock_state();
    loop {
        if st.tasks.iter().all(|t| matches!(t, TaskStatus::Finished)) {
            break;
        }
        if st.failure.is_none()
            && st.tasks.iter().all(|t| {
                matches!(
                    t,
                    TaskStatus::Finished
                        | TaskStatus::BlockedCv(_)
                        | TaskStatus::BlockedLock(_)
                        | TaskStatus::BlockedJoin(_)
                )
            })
            && st.current == NO_TASK
        {
            // Shouldn't happen (choose_next reports deadlocks), but never
            // wedge the driver on a bookkeeping hole.
            let report = st.describe_tasks();
            st.fail(format!("tasks leaked past root exit: {report}"));
            exec.turn.notify_all();
        }
        if Instant::now() >= give_up_at {
            let report = st.describe_tasks();
            st.fail(format!("execution wedged during teardown: {report}"));
            break;
        }
        let (g, _) = exec
            .turn
            .wait_timeout(st, Duration::from_millis(50))
            .unwrap_or_else(PoisonError::into_inner);
        st = g;
    }
    RunResult {
        trace: st.trace.clone(),
        failure: st.failure.clone(),
    }
}

fn install_quiet_panic_hook() {
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let prev = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            // Panics on registered model tasks are captured and reported
            // through the execution trace; don't spew per-schedule noise.
            if CURRENT.with(|c| c.borrow().is_some()) {
                return;
            }
            prev(info);
        }));
    });
}

/// Preemptions consumed by the first `upto` decisions of `trace`.
fn preemptions(trace: &[ChoicePoint], upto: usize) -> u32 {
    trace[..upto]
        .iter()
        .filter(|c| c.preemptive && c.chosen > 0)
        .count() as u32
}

/// Depth-first exploration of every schedule of `scenario` within
/// `opts.preemption_bound`. Deterministic: same scenario + same opts visit
/// the same schedules in the same order.
pub fn explore(opts: &ExploreOpts, scenario: impl Fn() + Send + Sync + 'static) -> ExploreOutcome {
    install_quiet_panic_hook();
    let scenario: Arc<dyn Fn() + Send + Sync> = Arc::new(scenario);
    let mut prefix: Vec<u32> = opts.prefix.clone();
    let mut executions = 0u64;
    let mut decisions = 0u64;
    loop {
        let run = run_one(&prefix, opts.step_limit, Arc::clone(&scenario));
        executions += 1;
        decisions += run.trace.len() as u64;
        if let Some(message) = run.failure {
            return ExploreOutcome {
                executions,
                decisions,
                exhausted: false,
                failure: Some(Counterexample {
                    seed: encode_schedule(&run.trace),
                    message,
                }),
            };
        }
        if opts.replay_only {
            return ExploreOutcome {
                executions,
                decisions,
                exhausted: false,
                failure: None,
            };
        }
        // Backtrack: deepest decision with an untried alternative that
        // stays within the preemption bound. The next prefix replays
        // everything above it, so the DFS enumerates schedules exactly
        // once.
        let mut next: Option<Vec<u32>> = None;
        'search: for k in (0..run.trace.len()).rev() {
            let cp = run.trace[k];
            let cost = preemptions(&run.trace, k) + u32::from(cp.preemptive);
            if cost > opts.preemption_bound {
                continue;
            }
            if cp.chosen + 1 < cp.ncand {
                let mut p: Vec<u32> = run.trace[..k].iter().map(|c| c.chosen).collect();
                p.push(cp.chosen + 1);
                next = Some(p);
                break 'search;
            }
        }
        match next {
            None => {
                return ExploreOutcome {
                    executions,
                    decisions,
                    exhausted: true,
                    failure: None,
                }
            }
            Some(p) => prefix = p,
        }
        if opts.max_executions != 0 && executions >= opts.max_executions {
            return ExploreOutcome {
                executions,
                decisions,
                exhausted: false,
                failure: None,
            };
        }
        if let Some(deadline) = opts.deadline {
            if Instant::now() >= deadline {
                return ExploreOutcome {
                    executions,
                    decisions,
                    exhausted: false,
                    failure: None,
                };
            }
        }
    }
}

/// Re-run one encoded schedule; used by `fcbench-analyze check-pool
/// --replay`. Returns the outcome of that single execution.
pub fn replay(
    seed: &str,
    scenario: impl Fn() + Send + Sync + 'static,
) -> Result<ExploreOutcome, String> {
    let opts = ExploreOpts::replay(seed)?;
    Ok(explore(&opts, scenario))
}
