//! The deterministic scheduler: one global token is passed between real
//! OS threads so that exactly one modeled thread runs at a time. Every
//! facade operation is a *schedule point* where the scheduler consults a
//! recorded path (DFS replay) or extends it with a default choice.
//!
//! Exploration is depth-first over the tree of scheduling choices, with
//! three bounds:
//!
//! * a **preemption budget** — involuntary context switches cost budget,
//!   voluntary ones (block/finish) are free (Musuvathi & Qadeer's
//!   iterative context bounding);
//! * a **state hash** — a fingerprint of thread positions, observations
//!   and every model object, lock histories included; a schedule point
//!   whose fingerprint was already visited terminates the iteration
//!   early (the continuation is determined by the fingerprint, so it has
//!   already been explored);
//! * a **step budget** per iteration as a livelock guard.
//!
//! A failing schedule is minimized by greedily re-running with each
//! preemptive choice flipped back to "stay on the current thread" and
//! keeping the flip whenever the failure still reproduces.

use crate::trace::{Event, FailureKind, FailureReport, Report};
use std::cell::RefCell;
use std::collections::{HashSet, VecDeque};
use std::panic::{self, AssertUnwindSafe};
use std::sync::{
    Arc, Condvar as StdCondvar, Mutex as StdMutex, MutexGuard as StdMutexGuard, OnceLock,
};

// ---------------------------------------------------------------------------
// Thread-local context: "am I a modeled thread, and in which execution?"
// ---------------------------------------------------------------------------

thread_local! {
    static CTX: RefCell<Option<Ctx>> = const { RefCell::new(None) };
    static PANIC_LOC: RefCell<Option<String>> = const { RefCell::new(None) };
}

/// Identity of the current modeled thread within an execution.
#[derive(Clone)]
pub(crate) struct Ctx {
    pub(crate) exec: Arc<Execution>,
    pub(crate) id: usize,
}

/// The current thread's model context, if it is running under the
/// scheduler. Facade primitives fall back to `std` behavior when `None`.
pub(crate) fn cur_ctx() -> Option<Ctx> {
    CTX.with(|c| c.borrow().clone())
}

/// Panic payload used to unwind modeled threads when an iteration ends
/// early (failure elsewhere, state-hash prune). Swallowed by the shim.
struct ModelAbort;

fn is_abort(payload: &(dyn std::any::Any + Send)) -> bool {
    payload.is::<ModelAbort>()
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    let msg = if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic (non-string payload)".to_string()
    };
    match PANIC_LOC.with(|p| p.borrow_mut().take()) {
        Some(loc) => format!("{msg} at {loc}"),
        None => msg,
    }
}

/// Install (once per process) a panic hook that silences panics on
/// modeled threads — the checker catches them and reports a trace; the
/// default hook would spam stderr on every explored failing schedule.
fn install_panic_hook() {
    static HOOK: OnceLock<()> = OnceLock::new();
    HOOK.get_or_init(|| {
        let prev = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            if cur_ctx().is_some() {
                let loc = info
                    .location()
                    .map(|l| format!("{}:{}", l.file(), l.line()));
                PANIC_LOC.with(|p| *p.borrow_mut() = loc);
            } else {
                prev(info);
            }
        }));
    });
}

// ---------------------------------------------------------------------------
// Model state
// ---------------------------------------------------------------------------

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum BlockOn {
    Lock(usize),
    RwRead(usize),
    RwWrite(usize),
    Cv(usize),
    Join(usize),
}

impl BlockOn {
    fn describe(self) -> String {
        match self {
            BlockOn::Lock(i) => format!("mutex m{i}"),
            BlockOn::RwRead(i) => format!("rwlock r{i} (read)"),
            BlockOn::RwWrite(i) => format!("rwlock r{i} (write)"),
            BlockOn::Cv(i) => format!("condvar cv{i}"),
            BlockOn::Join(i) => format!("join of t{i}"),
        }
    }
    fn code(self) -> (u64, u64) {
        match self {
            BlockOn::Lock(i) => (1, i as u64),
            BlockOn::RwRead(i) => (2, i as u64),
            BlockOn::RwWrite(i) => (3, i as u64),
            BlockOn::Cv(i) => (4, i as u64),
            BlockOn::Join(i) => (5, i as u64),
        }
    }
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum Status {
    Runnable,
    Blocked(BlockOn),
    Finished,
}

pub(crate) struct ThreadSt {
    pub(crate) status: Status,
    /// Number of schedule points this thread has passed (its "program
    /// position" for the state fingerprint).
    ops: u64,
    /// Rolling hash of everything this thread has observed: the
    /// histories of the locks it acquired, its parent's state, and the
    /// states of the threads it joined. Position + observations
    /// determine the future behavior of deterministic scenario code.
    obs: u64,
}

impl ThreadSt {
    fn new(obs: u64) -> Self {
        ThreadSt {
            status: Status::Runnable,
            ops: 0,
            obs,
        }
    }
    /// Everything this thread can have written so far.
    fn state(&self) -> u64 {
        mix(self.obs, self.ops)
    }
}

#[derive(Default)]
pub(crate) struct LockSt {
    pub(crate) holder: Option<usize>,
    /// The states of its holders at each release, folded in order: the
    /// data the lock guards is a function of it.
    history: u64,
}

#[derive(Default)]
pub(crate) struct RwSt {
    pub(crate) writer: Option<usize>,
    pub(crate) readers: Vec<usize>,
    /// As [`LockSt::history`], folded at each write release.
    history: u64,
}

#[derive(Default)]
pub(crate) struct CvSt {
    /// FIFO wait queue (notify_one wakes the longest waiter).
    pub(crate) waiters: VecDeque<usize>,
}

/// Which runnable thread runs next.
#[derive(Clone, Debug)]
pub(crate) struct Choice {
    options: Vec<usize>,
    pick: usize,
    /// The thread that held the token and was still runnable (picking
    /// anyone else is a preemption).
    current: Option<usize>,
}

impl Choice {
    fn preemptive_at(&self, pick: usize) -> bool {
        matches!(self.current, Some(c) if self.options[pick] != c)
    }
    fn preemptive(&self) -> bool {
        self.preemptive_at(self.pick)
    }
}

pub(crate) struct ExecState {
    pub(crate) threads: Vec<ThreadSt>,
    pub(crate) active: Option<usize>,
    pub(crate) locks: Vec<LockSt>,
    pub(crate) rws: Vec<RwSt>,
    pub(crate) cvs: Vec<CvSt>,
    path: Vec<Choice>,
    cursor: usize,
    forced: usize,
    trace: Vec<Event>,
    failure: Option<(FailureKind, String)>,
    pub(crate) abort: bool,
    pruned: bool,
    steps: u64,
    visited: HashSet<u64>,
    no_prune: bool,
    max_steps: u64,
    real: Vec<std::thread::JoinHandle<()>>,
}

/// One model execution: the shared state plus the condvar used to pass
/// the run token between real threads.
pub(crate) struct Execution {
    pub(crate) state: StdMutex<ExecState>,
    pub(crate) cv: StdCondvar,
}

pub(crate) type StGuard<'a> = StdMutexGuard<'a, ExecState>;

impl Execution {
    pub(crate) fn st(&self) -> StGuard<'_> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }
}

// ---------------------------------------------------------------------------
// Fingerprint (fnv-1a over the full model state)
// ---------------------------------------------------------------------------

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
    fn word(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

fn mix(h: u64, v: u64) -> u64 {
    (h ^ v)
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .rotate_left(31)
        .wrapping_add(0x85eb_ca6b)
}

fn fingerprint(st: &ExecState, me: usize) -> u64 {
    let mut f = Fnv::new();
    f.word(me as u64);
    f.word(st.threads.len() as u64);
    for t in &st.threads {
        let (tag, arg) = match t.status {
            Status::Runnable => (0, 0),
            Status::Blocked(b) => b.code(),
            Status::Finished => (6, 0),
        };
        f.word(tag);
        f.word(arg);
        f.word(t.ops);
        f.word(t.obs);
    }
    for l in &st.locks {
        f.word(l.holder.map_or(u64::MAX, |h| h as u64));
        f.word(l.history);
    }
    for r in &st.rws {
        f.word(r.writer.map_or(u64::MAX, |h| h as u64));
        f.word(r.history);
        f.word(r.readers.len() as u64);
        for &rd in &r.readers {
            f.word(rd as u64);
        }
    }
    for c in &st.cvs {
        f.word(c.waiters.len() as u64);
        for &w in &c.waiters {
            f.word(w as u64);
        }
    }
    f.0
}

// ---------------------------------------------------------------------------
// Core protocol: fail / bail / token passing / decisions
// ---------------------------------------------------------------------------

fn fail(exec: &Execution, st: &mut StGuard<'_>, kind: FailureKind, msg: String) {
    if st.failure.is_none() {
        st.failure = Some((kind, msg));
    }
    st.abort = true;
    exec.cv.notify_all();
}

/// Terminate this thread's participation in the iteration. Never called
/// from drop paths while unwinding (an unlock then skips its schedule
/// point).
fn bail(exec: &Execution, st: StGuard<'_>) -> ! {
    exec.cv.notify_all();
    drop(st);
    panic::panic_any(ModelAbort)
}

fn wait_for_token<'a>(exec: &'a Execution, me: usize, mut st: StGuard<'a>) -> StGuard<'a> {
    loop {
        if st.abort {
            bail(exec, st);
        }
        if st.active == Some(me) && st.threads[me].status == Status::Runnable {
            return st;
        }
        st = exec.cv.wait(st).unwrap_or_else(|e| e.into_inner());
    }
}

/// Record (or replay) one decision. Returns the thread chosen to run.
fn decide(
    exec: &Execution,
    st: &mut StGuard<'_>,
    options: Vec<usize>,
    current: Option<usize>,
) -> usize {
    debug_assert!(!options.is_empty());
    let idx = if st.cursor < st.path.len() {
        let rec = &st.path[st.cursor];
        if rec.options != options {
            let msg = format!(
                "schedule replay diverged at step {}: recorded {:?}, observed {:?}",
                st.cursor, rec.options, options
            );
            fail(exec, st, FailureKind::NonDeterminism, msg);
            return options[0];
        }
        rec.pick
    } else {
        let pick = current
            .and_then(|c| options.iter().position(|&o| o == c))
            .unwrap_or(0);
        let choice = Choice {
            options: options.clone(),
            pick,
            current,
        };
        st.path.push(choice);
        pick
    };
    st.cursor += 1;
    options[idx]
}

fn runnable_threads(st: &ExecState) -> Vec<usize> {
    st.threads
        .iter()
        .enumerate()
        .filter(|(_, t)| t.status == Status::Runnable)
        .map(|(i, _)| i)
        .collect()
}

/// Pass the token on when the current thread can no longer run (it just
/// blocked or finished). Detects deadlock: live threads but none
/// runnable.
fn hand_off(exec: &Execution, st: &mut StGuard<'_>) {
    let runnable = runnable_threads(st);
    if runnable.is_empty() {
        if st.threads.iter().all(|t| t.status == Status::Finished) {
            st.active = None;
            exec.cv.notify_all();
            return;
        }
        let blocked: Vec<String> = st
            .threads
            .iter()
            .enumerate()
            .filter_map(|(i, t)| match t.status {
                Status::Blocked(b) => Some(format!("t{i} blocked on {}", b.describe())),
                _ => None,
            })
            .collect();
        fail(exec, st, FailureKind::Deadlock, blocked.join("; "));
        return;
    }
    let next = decide(exec, st, runnable, None);
    st.active = Some(next);
    exec.cv.notify_all();
}

/// The pre-operation schedule point: bump counters, check the step
/// budget, try the state-hash prune, then let the recorded path (or the
/// default run-on policy) pick who runs next.
pub(crate) fn schedule_point(ctx: &Ctx) {
    let exec = &*ctx.exec;
    let me = ctx.id;
    let mut st = exec.st();
    if st.abort {
        bail(exec, st);
    }
    debug_assert_eq!(st.active, Some(me), "schedule point without the token");
    st.steps += 1;
    if st.steps > st.max_steps {
        let msg = format!("exceeded {} schedule points in one iteration", st.max_steps);
        fail(exec, &mut st, FailureKind::StepBudget, msg);
        bail(exec, st);
    }
    st.threads[me].ops += 1;
    if !st.no_prune && st.cursor >= st.forced {
        let h = fingerprint(&st, me);
        if !st.visited.insert(h) {
            st.pruned = true;
            st.abort = true;
            bail(exec, st);
        }
    }
    let runnable = runnable_threads(&st);
    let next = decide(exec, &mut st, runnable, Some(me));
    if st.abort {
        bail(exec, st);
    }
    if next != me {
        st.active = Some(next);
        exec.cv.notify_all();
        let st = wait_for_token(exec, me, st);
        drop(st);
    }
}

fn push_event(st: &mut StGuard<'_>, me: usize, op: String) {
    st.trace.push(Event { thread: me, op });
}

// ---------------------------------------------------------------------------
// Object registration (no schedule point: creation order is already
// determined by the schedule, and registration is invisible to other
// threads until the object is shared).
// ---------------------------------------------------------------------------

pub(crate) fn register_lock(exec: &Execution) -> usize {
    let mut st = exec.st();
    st.locks.push(LockSt::default());
    st.locks.len() - 1
}

pub(crate) fn register_rw(exec: &Execution) -> usize {
    let mut st = exec.st();
    st.rws.push(RwSt::default());
    st.rws.len() - 1
}

pub(crate) fn register_cv(exec: &Execution) -> usize {
    let mut st = exec.st();
    st.cvs.push(CvSt::default());
    st.cvs.len() - 1
}

// ---------------------------------------------------------------------------
// Mutex
// ---------------------------------------------------------------------------

fn acquire_lock(ctx: &Ctx, id: usize) {
    let exec = &*ctx.exec;
    let me = ctx.id;
    let mut st = exec.st();
    loop {
        if st.abort {
            bail(exec, st);
        }
        if st.locks[id].holder.is_none() {
            st.locks[id].holder = Some(me);
            st.threads[me].obs = mix(st.threads[me].obs, st.locks[id].history);
            push_event(&mut st, me, format!("lock m{id}"));
            return;
        }
        st.threads[me].status = Status::Blocked(BlockOn::Lock(id));
        hand_off(exec, &mut st);
        if st.abort {
            bail(exec, st);
        }
        st = wait_for_token(exec, me, st);
    }
}

pub(crate) fn mutex_lock(ctx: &Ctx, id: usize) {
    schedule_point(ctx);
    acquire_lock(ctx, id);
}

fn release_lock_locked(st: &mut StGuard<'_>, id: usize, me: usize) {
    st.locks[id].holder = None;
    st.locks[id].history = mix(st.locks[id].history, st.threads[me].state());
    for t in st.threads.iter_mut() {
        if t.status == Status::Blocked(BlockOn::Lock(id)) {
            t.status = Status::Runnable;
        }
    }
}

pub(crate) fn mutex_unlock(ctx: &Ctx, id: usize) {
    {
        let exec = &*ctx.exec;
        let mut st = exec.st();
        let me = ctx.id;
        release_lock_locked(&mut st, id, me);
        push_event(&mut st, me, format!("unlock m{id}"));
        exec.cv.notify_all();
    }
    // Post-release schedule point so a waiter can grab the lock before
    // this thread's next operation — but not while unwinding (drop
    // paths must never start a new panic).
    if !std::thread::panicking() {
        schedule_point(ctx);
    }
}

// ---------------------------------------------------------------------------
// RwLock
// ---------------------------------------------------------------------------

pub(crate) fn rw_lock(ctx: &Ctx, id: usize, write: bool) {
    schedule_point(ctx);
    let exec = &*ctx.exec;
    let me = ctx.id;
    let mut st = exec.st();
    loop {
        if st.abort {
            bail(exec, st);
        }
        let free = if write {
            st.rws[id].writer.is_none() && st.rws[id].readers.is_empty()
        } else {
            st.rws[id].writer.is_none()
        };
        if free {
            if write {
                st.rws[id].writer = Some(me);
            } else {
                st.rws[id].readers.push(me);
            }
            st.threads[me].obs = mix(st.threads[me].obs, st.rws[id].history);
            let mode = if write { "write" } else { "read" };
            push_event(&mut st, me, format!("rw-{mode} r{id}"));
            return;
        }
        let reason = if write {
            BlockOn::RwWrite(id)
        } else {
            BlockOn::RwRead(id)
        };
        st.threads[me].status = Status::Blocked(reason);
        hand_off(exec, &mut st);
        if st.abort {
            bail(exec, st);
        }
        st = wait_for_token(exec, me, st);
    }
}

fn release_rw_locked(st: &mut StGuard<'_>, id: usize, me: usize, write: bool) {
    if write {
        st.rws[id].writer = None;
        st.rws[id].history = mix(st.rws[id].history, st.threads[me].state());
    } else {
        st.rws[id].readers.retain(|&r| r != me);
    }
    let writers_can_go = st.rws[id].writer.is_none() && st.rws[id].readers.is_empty();
    for t in st.threads.iter_mut() {
        match t.status {
            Status::Blocked(BlockOn::RwRead(i)) if i == id => t.status = Status::Runnable,
            Status::Blocked(BlockOn::RwWrite(i)) if i == id && writers_can_go => {
                t.status = Status::Runnable
            }
            _ => {}
        }
    }
}

pub(crate) fn rw_unlock(ctx: &Ctx, id: usize, write: bool) {
    {
        let exec = &*ctx.exec;
        let mut st = exec.st();
        let me = ctx.id;
        release_rw_locked(&mut st, id, me, write);
        let mode = if write { "write" } else { "read" };
        push_event(&mut st, me, format!("rw-un{mode} r{id}"));
        exec.cv.notify_all();
    }
    if !std::thread::panicking() {
        schedule_point(ctx);
    }
}

// ---------------------------------------------------------------------------
// Condvar
// ---------------------------------------------------------------------------

/// Atomically release `lock_id`, join cv `cv_id`'s wait queue, and
/// yield. On return the model lock has been reacquired. The caller owns
/// the real guard dance.
pub(crate) fn cv_wait(ctx: &Ctx, cv_id: usize, lock_id: usize) {
    let exec = &*ctx.exec;
    let me = ctx.id;
    {
        let mut st = exec.st();
        if st.abort {
            bail(exec, st);
        }
        release_lock_locked(&mut st, lock_id, me);
        st.cvs[cv_id].waiters.push_back(me);
        st.threads[me].status = Status::Blocked(BlockOn::Cv(cv_id));
        push_event(&mut st, me, format!("wait cv{cv_id} (releases m{lock_id})"));
        hand_off(exec, &mut st);
        if st.abort {
            bail(exec, st);
        }
        let st = wait_for_token(exec, me, st);
        drop(st);
    }
    // Woken: contend for the lock again.
    acquire_lock(ctx, lock_id);
}

pub(crate) fn cv_notify(ctx: &Ctx, cv_id: usize, all: bool) {
    schedule_point(ctx);
    let exec = &*ctx.exec;
    let me = ctx.id;
    let mut st = exec.st();
    let mut woken = Vec::new();
    if all {
        while let Some(w) = st.cvs[cv_id].waiters.pop_front() {
            woken.push(w);
        }
    } else if let Some(w) = st.cvs[cv_id].waiters.pop_front() {
        woken.push(w);
    }
    for &w in &woken {
        st.threads[w].status = Status::Runnable;
    }
    let kind = if all { "notify_all" } else { "notify_one" };
    let detail = if woken.is_empty() {
        " (no waiters — lost)".to_string()
    } else {
        format!(
            " -> wakes {}",
            woken
                .iter()
                .map(|w| format!("t{w}"))
                .collect::<Vec<_>>()
                .join(",")
        )
    };
    push_event(&mut st, me, format!("{kind} cv{cv_id}{detail}"));
    exec.cv.notify_all();
}

// ---------------------------------------------------------------------------
// Threads
// ---------------------------------------------------------------------------

fn thread_shim(
    exec: Arc<Execution>,
    id: usize,
    f: impl FnOnce() + Send + 'static,
) -> std::thread::JoinHandle<()> {
    std::thread::Builder::new()
        .name(format!("ddc-model-t{id}"))
        .spawn(move || {
            CTX.with(|c| {
                *c.borrow_mut() = Some(Ctx {
                    exec: exec.clone(),
                    id,
                })
            });
            let result = panic::catch_unwind(AssertUnwindSafe(|| {
                let st = exec.st();
                let st = wait_for_token(&exec, id, st);
                drop(st);
                f()
            }));
            finish_thread(&exec, id, result);
            CTX.with(|c| *c.borrow_mut() = None);
        })
        .expect("spawn model shim thread")
}

fn finish_thread(exec: &Execution, me: usize, result: std::thread::Result<()>) {
    let mut st = exec.st();
    st.threads[me].status = Status::Finished;
    for t in st.threads.iter_mut() {
        if t.status == Status::Blocked(BlockOn::Join(me)) {
            t.status = Status::Runnable;
        }
    }
    if let Err(payload) = result {
        if !is_abort(payload.as_ref()) {
            let msg = panic_message(payload);
            fail(exec, &mut st, FailureKind::Panic, msg);
        }
    }
    if st.abort {
        exec.cv.notify_all();
    } else {
        push_event(&mut st, me, "exit".to_string());
        hand_off(exec, &mut st);
    }
}

/// Register + start a child thread from a modeled parent. Returns the
/// child's model thread id.
pub(crate) fn spawn_thread(ctx: &Ctx, f: impl FnOnce() + Send + 'static) -> usize {
    let exec = &ctx.exec;
    let child = {
        let mut st = exec.st();
        let parent = st.threads[ctx.id].state();
        st.threads.push(ThreadSt::new(parent));
        let child = st.threads.len() - 1;
        let handle = thread_shim(exec.clone(), child, f);
        st.real.push(handle);
        push_event(&mut st, ctx.id, format!("spawn t{child}"));
        child
    };
    // Schedule point *after* registration so the child can run first.
    schedule_point(ctx);
    child
}

pub(crate) fn thread_join(ctx: &Ctx, target: usize) {
    schedule_point(ctx);
    let exec = &*ctx.exec;
    let me = ctx.id;
    let mut st = exec.st();
    loop {
        if st.abort {
            bail(exec, st);
        }
        if st.threads[target].status == Status::Finished {
            st.threads[me].obs = mix(st.threads[me].obs, st.threads[target].state());
            push_event(&mut st, me, format!("join t{target}"));
            return;
        }
        st.threads[me].status = Status::Blocked(BlockOn::Join(target));
        hand_off(exec, &mut st);
        if st.abort {
            bail(exec, st);
        }
        st = wait_for_token(exec, me, st);
    }
}

// ---------------------------------------------------------------------------
// Checker: DFS driver + minimization
// ---------------------------------------------------------------------------

/// Exploration bounds for [`Checker::check`].
#[derive(Clone, Debug)]
pub struct CheckerConfig {
    /// Maximum involuntary context switches per schedule (iterative
    /// context bounding). 2–3 finds almost all real bugs.
    pub preemption_bound: usize,
    /// Stop after this many iterations even if the bounded space is not
    /// exhausted.
    pub max_iterations: u64,
    /// Per-iteration schedule-point budget (livelock guard).
    pub max_steps: u64,
}

impl Default for CheckerConfig {
    fn default() -> Self {
        CheckerConfig {
            preemption_bound: 2,
            max_iterations: 20_000,
            max_steps: 100_000,
        }
    }
}

/// The model checker. Runs a scenario closure under every schedule the
/// bounds allow and reports the first failure with a minimized trace.
pub struct Checker {
    cfg: CheckerConfig,
}

struct IterOut {
    path: Vec<Choice>,
    visited: HashSet<u64>,
    pruned: bool,
    failure: Option<(FailureKind, String)>,
    trace: Vec<Event>,
}

impl Checker {
    /// Checker with the given bounds.
    pub fn new(cfg: CheckerConfig) -> Self {
        Checker { cfg }
    }

    /// Checker with default bounds.
    pub fn with_defaults() -> Self {
        Checker::new(CheckerConfig::default())
    }

    /// Explore the scenario's interleavings. The closure runs once per
    /// iteration on a fresh model thread (id 0) and must be
    /// deterministic given the schedule.
    pub fn check<F>(&self, scenario: F) -> Report
    where
        F: Fn() + Send + Sync + 'static,
    {
        install_panic_hook();
        let scenario: Arc<dyn Fn() + Send + Sync> = Arc::new(scenario);
        let mut visited = HashSet::new();
        let mut path: Vec<Choice> = Vec::new();
        let mut forced = 0usize;
        let mut report = Report::default();
        loop {
            let out = self.run_once(scenario.clone(), path, forced, visited, false);
            visited = out.visited;
            report.iterations += 1;
            if out.pruned {
                report.pruned += 1;
            }
            if let Some((kind, msg)) = out.failure {
                let fr = if kind == FailureKind::NonDeterminism {
                    FailureReport {
                        kind,
                        message: msg,
                        trace: out.trace,
                        preemptions: out.path.iter().filter(|c| c.preemptive()).count(),
                        found_after: report.iterations,
                    }
                } else {
                    self.minimize(&scenario, out.path, kind, msg, report.iterations)
                };
                report.failure = Some(fr);
                break;
            }
            path = out.path;
            match self.backtrack(&mut path) {
                Some(new_forced) => forced = new_forced,
                None => break,
            }
            if report.iterations >= self.cfg.max_iterations {
                report.capped = true;
                break;
            }
        }
        report.distinct_states = visited.len();
        report
    }

    fn run_once(
        &self,
        scenario: Arc<dyn Fn() + Send + Sync>,
        path: Vec<Choice>,
        forced: usize,
        visited: HashSet<u64>,
        no_prune: bool,
    ) -> IterOut {
        let exec = Arc::new(Execution {
            state: StdMutex::new(ExecState {
                threads: vec![ThreadSt::new(0)],
                active: None,
                locks: Vec::new(),
                rws: Vec::new(),
                cvs: Vec::new(),
                path,
                cursor: 0,
                forced,
                trace: Vec::new(),
                failure: None,
                abort: false,
                pruned: false,
                steps: 0,
                visited,
                no_prune,
                max_steps: self.cfg.max_steps,
                real: Vec::new(),
            }),
            cv: StdCondvar::new(),
        });
        let root = thread_shim(exec.clone(), 0, move || scenario());
        {
            let mut st = exec.st();
            st.active = Some(0);
        }
        exec.cv.notify_all();
        {
            let mut st = exec.st();
            while !st.threads.iter().all(|t| t.status == Status::Finished) {
                st = exec.cv.wait(st).unwrap_or_else(|e| e.into_inner());
            }
        }
        root.join().ok();
        let handles = std::mem::take(&mut exec.st().real);
        for h in handles {
            h.join().ok();
        }
        let mut st = exec.st();
        IterOut {
            path: std::mem::take(&mut st.path),
            visited: std::mem::take(&mut st.visited),
            pruned: st.pruned,
            failure: st.failure.take(),
            trace: std::mem::take(&mut st.trace),
        }
    }

    /// Advance the DFS frontier: flip the deepest choice that still has
    /// an unexplored alternative within the preemption budget. Returns
    /// the new forced-prefix length, or `None` when exhausted.
    fn backtrack(&self, path: &mut Vec<Choice>) -> Option<usize> {
        for i in (0..path.len()).rev() {
            let before: usize = path[..i].iter().filter(|c| c.preemptive()).count();
            let n_opts = path[i].options.len();
            for pick in path[i].pick + 1..n_opts {
                let extra = usize::from(path[i].preemptive_at(pick));
                if before + extra > self.cfg.preemption_bound {
                    continue;
                }
                path[i].pick = pick;
                path.truncate(i + 1);
                return Some(i + 1);
            }
        }
        None
    }

    /// Greedy schedule minimization: for each preemptive choice (last
    /// first), retry with that choice flipped back to "stay on the
    /// current thread"; keep the flip if the failure still reproduces.
    fn minimize(
        &self,
        scenario: &Arc<dyn Fn() + Send + Sync>,
        path: Vec<Choice>,
        kind: FailureKind,
        msg: String,
        found_after: u64,
    ) -> FailureReport {
        let mut best = path;
        let mut trials = 0usize;
        'outer: loop {
            for i in (0..best.len()).rev() {
                if trials >= 200 {
                    break 'outer;
                }
                if !best[i].preemptive() {
                    continue;
                }
                let cur = best[i].current.expect("preemptive implies current");
                let Some(cur_idx) = best[i].options.iter().position(|&o| o == cur) else {
                    continue;
                };
                let mut cand: Vec<Choice> = best[..=i].to_vec();
                cand[i].pick = cur_idx;
                trials += 1;
                let out = self.run_once(scenario.clone(), cand, i + 1, HashSet::new(), true);
                if let Some((k, _)) = &out.failure {
                    if *k != FailureKind::NonDeterminism {
                        best = out.path;
                        continue 'outer;
                    }
                }
            }
            break;
        }
        // Deterministic final replay to capture the minimized trace.
        let forced = best.len();
        let out = self.run_once(scenario.clone(), best.clone(), forced, HashSet::new(), true);
        let (kind, message) = out.failure.unwrap_or((kind, msg));
        FailureReport {
            kind,
            message,
            trace: out.trace,
            preemptions: best.iter().filter(|c| c.preemptive()).count(),
            found_after,
        }
    }
}
