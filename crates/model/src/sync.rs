//! Model-aware drop-in replacements for the `std::sync` locks the
//! workspace uses, plus `thread::{spawn, JoinHandle}`.
//!
//! Every type is *dual-mode*: an object created on a modeled thread is
//! registered with the scheduler and all its operations become schedule
//! points; an object created outside the scheduler (or locked from an
//! unmodeled thread) behaves exactly like its `std` counterpart. This
//! keeps feature-enabled builds fully functional for ordinary tests and
//! lets the CLI run normally even when compiled with the model crate.
//!
//! API surface intentionally mirrors `std` (including `LockResult` /
//! `PoisonError`) so `core::sync` can re-export either implementation
//! unchanged.

use crate::scheduler::{self, cur_ctx, Ctx, Execution};
use std::sync::{
    Arc, Condvar as StdCondvar, LockResult, Mutex as StdMutex, MutexGuard as StdMutexGuard,
    PoisonError, RwLock as StdRwLock, RwLockReadGuard as StdRwLockReadGuard,
    RwLockWriteGuard as StdRwLockWriteGuard,
};

/// Registration of one model object: which execution owns it and its
/// per-category id.
struct Reg {
    exec: Arc<Execution>,
    id: usize,
}

impl Reg {
    /// The current context *if* it belongs to the same execution as
    /// this object (a leaked object from a previous iteration must not
    /// feed a stale scheduler).
    fn ctx(&self) -> Option<Ctx> {
        cur_ctx().filter(|c| Arc::ptr_eq(&c.exec, &self.exec))
    }
}

// ---------------------------------------------------------------------------
// Mutex
// ---------------------------------------------------------------------------

/// Model-aware [`std::sync::Mutex`].
pub struct Mutex<T: ?Sized> {
    reg: Option<Reg>,
    inner: StdMutex<T>,
}

/// Guard returned by [`Mutex::lock`].
pub struct MutexGuard<'a, T: ?Sized> {
    lock: &'a Mutex<T>,
    inner: Option<StdMutexGuard<'a, T>>,
    /// Whether the model currently records this thread as the holder.
    tracked: bool,
}

impl<T> Mutex<T> {
    /// Create a mutex; registers with the scheduler when called on a
    /// modeled thread.
    pub fn new(value: T) -> Self {
        let reg = cur_ctx().map(|ctx| Reg {
            id: scheduler::register_lock(&ctx.exec),
            exec: ctx.exec,
        });
        Mutex {
            reg,
            inner: StdMutex::new(value),
        }
    }

    /// Consume the mutex, returning the inner value.
    pub fn into_inner(self) -> LockResult<T> {
        self.inner.into_inner()
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquire the lock (a schedule point under the model).
    pub fn lock(&self) -> LockResult<MutexGuard<'_, T>> {
        if let Some(reg) = &self.reg {
            if let Some(ctx) = reg.ctx() {
                scheduler::mutex_lock(&ctx, reg.id);
                let inner = self
                    .inner
                    .try_lock()
                    .unwrap_or_else(|_| panic!("model mutex m{} contended for real", reg.id));
                return Ok(MutexGuard {
                    lock: self,
                    inner: Some(inner),
                    tracked: true,
                });
            }
        }
        match self.inner.lock() {
            Ok(g) => Ok(MutexGuard {
                lock: self,
                inner: Some(g),
                tracked: false,
            }),
            Err(p) => Err(PoisonError::new(MutexGuard {
                lock: self,
                inner: Some(p.into_inner()),
                tracked: false,
            })),
        }
    }

    /// Mutable access without locking (requires `&mut self`).
    pub fn get_mut(&mut self) -> LockResult<&mut T> {
        self.inner.get_mut()
    }
}

impl<T: ?Sized> std::ops::Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.inner.as_ref().expect("guard taken")
    }
}

impl<T: ?Sized> std::ops::DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.inner.as_mut().expect("guard taken")
    }
}

impl<T: ?Sized> Drop for MutexGuard<'_, T> {
    fn drop(&mut self) {
        // Release the real lock before telling the scheduler, so that
        // whichever thread the scheduler runs next can take it.
        self.inner = None;
        if !self.tracked {
            return;
        }
        let reg = self
            .lock
            .reg
            .as_ref()
            .expect("tracked guard has registration");
        // A guard is not `Send`: a tracked one drops on the modeled
        // thread that took it.
        if let Some(ctx) = reg.ctx() {
            scheduler::mutex_unlock(&ctx, reg.id);
        }
    }
}

impl<T: Default> Default for Mutex<T> {
    fn default() -> Self {
        Mutex::new(T::default())
    }
}

impl<T: ?Sized + std::fmt::Debug> std::fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.inner.fmt(f)
    }
}

// ---------------------------------------------------------------------------
// Condvar
// ---------------------------------------------------------------------------

/// Model-aware [`std::sync::Condvar`]. `notify` with no waiters is a
/// lost wakeup, exactly as with the real primitive.
pub struct Condvar {
    reg: Option<Reg>,
    inner: StdCondvar,
}

impl Condvar {
    /// Create a condvar; registers with the scheduler when called on a
    /// modeled thread.
    pub fn new() -> Self {
        let reg = cur_ctx().map(|ctx| Reg {
            id: scheduler::register_cv(&ctx.exec),
            exec: ctx.exec,
        });
        Condvar {
            reg,
            inner: StdCondvar::new(),
        }
    }

    /// Release the guard's mutex, wait to be notified, reacquire.
    pub fn wait<'a, T>(&self, mut guard: MutexGuard<'a, T>) -> LockResult<MutexGuard<'a, T>> {
        if guard.tracked {
            if let Some(reg) = &self.reg {
                if let Some(ctx) = reg.ctx() {
                    let lock = guard.lock;
                    let lock_reg = lock.reg.as_ref().expect("tracked guard has registration");
                    let lock_id = lock_reg.id;
                    // Defuse: drop the real guard without a model
                    // release — cv_wait does release + reacquire.
                    guard.tracked = false;
                    drop(guard);
                    scheduler::cv_wait(&ctx, reg.id, lock_id);
                    let inner = lock
                        .inner
                        .try_lock()
                        .unwrap_or_else(|_| panic!("model mutex m{lock_id} contended for real"));
                    return Ok(MutexGuard {
                        lock,
                        inner: Some(inner),
                        tracked: true,
                    });
                }
            }
        }
        // std path.
        let lock = guard.lock;
        let inner = guard.inner.take().expect("guard taken");
        guard.tracked = false; // neutralize Drop bookkeeping
        drop(guard);
        match self.inner.wait(inner) {
            Ok(g) => Ok(MutexGuard {
                lock,
                inner: Some(g),
                tracked: false,
            }),
            Err(p) => Err(PoisonError::new(MutexGuard {
                lock,
                inner: Some(p.into_inner()),
                tracked: false,
            })),
        }
    }

    /// Wake one waiter (FIFO under the model).
    pub fn notify_one(&self) {
        if let Some(reg) = &self.reg {
            if let Some(ctx) = reg.ctx() {
                scheduler::cv_notify(&ctx, reg.id, false);
                return;
            }
        }
        self.inner.notify_one();
    }

    /// Wake every waiter.
    pub fn notify_all(&self) {
        if let Some(reg) = &self.reg {
            if let Some(ctx) = reg.ctx() {
                scheduler::cv_notify(&ctx, reg.id, true);
                return;
            }
        }
        self.inner.notify_all();
    }
}

impl Default for Condvar {
    fn default() -> Self {
        Condvar::new()
    }
}

// ---------------------------------------------------------------------------
// RwLock
// ---------------------------------------------------------------------------

/// Model-aware [`std::sync::RwLock`].
pub struct RwLock<T: ?Sized> {
    reg: Option<Reg>,
    inner: StdRwLock<T>,
}

/// Shared-read guard for [`RwLock`].
pub struct RwLockReadGuard<'a, T: ?Sized> {
    lock: &'a RwLock<T>,
    inner: Option<StdRwLockReadGuard<'a, T>>,
    tracked: bool,
}

/// Exclusive-write guard for [`RwLock`].
pub struct RwLockWriteGuard<'a, T: ?Sized> {
    lock: &'a RwLock<T>,
    inner: Option<StdRwLockWriteGuard<'a, T>>,
    tracked: bool,
}

impl<T> RwLock<T> {
    /// Create an rwlock; registers with the scheduler when called on a
    /// modeled thread.
    pub fn new(value: T) -> Self {
        let reg = cur_ctx().map(|ctx| Reg {
            id: scheduler::register_rw(&ctx.exec),
            exec: ctx.exec,
        });
        RwLock {
            reg,
            inner: StdRwLock::new(value),
        }
    }

    /// Consume the lock, returning the inner value.
    pub fn into_inner(self) -> LockResult<T> {
        self.inner.into_inner()
    }
}

impl<T: ?Sized> RwLock<T> {
    /// Acquire a shared read lock (a schedule point under the model).
    pub fn read(&self) -> LockResult<RwLockReadGuard<'_, T>> {
        if let Some(reg) = &self.reg {
            if let Some(ctx) = reg.ctx() {
                scheduler::rw_lock(&ctx, reg.id, false);
                let inner = self
                    .inner
                    .try_read()
                    .unwrap_or_else(|_| panic!("model rwlock r{} contended for real", reg.id));
                return Ok(RwLockReadGuard {
                    lock: self,
                    inner: Some(inner),
                    tracked: true,
                });
            }
        }
        match self.inner.read() {
            Ok(g) => Ok(RwLockReadGuard {
                lock: self,
                inner: Some(g),
                tracked: false,
            }),
            Err(p) => Err(PoisonError::new(RwLockReadGuard {
                lock: self,
                inner: Some(p.into_inner()),
                tracked: false,
            })),
        }
    }

    /// Acquire the exclusive write lock (a schedule point under the
    /// model).
    pub fn write(&self) -> LockResult<RwLockWriteGuard<'_, T>> {
        if let Some(reg) = &self.reg {
            if let Some(ctx) = reg.ctx() {
                scheduler::rw_lock(&ctx, reg.id, true);
                let inner = self
                    .inner
                    .try_write()
                    .unwrap_or_else(|_| panic!("model rwlock r{} contended for real", reg.id));
                return Ok(RwLockWriteGuard {
                    lock: self,
                    inner: Some(inner),
                    tracked: true,
                });
            }
        }
        match self.inner.write() {
            Ok(g) => Ok(RwLockWriteGuard {
                lock: self,
                inner: Some(g),
                tracked: false,
            }),
            Err(p) => Err(PoisonError::new(RwLockWriteGuard {
                lock: self,
                inner: Some(p.into_inner()),
                tracked: false,
            })),
        }
    }

    /// Mutable access without locking (requires `&mut self`).
    pub fn get_mut(&mut self) -> LockResult<&mut T> {
        self.inner.get_mut()
    }
}

macro_rules! rw_guard_impls {
    ($guard:ident, $write:expr) => {
        impl<T: ?Sized> std::ops::Deref for $guard<'_, T> {
            type Target = T;
            fn deref(&self) -> &T {
                self.inner.as_ref().expect("guard taken")
            }
        }

        impl<T: ?Sized> Drop for $guard<'_, T> {
            fn drop(&mut self) {
                self.inner = None;
                if !self.tracked {
                    return;
                }
                let reg = self
                    .lock
                    .reg
                    .as_ref()
                    .expect("tracked guard has registration");
                if let Some(ctx) = reg.ctx() {
                    scheduler::rw_unlock(&ctx, reg.id, $write);
                }
            }
        }
    };
}

rw_guard_impls!(RwLockReadGuard, false);
rw_guard_impls!(RwLockWriteGuard, true);

impl<T: ?Sized> std::ops::DerefMut for RwLockWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.inner.as_mut().expect("guard taken")
    }
}

impl<T: Default> Default for RwLock<T> {
    fn default() -> Self {
        RwLock::new(T::default())
    }
}

impl<T: ?Sized + std::fmt::Debug> std::fmt::Debug for RwLock<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.inner.fmt(f)
    }
}

// ---------------------------------------------------------------------------
// Threads
// ---------------------------------------------------------------------------

/// Model-aware thread spawn/join.
pub mod thread {
    use super::{cur_ctx, scheduler, Execution};
    use std::sync::{Arc, Mutex as StdMutex};

    enum Inner<T> {
        Std(std::thread::JoinHandle<T>),
        Model {
            exec: Arc<Execution>,
            id: usize,
            slot: Arc<StdMutex<Option<T>>>,
        },
    }

    /// Handle to a spawned thread; mirrors [`std::thread::JoinHandle`].
    pub struct JoinHandle<T>(Inner<T>);

    /// Spawn a thread. On a modeled thread the child joins the
    /// scheduler (its id appears in traces as `tN`); otherwise this is
    /// `std::thread::spawn`.
    pub fn spawn<F, T>(f: F) -> JoinHandle<T>
    where
        F: FnOnce() -> T + Send + 'static,
        T: Send + 'static,
    {
        if let Some(ctx) = cur_ctx() {
            let slot = Arc::new(StdMutex::new(None));
            let slot2 = slot.clone();
            let id = scheduler::spawn_thread(&ctx, move || {
                let out = f();
                *slot2.lock().unwrap_or_else(|e| e.into_inner()) = Some(out);
            });
            JoinHandle(Inner::Model {
                exec: ctx.exec,
                id,
                slot,
            })
        } else {
            JoinHandle(Inner::Std(std::thread::spawn(f)))
        }
    }

    impl<T> JoinHandle<T> {
        /// Wait for the thread to finish and return its result.
        pub fn join(self) -> std::thread::Result<T> {
            match self.0 {
                Inner::Std(h) => h.join(),
                Inner::Model { exec, id, slot } => {
                    let ctx = cur_ctx()
                        .filter(|c| Arc::ptr_eq(&c.exec, &exec))
                        .expect("model JoinHandle joined off-scheduler");
                    scheduler::thread_join(&ctx, id);
                    match slot.lock().unwrap_or_else(|e| e.into_inner()).take() {
                        Some(v) => Ok(v),
                        None => Err(Box::new("model thread produced no result")),
                    }
                }
            }
        }
    }
}
