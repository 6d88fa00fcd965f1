//! Cooperative model threads. Each model thread is a real OS thread that
//! only runs while it holds the scheduler baton, so execution is fully
//! deterministic given a decision trace.

use std::any::Any;
use std::marker::PhantomData;
use std::mem;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex as StdMutex};

use crate::rt::{self, Blocked, Status, Teardown};

pub use std::thread::available_parallelism;

enum Slot<T> {
    Pending,
    Done(std::thread::Result<T>),
    Taken,
}

pub struct JoinHandle<T> {
    tid: usize,
    slot: Arc<StdMutex<Slot<T>>>,
}

pub(crate) fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

fn spawn_inner<F, T>(f: F, name: Option<String>) -> JoinHandle<T>
where
    F: FnOnce() -> T + Send + 'static,
    T: Send + 'static,
{
    let (rt, parent) = rt::current();
    // Spawning is a visible operation.
    rt.schedule_point(parent);
    let tid = rt.register_thread(parent, name.clone());
    let slot = Arc::new(StdMutex::new(Slot::Pending));
    let slot2 = Arc::clone(&slot);
    let rt2 = Arc::clone(&rt);
    let os = std::thread::Builder::new()
        .name(name.unwrap_or_else(|| format!("model-t{tid}")))
        .spawn(move || {
            rt::set_current(Arc::clone(&rt2), tid);
            let scheduled = catch_unwind(AssertUnwindSafe(|| rt2.wait_until_scheduled(tid)));
            if scheduled.is_ok() {
                let result = catch_unwind(AssertUnwindSafe(f));
                match result {
                    Ok(value) => {
                        *slot2.lock().unwrap_or_else(|e| e.into_inner()) = Slot::Done(Ok(value));
                        let _ = catch_unwind(AssertUnwindSafe(|| rt2.finish_thread(tid, None)));
                    }
                    Err(payload) if payload.downcast_ref::<Teardown>().is_some() => {
                        // Execution already failed; exit quietly.
                    }
                    Err(payload) => {
                        let msg = panic_message(payload.as_ref());
                        *slot2.lock().unwrap_or_else(|e| e.into_inner()) = Slot::Done(Err(payload));
                        let _ = catch_unwind(AssertUnwindSafe(|| {
                            rt2.finish_thread(tid, Some(msg.clone()))
                        }));
                    }
                }
            }
            rt::clear_current();
        })
        .expect("spawn OS thread for model thread");
    rt.os_handles
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .push(os);
    JoinHandle { tid, slot }
}

pub fn spawn<F, T>(f: F) -> JoinHandle<T>
where
    F: FnOnce() -> T + Send + 'static,
    T: Send + 'static,
{
    spawn_inner(f, None)
}

#[derive(Default)]
pub struct Builder {
    name: Option<String>,
}

impl Builder {
    pub fn new() -> Self {
        Builder::default()
    }

    pub fn name(mut self, name: String) -> Self {
        self.name = Some(name);
        self
    }

    pub fn spawn<F, T>(self, f: F) -> std::io::Result<JoinHandle<T>>
    where
        F: FnOnce() -> T + Send + 'static,
        T: Send + 'static,
    {
        Ok(spawn_inner(f, self.name))
    }
}

impl<T> JoinHandle<T> {
    pub fn join(self) -> std::thread::Result<T> {
        let (rt, me) = rt::current();
        assert_ne!(me, self.tid, "model thread joining itself");
        rt.schedule_point(me);
        loop {
            let finished = {
                let ex = rt.ex();
                ex.threads[self.tid].status == Status::Finished
            };
            if finished {
                break;
            }
            rt.transition(me, Some(Status::Blocked(Blocked::Join(self.tid))));
        }
        rt.with_clock(me, |ex| {
            let joined = ex.threads[self.tid].clock.clone();
            ex.threads[me].clock.join(&joined);
            // A panic observed through join() is handled, not a model
            // failure (it may be deliberate, e.g. fault injection).
            ex.threads[self.tid].unconsumed_panic = None;
        });
        let slot = mem::replace(
            &mut *self.slot.lock().unwrap_or_else(|e| e.into_inner()),
            Slot::Taken,
        );
        match slot {
            Slot::Done(result) => result,
            _ => unreachable!("finished model thread left no result"),
        }
    }
}

pub fn yield_now() {
    let (rt, me) = rt::current();
    rt.schedule_point(me);
}

/// A schedule point that returns at once: `std::thread::park` may wake
/// spuriously, so a caller must already re-check its condition in a loop.
pub fn park() {
    yield_now();
}

pub struct Scope<'scope, 'env: 'scope> {
    handles: StdMutex<Vec<JoinHandle<()>>>,
    _scope: PhantomData<&'scope mut &'scope ()>,
    _env: PhantomData<&'env mut &'env ()>,
}

/// Marker handle: scoped threads communicate through shared state and
/// are joined implicitly when the scope closes.
pub struct ScopedJoinHandle<'scope, T> {
    _scope: PhantomData<&'scope ()>,
    _t: PhantomData<T>,
}

impl<'scope, 'env> Scope<'scope, 'env> {
    pub fn spawn<F, T>(&'scope self, f: F) -> ScopedJoinHandle<'scope, T>
    where
        F: FnOnce() -> T + Send + 'scope,
        T: Send + 'scope,
    {
        let erased: Box<dyn FnOnce() + Send + 'scope> = Box::new(move || {
            let _ = f();
        });
        // Safety: Scope joins every spawned thread before `scope`
        // returns (the same lifetime-erasure contract std::thread::scope
        // relies on), so the closure never outlives 'scope borrows.
        let leaked: Box<dyn FnOnce() + Send + 'static> = unsafe { mem::transmute(erased) };
        let handle = spawn_inner(leaked, None);
        self.handles
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(handle);
        ScopedJoinHandle {
            _scope: PhantomData,
            _t: PhantomData,
        }
    }
}

/// Mirror of `std::thread::scope`: joins every spawned thread before
/// returning, then resumes the first child panic if any.
pub fn scope<'env, F, T>(f: F) -> T
where
    F: for<'scope> FnOnce(&'scope Scope<'scope, 'env>) -> T,
{
    let scope = Scope {
        handles: StdMutex::new(Vec::new()),
        _scope: PhantomData,
        _env: PhantomData,
    };
    let result = catch_unwind(AssertUnwindSafe(|| f(&scope)));
    let mut first_panic: Option<Box<dyn Any + Send>> = None;
    loop {
        let handle = scope
            .handles
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .pop();
        let Some(handle) = handle else { break };
        if let Err(payload) = handle.join() {
            if payload.downcast_ref::<Teardown>().is_some() {
                std::panic::panic_any(Teardown);
            }
            first_panic.get_or_insert(payload);
        }
    }
    match (result, first_panic) {
        (_, Some(payload)) => std::panic::resume_unwind(payload),
        (Ok(value), None) => value,
        (Err(payload), None) => std::panic::resume_unwind(payload),
    }
}
