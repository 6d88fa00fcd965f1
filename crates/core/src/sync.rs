//! Synchronization facade for `les3-core`.
//!
//! Every concurrency-bearing module in this crate imports its atomics,
//! locks, and threads from here instead of from `std` directly. Under
//! the default build these are exactly the `std::sync` / `std::thread`
//! types (zero-cost re-exports). Under the `model` cargo feature they
//! are the instrumented types of the vendored `loom` model checker, so
//! `tests/model_check.rs` can exhaustively explore the schedules of the
//! real protocol implementations (see `docs/CONCURRENCY.md`).
//!
//! The xtask lint (`cargo run -p xtask -- lint`) bans raw
//! `std::sync::atomic` / `std::thread` imports and `std::sync` locks
//! (`RwLock`, `Mutex`, `Condvar`) in this crate outside this module,
//! keeping the ported modules honest.
//!
//! Types with no scheduling-visible behavior (`Arc`, `OnceLock`,
//! `PoisonError`) stay `std` under both configurations. So does
//! `RwLock`, for a different reason: the vendored loom shim has none, so
//! the model checker cannot see one — it may only guard plain
//! reader/writer exclusion of a value (a namespace's index, the registry
//! map), never carry a protocol (no upgrade, no condition, no ordering
//! another thread relies on).

#[cfg(not(feature = "model"))]
pub use std::sync::atomic;
#[cfg(not(feature = "model"))]
pub use std::sync::{Condvar, Mutex, MutexGuard, WaitTimeoutResult};
#[cfg(not(feature = "model"))]
pub use std::thread;

#[cfg(feature = "model")]
pub use loom::sync::atomic;
#[cfg(feature = "model")]
pub use loom::sync::{Condvar, Mutex, MutexGuard, WaitTimeoutResult};
#[cfg(feature = "model")]
pub use loom::thread;

pub use std::sync::{Arc, OnceLock, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};
