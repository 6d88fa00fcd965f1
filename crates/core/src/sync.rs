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
//! `std::sync::atomic` / `std::thread` imports in this crate outside
//! this module, keeping the ported modules honest.
//!
//! Types with no scheduling-visible behavior (`Arc`, `OnceLock`,
//! `PoisonError`) stay `std` under both configurations.

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

pub use std::sync::{Arc, OnceLock, PoisonError};
