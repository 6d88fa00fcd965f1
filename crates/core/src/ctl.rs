//! Cooperative query interruption: deadlines and cancellation.
//!
//! A production front cannot afford to run every admitted query to
//! completion: a request whose client has given up (deadline passed,
//! connection dropped, ticket cancelled) is pure wasted CPU that delays
//! every query behind it. LES3's query paths are long loops over groups,
//! so interruption is **cooperative**: the hot paths accept a
//! [`QueryCtl`] and poll it at natural phase boundaries —
//!
//! * once between the phase-A filter pass and verification (the single
//!   most valuable check: filtering is cheap, verification is where the
//!   CPU goes), and
//! * once per group inside the verify loop, so an in-flight query stops
//!   at the next group boundary rather than after the whole descent.
//!
//! A poll costs one atomic load (cancellation), the caller's `gone`
//! check when one is set, and one monotonic-clock read (deadline) — all
//! skipped for [`QueryCtl::NONE`], which the uncontrolled entry points
//! ([`crate::ShardedLes3Index::knn_with`] and friends) pass, so the
//! existing hot paths pay an empty check each.
//!
//! The cancellation flag and the deadline are polled at every boundary.
//! The serving front's `gone` check
//! ([`ServeFront::run`](crate::serve::ServeFront::run)) counts the
//! boundaries and reads the clock at each of a query's first 16, then at
//! every 16th — a read costs ≈ 48 ns on a 2-core x86-64 container, and a
//! kNN crosses ≈ 180 boundaries — and probes the client only when a read
//! finds [`PROBE_INTERVAL`](crate::serve::PROBE_INTERVAL) passed since
//! its last probe. So once the client has left and an interval has
//! passed, the query stops within 16 boundaries; a slow query, which has
//! few boundaries, is read at each of its first 16.
//!
//! Interruption never loses work silently: the `*_ctl` entry points
//! return [`Interrupted`] carrying the [`SearchStats`] accumulated up to
//! the stop, so callers (the serving front's overload accounting, a
//! future network layer) can report exactly how much CPU the abandoned
//! query consumed.

use crate::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

use crate::stats::SearchStats;

/// Why a query was interrupted before completing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InterruptReason {
    /// The query's deadline passed while it was queued or running.
    Expired,
    /// The query's cancellation token was triggered (e.g. its
    /// [`Ticket`](crate::serve::Ticket) was dropped or cancelled).
    Cancelled,
}

/// An interrupted query: the reason plus the work performed before the
/// stop (partial [`SearchStats`] — `columns_checked` from a completed
/// filter pass, `groups_verified` for every group finished before the
/// boundary check fired).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interrupted {
    /// What stopped the query.
    pub reason: InterruptReason,
    /// Work performed before the stop.
    pub stats: SearchStats,
}

/// Cooperative interruption control for one in-flight query.
///
/// Bundles an optional drop-dead [`Instant`] with an optional shared
/// cancellation flag and an optional `gone` signal (the caller's own
/// check that nobody waits for the answer any more); the query hot paths
/// poll [`QueryCtl::interrupted`] at phase and group boundaries.
/// Cancellation is checked first (an atomic load is cheaper than a
/// clock read, and an explicit cancel is the stronger signal), then
/// `gone`, then the deadline.
#[derive(Clone, Copy, Default)]
pub struct QueryCtl<'a> {
    deadline: Option<Instant>,
    cancelled: Option<&'a AtomicBool>,
    gone: Option<&'a dyn Fn() -> bool>,
}

impl std::fmt::Debug for QueryCtl<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QueryCtl")
            .field("deadline", &self.deadline)
            .field("cancelled", &self.cancelled)
            .field("gone", &self.gone.is_some())
            .finish()
    }
}

impl<'a> QueryCtl<'a> {
    /// The no-op control: never interrupts, polls cost nothing. The
    /// plain entry points (`knn_with`, `range_with`, the batch kNN) use
    /// this, keeping their behavior bit-for-bit unchanged.
    pub const NONE: QueryCtl<'static> = QueryCtl {
        deadline: None,
        cancelled: None,
        gone: None,
    };

    /// A control that interrupts once `deadline` has passed.
    pub fn with_deadline(deadline: Instant) -> QueryCtl<'static> {
        QueryCtl {
            deadline: Some(deadline),
            ..QueryCtl::NONE
        }
    }

    /// A control over both signals (the serving front threads the
    /// request's deadline and its ticket's cancellation flag through
    /// here).
    pub fn new(deadline: Option<Instant>, cancelled: Option<&'a AtomicBool>) -> Self {
        Self {
            deadline,
            cancelled,
            gone: None,
        }
    }

    /// This control plus a `gone` signal: once `gone()` returns `true` the
    /// query stops as [`InterruptReason::Cancelled`]. It is called at
    /// every boundary, so an expensive check (a socket probe) should
    /// throttle itself — the serving front's wrapper reads the clock at the
    /// first 16 boundaries and every 16th after them, and asks at most
    /// once per [`PROBE_INTERVAL`](crate::serve::PROBE_INTERVAL).
    pub fn or_gone(self, gone: &'a dyn Fn() -> bool) -> Self {
        Self {
            gone: Some(gone),
            ..self
        }
    }

    /// Polls every signal; `Some(reason)` once the query should stop.
    #[inline]
    pub fn interrupted(&self) -> Option<InterruptReason> {
        if let Some(flag) = self.cancelled {
            if flag.load(Ordering::Acquire) {
                return Some(InterruptReason::Cancelled);
            }
        }
        if self.gone.is_some_and(|gone| gone()) {
            return Some(InterruptReason::Cancelled);
        }
        if let Some(deadline) = self.deadline {
            if Instant::now() >= deadline {
                return Some(InterruptReason::Expired);
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn none_never_interrupts() {
        assert_eq!(QueryCtl::NONE.interrupted(), None);
    }

    #[test]
    fn deadline_interrupts_once_passed() {
        let ctl = QueryCtl::with_deadline(Instant::now() + Duration::from_secs(600));
        assert_eq!(ctl.interrupted(), None);
        let ctl = QueryCtl::with_deadline(Instant::now());
        assert_eq!(ctl.interrupted(), Some(InterruptReason::Expired));
    }

    #[test]
    fn cancellation_wins_over_deadline() {
        let flag = AtomicBool::new(true);
        let ctl = QueryCtl::new(Some(Instant::now()), Some(&flag));
        assert_eq!(ctl.interrupted(), Some(InterruptReason::Cancelled));
        flag.store(false, Ordering::Release);
        assert_eq!(ctl.interrupted(), Some(InterruptReason::Expired));
    }

    #[test]
    fn gone_cancels_after_the_flag_and_before_the_deadline() {
        let flag = AtomicBool::new(false);
        let gone = std::cell::Cell::new(false);
        let polls = std::cell::Cell::new(0);
        let probe = || {
            polls.set(polls.get() + 1);
            gone.get()
        };
        let ctl = QueryCtl::new(Some(Instant::now()), Some(&flag)).or_gone(&probe);
        assert_eq!(ctl.interrupted(), Some(InterruptReason::Expired));
        gone.set(true);
        assert_eq!(ctl.interrupted(), Some(InterruptReason::Cancelled));
        assert_eq!(polls.get(), 2);
        flag.store(true, Ordering::Release);
        assert_eq!(ctl.interrupted(), Some(InterruptReason::Cancelled));
        assert_eq!(polls.get(), 2, "a raised flag answers without asking");
    }
}
