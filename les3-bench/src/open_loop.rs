//! The open-loop driver: requests are sent on a schedule whether or not
//! earlier ones have completed, so a slow server builds a queue instead
//! of receiving less load. Each request is timed from when it was *due*,
//! which charges a stall to every request that had to wait behind it,
//! and how late the generator itself ran is reported beside it.

use std::sync::mpsc;
use std::time::{Duration, Instant};

/// One request as the collector saw it.
#[derive(Debug, Clone, Copy)]
pub struct Arrival {
    pub index: usize,
    pub due: Instant,
    /// When the generator entered and left the submit call.
    pub submit: (Instant, Instant),
    pub done: Instant,
    /// What the completion callback reported.
    pub ok: bool,
}

impl Arrival {
    /// Latency from the due time, nanoseconds.
    pub fn latency_ns(&self) -> u64 {
        (self.done - self.due).as_nanos() as u64
    }
}

/// Submits request `i` at `schedule_ns[i]` after the start from a
/// generator thread and completes the handles in submit order on the
/// calling thread. `submit(i, due)` returns without waiting for the
/// answer; `complete(i, handle)` blocks until it is there and says
/// whether it was a good one.
pub fn drive<T: Send>(
    schedule_ns: &[u64],
    submit: impl FnMut(usize, Instant) -> T + Send,
    mut complete: impl FnMut(usize, T) -> bool,
) -> Vec<Arrival> {
    let (tx, rx) = mpsc::channel();
    let start = Instant::now();
    std::thread::scope(|scope| {
        let generator = scope.spawn(move || {
            let mut submit = submit;
            for (index, &offset) in schedule_ns.iter().enumerate() {
                let due = start + Duration::from_nanos(offset);
                let now = Instant::now();
                if due > now {
                    std::thread::sleep(due - now);
                }
                let entered = Instant::now();
                let handle = submit(index, due);
                let sent = tx.send((index, due, (entered, Instant::now()), handle));
                if sent.is_err() {
                    return; // the collector is gone; it reports why
                }
            }
        });
        let mut arrivals = Vec::with_capacity(schedule_ns.len());
        for (index, due, submit, handle) in rx {
            let ok = complete(index, handle);
            arrivals.push(Arrival {
                index,
                due,
                submit,
                done: Instant::now(),
                ok,
            });
        }
        generator.join().expect("open-loop generator panicked");
        arrivals
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A one-at-a-time FIFO server with a fixed service time that stalls
    /// once: the handle is the instant the answer will be ready.
    #[test]
    fn a_stall_inflates_the_latency_of_the_requests_queued_behind_it() {
        let service = Duration::from_millis(1);
        let stall = Duration::from_millis(60);
        // 30 requests, one every 2 ms: the server is half idle.
        let schedule: Vec<u64> = (0..30).map(|i| i * 2_000_000).collect();
        let mut free_at = Instant::now();
        let arrivals = drive(
            &schedule,
            |i, _due| {
                let begin = free_at.max(Instant::now());
                free_at = begin + service + if i == 5 { stall } else { Duration::ZERO };
                free_at
            },
            |_, ready: Instant| {
                std::thread::sleep(ready.saturating_duration_since(Instant::now()));
                true
            },
        );
        assert_eq!(arrivals.len(), 30);
        assert!(arrivals.iter().all(|a| a.ok));
        let ms = |i: usize| arrivals[i].latency_ns() as f64 / 1e6;
        // Before the stall a request costs about its service time.
        assert!(ms(2) < 20.0, "request 2 took {} ms", ms(2));
        // Request 5 stalled; 6..=15 did their own 1 ms of work each, yet
        // were due while the server was stuck, and an open loop counts
        // that wait (a closed loop would have sent them later and seen
        // ~1 ms).
        assert!(ms(5) >= 60.0);
        for i in 6..=15 {
            assert!(
                ms(i) >= 30.0,
                "request {i} behind the stall took {} ms",
                ms(i)
            );
        }
        // The backlog drains at 1 ms per 2 ms of schedule.
        assert!(ms(29) < ms(6));
    }

    #[test]
    fn arrivals_come_back_in_submit_order_never_submitted_early() {
        let schedule = [0u64, 1_000_000, 2_000_000];
        let arrivals = drive(&schedule, |i, _| i * 10, |i, handle| handle == i * 10);
        let order: Vec<usize> = arrivals.iter().map(|a| a.index).collect();
        assert_eq!(order, vec![0, 1, 2]);
        assert!(arrivals.iter().all(|a| a.ok && a.submit.0 >= a.due));
    }
}
