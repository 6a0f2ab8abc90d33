//! Open-loop load generation with due-time accounting.
//!
//! Request `i` is *due* at `i / rate` seconds after the start, whether
//! or not earlier requests have finished. A sender thread that falls
//! behind sends late, and the request's latency is measured from its
//! due time, not from when it was finally sent. A stall therefore shows
//! in the latency of every request queued behind it instead of being
//! hidden (the coordinated-omission error of closed-loop timing).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// One request's timing, seconds from the schedule's start.
#[derive(Debug, Clone, PartialEq)]
pub struct Timing<T> {
    /// Position in the schedule.
    pub index: usize,
    /// When the request was due.
    pub due: f64,
    /// When a sender actually started it.
    pub start: f64,
    /// When its reply had been received and checked.
    pub end: f64,
    /// What the sender returned.
    pub outcome: T,
}

impl<T> Timing<T> {
    /// Latency as a caller sees it: reply time minus due time.
    pub fn latency(&self) -> f64 {
        self.end - self.due
    }

    /// How late the generator started the request.
    pub fn lateness(&self) -> f64 {
        (self.start - self.due).max(0.0)
    }
}

/// Sends `count` requests at `rate_hz` from `threads` sender threads;
/// `send(i)` performs request `i`. Returns the timings in schedule
/// order.
pub fn run<T, F>(rate_hz: f64, count: usize, threads: usize, send: F) -> Vec<Timing<T>>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let next = AtomicUsize::new(0);
    let out = Mutex::new(Vec::with_capacity(count));
    let t0 = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..threads.max(1) {
            scope.spawn(|| {
                let mut mine = Vec::new();
                loop {
                    let index = next.fetch_add(1, Ordering::Relaxed);
                    if index >= count {
                        break;
                    }
                    let due = index as f64 / rate_hz;
                    let now = t0.elapsed().as_secs_f64();
                    if now < due {
                        std::thread::sleep(Duration::from_secs_f64(due - now));
                    }
                    let start = t0.elapsed().as_secs_f64();
                    let outcome = send(index);
                    let end = t0.elapsed().as_secs_f64();
                    mine.push(Timing {
                        index,
                        due,
                        start,
                        end,
                        outcome,
                    });
                }
                out.lock().unwrap_or_else(|e| e.into_inner()).extend(mine);
            });
        }
    });
    let mut all = out.into_inner().unwrap_or_else(|e| e.into_inner());
    all.sort_by_key(|t| t.index);
    all
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn injected_stall_shows_in_later_requests_latency() {
        // 200 req/s (5 ms apart), one sender; request 10 stalls 60 ms.
        let timings = run(200.0, 40, 1, |i| {
            if i == 10 {
                std::thread::sleep(Duration::from_millis(60));
            }
        });
        assert_eq!(timings.len(), 40);
        assert!(timings.iter().enumerate().all(|(k, t)| t.index == k));
        let ms = |i: usize| timings[i].latency() * 1e3;
        assert!(ms(10) >= 60.0, "the stalled request itself: {}", ms(10));
        // Requests queued behind the stall were due during it: each is
        // late by the remaining stall, and its latency says so even
        // though its own service time is ~0.
        for (i, floor) in [(11, 50.0), (12, 45.0), (15, 30.0)] {
            let t = &timings[i];
            assert!(ms(i) >= floor, "request {i}: {} ms", ms(i));
            assert!(t.lateness() * 1e3 >= floor, "request {i} lateness");
            assert!((t.end - t.start) * 1e3 < 20.0, "request {i} service time");
        }
        // Once the backlog drains the schedule is met again.
        assert!(ms(35) < 20.0, "recovered: {}", ms(35));
    }

    #[test]
    fn unloaded_schedule_is_on_time_and_complete() {
        let timings = run(500.0, 50, 2, |i| i * 2);
        assert_eq!(timings.len(), 50);
        for (k, t) in timings.iter().enumerate() {
            assert_eq!((t.index, t.outcome), (k, k * 2));
            assert!((t.due - k as f64 / 500.0).abs() < 1e-12);
            assert!(t.start >= t.due);
        }
        let late: Vec<f64> = timings.iter().map(Timing::lateness).collect();
        assert!(crate::stats::median(&late) < 0.010);
    }
}
