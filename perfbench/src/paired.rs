//! Best-of-k timing of short operations (`spice-circuits`, `serve-hot`).
//!
//! The reference box is a shared VM whose speed flips between a fast
//! and a slow state (about 1.4–1.75× apart) every 0.2–3 s, and the share
//! of time spent slow drifts from one minute to the next (measured
//! between a half and nine tenths). A median of single millisecond
//! timings then lands in either state's cluster depending on that
//! share, and jumps between runs. So every operation is timed
//! [`PASSES`] times, a chunk of operations apart, each repeat on a
//! replica that misses every cache, and its latency is the fastest of
//! its timings: the time the operation takes when the host is not in
//! the way. Every timing is a real operation and counts towards
//! throughput and the tail.

use std::time::Instant;

/// Timings per operation. With a slow share `f`, all of them land in
/// the slow state with probability `f^PASSES`; at five that stays
/// below a half up to `f` = 0.87.
pub const PASSES: usize = 5;

/// Every timing of one operation, ms, in the order they ran.
#[derive(Debug, Clone, PartialEq)]
pub struct Timed<T> {
    pub op: T,
    pub ms: Vec<f64>,
}

impl<T> Timed<T> {
    pub fn best_ms(&self) -> f64 {
        self.ms.iter().copied().fold(f64::INFINITY, f64::min)
    }
}

/// Runs operations from `next` for about `seconds`, in chunks. The first
/// pass times each operation of a chunk; the chunk closes after
/// `chunk_s` seconds, or early enough that its remaining passes end
/// near the deadline. Each further pass times every operation of the
/// chunk again, in the same order. `exec(op, pass)` runs one operation
/// (pass 0 is the original, pass k its k-th replica) and returns its
/// latency in ms. With `chunk_s` = 0 every chunk is one operation,
/// timed back to back. Returns the operations in the order they ran.
pub fn run<T: Copy, E>(
    seconds: f64,
    chunk_s: f64,
    passes: usize,
    mut next: impl FnMut() -> T,
    mut exec: impl FnMut(&T, usize) -> Result<f64, E>,
) -> Result<Vec<Timed<T>>, E> {
    let start = Instant::now();
    let mut out = Vec::new();
    loop {
        let chunk_start = Instant::now();
        let mut chunk = Vec::new();
        loop {
            let op = next();
            let ms = exec(&op, 0)?;
            chunk.push(Timed { op, ms: vec![ms] });
            let used = chunk_start.elapsed().as_secs_f64();
            let left = used * (passes - 1) as f64;
            if used >= chunk_s || start.elapsed().as_secs_f64() + left >= seconds {
                break;
            }
        }
        for pass in 1..passes {
            for t in &mut chunk {
                let ms = exec(&t.op, pass)?;
                t.ms.push(ms);
            }
        }
        out.extend(chunk);
        if start.elapsed().as_secs_f64() >= seconds {
            return Ok(out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn counter() -> impl FnMut() -> u32 {
        let mut n = 0;
        move || {
            n += 1;
            n
        }
    }

    #[test]
    fn later_passes_replay_the_chunk_in_order() {
        let mut log = Vec::new();
        // A long chunk holds every operation run before the deadline;
        // repeats take longer than first timings, so the phase ends
        // after that one chunk.
        let timed = run::<u32, ()>(0.02, 10.0, 3, counter(), |&op, pass| {
            log.push((op, pass));
            std::thread::sleep(std::time::Duration::from_millis(1 + pass as u64));
            Ok(f64::from(op) + 0.5 * (2 - pass) as f64)
        })
        .unwrap();
        let k = timed.len();
        assert!(k >= 1);
        assert_eq!(log.len(), 3 * k);
        for pass in 0..3 {
            let ops: Vec<u32> = log[pass * k..(pass + 1) * k]
                .iter()
                .map(|&(op, p)| {
                    assert_eq!(p, pass);
                    op
                })
                .collect();
            assert_eq!(ops, (1..=k as u32).collect::<Vec<_>>());
        }
        // The fastest timing is the last pass's.
        assert!(timed.iter().all(|t| t.best_ms() == f64::from(t.op)));
        assert!(timed.iter().all(|t| t.ms.len() == 3));
    }

    #[test]
    fn zero_chunk_times_each_operation_back_to_back() {
        let mut log = Vec::new();
        let timed = run::<u32, ()>(0.005, 0.0, 2, counter(), |&op, pass| {
            log.push((op, pass));
            std::thread::sleep(std::time::Duration::from_millis(1));
            Ok(1.0)
        })
        .unwrap();
        for (k, t) in timed.iter().enumerate() {
            assert_eq!(log[2 * k], (t.op, 0));
            assert_eq!(log[2 * k + 1], (t.op, 1));
        }
    }

    #[test]
    fn an_error_stops_the_phase() {
        let got = run(10.0, 0.0, 3, || 1, |_, _| Err::<f64, _>("boom"));
        assert_eq!(got, Err("boom"));
    }
}
