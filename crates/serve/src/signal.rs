//! SIGTERM / SIGINT → graceful-shutdown flag, with no libc crate.
//!
//! The workspace is std-only, so the handlers are installed through a
//! direct `extern "C"` declaration of POSIX `signal(2)` — the one
//! place in the workspace that needs `unsafe`. The handler body only
//! stores a relaxed [`AtomicBool`], which is async-signal-safe. A
//! signal does not interrupt a blocked `accept` (glibc's `signal(2)`
//! installs restartable handlers), so `Server::join` polls the flag
//! and wakes the accept loop itself. On non-unix targets installation
//! is a no-op and only the `shutdown` method stops the daemon.

use std::sync::atomic::{AtomicBool, Ordering};

static SHUTDOWN: AtomicBool = AtomicBool::new(false);

/// Whether SIGTERM or SIGINT has arrived.
pub fn shutdown_requested() -> bool {
    SHUTDOWN.load(Ordering::Relaxed)
}

/// Clears the flag — test-only escape hatch so sequential in-process
/// servers in one test binary don't see each other's shutdowns.
pub fn reset_for_tests() {
    SHUTDOWN.store(false, Ordering::Relaxed);
}

#[cfg(unix)]
#[allow(unsafe_code)]
mod imp {
    use std::sync::atomic::Ordering;

    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;

    extern "C" fn on_signal(_signum: i32) {
        super::SHUTDOWN.store(true, Ordering::Relaxed);
    }

    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }

    pub fn install() {
        let handler = on_signal as extern "C" fn(i32) as *const () as usize;
        // SAFETY: `signal` is the POSIX call; the handler only touches
        // an atomic, which is async-signal-safe.
        unsafe {
            signal(SIGINT, handler);
            signal(SIGTERM, handler);
        }
    }
}

#[cfg(not(unix))]
mod imp {
    pub fn install() {}
}

/// Installs SIGINT/SIGTERM handlers that raise the shutdown flag
/// (no-op off unix).
pub fn install() {
    imp::install();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flag_round_trips() {
        reset_for_tests();
        assert!(!shutdown_requested());
        SHUTDOWN.store(true, Ordering::Relaxed);
        assert!(shutdown_requested());
        reset_for_tests();
        assert!(!shutdown_requested());
    }
}
