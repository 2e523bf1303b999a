//! Minimal SIGINT hook — no `libc` crate in the offline build, so the C
//! `signal(2)` entry point is declared directly (one of the workspace's
//! two `unsafe` blocks, each confined to its module; the other is the
//! `poll(2)` call in `readiness`).

use std::sync::atomic::{AtomicBool, Ordering};

static SIGINT_SEEN: AtomicBool = AtomicBool::new(false);

/// Whether SIGINT arrived since [`install_sigint_handler`].
#[must_use]
pub fn sigint_seen() -> bool {
    SIGINT_SEEN.load(Ordering::Relaxed)
}

#[cfg(unix)]
#[allow(unsafe_code)]
mod imp {
    use super::{AtomicBool, Ordering, SIGINT_SEEN};

    const SIGINT: i32 = 2;
    const SIG_ERR: usize = usize::MAX;

    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }

    extern "C" fn on_sigint(_signum: i32) {
        // Only async-signal-safe work: flip the flag.
        SIGINT_SEEN.store(true, Ordering::Relaxed);
    }

    pub fn install() -> bool {
        static INSTALLED: AtomicBool = AtomicBool::new(false);
        if INSTALLED.swap(true, Ordering::Relaxed) {
            return true;
        }
        let handler: extern "C" fn(i32) = on_sigint;
        // SAFETY: `signal` is the C standard library entry point; the
        // handler only touches an atomic flag.
        let prev = unsafe { signal(SIGINT, handler as usize) };
        prev != SIG_ERR
    }
}

#[cfg(not(unix))]
mod imp {
    pub fn install() -> bool {
        false
    }
}

/// Installs a SIGINT handler that sets the [`sigint_seen`] flag (a server
/// driver polls it next to the stop flag for graceful shutdown). Returns
/// whether installation succeeded; on non-Unix targets this is a no-op
/// returning `false`. Idempotent.
pub fn install_sigint_handler() -> bool {
    imp::install()
}
