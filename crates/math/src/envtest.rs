//! Process-global serialization for tests that touch `ABC_FHE_*`
//! environment variables.
//!
//! `cargo test` runs `#[test]` functions on parallel threads within one
//! process, and the environment is process state: two tests doing the
//! ad-hoc save/`set_var`/restore dance can interleave so that one test
//! observes the other's override — or restores a stale "previous" value
//! over a live one. [`EnvGuard`] fixes both halves of that race:
//!
//! * construction takes a process-wide mutex, so at most one
//!   env-mutating test runs at a time (across every crate that links
//!   `abc-math`, since the mutex lives in this shared library);
//! * every mutation records the variable's original value exactly once,
//!   and `Drop` restores all of them in reverse order — including on
//!   panic, so a failing assertion cannot leak an override into later
//!   tests.
//!
//! ```no_run
//! use abc_math::envtest::EnvGuard;
//!
//! let mut env = EnvGuard::lock();
//! env.set("ABC_FHE_NTT_KERNEL", "harvey");
//! // ... build plans, assert ...
//! // guard drops: ABC_FHE_NTT_KERNEL restored, mutex released
//! ```
//!
//! The `env-access` rule in `abc-analysis` forbids direct
//! `env::set_var`/`remove_var` on `ABC_FHE_*` everywhere outside this
//! module, so the serialized path is the only path.

use std::sync::{Mutex, MutexGuard, PoisonError};

/// The process-wide test-env mutex. A poisoned mutex is recovered:
/// the poison only tells us a previous test failed, and that guard's
/// `Drop` already restored its variables.
static ENV_MUTEX: Mutex<()> = Mutex::new(());

/// RAII guard serializing env mutation and restoring every variable it
/// touched when dropped.
pub struct EnvGuard {
    _lock: MutexGuard<'static, ()>,
    saved: Vec<(String, Option<String>)>,
}

impl EnvGuard {
    /// Acquires the process-wide env mutex (blocking until any other
    /// env-mutating test finishes).
    pub fn lock() -> EnvGuard {
        EnvGuard {
            _lock: ENV_MUTEX.lock().unwrap_or_else(PoisonError::into_inner),
            saved: Vec::new(),
        }
    }

    /// Records `key`'s current value (first touch only) so `Drop` can
    /// restore it.
    fn save_once(&mut self, key: &str) {
        if !self.saved.iter().any(|(k, _)| k == key) {
            self.saved.push((key.to_string(), std::env::var(key).ok()));
        }
    }

    /// Sets `key = value` for the lifetime of the guard.
    pub fn set(&mut self, key: &str, value: &str) {
        self.save_once(key);
        std::env::set_var(key, value);
    }

    /// Unsets `key` for the lifetime of the guard.
    pub fn remove(&mut self, key: &str) {
        self.save_once(key);
        std::env::remove_var(key);
    }

    /// Reads `key` while holding the serialization lock.
    pub fn get(&self, key: &str) -> Option<String> {
        std::env::var(key).ok()
    }
}

impl Drop for EnvGuard {
    fn drop(&mut self) {
        // Reverse order: if the same key were saved twice (it is not —
        // `save_once` — but cheap insurance), the earliest snapshot
        // lands last.
        for (key, value) in self.saved.drain(..).rev() {
            match value {
                Some(v) => std::env::set_var(&key, v),
                None => std::env::remove_var(&key),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const KEY: &str = "ABC_FHE_ENVTEST_PROBE";

    #[test]
    fn restores_on_drop() {
        let outer = {
            let mut env = EnvGuard::lock();
            env.set(KEY, "outer");
            // Nested mutation of the same key: restored to the
            // pre-guard state, not the intermediate one.
            env.set(KEY, "inner");
            env.get(KEY)
        };
        assert_eq!(outer.as_deref(), Some("inner"));
        let mut env = EnvGuard::lock();
        assert_eq!(env.get(KEY), None, "guard must restore the unset state");
        env.remove(KEY); // no-op removal still restores cleanly
    }
}
