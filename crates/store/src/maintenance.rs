//! Background maintenance: a small RAII thread that ticks a closure at
//! a fixed interval and stops promptly (condvar, not poll) on drop.
//!
//! The store itself is a plain `&mut self` value — callers that share
//! it behind a lock (the executor's `SharedPulseTable`, the bench bin)
//! use [`spawn_maintenance`] to run `PulseStore::maintain` off the
//! compilation path: eviction and compaction then happen on a
//! housekeeping thread while workers only pay the lock hand-off.

use std::sync::{Arc, Condvar, Mutex};
use std::thread;
use std::time::Duration;

/// RAII handle to a background maintenance thread. Dropping it (or
/// calling [`MaintenanceHandle::stop`]) wakes the thread and joins it,
/// even when the stop lands before the thread's first wait.
pub struct MaintenanceHandle {
    stop: Arc<(Mutex<bool>, Condvar)>,
    join: Option<thread::JoinHandle<()>>,
}

impl std::fmt::Debug for MaintenanceHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MaintenanceHandle")
            .field("running", &self.join.is_some())
            .finish()
    }
}

/// Spawns a named background thread that calls `tick` every `interval`
/// until the handle is dropped or `tick` returns `false` (the idiom for
/// "the object I maintain is gone" — e.g. a failed `Weak::upgrade`).
///
/// The first tick runs one `interval` after spawn, not immediately, so
/// constructing a handle is free on the caller's hot path.
pub fn spawn_maintenance<F>(name: &str, interval: Duration, mut tick: F) -> MaintenanceHandle
where
    F: FnMut() -> bool + Send + 'static,
{
    let stop = Arc::new((Mutex::new(false), Condvar::new()));
    let thread_stop = Arc::clone(&stop);
    let join = thread::Builder::new()
        .name(name.to_string())
        .spawn(move || {
            let (lock, cvar) = &*thread_stop;
            loop {
                {
                    // The predicate is checked before the first wait, so a
                    // stop that lands before this thread parks is not lost,
                    // and a spurious wakeup keeps waiting out the interval.
                    let stopped = lock.lock().unwrap_or_else(|p| p.into_inner());
                    let (guard, _timeout) = cvar
                        .wait_timeout_while(stopped, interval, |stopped| !*stopped)
                        .unwrap_or_else(|p| p.into_inner());
                    if *guard {
                        return;
                    }
                }
                if !tick() {
                    return;
                }
            }
        })
        .expect("spawn maintenance thread");
    MaintenanceHandle {
        stop,
        join: Some(join),
    }
}

impl MaintenanceHandle {
    /// Stops the thread now and joins it.
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        let (lock, cvar) = &*self.stop;
        *lock.lock().unwrap_or_else(|p| p.into_inner()) = true;
        cvar.notify_all();
        if let Some(join) = self.join.take() {
            let _ = join.join();
        }
    }
}

impl Drop for MaintenanceHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn ticks_repeatedly_and_stops_on_drop() {
        let ticks = Arc::new(AtomicUsize::new(0));
        let seen = Arc::clone(&ticks);
        let handle = spawn_maintenance("paqoc-maint-test", Duration::from_millis(1), move || {
            seen.fetch_add(1, Ordering::SeqCst);
            true
        });
        while ticks.load(Ordering::SeqCst) < 3 {
            thread::sleep(Duration::from_millis(1));
        }
        drop(handle);
        let after = ticks.load(Ordering::SeqCst);
        thread::sleep(Duration::from_millis(10));
        // At most one in-flight tick can land after the join returns.
        assert!(ticks.load(Ordering::SeqCst) <= after + 1);
    }

    #[test]
    fn false_tick_ends_the_thread() {
        let ticks = Arc::new(AtomicUsize::new(0));
        let seen = Arc::clone(&ticks);
        let handle = spawn_maintenance("paqoc-maint-once", Duration::from_millis(1), move || {
            seen.fetch_add(1, Ordering::SeqCst);
            false
        });
        while ticks.load(Ordering::SeqCst) < 1 {
            thread::sleep(Duration::from_millis(1));
        }
        thread::sleep(Duration::from_millis(10));
        assert_eq!(ticks.load(Ordering::SeqCst), 1);
        handle.stop();
    }

    #[test]
    fn stop_before_first_tick_never_ticks() {
        let ticks = Arc::new(AtomicUsize::new(0));
        let seen = Arc::clone(&ticks);
        let handle = spawn_maintenance("paqoc-maint-idle", Duration::from_secs(3600), move || {
            seen.fetch_add(1, Ordering::SeqCst);
            true
        });
        handle.stop();
        assert_eq!(ticks.load(Ordering::SeqCst), 0);
    }
}
