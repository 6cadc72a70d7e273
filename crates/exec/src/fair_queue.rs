//! Bounded, multi-tenant fair-share work queue.
//!
//! The admission-control core of the resident compilation service
//! (`paqoc-serve`), kept here next to the executor's other scheduling
//! machinery so any batch front-end can reuse it. One [`FairQueue`]
//! holds a bounded priority deque **per tenant** plus a round-robin
//! rotation across tenants:
//!
//! * **Admission is reject-not-buffer.** [`FairQueue::push`] fails with
//!   a typed [`PushError`] the moment a tenant's deque (or the global
//!   cap, or the tenant-count cap) is full. Nothing is ever buffered
//!   unboundedly — a hostile or runaway client sees `Overloaded`
//!   instead of inflating the process's memory.
//! * **Fair share across tenants.** [`FairQueue::pop`] serves tenants
//!   round-robin: each pop takes the *front* (highest-priority) entry of
//!   the next tenant in rotation, so one tenant flooding its own deque
//!   cannot starve the others. Within a tenant, entries order by
//!   priority (descending, FIFO-stable on ties) — the same order
//!   [`run_batch`](crate::run_batch) takes pulse jobs in.
//! * **A pop waits for an event.** [`FairQueue::pop`] blocks until an
//!   entry arrives or drain begins; it has no timeout to poll on.
//! * **Drain is a one-way valve.** [`FairQueue::drain`] permanently
//!   rejects new pushes with [`PushError::Draining`] while letting
//!   consumers keep popping; once the queue runs dry every pop answers
//!   `None`, which is the workers' signal to exit.

use std::collections::{HashMap, VecDeque};
use std::sync::{Condvar, Mutex};

/// Capacity limits for a [`FairQueue`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct QueueConfig {
    /// Maximum queued entries per tenant.
    pub per_tenant_cap: usize,
    /// Maximum queued entries across all tenants.
    pub total_cap: usize,
    /// Maximum number of distinct tenants with queued work. Tenants
    /// whose deques empty out are forgotten, so this bounds *live*
    /// tenants, not all names ever seen.
    pub max_tenants: usize,
}

impl Default for QueueConfig {
    fn default() -> Self {
        QueueConfig {
            per_tenant_cap: 64,
            total_cap: 1024,
            max_tenants: 64,
        }
    }
}

/// Why a push was rejected. Every variant carries the numbers a typed
/// overload response needs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PushError {
    /// The tenant's own deque is full.
    TenantFull {
        /// Entries the tenant already has queued.
        depth: usize,
        /// The per-tenant cap.
        cap: usize,
    },
    /// The whole queue is full.
    QueueFull {
        /// Entries queued across all tenants.
        depth: usize,
        /// The global cap.
        cap: usize,
    },
    /// Admitting this tenant would exceed the live-tenant cap.
    TooManyTenants {
        /// Live tenants right now.
        tenants: usize,
        /// The tenant cap.
        cap: usize,
    },
    /// The queue is draining; no new work is admitted.
    Draining,
}

impl std::fmt::Display for PushError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PushError::TenantFull { depth, cap } => {
                write!(f, "tenant queue full ({depth} of {cap})")
            }
            PushError::QueueFull { depth, cap } => write!(f, "queue full ({depth} of {cap})"),
            PushError::TooManyTenants { tenants, cap } => {
                write!(f, "too many live tenants ({tenants} of {cap})")
            }
            PushError::Draining => write!(f, "queue is draining"),
        }
    }
}

struct Entry<T> {
    priority: f64,
    item: T,
}

struct State<T> {
    tenants: HashMap<String, VecDeque<Entry<T>>>,
    /// Tenants with non-empty deques, in service order.
    rotation: VecDeque<String>,
    total: usize,
    draining: bool,
}

/// Bounded multi-tenant fair-share queue (see the module docs).
pub struct FairQueue<T> {
    cfg: QueueConfig,
    state: Mutex<State<T>>,
    cv: Condvar,
}

/// Recovers a poisoned queue lock: state mutations are short and
/// panic-free, so the data is consistent even if a holder died.
fn relock<'a, T>(m: &'a Mutex<State<T>>) -> std::sync::MutexGuard<'a, State<T>> {
    m.lock().unwrap_or_else(|poison| poison.into_inner())
}

impl<T> FairQueue<T> {
    /// Creates an empty queue with the given capacity limits (caps are
    /// floored at 1).
    pub fn new(cfg: QueueConfig) -> Self {
        FairQueue {
            cfg: QueueConfig {
                per_tenant_cap: cfg.per_tenant_cap.max(1),
                total_cap: cfg.total_cap.max(1),
                max_tenants: cfg.max_tenants.max(1),
            },
            state: Mutex::new(State {
                tenants: HashMap::new(),
                rotation: VecDeque::new(),
                total: 0,
                draining: false,
            }),
            cv: Condvar::new(),
        }
    }

    /// Admits one entry for `tenant`, ordered by `priority` (descending,
    /// FIFO-stable on ties) within the tenant's deque. Returns the
    /// tenant's queue depth after the push, or a typed rejection —
    /// nothing is buffered beyond the configured caps.
    pub fn push(&self, tenant: &str, priority: f64, item: T) -> Result<usize, PushError> {
        let mut state = relock(&self.state);
        if state.draining {
            return Err(PushError::Draining);
        }
        if state.total >= self.cfg.total_cap {
            return Err(PushError::QueueFull {
                depth: state.total,
                cap: self.cfg.total_cap,
            });
        }
        if !state.tenants.contains_key(tenant) && state.tenants.len() >= self.cfg.max_tenants {
            return Err(PushError::TooManyTenants {
                tenants: state.tenants.len(),
                cap: self.cfg.max_tenants,
            });
        }
        let deque = state.tenants.entry(tenant.to_string()).or_default();
        if deque.len() >= self.cfg.per_tenant_cap {
            return Err(PushError::TenantFull {
                depth: deque.len(),
                cap: self.cfg.per_tenant_cap,
            });
        }
        let was_empty = deque.is_empty();
        // Priority-descending insertion point, stable on ties: after the
        // last entry with priority >= the new one.
        let pos = deque
            .iter()
            .position(|e| e.priority < priority)
            .unwrap_or(deque.len());
        deque.insert(pos, Entry { priority, item });
        let depth = deque.len();
        if was_empty {
            state.rotation.push_back(tenant.to_string());
        }
        state.total += 1;
        self.cv.notify_one();
        Ok(depth)
    }

    /// Takes the next entry in fair-share order, waiting until one
    /// arrives. `None` means the queue is closed *and* empty — the
    /// consumer's exit signal.
    pub fn pop(&self) -> Option<T> {
        let mut state = relock(&self.state);
        loop {
            if let Some(tenant) = state.rotation.pop_front() {
                let mut emptied = false;
                let entry = state.tenants.get_mut(&tenant).and_then(|deque| {
                    let entry = deque.pop_front();
                    emptied = deque.is_empty();
                    entry
                });
                if emptied {
                    // Forget dry tenants so `max_tenants` bounds live
                    // tenants, not every name a hostile client invents.
                    state.tenants.remove(&tenant);
                } else {
                    state.rotation.push_back(tenant);
                }
                if let Some(entry) = entry {
                    state.total -= 1;
                    return Some(entry.item);
                }
                continue;
            }
            if state.draining {
                return None;
            }
            state = self
                .cv
                .wait(state)
                .unwrap_or_else(|poison| poison.into_inner());
        }
    }

    /// Closes the queue: every future push answers
    /// [`PushError::Draining`], pops keep serving what was admitted, and
    /// once empty every pop, waiting or not, answers `None`.
    /// Irreversible.
    pub fn drain(&self) {
        let mut state = relock(&self.state);
        state.draining = true;
        self.cv.notify_all();
    }

    /// `true` once [`FairQueue::drain`] has been called.
    pub fn is_draining(&self) -> bool {
        relock(&self.state).draining
    }

    /// Entries queued across all tenants.
    pub fn len(&self) -> usize {
        relock(&self.state).total
    }

    /// `true` when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of tenants with queued work.
    pub fn tenant_count(&self) -> usize {
        relock(&self.state).tenants.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn pop_serves_tenants_round_robin() {
        let q: FairQueue<u32> = FairQueue::new(QueueConfig::default());
        // Tenant a floods first; tenant b arrives later with two items.
        for i in 0..4 {
            q.push("a", 0.0, i).expect("push a");
        }
        q.push("b", 0.0, 100).expect("push b");
        q.push("b", 0.0, 101).expect("push b");
        let order: Vec<u32> = (0..6).map(|_| q.pop().expect("queued")).collect();
        // a, b alternate until b runs dry, then a finishes.
        assert_eq!(order, vec![0, 100, 1, 101, 2, 3]);
    }

    #[test]
    fn priority_orders_within_a_tenant_fifo_on_ties() {
        let q: FairQueue<&str> = FairQueue::new(QueueConfig::default());
        q.push("t", 1.0, "low-first").expect("push");
        q.push("t", 5.0, "high").expect("push");
        q.push("t", 1.0, "low-second").expect("push");
        assert_eq!(q.pop(), Some("high"));
        assert_eq!(q.pop(), Some("low-first"));
        assert_eq!(q.pop(), Some("low-second"));
    }

    #[test]
    fn per_tenant_cap_rejects_with_depth() {
        let q: FairQueue<u32> = FairQueue::new(QueueConfig {
            per_tenant_cap: 2,
            ..QueueConfig::default()
        });
        q.push("t", 0.0, 1).expect("push");
        q.push("t", 0.0, 2).expect("push");
        assert_eq!(
            q.push("t", 0.0, 3),
            Err(PushError::TenantFull { depth: 2, cap: 2 })
        );
        // Another tenant is unaffected.
        assert_eq!(q.push("u", 0.0, 4), Ok(1));
    }

    #[test]
    fn global_and_tenant_count_caps_hold() {
        let q: FairQueue<u32> = FairQueue::new(QueueConfig {
            per_tenant_cap: 8,
            total_cap: 3,
            max_tenants: 2,
        });
        q.push("a", 0.0, 1).expect("push");
        q.push("b", 0.0, 2).expect("push");
        assert_eq!(
            q.push("c", 0.0, 3),
            Err(PushError::TooManyTenants { tenants: 2, cap: 2 })
        );
        q.push("a", 0.0, 4).expect("push");
        assert_eq!(
            q.push("b", 0.0, 5),
            Err(PushError::QueueFull { depth: 3, cap: 3 })
        );
    }

    #[test]
    fn dry_tenants_are_forgotten() {
        let q: FairQueue<u32> = FairQueue::new(QueueConfig {
            max_tenants: 1,
            ..QueueConfig::default()
        });
        q.push("a", 0.0, 1).expect("push");
        assert!(matches!(
            q.push("b", 0.0, 2),
            Err(PushError::TooManyTenants { .. })
        ));
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.tenant_count(), 0, "drained tenant must be forgotten");
        assert_eq!(q.push("b", 0.0, 2), Ok(1));
    }

    #[test]
    fn drain_rejects_pushes_serves_backlog_then_signals() {
        let q: FairQueue<u32> = FairQueue::new(QueueConfig::default());
        q.push("t", 0.0, 1).expect("push");
        q.drain();
        assert_eq!(q.push("t", 0.0, 2), Err(PushError::Draining));
        assert_eq!(q.pop(), Some(1), "backlog still served");
        assert_eq!(q.pop(), None);
        assert_eq!(q.pop(), None, "drained is sticky");
    }

    #[test]
    fn a_pop_on_an_open_empty_queue_waits_for_a_push() {
        let q = std::sync::Arc::new(FairQueue::<u32>::new(QueueConfig::default()));
        let q2 = q.clone();
        let h = std::thread::spawn(move || q2.pop());
        std::thread::sleep(Duration::from_millis(20));
        assert!(!h.is_finished(), "an open empty queue must not answer");
        q.push("t", 0.0, 7).expect("push");
        assert_eq!(h.join().expect("join"), Some(7));
    }

    #[test]
    fn drain_wakes_blocked_consumers() {
        let q = std::sync::Arc::new(FairQueue::<u32>::new(QueueConfig::default()));
        let q2 = q.clone();
        let h = std::thread::spawn(move || q2.pop());
        std::thread::sleep(Duration::from_millis(20));
        q.drain();
        assert_eq!(h.join().expect("join"), None);
    }

    #[test]
    fn concurrent_pushers_and_poppers_conserve_items() {
        let q = std::sync::Arc::new(FairQueue::<u64>::new(QueueConfig {
            per_tenant_cap: 1024,
            total_cap: 4096,
            max_tenants: 8,
        }));
        let mut handles = Vec::new();
        for t in 0..4u64 {
            let q = q.clone();
            handles.push(std::thread::spawn(move || {
                let mut accepted = 0u64;
                for i in 0..200u64 {
                    if q.push(&format!("t{t}"), (i % 3) as f64, t * 1000 + i)
                        .is_ok()
                    {
                        accepted += 1;
                    }
                }
                accepted
            }));
        }
        let mut poppers = Vec::new();
        for _ in 0..3 {
            let q = q.clone();
            poppers.push(std::thread::spawn(move || {
                let mut got = 0u64;
                while q.pop().is_some() {
                    got += 1;
                }
                got
            }));
        }
        let pushed: u64 = handles.into_iter().map(|h| h.join().expect("push")).sum();
        q.drain();
        let popped: u64 = poppers.into_iter().map(|h| h.join().expect("pop")).sum();
        assert_eq!(pushed, popped, "every admitted item must be served");
        assert_eq!(q.len(), 0);
    }
}
