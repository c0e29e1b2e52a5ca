//! Process identities, priorities, and spawn options.
//!
//! The paper's ALPS kernel schedules *light weight processes* inside an
//! object's address space, with the manager running "at a higher priority
//! compared to the other processes in the object" (paper, §2.3 and §3).
//! This module defines the vocabulary types shared by both executors.

use std::fmt;

/// Identity of a runtime process.
///
/// `ProcId`s are unique within one [`Runtime`](crate::Runtime) and are never
/// reused. Foreign OS threads that interact with a threaded runtime are
/// lazily assigned an id so that parking works uniformly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ProcId(pub(crate) u64);

impl ProcId {
    /// Raw numeric id, useful for logging.
    pub fn as_u64(self) -> u64 {
        self.0
    }
}

impl fmt::Display for ProcId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "proc#{}", self.0)
    }
}

/// Scheduling priority of a process. **Lower values run first.**
///
/// The simulation executor honours priorities strictly: whenever a
/// scheduling decision is made, the runnable process with the smallest
/// priority value is granted the CPU. The threaded executor delegates to
/// the OS scheduler and treats priority as advisory metadata.
///
/// ```
/// use alps_runtime::Priority;
/// assert!(Priority::MANAGER < Priority::NORMAL);
/// assert!(Priority::NORMAL < Priority::BACKGROUND);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Priority(pub i32);

impl Priority {
    /// Priority used for object managers (paper: the manager "should be
    /// executed at a high priority compared to the other processes in the
    /// object so that the manager is more receptive to entry calls").
    pub const MANAGER: Priority = Priority(-10);
    /// Default priority for ordinary processes and entry-procedure workers.
    pub const NORMAL: Priority = Priority(0);
    /// Priority for background/bookkeeping work.
    pub const BACKGROUND: Priority = Priority(10);
}

impl Default for Priority {
    fn default() -> Self {
        Priority::NORMAL
    }
}

impl fmt::Display for Priority {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "prio({})", self.0)
    }
}

/// Options controlling [`Runtime::spawn_with`](crate::Runtime::spawn_with).
///
/// ```
/// use alps_runtime::{Priority, Spawn};
/// let opts = Spawn::new("manager").prio(Priority::MANAGER).daemon(true);
/// assert_eq!(opts.name(), "manager");
/// ```
#[derive(Debug, Clone)]
pub struct Spawn {
    pub(crate) name: String,
    pub(crate) prio: Priority,
    pub(crate) daemon: bool,
    /// Marks the main process of a simulated run (crate-internal).
    pub(crate) main: bool,
    /// Soft worker-affinity hint for the work-stealing executor.
    pub(crate) affinity: Option<usize>,
}

impl Spawn {
    /// New spawn options with the given debug name, [`Priority::NORMAL`],
    /// non-daemon.
    pub fn new(name: impl Into<String>) -> Self {
        Spawn {
            name: name.into(),
            prio: Priority::NORMAL,
            daemon: false,
            main: false,
            affinity: None,
        }
    }

    /// Set the scheduling priority.
    pub fn prio(mut self, prio: Priority) -> Self {
        self.prio = prio;
        self
    }

    /// Prefer scheduling this process on worker `worker % K` of a
    /// work-stealing pool. A *soft* hint: the task lands in the
    /// preferred worker's deque instead of the global injector, keeping
    /// related processes (a shard's manager and its entry bodies) on one
    /// worker's cache — but it remains fully stealable, so an overloaded
    /// preferred worker sheds the task to an idle peer. Ignored by the
    /// threaded and simulation executors.
    pub fn affinity(mut self, worker: usize) -> Self {
        self.affinity = Some(worker);
        self
    }

    /// Mark the process as a *daemon*: a simulated run is allowed to finish
    /// while daemons are still parked (they are then aborted). Managers and
    /// pool workers are daemons.
    pub fn daemon(mut self, daemon: bool) -> Self {
        self.daemon = daemon;
        self
    }

    /// The debug name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The configured priority.
    pub fn priority(&self) -> Priority {
        self.prio
    }

    /// Whether the process is a daemon.
    pub fn is_daemon(&self) -> bool {
        self.daemon
    }

    /// The soft worker-affinity hint, if any.
    pub fn affinity_hint(&self) -> Option<usize> {
        self.affinity
    }
}

impl Default for Spawn {
    fn default() -> Self {
        Spawn::new("proc")
    }
}

/// Bounded exponential-backoff spinner used by the adaptive
/// spin-then-park wait paths (call-cell reply waits, manager wakeups,
/// pool workers, idle executor workers).
///
/// Each [`spin`](SpinWait::spin) round issues `2^round` (capped at 64)
/// `std::hint::spin_loop` hints and returns `true` while budget remains;
/// once `max_rounds` rounds have been consumed it returns `false` and the
/// caller should fall back to parking. The budget is deliberately small —
/// spinning only pays when the awaited event is produced by a peer that
/// is *currently running* on another CPU. Every wait in the system passes
/// [`tuning::SPIN_ROUNDS`](crate::tuning::SPIN_ROUNDS), and must pass
/// zero on the simulation executor, where spinning can never observe
/// progress.
///
/// ```
/// use alps_runtime::SpinWait;
/// let mut sw = SpinWait::new(3);
/// let mut rounds = 0;
/// while sw.spin() {
///     rounds += 1;
/// }
/// assert_eq!(rounds, 3);
/// assert!(!sw.spin());
/// ```
#[derive(Debug)]
pub struct SpinWait {
    round: u32,
    max_rounds: u32,
}

impl SpinWait {
    /// A spinner with a budget of `max_rounds` rounds (0 = never spin).
    pub fn new(max_rounds: u32) -> SpinWait {
        SpinWait {
            round: 0,
            max_rounds,
        }
    }

    /// Burn one backoff round. Returns `false` when the budget is
    /// exhausted (nothing is spun in that case).
    pub fn spin(&mut self) -> bool {
        if self.round >= self.max_rounds {
            return false;
        }
        let iters = 1u32 << self.round.min(6);
        for _ in 0..iters {
            std::hint::spin_loop();
        }
        self.round += 1;
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn priority_ordering_is_lower_first() {
        assert!(Priority::MANAGER < Priority::NORMAL);
        assert!(Priority::NORMAL < Priority::BACKGROUND);
        assert!(Priority(-1) < Priority(1));
    }

    #[test]
    fn proc_id_display_and_accessors() {
        let id = ProcId(42);
        assert_eq!(id.as_u64(), 42);
        assert_eq!(id.to_string(), "proc#42");
    }

    #[test]
    fn spin_wait_budget() {
        let mut sw = SpinWait::new(0);
        assert!(!sw.spin(), "zero budget never spins");
        let mut sw = SpinWait::new(5);
        let mut used = 0;
        while sw.spin() {
            used += 1;
        }
        assert_eq!(used, 5);
        assert!(!sw.spin(), "stays exhausted");
    }

    #[test]
    fn spawn_builder_round_trip() {
        let s = Spawn::new("x").prio(Priority(3)).daemon(true).affinity(2);
        assert_eq!(s.name(), "x");
        assert_eq!(s.priority(), Priority(3));
        assert!(s.is_daemon());
        assert_eq!(s.affinity_hint(), Some(2));
        let d = Spawn::default();
        assert_eq!(d.name(), "proc");
        assert!(!d.is_daemon());
        assert_eq!(d.priority(), Priority::NORMAL);
        assert_eq!(d.affinity_hint(), None);
    }
}
