//! Process pools executing entry-procedure bodies.
//!
//! Paper §3 discusses three implementation strategies for the processes
//! behind a hidden procedure array `P[1..N]`:
//!
//! 1. create a process per remote call ([`PoolMode::PerCall`] — "in many
//!    operating systems dynamic process creation is expensive");
//! 2. preallocate one process per array element, 1:1
//!    ([`PoolMode::PerSlot`]; here each element's process is created at
//!    its first start and then kept, so elements that never start a
//!    body cost no process);
//! 3. preallocate a pool of `M ≪ N` processes and bind a process to a call
//!    when it is *started* rather than when it arrives
//!    ([`PoolMode::Shared`]), attractive "for resources in high demand
//!    where the average queue length is significant".
//!
//! The paper suggests a compiler switch chooses among these; here it is
//! [`crate::ObjectBuilder::pool`]. Experiment E7 sweeps the choice.

use std::collections::VecDeque;
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Weak};

use alps_runtime::metrics::Counter;
use alps_runtime::{tuning, ProcId, Runtime, Spawn, SpinWait};
use parking_lot::Mutex;

use crate::object::ObjectInner;
use crate::value::ValVec;

/// How entry executions are mapped onto runtime processes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PoolMode {
    /// Spawn a fresh process per started call.
    PerCall,
    /// One worker per procedure-array slot (1:1), spawned on the slot's
    /// first dispatch and kept for the object's lifetime.
    #[default]
    PerSlot,
    /// A shared pool of `M` preallocated workers serving all slots.
    Shared(usize),
}

impl fmt::Display for PoolMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PoolMode::PerCall => write!(f, "per-call"),
            PoolMode::PerSlot => write!(f, "per-slot"),
            PoolMode::Shared(m) => write!(f, "shared({m})"),
        }
    }
}

/// Unit of work handed to a pool worker.
///
/// `Body` carries an entry execution without boxing a closure — the
/// fields it needs are plain data, so dispatching a started call does not
/// allocate. `Task` keeps the pool usable as a generic executor (tests,
/// ad-hoc jobs).
pub(crate) enum Job {
    /// Run `entry`'s body on `slot` with `params`.
    Body {
        obj: Weak<ObjectInner>,
        entry: usize,
        slot: usize,
        params: ValVec,
    },
    /// Run an arbitrary closure.
    #[cfg_attr(not(test), allow(dead_code))]
    Task(Box<dyn FnOnce() + Send>),
}

impl Job {
    fn run(self) {
        match self {
            Job::Body {
                obj,
                entry,
                slot,
                params,
            } => {
                // A dead upgrade means the object was dropped after
                // dispatch; its calls were already failed at shutdown.
                if let Some(o) = obj.upgrade() {
                    o.run_body(entry, slot, params);
                }
            }
            Job::Task(f) => f(),
        }
    }
}

#[derive(Default)]
struct SharedQ {
    q: Mutex<QState>,
    closed: AtomicBool,
}

#[derive(Default)]
struct QState {
    jobs: VecDeque<Job>,
    idle: Vec<ProcId>,
}

struct SlotBox {
    st: Mutex<SlotBoxSt>,
    closed: AtomicBool,
    /// Lock-free mirror of `st.job.is_some()`, letting an idle worker
    /// notice a freshly dispatched job during its spin phase without
    /// taking the mutex.
    has_job: AtomicBool,
}

#[derive(Default)]
struct SlotBoxSt {
    job: Option<Job>,
    waiter: Option<ProcId>,
    /// Whether the slot's worker exists. Workers spawn on their slot's
    /// first dispatch, so an object whose bodies all run inline or in
    /// its manager never starts any.
    spawned: bool,
}

pub(crate) struct Pool {
    rt: Runtime,
    name: String,
    mode: PoolMode,
    shared: Option<Arc<SharedQ>>,
    per_slot: Vec<Arc<SlotBox>>,
    spawned: Counter,
    executed: Counter,
    closed: AtomicBool,
    /// Soft worker-affinity hint applied to every worker this pool
    /// spawns, so an object's entry bodies prefer the same
    /// work-stealing worker as its manager
    /// ([`crate::ObjectBuilder::affinity_hint`]).
    affinity: Option<usize>,
}

impl Pool {
    /// Create the pool and spawn the shared pool's workers.
    /// `total_slots` is the sum of all procedure-array sizes of the object
    /// (used by [`PoolMode::PerSlot`]).
    pub(crate) fn new(
        rt: Runtime,
        name: String,
        mode: PoolMode,
        total_slots: usize,
        affinity: Option<usize>,
    ) -> Pool {
        let mut pool = Pool {
            rt,
            name,
            mode,
            shared: None,
            per_slot: Vec::new(),
            spawned: Counter::new(),
            executed: Counter::new(),
            closed: AtomicBool::new(false),
            affinity,
        };
        match mode {
            PoolMode::PerCall => {}
            PoolMode::PerSlot => {
                pool.per_slot = (0..total_slots)
                    .map(|_| {
                        Arc::new(SlotBox {
                            st: Mutex::new(SlotBoxSt::default()),
                            closed: AtomicBool::new(false),
                            has_job: AtomicBool::new(false),
                        })
                    })
                    .collect();
            }
            PoolMode::Shared(m) => {
                let q = Arc::new(SharedQ::default());
                pool.shared = Some(Arc::clone(&q));
                for i in 0..m.max(1) {
                    pool.spawn_shared_worker(i, Arc::clone(&q));
                }
            }
        }
        pool
    }

    /// Spawn options for a pool worker: daemon, plus the pool's affinity
    /// hint when one is configured.
    fn worker_opts(&self, name: String) -> Spawn {
        let mut opts = Spawn::new(name).daemon(true);
        if let Some(a) = self.affinity {
            opts = opts.affinity(a);
        }
        opts
    }

    fn spawn_slot_worker(&self, key: usize, sb: Arc<SlotBox>) {
        self.spawned.incr();
        let rt = self.rt.clone();
        let executed = self.executed.clone();
        let name = format!("{}:worker[{key}]", self.name);
        let spin_rounds = if self.rt.is_sim() {
            0
        } else {
            tuning::SPIN_ROUNDS
        };
        self.rt.spawn_with(self.worker_opts(name), move || loop {
            // Brief spin for a job dispatched while the previous one
            // was winding down — skips a park/unpark round trip when
            // the manager restarts this slot back-to-back.
            let mut sw = SpinWait::new(spin_rounds);
            while sw.spin() {
                if sb.has_job.load(Ordering::SeqCst) {
                    break;
                }
            }
            let job = {
                let mut st = sb.st.lock();
                match st.job.take() {
                    Some(j) => {
                        sb.has_job.store(false, Ordering::SeqCst);
                        Some(j)
                    }
                    None => {
                        if sb.closed.load(Ordering::SeqCst) {
                            return;
                        }
                        st.waiter = Some(rt.current());
                        None
                    }
                }
            };
            match job {
                Some(j) => {
                    executed.incr();
                    j.run();
                }
                None => rt.park(),
            }
        });
    }

    fn spawn_shared_worker(&self, i: usize, q: Arc<SharedQ>) {
        self.spawned.incr();
        let rt = self.rt.clone();
        let executed = self.executed.clone();
        let name = format!("{}:pool[{i}]", self.name);
        self.rt.spawn_with(self.worker_opts(name), move || loop {
            let job = {
                let mut st = q.q.lock();
                match st.jobs.pop_front() {
                    Some(j) => Some(j),
                    None => {
                        if q.closed.load(Ordering::SeqCst) {
                            return;
                        }
                        let me = rt.current();
                        if !st.idle.contains(&me) {
                            st.idle.push(me);
                        }
                        None
                    }
                }
            };
            match job {
                Some(j) => {
                    executed.incr();
                    j.run();
                }
                None => rt.park(),
            }
        });
    }

    /// Hand a started call's execution to a worker. `slot_key` identifies
    /// the global slot (only [`PoolMode::PerSlot`] uses it).
    pub(crate) fn dispatch(&self, slot_key: usize, job: Job) {
        if self.closed.load(Ordering::SeqCst) {
            // Object already shut down; the call was completed with an
            // error by the object, drop the job.
            return;
        }
        match self.mode {
            PoolMode::PerCall => {
                self.spawned.incr();
                self.executed.incr();
                let name = format!("{}:call", self.name);
                self.rt
                    .spawn_with(self.worker_opts(name), move || job.run());
            }
            PoolMode::PerSlot => {
                let sb = &self.per_slot[slot_key];
                let (waiter, first) = {
                    let mut st = sb.st.lock();
                    debug_assert!(st.job.is_none(), "slot worker busy twice");
                    st.job = Some(job);
                    sb.has_job.store(true, Ordering::SeqCst);
                    (st.waiter.take(), !std::mem::replace(&mut st.spawned, true))
                };
                if first {
                    // The new worker finds the job already in its box.
                    self.spawn_slot_worker(slot_key, Arc::clone(sb));
                } else if let Some(w) = waiter {
                    self.rt.unpark(w);
                }
            }
            PoolMode::Shared(_) => {
                let q = self.shared.as_ref().expect("shared pool missing queue");
                let waiter = {
                    let mut st = q.q.lock();
                    st.jobs.push_back(job);
                    st.idle.pop()
                };
                if let Some(w) = waiter {
                    self.rt.unpark(w);
                }
            }
        }
    }

    /// Stop all workers; pending jobs are discarded.
    pub(crate) fn shutdown(&self) {
        self.closed.store(true, Ordering::SeqCst);
        match self.mode {
            PoolMode::PerCall => {}
            PoolMode::PerSlot => {
                for sb in &self.per_slot {
                    sb.closed.store(true, Ordering::SeqCst);
                    let waiter = sb.st.lock().waiter.take();
                    if let Some(w) = waiter {
                        self.rt.unpark(w);
                    }
                }
            }
            PoolMode::Shared(_) => {
                if let Some(q) = &self.shared {
                    q.closed.store(true, Ordering::SeqCst);
                    let idle = std::mem::take(&mut q.q.lock().idle);
                    for w in idle {
                        self.rt.unpark(w);
                    }
                }
            }
        }
    }

    /// Number of runtime processes this pool has created (experiment E7's
    /// cost axis).
    pub(crate) fn procs_spawned(&self) -> u64 {
        self.spawned.get()
    }

    /// Number of jobs executed.
    pub(crate) fn jobs_executed(&self) -> u64 {
        self.executed.get()
    }

    /// The configured mode.
    pub(crate) fn mode(&self) -> PoolMode {
        self.mode
    }
}

impl fmt::Debug for Pool {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Pool")
            .field("name", &self.name)
            .field("mode", &self.mode)
            .field("spawned", &self.spawned.get())
            .field("executed", &self.executed.get())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alps_runtime::SimRuntime;
    use std::sync::atomic::AtomicUsize;

    fn run_jobs(mode: PoolMode, slots: usize, jobs: usize) -> (u64, u64) {
        let sim = SimRuntime::new();
        sim.run(move |rt| {
            let pool = Pool::new(rt.clone(), "t".into(), mode, slots, None);
            let done = Arc::new(AtomicUsize::new(0));
            // Dispatch in waves of `slots`, mirroring the object layer's
            // guarantee that a slot is restarted only after its previous
            // job completed.
            let mut issued = 0;
            while issued < jobs {
                let wave = slots.min(jobs - issued);
                for k in 0..wave {
                    let done = Arc::clone(&done);
                    pool.dispatch(
                        k,
                        Job::Task(Box::new(move || {
                            done.fetch_add(1, Ordering::SeqCst);
                        })),
                    );
                }
                issued += wave;
                while done.load(Ordering::SeqCst) < issued {
                    rt.yield_now();
                }
            }
            pool.shutdown();
            (pool.procs_spawned(), pool.jobs_executed())
        })
        .unwrap()
    }

    #[test]
    fn per_slot_runs_jobs_with_one_proc_per_slot() {
        let (spawned, executed) = run_jobs(PoolMode::PerSlot, 4, 8);
        assert_eq!(spawned, 4);
        assert_eq!(executed, 8);
    }

    #[test]
    fn object_with_only_implicit_entries_spawns_no_workers() {
        use crate::{EntryDef, ObjectBuilder, Ty};
        let sim = SimRuntime::new();
        let spawned = sim
            .run(|rt| {
                let obj = ObjectBuilder::new("Inline")
                    .entry(
                        EntryDef::new("Echo")
                            .params([Ty::Int])
                            .results([Ty::Int])
                            .array(4)
                            .body(|_, args| Ok(vec![args[0].clone()])),
                    )
                    .spawn(rt)
                    .unwrap();
                for i in 0..10i64 {
                    obj.call("Echo", crate::vals![i]).unwrap();
                }
                obj.pool_procs_spawned()
            })
            .unwrap();
        assert_eq!(spawned, 0);
    }

    #[test]
    fn shared_pool_bounds_processes() {
        let (spawned, executed) = run_jobs(PoolMode::Shared(2), 16, 10);
        assert_eq!(spawned, 2);
        assert_eq!(executed, 10);
    }

    #[test]
    fn per_call_spawns_per_job() {
        let (spawned, executed) = run_jobs(PoolMode::PerCall, 4, 5);
        assert_eq!(spawned, 5);
        assert_eq!(executed, 5);
    }

    #[test]
    fn mode_display() {
        assert_eq!(PoolMode::PerCall.to_string(), "per-call");
        assert_eq!(PoolMode::PerSlot.to_string(), "per-slot");
        assert_eq!(PoolMode::Shared(3).to_string(), "shared(3)");
    }

    #[test]
    fn dispatch_after_shutdown_is_dropped() {
        let sim = SimRuntime::new();
        sim.run(|rt| {
            let pool = Pool::new(rt.clone(), "t".into(), PoolMode::Shared(1), 1, None);
            pool.shutdown();
            pool.dispatch(0, Job::Task(Box::new(|| panic!("must not run"))));
            rt.yield_now();
        })
        .unwrap();
    }
}
