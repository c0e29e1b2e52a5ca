//! Work-stealing shared executor: processes as stackful green tasks on
//! K long-lived OS workers.
//!
//! The threaded executor spends one OS thread per process, so a system of
//! 64 objects — each with a manager loop plus pool workers plus callers —
//! costs hundreds of threads before any work is done. This executor keeps
//! the *exact same* [`ExecutorCore`] contract (buffered-permit park,
//! `park_timeout`, abort-on-shutdown unwinding, lazily registered foreign
//! threads) but multiplexes all spawned processes onto a fixed worker
//! pool:
//!
//! * Every spawned process is a **stackful coroutine** (own 1 MiB lazily
//!   committed stack, callee-saved registers switched in ~20 ns of inline
//!   asm). Because *all* blocking in the object runtime funnels through
//!   `Runtime::park` / `park_timeout` (call-cell reply waits, notifier
//!   waits, pool-worker idling), a park simply suspends the coroutine and
//!   frees the worker — manager loops and `PoolMode::{PerCall,Shared}`
//!   bodies become tasks with no changes to the synchronization protocols.
//! * Scheduling is **work stealing**: each worker owns a LIFO deque
//!   (newest-first for cache locality; `yield_now` re-queues at the cold
//!   end), spawns and wakeups from non-worker threads land in a global
//!   injector, and an idle worker steals *half* of a victim's deque in
//!   one batch so a burst fans out in O(log n) steals. Workers also poll
//!   the injector ahead of their own deque every
//!   [`GLOBAL_POLL_INTERVAL`] dispatches, so injected tasks cannot
//!   starve behind a local deque that never drains.
//! * The idle protocol is spin-then-park with the shared wait policy
//!   from [`crate::tuning`]: a worker that finds every queue empty burns
//!   [`tuning::SPIN_ROUNDS`](crate::tuning::SPIN_ROUNDS), registers in
//!   an idle list, re-checks (producers enqueue *before* consulting the
//!   list, so the recheck closes the sleep/publish race), and parks on
//!   its own parker. Producers wake at most one worker per enqueue; a
//!   worker that grabs a batch wakes the next worker, so wakeups cascade
//!   only while work remains.
//! * `park_timeout` and `sleep` are served by one timer thread holding a
//!   min-heap of deadlines. Timer wakeups carry the park sequence number
//!   they were armed for and are dropped stale, so an early `unpark`
//!   never lets an old timer interrupt a later park.
//!
//! # Lost-wakeup discipline
//!
//! The racy edge is a task suspending while another thread unparks it.
//! A task that decides to park publishes `PARKING` and switches to the
//! scheduler; **only the scheduler** (now on its own stack, the task's
//! context fully saved) moves `PARKING → PARKED` and then re-checks the
//! permit: `unpark` stores the permit *before* CAS-ing `PARKED →
//! RUNNABLE`, and the scheduler stores `PARKED` *before* re-reading the
//! permit (both SeqCst), so whichever side loses the race still observes
//! the other's write — the task is re-queued exactly once, never lost,
//! and never enqueued while its register state is still being saved.
//!
//! # Divergences from the threaded executor
//!
//! * Dropping the last `Runtime` clone shuts the pool down (aborting
//!   still-parked daemon tasks) and joins the workers; the threaded
//!   executor just leaks its threads. In-repo teardown already parks
//!   orderly, so this only changes leak behaviour.
//! * Spawning after `shutdown` records the process as immediately
//!   panicked instead of running it.
//! * Green stacks are 1 MiB with no guard page; deep recursion in a
//!   spawned process is UB where the threaded executor would fault
//!   cleanly. The object runtime's frames are shallow.
//!
//! x86_64 only (the context switch is hand-written for the System V
//! ABI); `Runtime::thread_pool` falls back to the threaded executor on
//! other targets.

use std::alloc::Layout;
use std::cell::{Cell, UnsafeCell};
use std::collections::{BinaryHeap, HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, AtomicUsize, Ordering::SeqCst};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};

use super::{current_for, set_current, ExecutorCore};
use crate::error::{Aborted, RuntimeError};
use crate::process::{ProcId, Spawn, SpinWait};
use crate::tuning;

/// Green-task stack size. Lazily committed (plain `malloc`-class
/// allocation, untouched pages cost address space only).
const STACK_SIZE: usize = 1 << 20;
/// Completed tasks' stacks are recycled through a bounded free list.
const STACK_POOL_CAP: usize = 64;
/// Max tasks pulled from the injector in one grab.
const INJ_BATCH_MAX: usize = 16;
/// Max tasks stolen from a victim in one grab.
const STEAL_BATCH_MAX: usize = 16;
/// Every this-many dispatches a worker polls the global injector before
/// its own deque, so injected tasks cannot starve behind a local deque
/// that never drains (cf. tokio's global-queue interval).
const GLOBAL_POLL_INTERVAL: u64 = 61;
/// Re-arm delay (ticks = µs) when a timer fires inside the instant
/// between a task *deciding* to park and the scheduler publishing
/// `PARKED`. The stale-sequence check bounds the retries.
const TIMER_RETRY_TICKS: u64 = 20;

// ---------------------------------------------------------------------
// Context switch (x86_64 System V)
// ---------------------------------------------------------------------

/// Save the callee-saved state of the current continuation on the
/// current stack, store the resulting stack pointer to `*save`, then
/// resume the continuation whose stack pointer is `load`.
///
/// Frame layout at a saved stack pointer `sp` (low → high):
/// `[sp+0]` mxcsr, `[sp+4]` x87 control word, `[sp+8..56]` r15 r14 r13
/// r12 rbx rbp, `[sp+56]` return address.
///
/// # Safety
///
/// `load` must be a stack pointer previously produced by this function
/// (or by [`prepare_stack`]) and not resumed since.
#[unsafe(naked)]
unsafe extern "C" fn ctx_switch(_save: *mut *mut u8, _load: *mut u8) {
    core::arch::naked_asm!(
        "push rbp",
        "push rbx",
        "push r12",
        "push r13",
        "push r14",
        "push r15",
        "sub rsp, 8",
        "stmxcsr [rsp]",
        "fnstcw [rsp + 4]",
        "mov [rdi], rsp",
        "mov rsp, rsi",
        "ldmxcsr [rsp]",
        "fldcw [rsp + 4]",
        "add rsp, 8",
        "pop r15",
        "pop r14",
        "pop r13",
        "pop r12",
        "pop rbx",
        "pop rbp",
        "ret",
    )
}

/// First resumption target of a fresh task: [`prepare_stack`] parks the
/// task pointer in (callee-saved) r12, so it survives the switch and
/// becomes `task_entry`'s argument. `task_entry` never returns.
#[unsafe(naked)]
unsafe extern "C" fn task_boot() {
    core::arch::naked_asm!(
        "mov rdi, r12",
        "call {entry}",
        "ud2",
        entry = sym task_entry,
    )
}

/// Body of every green task: run the spawned closure under
/// `catch_unwind` (an [`Aborted`] unwind is orderly shutdown, not a
/// panic), then hand control back to the scheduler for good.
unsafe extern "C" fn task_entry(task: *const Task) -> ! {
    // The `Arc<Task>` in the procs registry (pruned only by `join`) and
    // the scheduler's `current` slot keep `*task` alive for the whole
    // run, including this final switch-out.
    let f = unsafe { (*task).closure.lock().take() }.expect("green task started twice");
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f));
    let panicked = match &outcome {
        Ok(()) => false,
        Err(payload) => !payload.is::<Aborted>(),
    };
    // Drop the panic payload *before* the final switch: the stack is
    // recycled, anything still live on it would leak.
    drop(outcome);
    switch_out(Pending::Done { panicked });
    unreachable!("completed green task was resumed");
}

/// A green stack. Allocated uninitialized so pages commit lazily.
struct Stack {
    ptr: *mut u8,
    layout: Layout,
}

unsafe impl Send for Stack {}

impl Stack {
    fn new() -> Stack {
        let layout = Layout::from_size_align(STACK_SIZE, 16).unwrap();
        let ptr = unsafe { std::alloc::alloc(layout) };
        assert!(!ptr.is_null(), "green stack allocation failed");
        Stack { ptr, layout }
    }

    fn top(&self) -> *mut u8 {
        unsafe { self.ptr.add(STACK_SIZE) }
    }
}

impl Drop for Stack {
    fn drop(&mut self) {
        unsafe { std::alloc::dealloc(self.ptr, self.layout) };
    }
}

/// Write a fresh [`ctx_switch`] frame onto `stack` that boots into
/// `task_boot` with `task` in r12 and the ABI-default FP control state,
/// and return the stack pointer to load.
///
/// Alignment: the return-address slot sits at an address ≡ 8 (mod 16),
/// so after `ctx_switch`'s `ret` the stack is 16-aligned at `task_boot`,
/// whose `call` then gives `task_entry` a standard System V entry frame.
unsafe fn prepare_stack(stack: &Stack, task: *const Task) -> *mut u8 {
    let top16 = (stack.top() as usize & !15) as *mut u8;
    let sp = unsafe { top16.sub(64) };
    let words = sp as *mut u64;
    let boot: unsafe extern "C" fn() = task_boot;
    unsafe {
        // [0] fp state: mxcsr 0x1F80 (all exceptions masked), fcw 0x037F.
        words.write(0x1F80_u64 | (0x037F_u64 << 32));
        words.add(1).write(0); // r15
        words.add(2).write(0); // r14
        words.add(3).write(0); // r13
        words.add(4).write(task as u64); // r12 → task_entry arg
        words.add(5).write(0); // rbx
        words.add(6).write(0); // rbp
        words.add(7).write(boot as usize as u64); // return address
    }
    sp
}

// ---------------------------------------------------------------------
// Tasks
// ---------------------------------------------------------------------

const RUNNING: u8 = 0;
/// Decided to park/sleep; register state still being saved. Transient:
/// only the owning scheduler moves a task out of `PARKING`.
const PARKING: u8 = 1;
const PARKED: u8 = 2;
const SLEEPING: u8 = 3;
const RUNNABLE: u8 = 4;
const DONE: u8 = 5;

struct JoinSt {
    done: bool,
    panicked: bool,
    /// Green tasks parked in `join`; unparked by `finish_task`.
    waiters: Vec<ProcId>,
}

struct Task {
    id: ProcId,
    name: String,
    /// Soft affinity: preferred worker index (mod K) for every enqueue
    /// of this task. The task stays stealable; see [`PoolInner::enqueue`].
    affinity: Option<usize>,
    state: AtomicU8,
    /// Buffered unpark permit, exactly the `std::thread::park` token.
    permit: AtomicBool,
    aborted: AtomicBool,
    /// Bumped on every return from park; timer entries armed for an
    /// older sequence are stale and dropped.
    park_seq: AtomicU64,
    /// Saved stack pointer while suspended. Owned by the running task /
    /// its scheduler, exclusively, per the state machine.
    sp: UnsafeCell<*mut u8>,
    stack: Mutex<Option<Stack>>,
    closure: Mutex<Option<Box<dyn FnOnce() + Send>>>,
    join: Mutex<JoinSt>,
    done_cv: Condvar,
}

unsafe impl Send for Task {}
unsafe impl Sync for Task {}

/// What a task asked the scheduler to do with it when it switched out.
enum Pending {
    None,
    Park,
    Sleep,
    Yield,
    Done { panicked: bool },
}

/// Per-OS-worker scheduler state, reachable from task context via TLS.
struct WorkerCtx {
    /// Pool instance token ([`super::alloc_core_token`]); a task of pool
    /// A calling into a *different* pool must take the foreign path.
    token: usize,
    index: usize,
    /// Saved scheduler continuation while a task runs.
    sched_sp: *mut u8,
    current: Option<Arc<Task>>,
    pending: Pending,
}

thread_local! {
    static WORKER_TLS: Cell<*mut WorkerCtx> = const { Cell::new(std::ptr::null_mut()) };
}

/// TLS accessors are `#[inline(never)]`: a green task migrates between
/// OS threads across a park, and an inlined `%fs`-relative TLS load is
/// exactly the kind of thing LLVM hoists/CSEs across the (opaque to it)
/// context switch. An outlined call re-reads the *current* thread's slot
/// at every use site.
#[inline(never)]
fn worker_ctx() -> *mut WorkerCtx {
    WORKER_TLS.with(|c| c.get())
}

#[inline(never)]
fn set_worker_ctx(p: *mut WorkerCtx) {
    WORKER_TLS.with(|c| c.set(p));
}

/// Suspend the calling green task, handing `pending` to its scheduler.
/// Returns when the task is next resumed — possibly on another worker.
fn switch_out(pending: Pending) {
    let w = worker_ctx();
    assert!(!w.is_null(), "switch_out outside a green task");
    unsafe {
        (*w).pending = pending;
        let sp_slot = (*w)
            .current
            .as_ref()
            .expect("switch_out with no current task")
            .sp
            .get();
        let sched = (*w).sched_sp;
        ctx_switch(sp_slot, sched);
    }
    // Resumed. Do not touch `w` here: the task may now be on a
    // different worker; callers re-read TLS if they need scheduler state.
}

// ---------------------------------------------------------------------
// Pool
// ---------------------------------------------------------------------

struct WorkerShared {
    /// LIFO run queue: `pop_back` newest for locality; steals take
    /// `pop_front` oldest. `len` mirrors the deque length so idle checks
    /// and steal scans stay lock-free.
    deque: Mutex<VecDeque<Arc<Task>>>,
    len: AtomicUsize,
    /// Dispatch counter driving the periodic injector poll (only this
    /// worker writes it; atomic because `next_task` takes `&self`).
    ticks: AtomicU64,
    /// Parker: permit + condvar, same shape as a task permit.
    park: Mutex<bool>,
    cv: Condvar,
}

impl WorkerShared {
    fn new() -> WorkerShared {
        WorkerShared {
            deque: Mutex::new(VecDeque::new()),
            len: AtomicUsize::new(0),
            ticks: AtomicU64::new(0),
            park: Mutex::new(false),
            cv: Condvar::new(),
        }
    }
}

struct ForeignSt {
    permit: bool,
    aborted: bool,
}

/// Park slot for a lazily registered non-pool thread (identical
/// semantics to the threaded executor's foreign slots: parks never
/// abort-panic).
struct ForeignSlot {
    name: String,
    st: Mutex<ForeignSt>,
    cv: Condvar,
}

#[derive(Clone)]
enum Slot {
    Green(Arc<Task>),
    Foreign(Arc<ForeignSlot>),
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum TimerKind {
    Park,
    Sleep,
}

struct TimerEnt {
    at: u64,
    seq: u64,
    id: ProcId,
    kind: TimerKind,
}

// Min-heap by deadline.
impl PartialEq for TimerEnt {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at
    }
}
impl Eq for TimerEnt {}
impl PartialOrd for TimerEnt {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for TimerEnt {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        other.at.cmp(&self.at)
    }
}

struct PoolInner {
    token: usize,
    next_id: AtomicU64,
    epoch0: Instant,
    shutdown: AtomicBool,
    procs: Mutex<HashMap<ProcId, Slot>>,
    injector: Mutex<VecDeque<Arc<Task>>>,
    inj_len: AtomicUsize,
    workers: Vec<WorkerShared>,
    /// Indices of workers parked (or about to park) on their parker.
    idle: Mutex<Vec<usize>>,
    /// Green tasks spawned and not yet finished; workers exit when this
    /// hits zero after shutdown.
    live_tasks: AtomicUsize,
    timers: Mutex<BinaryHeap<TimerEnt>>,
    timer_cv: Condvar,
    stack_pool: Mutex<Vec<Stack>>,
}

impl PoolInner {
    fn now(&self) -> u64 {
        self.epoch0.elapsed().as_micros() as u64
    }

    fn alloc_id(&self) -> ProcId {
        ProcId(self.next_id.fetch_add(1, SeqCst))
    }

    /// The calling green task, iff the current thread is one of *this*
    /// pool's workers currently running a task.
    fn current_green(&self) -> Option<Arc<Task>> {
        let w = worker_ctx();
        if w.is_null() {
            return None;
        }
        unsafe {
            if (*w).token != self.token {
                return None;
            }
            (*w).current.clone()
        }
    }

    /// Queue a RUNNABLE task. A task with an affinity hint goes to its
    /// preferred worker's deque — from any thread — so a shard's manager
    /// and its entry bodies keep re-meeting the same worker's cache. The
    /// hint is *soft*: the deque is the normal steal target, so an
    /// overloaded preferred worker sheds hinted tasks to idle peers, and
    /// the injector-fairness valve is untouched (hinted tasks never cut
    /// ahead of injected ones). Unhinted tasks keep the old routing:
    /// local deque when enqueued from one of this pool's workers, else
    /// the global injector. Finally wake a sleeping worker — the
    /// preferred one when it is idle, any one otherwise.
    fn enqueue(&self, task: Arc<Task>) {
        let hint = task.affinity.map(|a| a % self.workers.len());
        let w = worker_ctx();
        let local = if !w.is_null() && unsafe { (*w).token } == self.token {
            Some(unsafe { (*w).index })
        } else {
            None
        };
        match hint.or(local) {
            Some(i) => {
                let ws = &self.workers[i];
                let mut d = ws.deque.lock();
                d.push_back(task);
                ws.len.store(d.len(), SeqCst);
            }
            None => {
                let mut inj = self.injector.lock();
                inj.push_back(task);
                self.inj_len.store(inj.len(), SeqCst);
            }
        }
        match hint {
            Some(i) => self.wake_preferring(i),
            None => self.wake_one(),
        }
    }

    /// Wake worker `i` if it is idle, else fall back to [`wake_one`]
    /// (Self::wake_one) so a hinted enqueue still guarantees *some*
    /// worker is awake to run or steal the task.
    fn wake_preferring(&self, i: usize) {
        {
            let mut idle = self.idle.lock();
            if let Some(pos) = idle.iter().rposition(|&x| x == i) {
                idle.remove(pos);
                drop(idle);
                let ws = &self.workers[i];
                let mut p = ws.park.lock();
                *p = true;
                ws.cv.notify_all();
                return;
            }
        }
        self.wake_one();
    }

    fn wake_one(&self) {
        let idx = self.idle.lock().pop();
        if let Some(i) = idx {
            let ws = &self.workers[i];
            let mut p = ws.park.lock();
            *p = true;
            ws.cv.notify_all();
        }
    }

    fn wake_all_workers(&self) {
        self.idle.lock().clear();
        for ws in &self.workers {
            let mut p = ws.park.lock();
            *p = true;
            ws.cv.notify_all();
        }
    }

    fn has_work(&self) -> bool {
        self.inj_len.load(SeqCst) > 0 || self.workers.iter().any(|ws| ws.len.load(SeqCst) > 0)
    }

    /// Find the next task for worker `i`: own deque (LIFO), then an
    /// injector batch, then steal-half from a victim. Never holds two
    /// deque locks at once (steals copy out, unlock, then re-queue).
    fn next_task(&self, i: usize) -> Option<Arc<Task>> {
        // Fairness valve: every GLOBAL_POLL_INTERVAL dispatches, look at
        // the injector *before* the local deque. Without it a worker
        // whose deque never drains (e.g. green tasks in a yield loop)
        // never returns to the injector, and — since the wake cascade's
        // halving grabs can leave a task behind — an injected task can
        // starve forever while every worker stays busy.
        let tick = self.workers[i].ticks.fetch_add(1, SeqCst);
        if tick.is_multiple_of(GLOBAL_POLL_INTERVAL) {
            let mut inj = self.injector.lock();
            if let Some(t) = inj.pop_front() {
                self.inj_len.store(inj.len(), SeqCst);
                return Some(t);
            }
        }
        {
            let ws = &self.workers[i];
            let mut d = ws.deque.lock();
            if let Some(t) = d.pop_back() {
                ws.len.store(d.len(), SeqCst);
                return Some(t);
            }
        }
        // Injector: take half of what's queued (≥1, capped), FIFO.
        let mut grabbed: Vec<Arc<Task>> = Vec::new();
        let mut more_elsewhere = false;
        {
            let mut inj = self.injector.lock();
            if !inj.is_empty() {
                let take = inj.len().div_ceil(2).min(INJ_BATCH_MAX);
                grabbed.extend(inj.drain(..take));
                self.inj_len.store(inj.len(), SeqCst);
                more_elsewhere = !inj.is_empty();
            }
        }
        if grabbed.is_empty() {
            // Steal half of the first non-empty victim's deque, oldest
            // first (the victim keeps its hot newest entries).
            for off in 1..self.workers.len() {
                let v = (i + off) % self.workers.len();
                let ws = &self.workers[v];
                if ws.len.load(SeqCst) == 0 {
                    continue;
                }
                let mut d = ws.deque.lock();
                let take = d.len().div_ceil(2).min(STEAL_BATCH_MAX);
                grabbed.extend(d.drain(..take));
                ws.len.store(d.len(), SeqCst);
                more_elsewhere = !d.is_empty();
                drop(d);
                if !grabbed.is_empty() {
                    break;
                }
            }
        }
        let first = grabbed.pop()?; // newest of the batch runs first
        if !grabbed.is_empty() {
            let ws = &self.workers[i];
            let mut d = ws.deque.lock();
            for t in grabbed {
                d.push_back(t);
            }
            ws.len.store(d.len(), SeqCst);
            drop(d);
            // We hold a batch; cascade a wakeup so a peer can share it.
            self.wake_one();
        } else if more_elsewhere {
            self.wake_one();
        }
        Some(first)
    }

    /// Resume `task` on worker `w` until it parks, sleeps, yields, or
    /// finishes, then apply the state transition it requested. All
    /// `PARKING → *` moves happen here, on the scheduler stack, with the
    /// task's register state fully saved.
    fn run_task(&self, w: *mut WorkerCtx, task: Arc<Task>) {
        task.state.store(RUNNING, SeqCst);
        unsafe {
            (*w).pending = Pending::None;
            (*w).current = Some(Arc::clone(&task));
            let sp = *task.sp.get();
            ctx_switch(std::ptr::addr_of_mut!((*w).sched_sp), sp);
            (*w).current = None;
        }
        let pending = unsafe { std::mem::replace(&mut (*w).pending, Pending::None) };
        match pending {
            Pending::Park => {
                let ok = task
                    .state
                    .compare_exchange(PARKING, PARKED, SeqCst, SeqCst)
                    .is_ok();
                debug_assert!(ok, "parking task moved by someone else");
                // Dekker re-check against a racing unpark/abort: they
                // store permit/aborted before reading the state, we store
                // PARKED before reading permit/aborted — one side must
                // see the other.
                if (task.permit.load(SeqCst) || task.aborted.load(SeqCst))
                    && task
                        .state
                        .compare_exchange(PARKED, RUNNABLE, SeqCst, SeqCst)
                        .is_ok()
                {
                    self.enqueue(task);
                }
            }
            Pending::Sleep => {
                let ok = task
                    .state
                    .compare_exchange(PARKING, SLEEPING, SeqCst, SeqCst)
                    .is_ok();
                debug_assert!(ok, "sleeping task moved by someone else");
                // Same re-check for a shutdown that raced the suspension.
                if task.aborted.load(SeqCst)
                    && task
                        .state
                        .compare_exchange(SLEEPING, RUNNABLE, SeqCst, SeqCst)
                        .is_ok()
                {
                    self.enqueue(task);
                }
            }
            Pending::Yield => {
                task.state.store(RUNNABLE, SeqCst);
                // Cold end of the LIFO deque: everything else local runs
                // before the yielder comes around again.
                let ws = &self.workers[unsafe { (*w).index }];
                let mut d = ws.deque.lock();
                d.push_front(task);
                ws.len.store(d.len(), SeqCst);
            }
            Pending::Done { panicked } => self.finish_task(&task, panicked),
            Pending::None => unreachable!("green task switched out with no pending request"),
        }
    }

    fn finish_task(&self, task: &Arc<Task>, panicked: bool) {
        task.state.store(DONE, SeqCst);
        if let Some(stack) = task.stack.lock().take() {
            let mut pool = self.stack_pool.lock();
            if pool.len() < STACK_POOL_CAP {
                pool.push(stack);
            }
        }
        let waiters = {
            let mut j = task.join.lock();
            j.done = true;
            j.panicked = panicked;
            std::mem::take(&mut j.waiters)
        };
        task.done_cv.notify_all();
        for wid in waiters {
            self.unpark_id(wid);
        }
        let prev = self.live_tasks.fetch_sub(1, SeqCst);
        if prev == 1 && self.shutdown.load(SeqCst) {
            // Last task after shutdown: release workers waiting to exit.
            self.wake_all_workers();
            let _g = self.timers.lock();
            self.timer_cv.notify_all();
        }
    }

    fn unpark_id(&self, id: ProcId) {
        let slot = self.procs.lock().get(&id).cloned();
        match slot {
            Some(Slot::Green(t)) => {
                t.permit.store(true, SeqCst);
                if t.state
                    .compare_exchange(PARKED, RUNNABLE, SeqCst, SeqCst)
                    .is_ok()
                {
                    self.enqueue(t);
                }
                // SLEEPING: the permit is buffered for the next park;
                // sleeps are woken only by their timer (or shutdown).
            }
            Some(Slot::Foreign(s)) => {
                let mut st = s.st.lock();
                st.permit = true;
                s.cv.notify_all();
            }
            None => {}
        }
    }

    fn register_timer(&self, ent: TimerEnt) {
        let mut timers = self.timers.lock();
        let new_front = timers.peek().is_none_or(|top| ent.at < top.at);
        timers.push(ent);
        if new_front {
            self.timer_cv.notify_all();
        }
    }

    fn fire_timer(&self, ent: TimerEnt) {
        let slot = self.procs.lock().get(&ent.id).cloned();
        let Some(Slot::Green(t)) = slot else { return };
        match ent.kind {
            TimerKind::Park => {
                if t.park_seq.load(SeqCst) != ent.seq {
                    return; // that park already returned
                }
                match t.state.compare_exchange(PARKED, RUNNABLE, SeqCst, SeqCst) {
                    Ok(_) => self.enqueue(t),
                    // Fired inside the decide-to-park window (timer armed
                    // before the PARKING publish): try again shortly.
                    Err(RUNNING) | Err(PARKING) => self.register_timer(TimerEnt {
                        at: self.now() + TIMER_RETRY_TICKS,
                        ..ent
                    }),
                    Err(_) => {} // already awake (unparked) or done
                }
            }
            TimerKind::Sleep => {
                match t.state.compare_exchange(SLEEPING, RUNNABLE, SeqCst, SeqCst) {
                    Ok(_) => self.enqueue(t),
                    Err(RUNNING) | Err(PARKING) => self.register_timer(TimerEnt {
                        at: self.now() + TIMER_RETRY_TICKS,
                        ..ent
                    }),
                    Err(_) => {} // woken by shutdown, or done
                }
            }
        }
    }

    // --- green-task blocking primitives -------------------------------

    fn green_park(&self, t: &Arc<Task>) {
        if t.aborted.load(SeqCst) {
            std::panic::panic_any(Aborted);
        }
        if t.permit.swap(false, SeqCst) {
            return;
        }
        t.state.store(PARKING, SeqCst);
        switch_out(Pending::Park);
        t.park_seq.fetch_add(1, SeqCst);
        t.permit.store(false, SeqCst);
        if t.aborted.load(SeqCst) {
            std::panic::panic_any(Aborted);
        }
    }

    fn green_park_timeout(&self, t: &Arc<Task>, ticks: u64) {
        if t.aborted.load(SeqCst) {
            std::panic::panic_any(Aborted);
        }
        if t.permit.swap(false, SeqCst) {
            return;
        }
        if ticks == 0 {
            // Pure scheduling point, mirroring the threaded executor's
            // zero-duration wait.
            switch_out(Pending::Yield);
            t.permit.store(false, SeqCst);
            if t.aborted.load(SeqCst) {
                std::panic::panic_any(Aborted);
            }
            return;
        }
        let seq = t.park_seq.load(SeqCst);
        self.register_timer(TimerEnt {
            at: self.now().saturating_add(ticks),
            seq,
            id: t.id,
            kind: TimerKind::Park,
        });
        t.state.store(PARKING, SeqCst);
        switch_out(Pending::Park);
        t.park_seq.fetch_add(1, SeqCst);
        t.permit.store(false, SeqCst);
        if t.aborted.load(SeqCst) {
            std::panic::panic_any(Aborted);
        }
    }

    fn green_sleep(&self, t: &Arc<Task>, ticks: u64) {
        if self.shutdown.load(SeqCst) || t.aborted.load(SeqCst) {
            std::panic::panic_any(Aborted);
        }
        self.register_timer(TimerEnt {
            at: self.now().saturating_add(ticks),
            seq: t.park_seq.load(SeqCst),
            id: t.id,
            kind: TimerKind::Sleep,
        });
        t.state.store(PARKING, SeqCst);
        switch_out(Pending::Sleep);
        if t.aborted.load(SeqCst) {
            std::panic::panic_any(Aborted);
        }
    }

    fn green_yield(&self, t: &Arc<Task>) {
        if t.aborted.load(SeqCst) {
            std::panic::panic_any(Aborted);
        }
        switch_out(Pending::Yield);
        if t.aborted.load(SeqCst) {
            std::panic::panic_any(Aborted);
        }
    }

    // --- worker / timer threads ---------------------------------------

    fn idle_wait(&self, i: usize) {
        let mut sw = SpinWait::new(tuning::SPIN_ROUNDS);
        while sw.spin() {
            if self.has_work() {
                return;
            }
        }
        if self.has_work() {
            return;
        }
        self.idle.lock().push(i);
        // Producers enqueue before popping the idle list, so this
        // re-check observes anything published before we registered.
        if self.has_work() {
            self.withdraw_idle(i);
            return;
        }
        let ws = &self.workers[i];
        let mut p = ws.park.lock();
        loop {
            if *p {
                *p = false;
                break;
            }
            if self.shutdown.load(SeqCst) {
                // Post-shutdown the exit condition (live_tasks == 0) is
                // not tied to a queue publish; poll it.
                let _ = ws.cv.wait_for(&mut p, Duration::from_millis(1));
                *p = false;
                break;
            }
            ws.cv.wait(&mut p);
        }
        drop(p);
        self.withdraw_idle(i);
    }

    fn withdraw_idle(&self, i: usize) {
        let mut idle = self.idle.lock();
        if let Some(pos) = idle.iter().rposition(|&x| x == i) {
            idle.remove(pos);
        }
    }
}

// Raw pointers in `Task`/`Stack` fields; safety is argued at each field.
unsafe impl Send for PoolInner {}
unsafe impl Sync for PoolInner {}

fn worker_main(pool: Arc<PoolInner>, index: usize) {
    let mut ctx = Box::new(WorkerCtx {
        token: pool.token,
        index,
        sched_sp: std::ptr::null_mut(),
        current: None,
        pending: Pending::None,
    });
    let ctx_ptr: *mut WorkerCtx = &mut *ctx;
    set_worker_ctx(ctx_ptr);
    loop {
        if pool.shutdown.load(SeqCst) && pool.live_tasks.load(SeqCst) == 0 {
            break;
        }
        if let Some(t) = pool.next_task(index) {
            pool.run_task(ctx_ptr, t);
            continue;
        }
        pool.idle_wait(index);
    }
    set_worker_ctx(std::ptr::null_mut());
}

fn timer_main(pool: Arc<PoolInner>) {
    loop {
        let mut due: Vec<TimerEnt> = Vec::new();
        {
            let mut timers = pool.timers.lock();
            if pool.shutdown.load(SeqCst) {
                return;
            }
            let now = pool.now();
            let mut next_at = None;
            while let Some(top) = timers.peek() {
                if top.at <= now {
                    due.push(timers.pop().unwrap());
                } else {
                    next_at = Some(top.at);
                    break;
                }
            }
            if due.is_empty() {
                match next_at {
                    Some(at) => {
                        let _ = pool
                            .timer_cv
                            .wait_for(&mut timers, Duration::from_micros(at - now));
                    }
                    None => pool.timer_cv.wait(&mut timers),
                }
                continue;
            }
        }
        for ent in due {
            pool.fire_timer(ent);
        }
    }
}

// ---------------------------------------------------------------------
// Executor
// ---------------------------------------------------------------------

pub(crate) struct StealCore {
    inner: Arc<PoolInner>,
    handles: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl StealCore {
    pub(crate) fn new(workers: usize) -> StealCore {
        crate::error::silence_abort_panics();
        let k = workers.max(1);
        let inner = Arc::new(PoolInner {
            token: super::alloc_core_token(),
            next_id: AtomicU64::new(1),
            epoch0: Instant::now(),
            shutdown: AtomicBool::new(false),
            procs: Mutex::new(HashMap::new()),
            injector: Mutex::new(VecDeque::new()),
            inj_len: AtomicUsize::new(0),
            workers: (0..k).map(|_| WorkerShared::new()).collect(),
            idle: Mutex::new(Vec::new()),
            live_tasks: AtomicUsize::new(0),
            timers: Mutex::new(BinaryHeap::new()),
            timer_cv: Condvar::new(),
            stack_pool: Mutex::new(Vec::new()),
        });
        let mut handles = Vec::with_capacity(k + 1);
        for i in 0..k {
            let p = Arc::clone(&inner);
            handles.push(
                std::thread::Builder::new()
                    .name(format!("alps-steal-{i}"))
                    .spawn(move || worker_main(p, i))
                    .expect("failed to spawn steal worker"),
            );
        }
        let p = Arc::clone(&inner);
        handles.push(
            std::thread::Builder::new()
                .name("alps-steal-timer".to_string())
                .spawn(move || timer_main(p))
                .expect("failed to spawn timer thread"),
        );
        StealCore {
            inner,
            handles: Mutex::new(handles),
        }
    }

    /// Slot of the calling non-pool thread, registering it lazily
    /// (threaded-executor semantics).
    fn foreign_slot(&self) -> (ProcId, Arc<ForeignSlot>) {
        if let Some(id) = current_for(self.inner.token) {
            if let Some(Slot::Foreign(s)) = self.inner.procs.lock().get(&id).cloned() {
                return (id, s);
            }
        }
        let id = self.inner.alloc_id();
        let slot = Arc::new(ForeignSlot {
            name: format!("foreign-{}", id.as_u64()),
            st: Mutex::new(ForeignSt {
                permit: false,
                aborted: false,
            }),
            cv: Condvar::new(),
        });
        self.inner
            .procs
            .lock()
            .insert(id, Slot::Foreign(Arc::clone(&slot)));
        set_current(self.inner.token, id);
        (id, slot)
    }

    fn shutdown_impl(&self) {
        self.inner.shutdown.store(true, SeqCst);
        let slots: Vec<Slot> = self.inner.procs.lock().values().cloned().collect();
        for slot in slots {
            match slot {
                Slot::Green(t) => {
                    t.aborted.store(true, SeqCst);
                    t.permit.store(true, SeqCst);
                    // Requeue suspended tasks so they resume and unwind.
                    // A task caught in PARKING is requeued by its
                    // scheduler's post-switch abort re-check.
                    if t.state
                        .compare_exchange(PARKED, RUNNABLE, SeqCst, SeqCst)
                        .is_ok()
                        || t.state
                            .compare_exchange(SLEEPING, RUNNABLE, SeqCst, SeqCst)
                            .is_ok()
                    {
                        self.inner.enqueue(t);
                    }
                }
                Slot::Foreign(s) => {
                    let mut st = s.st.lock();
                    st.aborted = true;
                    st.permit = true;
                    s.cv.notify_all();
                }
            }
        }
        self.inner.wake_all_workers();
        let _g = self.inner.timers.lock();
        self.inner.timer_cv.notify_all();
    }
}

impl Drop for StealCore {
    fn drop(&mut self) {
        self.shutdown_impl();
        let handles = std::mem::take(&mut *self.handles.lock());
        let w = worker_ctx();
        let on_pool_thread = !w.is_null() && unsafe { (*w).token } == self.inner.token;
        if on_pool_thread {
            // The last Runtime clone was dropped from inside a green
            // task. Joining would deadlock — this very task keeps
            // live_tasks above zero. Detach: shutdown is signalled, the
            // workers exit once the remaining tasks unwind.
            for h in handles {
                drop(h);
            }
        } else {
            for h in handles {
                let _ = h.join();
            }
        }
    }
}

impl ExecutorCore for StealCore {
    fn spawn(
        &self,
        _self_arc: &Arc<dyn ExecutorCore>,
        opts: Spawn,
        f: Box<dyn FnOnce() + Send>,
    ) -> ProcId {
        let id = self.inner.alloc_id();
        let task = Arc::new(Task {
            id,
            name: opts.name.clone(),
            affinity: opts.affinity,
            state: AtomicU8::new(RUNNABLE),
            permit: AtomicBool::new(false),
            aborted: AtomicBool::new(false),
            park_seq: AtomicU64::new(0),
            sp: UnsafeCell::new(std::ptr::null_mut()),
            stack: Mutex::new(None),
            closure: Mutex::new(Some(f)),
            join: Mutex::new(JoinSt {
                done: false,
                panicked: false,
                waiters: Vec::new(),
            }),
            done_cv: Condvar::new(),
        });
        self.inner
            .procs
            .lock()
            .insert(id, Slot::Green(Arc::clone(&task)));
        if self.inner.shutdown.load(SeqCst) {
            // Post-shutdown spawn: record as immediately panicked.
            task.state.store(DONE, SeqCst);
            let mut j = task.join.lock();
            j.done = true;
            j.panicked = true;
            drop(j);
            task.done_cv.notify_all();
            return id;
        }
        let stack = self
            .inner
            .stack_pool
            .lock()
            .pop()
            .unwrap_or_else(Stack::new);
        unsafe {
            *task.sp.get() = prepare_stack(&stack, Arc::as_ptr(&task));
        }
        *task.stack.lock() = Some(stack);
        self.inner.live_tasks.fetch_add(1, SeqCst);
        self.inner.enqueue(task);
        id
    }

    fn current(&self, _self_arc: &Arc<dyn ExecutorCore>) -> ProcId {
        if let Some(t) = self.inner.current_green() {
            return t.id;
        }
        self.foreign_slot().0
    }

    fn park(&self, _self_arc: &Arc<dyn ExecutorCore>) {
        if let Some(t) = self.inner.current_green() {
            self.inner.green_park(&t);
            return;
        }
        let (_, slot) = self.foreign_slot();
        let mut st = slot.st.lock();
        if st.permit {
            st.permit = false;
            return;
        }
        slot.cv.wait(&mut st);
        st.permit = false;
    }

    fn park_timeout(&self, _self_arc: &Arc<dyn ExecutorCore>, ticks: u64) {
        if let Some(t) = self.inner.current_green() {
            self.inner.green_park_timeout(&t, ticks);
            return;
        }
        let (_, slot) = self.foreign_slot();
        let mut st = slot.st.lock();
        if st.permit {
            st.permit = false;
            return;
        }
        let _ = slot.cv.wait_for(&mut st, Duration::from_micros(ticks));
        st.permit = false;
    }

    fn unpark(&self, id: ProcId) {
        self.inner.unpark_id(id);
    }

    fn yield_now(&self, _self_arc: &Arc<dyn ExecutorCore>) {
        if let Some(t) = self.inner.current_green() {
            self.inner.green_yield(&t);
            return;
        }
        std::thread::yield_now();
    }

    fn sleep(&self, _self_arc: &Arc<dyn ExecutorCore>, ticks: u64) {
        if let Some(t) = self.inner.current_green() {
            self.inner.green_sleep(&t, ticks);
            return;
        }
        if self.inner.shutdown.load(SeqCst) {
            std::panic::panic_any(Aborted);
        }
        std::thread::sleep(Duration::from_micros(ticks));
    }

    fn now(&self) -> u64 {
        self.inner.now()
    }

    fn join(&self, _self_arc: &Arc<dyn ExecutorCore>, id: ProcId) -> Result<(), RuntimeError> {
        let slot = self.inner.procs.lock().get(&id).cloned();
        let Some(slot) = slot else {
            return Ok(()); // already exited and pruned
        };
        let t = match slot {
            Slot::Green(t) => t,
            Slot::Foreign(_) => return Ok(()), // foreign threads are not joinable
        };
        if let Some(me) = self.inner.current_green() {
            loop {
                {
                    let mut j = t.join.lock();
                    if j.done {
                        break;
                    }
                    if !j.waiters.contains(&me.id) {
                        j.waiters.push(me.id);
                    }
                }
                self.inner.green_park(&me);
            }
        } else {
            let mut j = t.join.lock();
            while !j.done {
                t.done_cv.wait(&mut j);
            }
        }
        self.inner.procs.lock().remove(&id);
        let j = t.join.lock();
        if j.panicked {
            Err(RuntimeError::ProcPanicked {
                name: t.name.clone(),
            })
        } else {
            Ok(())
        }
    }

    fn shutdown(&self) {
        self.shutdown_impl();
    }

    fn is_sim(&self) -> bool {
        false
    }

    fn proc_name(&self, id: ProcId) -> Option<String> {
        match self.inner.procs.lock().get(&id) {
            Some(Slot::Green(t)) => Some(t.name.clone()),
            Some(Slot::Foreign(s)) => Some(s.name.clone()),
            None => None,
        }
    }

    fn os_threads(&self) -> Option<u64> {
        // K workers + 1 timer thread, fixed for the pool's lifetime.
        Some(self.inner.workers.len() as u64 + 1)
    }
}

#[cfg(test)]
mod tests {
    use crate::process::Priority;
    use crate::{Runtime, Spawn};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    fn pool(k: usize) -> Runtime {
        Runtime::thread_pool(k)
    }

    #[test]
    fn spawn_and_join_returns_value() {
        let rt = pool(2);
        let h = rt.spawn(|| 7);
        assert_eq!(h.join().unwrap(), 7);
    }

    #[test]
    fn join_reports_panic() {
        let rt = pool(2);
        let h = rt.spawn_with(Spawn::new("boom"), || {
            if true {
                panic!("bang");
            }
        });
        let err = h.join().unwrap_err();
        assert_eq!(err.to_string(), "process `boom` panicked");
    }

    #[test]
    fn unpark_before_park_buffers_permit() {
        let rt = pool(2);
        let rt2 = rt.clone();
        let h = rt.spawn(move || {
            let me = rt2.current();
            rt2.unpark(me); // self-permit
            rt2.park(); // must not block
            42
        });
        assert_eq!(h.join().unwrap(), 42);
    }

    #[test]
    fn park_blocks_until_unpark() {
        let rt = pool(2);
        let flag = Arc::new(AtomicUsize::new(0));
        let (rt2, flag2) = (rt.clone(), Arc::clone(&flag));
        let h = rt.spawn(move || {
            flag2.store(1, Ordering::SeqCst);
            rt2.park();
            flag2.store(2, Ordering::SeqCst);
        });
        let id = h.id();
        while flag.load(Ordering::SeqCst) == 0 {
            std::thread::yield_now();
        }
        std::thread::sleep(std::time::Duration::from_millis(10));
        assert_eq!(flag.load(Ordering::SeqCst), 1);
        rt.unpark(id);
        h.join().unwrap();
        assert_eq!(flag.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn green_park_timeout_expires_without_unpark() {
        let rt = pool(2);
        let rt2 = rt.clone();
        let h = rt.spawn(move || {
            let t0 = std::time::Instant::now();
            rt2.park_timeout(5_000); // 5 ms, nobody unparks
            t0.elapsed()
        });
        assert!(h.join().unwrap() >= std::time::Duration::from_millis(2));
    }

    #[test]
    fn foreign_park_timeout_expires_without_unpark() {
        let rt = pool(2);
        let t0 = std::time::Instant::now();
        rt.park_timeout(5_000); // foreign (test) thread
        assert!(t0.elapsed() >= std::time::Duration::from_millis(2));
    }

    #[test]
    fn park_timeout_consumes_buffered_permit_immediately() {
        let rt = pool(2);
        let rt2 = rt.clone();
        let h = rt.spawn(move || {
            let me = rt2.current();
            rt2.unpark(me);
            let t0 = std::time::Instant::now();
            rt2.park_timeout(5_000_000); // must not block: permit buffered
            t0.elapsed() < std::time::Duration::from_secs(1)
        });
        assert!(h.join().unwrap());
    }

    #[test]
    fn stale_timer_does_not_wake_a_later_park() {
        let rt = pool(1);
        let rt2 = rt.clone();
        let h = rt.spawn(move || {
            let me = rt2.current();
            // Arm a 50 ms timeout but get unparked immediately…
            rt2.unpark(me);
            rt2.park_timeout(50_000);
            // …then park without a timeout. The stale timer must not
            // end this park; the explicit unparker does, much later.
            let t0 = std::time::Instant::now();
            rt2.park();
            t0.elapsed()
        });
        let id = h.id();
        std::thread::sleep(std::time::Duration::from_millis(120));
        rt.unpark(id);
        // The second park must have lasted until our unpark (~120 ms),
        // not ended by the 50 ms timer armed for the first park.
        assert!(h.join().unwrap() >= std::time::Duration::from_millis(100));
    }

    #[test]
    fn foreign_thread_can_park_and_be_unparked() {
        let rt = pool(2);
        let me = rt.current(); // registers the test thread
        let rt2 = rt.clone();
        let h = rt.spawn(move || {
            rt2.unpark(me);
        });
        rt.park();
        h.join().unwrap();
    }

    #[test]
    fn now_is_monotonic_and_green_sleep_advances_it() {
        let rt = pool(2);
        let rt2 = rt.clone();
        let h = rt.spawn(move || {
            let t0 = rt2.now();
            rt2.sleep(2_000);
            let t1 = rt2.now();
            (t0, t1)
        });
        let (t0, t1) = h.join().unwrap();
        assert!(t1 >= t0 + 1_000, "t0={t0} t1={t1}");
    }

    #[test]
    fn proc_name_resolves_while_alive() {
        let rt = pool(2);
        let rt2 = rt.clone();
        let h = rt.spawn_with(Spawn::new("worker"), move || {
            let me = rt2.current();
            rt2.proc_name(me)
        });
        assert_eq!(h.join().unwrap().as_deref(), Some("worker"));
    }

    #[test]
    fn green_task_can_spawn_and_join() {
        let rt = pool(2);
        let rt2 = rt.clone();
        let h = rt.spawn(move || {
            let inner = rt2.spawn(|| 5);
            inner.join().unwrap() + 1
        });
        assert_eq!(h.join().unwrap(), 6);
    }

    #[test]
    fn priorities_are_advisory_metadata() {
        let rt = pool(2);
        let h = rt.spawn_with(Spawn::new("m").prio(Priority::MANAGER).daemon(true), || 1);
        assert_eq!(h.join().unwrap(), 1);
    }

    #[test]
    fn many_tasks_on_few_workers() {
        // 200 interdependent tasks on 2 workers: a thread-per-process
        // design would need 200 threads; here parks free the workers.
        let rt = pool(2);
        let counter = Arc::new(AtomicUsize::new(0));
        let hs: Vec<_> = (0..200)
            .map(|_| {
                let (rt2, c) = (rt.clone(), Arc::clone(&counter));
                rt.spawn(move || {
                    let inner = rt2.spawn(|| 1usize);
                    c.fetch_add(inner.join().unwrap(), Ordering::SeqCst);
                })
            })
            .collect();
        for h in hs {
            h.join().unwrap();
        }
        assert_eq!(counter.load(Ordering::SeqCst), 200);
        assert_eq!(rt.os_threads(), Some(3)); // 2 workers + timer
    }

    #[test]
    fn unpark_ping_pong_across_tasks() {
        // Two tasks alternate strict turns via park/unpark 2000 times;
        // exercises the PARKING→PARKED handshake and task migration.
        let rt = pool(2);
        let ctr = Arc::new(AtomicUsize::new(0));
        let a_id = Arc::new(AtomicUsize::new(0));
        let b_id = Arc::new(AtomicUsize::new(0));
        let turns = 1000usize;
        let mk = |my_id: Arc<AtomicUsize>, peer_id: Arc<AtomicUsize>, parity: usize| {
            let (rt2, ctr2) = (rt.clone(), Arc::clone(&ctr));
            rt.spawn(move || {
                my_id.store(rt2.current().as_u64() as usize, Ordering::SeqCst);
                for k in 0..turns {
                    let my_turn = 2 * k + parity;
                    while ctr2.load(Ordering::SeqCst) != my_turn {
                        rt2.park();
                    }
                    ctr2.store(my_turn + 1, Ordering::SeqCst);
                    loop {
                        let peer = peer_id.load(Ordering::SeqCst);
                        if peer != 0 {
                            rt2.unpark(crate::process::ProcId(peer as u64));
                            break;
                        }
                        rt2.yield_now();
                    }
                }
            })
        };
        let a = mk(Arc::clone(&a_id), Arc::clone(&b_id), 0);
        let b = mk(b_id, a_id, 1);
        a.join().unwrap();
        b.join().unwrap();
        assert_eq!(ctr.load(Ordering::SeqCst), 2 * turns);
    }

    #[test]
    fn shutdown_aborts_parked_tasks() {
        let rt = pool(2);
        let parked = Arc::new(AtomicUsize::new(0));
        let hs: Vec<_> = (0..8)
            .map(|_| {
                let (rt2, p) = (rt.clone(), Arc::clone(&parked));
                rt.spawn(move || {
                    p.fetch_add(1, Ordering::SeqCst);
                    loop {
                        rt2.park(); // aborts with Aborted on shutdown
                    }
                })
            })
            .collect();
        while parked.load(Ordering::SeqCst) < 8 {
            std::thread::yield_now();
        }
        std::thread::sleep(std::time::Duration::from_millis(5));
        rt.shutdown();
        for h in hs {
            // Aborted unwinds count as panicked joins, like the
            // threaded executor.
            assert!(h.join().is_err());
        }
    }

    #[test]
    fn shutdown_wakes_green_sleepers() {
        let rt = pool(2);
        let rt2 = rt.clone();
        let h = rt.spawn(move || {
            rt2.sleep(60_000_000); // 60 s; shutdown must interrupt
        });
        std::thread::sleep(std::time::Duration::from_millis(10));
        let t0 = std::time::Instant::now();
        rt.shutdown();
        assert!(h.join().is_err());
        assert!(t0.elapsed() < std::time::Duration::from_secs(10));
    }

    #[test]
    fn spawn_after_shutdown_is_immediately_panicked() {
        let rt = pool(1);
        rt.shutdown();
        let h = rt.spawn(|| 3);
        assert!(h.join().is_err());
    }

    #[test]
    fn affinity_hint_is_soft_tasks_are_stolen_from_a_busy_worker() {
        use std::sync::atomic::AtomicBool;
        let rt = pool(2);
        // Occupy worker 0 with a spinner that never switches out, then
        // hint 8 short tasks at the same worker. If the hint were hard
        // pinning they would wait behind the spinner forever; the soft
        // hint leaves them in worker 0's deque where worker 1 steals
        // them.
        let hold = Arc::new(AtomicBool::new(true));
        let h2 = Arc::clone(&hold);
        let hog = rt.spawn_with(crate::Spawn::new("hog").affinity(0), move || {
            while h2.load(Ordering::SeqCst) {
                std::hint::spin_loop();
            }
        });
        let done = Arc::new(AtomicUsize::new(0));
        let hs: Vec<_> = (0..8)
            .map(|_| {
                let d = Arc::clone(&done);
                rt.spawn_with(crate::Spawn::new("hinted").affinity(0), move || {
                    d.fetch_add(1, Ordering::SeqCst);
                })
            })
            .collect();
        let t0 = std::time::Instant::now();
        while done.load(Ordering::SeqCst) < 8 {
            assert!(
                t0.elapsed() < std::time::Duration::from_secs(10),
                "hinted tasks starved behind busy preferred worker"
            );
            std::thread::yield_now();
        }
        hold.store(false, Ordering::SeqCst);
        hog.join().unwrap();
        for h in hs {
            h.join().unwrap();
        }
    }

    #[test]
    fn os_thread_count_is_bounded_by_pool_size() {
        let rt = pool(4);
        assert_eq!(rt.os_threads(), Some(5));
        let hs: Vec<_> = (0..64).map(|_| rt.spawn(|| ())).collect();
        for h in hs {
            h.join().unwrap();
        }
        assert_eq!(rt.os_threads(), Some(5));
    }
}
