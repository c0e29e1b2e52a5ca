//! Steady-state allocation accounting for the `call_id` fast path.
//!
//! The interned-id call path is meant to be allocation-free once warm:
//! args and results ride in `ValVec` inline storage (arity ≤ 4), implicit
//! entries execute inline in the caller without a `CallCell`, and managed
//! entries recycle cells through the per-object pool. This test installs
//! a counting global allocator and asserts a zero allocation delta across
//! a burst of warm implicit `call_id` invocations.
//!
//! The count is process-global, so it also sees whatever the test
//! harness does while a window is open. With several `#[test]`s in this
//! binary, libtest's main thread handles one finished test's result and
//! spawns the thread for the next (thread name, output capture, result
//! channel) while a sibling's window is still counting — 1–18 stray
//! allocations per 1000 calls on a 2-CPU machine, none from an ALPS
//! thread. So the scenarios run in sequence inside the one `#[test]`
//! below: libtest then has nothing to finish or spawn while a window is
//! open, and the zero bound holds without `--test-threads=1`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use alps_core::{
    argv, EntryDef, EntryId, ObjectBuilder, ObjectHandle, Result, RetryPolicy, Ty, ValVec, Value,
};
use alps_runtime::Runtime;

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static COUNTING: AtomicBool = AtomicBool::new(false);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static A: CountingAlloc = CountingAlloc;

/// Spawn an object with one implicit arity-1 `Echo` entry, warm `call`
/// up (first calls may lazily allocate: thread-locals, pool hand-off
/// structures, stats buckets), then count allocations over 1000 more
/// calls. Returns the count.
fn warm_allocations(name: &str, call: impl Fn(&ObjectHandle, EntryId) -> Result<ValVec>) -> u64 {
    let rt = Runtime::threaded();
    let obj = ObjectBuilder::new(name)
        .entry(
            EntryDef::new("Echo")
                .params([Ty::Int])
                .results([Ty::Int])
                .body(|_ctx, args| Ok(argv![args[0].clone()])),
        )
        .spawn(&rt)
        .unwrap();
    let id = obj.entry_id("Echo").unwrap();

    for _ in 0..64 {
        let r = call(&obj, id).unwrap();
        assert_eq!(r[0], Value::Int(7));
    }

    ALLOCS.store(0, Ordering::SeqCst);
    COUNTING.store(true, Ordering::SeqCst);
    for _ in 0..1000 {
        let r = call(&obj, id).unwrap();
        assert_eq!(r[0], Value::Int(7));
    }
    COUNTING.store(false, Ordering::SeqCst);
    let n = ALLOCS.load(Ordering::SeqCst);

    obj.shutdown();
    rt.shutdown();
    n
}

#[test]
fn warm_call_id_paths_allocate_nothing() {
    let n = warm_allocations("Plain", |obj, id| obj.call_id(id, argv![7i64]));
    assert_eq!(
        n, 0,
        "warm call_id on an implicit arity-1 entry must not allocate; saw {n} allocations over 1000 calls"
    );

    let n = warm_allocations("Deadline", |obj, id| {
        obj.call_id_deadline(id, argv![7i64], 1_000_000)
    });
    assert_eq!(
        n, 0,
        "warm call_id_deadline happy path (deadline never fires) must not \
         allocate; saw {n} allocations over 1000 calls"
    );

    // First attempt succeeds, so only the per-attempt `args.clone()`
    // (inline — heap-free for arity ≤ 4) rides on top of the deadline
    // path; no backoff machinery runs.
    let policy = RetryPolicy::new(3, 10_000_000);
    let n = warm_allocations("Retry", |obj, id| {
        obj.call_id_retry(id, argv![7i64], policy)
    });
    assert_eq!(
        n, 0,
        "warm call_id_retry happy path (first attempt succeeds) must not \
         allocate; saw {n} allocations over 1000 calls"
    );
}
