//! The wait policy, in one place.
//!
//! Four waits in the system expect an event that usually arrives within
//! a few microseconds: a caller waiting for its reply, a manager waiting
//! for work, a pool slot worker waiting for its next job, and an idle
//! work-stealing executor worker. They share one policy of two
//! constants: a pure-spin burst of [`SPIN_ROUNDS`] before parking, and,
//! where there is liveness evidence that the other side is running (a
//! manager still awake for a caller, a call just served for a manager),
//! a yield phase of at most [`YIELD_BUDGET`] yields in between.
//!
//! Both values were chosen by paired runs of the repo benchmark
//! (`BENCHMARK.json`); DESIGN.md §7 "Wait budgets" has the table,
//! including the rejected alternatives (a per-object service-time
//! budget, and a longer spin).

/// Pure-spin rounds of every wait before it yields or parks
/// ([`SpinWait`](crate::SpinWait) rounds, exponential: round *r* issues
/// `2^r` `spin_loop` hints, so 4 rounds are 15 hints). Spinning pays only
/// when the event is produced by a peer running on another CPU; a longer
/// burst measured worse on the sharded workload.
pub const SPIN_ROUNDS: u32 = 4;

/// Yields a waiter with liveness evidence spends before it parks: a
/// caller while its object's manager is awake (`mgr_active`), and a
/// manager in *poll mode* (turned on by every drain that found at least
/// one call) polling its intake ring.
pub const YIELD_BUDGET: u32 = 64;

/// Default preemption budget for
/// [`SchedPolicy::PreemptionBounded`](crate::SchedPolicy) when selected
/// via `SIM_STRATEGY=pct`. The PCT argument: a bug of preemption depth
/// *d* is found with probability ≥ 1/(n·k^(d−1)) per schedule, and the
/// protocol races shipped so far (finish-vs-cancel, restart-vs-drain)
/// all have depth ≤ 3 — a small budget keeps each run
/// close to the default schedule while still crossing those windows.
pub const PCT_DEFAULT_BOUND: u32 = 8;

/// PCT preemption placement gate: at each commit point a preemption
/// fires with probability 1/N (budget permitting). Sized so a typical
/// sweep scenario (a few hundred commit hits) spreads its budget across
/// the whole run instead of exhausting it in the first few hits.
pub const PCT_GATE_ONE_IN: u64 = 16;

/// TargetedRace preemption gate: one-in-N commit points preempt. Kept
/// aggressive (2) — the strategy exists to maximize distinct
/// commit-point orderings per schedule.
pub const TARGETED_GATE_ONE_IN: u64 = 2;

/// Spread of commit-point preemption delays: a preempting strategy
/// sleeps `1 << (r % SPREAD)` virtual ticks, i.e. 1–64 µs. Long enough
/// to push a rival's whole protocol step inside the window, short
/// enough not to trip deadline/timeout scenarios spuriously.
pub const PREEMPT_DELAY_LOG2_SPREAD: u64 = 7;
