//! The closed-loop load generator shared by every workload: callers that
//! each wait for their previous call, a coordinator that runs the rounds
//! and samples `/proc`, and the reduction of both into the end-to-end
//! metrics.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use alps_runtime::ProcHandle;

use crate::measure::{median, pool, weighted_percentile, Pct, Reservoir};
use crate::procfs;
use crate::trace::{self, Span, TRACED};

/// A run is this many rounds. Each round sets the workload up afresh,
/// warms it up and measures one window. Rates and percentiles are
/// computed per window and reported as the median over windows: windows
/// of one run differ by up to a third in p50, so one disturbed window
/// moves nothing, and a run does not hang on the one set-up it drew.
pub const ROUNDS: usize = 10;

/// Warm-up at the start of each round: call-cell pools, spin estimators
/// and connections settle, and nothing is recorded.
const WARMUP: Duration = Duration::from_millis(300);

/// Set-ups timed on their own, without a measured window, after the
/// rounds: set-up takes well under a millisecond in process and a few
/// milliseconds with a server child, and its time varies by half from
/// one set-up to the next, so `setup_s` is the median of these and the
/// rounds' set-ups.
const SETUP_ONLY: usize = 30;

/// A window in which the hypervisor ran other tenants for more than this
/// share of the machine's CPU time is left out of the end-to-end medians,
/// as long as at least half of the windows remain (otherwise the half with
/// the least steal is used). Steal comes in bursts of about a second that
/// stall the vCPUs: in one window with 3.6% steal `remote_counter`'s p99
/// read 709 µs against 380–510 µs in the windows around it.
const STEAL_LIMIT: f64 = 0.02;

/// How long a set-up waits for the previous round's threads to exit, so
/// they neither run during its warm-up nor add to its memory peak.
const THREADS_GONE: Duration = Duration::from_secs(2);

/// Options of one run, from the command line.
#[derive(Clone, Debug)]
pub struct Opts {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// A round's clock, shared by the coordinator and the callers. It starts
/// in warm-up (0), then moves to `MEASURE` and `STOP`.
#[derive(Debug, Default)]
pub struct Phase(AtomicUsize);

const MEASURE: usize = 1;
const STOP: usize = 2;

/// What one call returned, as judged by the caller.
pub enum Outcome {
    Ok,
    /// The call returned an error (counted against `success_rate`).
    Failed,
    /// The call returned a wrong result (fails the run).
    Wrong(String),
}

/// What one caller recorded in one round's measured window.
pub struct CallerLog {
    /// Latencies of untraced calls, in ns.
    lat: Reservoir,
    /// Latencies of traced calls (only in a traced run).
    traced: Reservoir,
    attempted: u64,
    failed: u64,
    /// Wrong results, warm-up included.
    wrong: u64,
    first_wrong: Option<String>,
    spans: Vec<Span>,
}

/// Run one closed-loop caller until the phase says stop. `op` makes one
/// call with the given request id and judges its result. Caller `id`'s
/// request ids are `id << 40 | seq`. In a traced run every `stride`-th
/// measured call also carries [`TRACED`] and gets a `call` span; its
/// latency is kept apart, for `bench.trace_overhead`.
pub fn caller(
    phase: &Phase,
    trace: bool,
    id: u64,
    stride: u64,
    mut op: impl FnMut(u64) -> Outcome,
) -> CallerLog {
    let mut log = CallerLog {
        lat: Reservoir::new(id << 1),
        traced: Reservoir::new(id << 1 | 1),
        attempted: 0,
        failed: 0,
        wrong: 0,
        first_wrong: None,
        spans: Vec::new(),
    };
    let mut seq = 0u64;
    loop {
        let measured = match phase.0.load(Ordering::Acquire) {
            STOP => return log,
            w => w == MEASURE,
        };
        seq += 1;
        let traced = trace && measured && seq.is_multiple_of(stride);
        let req = id << 40 | seq | if traced { TRACED } else { 0 };
        let t0 = Instant::now();
        let start_ns = if traced { trace::now_ns() } else { 0 };
        let outcome = op(req);
        let dt = t0.elapsed().as_nanos() as u64;
        if let Outcome::Wrong(why) = outcome {
            log.wrong += 1;
            log.first_wrong.get_or_insert(why);
        } else if measured {
            log.attempted += 1;
            log.failed += u64::from(matches!(outcome, Outcome::Failed));
        }
        if traced {
            log.spans.push(trace::close("call", req, start_ns));
            log.traced.push(dt);
        } else if measured {
            log.lat.push(dt);
        }
    }
}

/// A workload as the round loop sees it.
pub trait Workload {
    /// What one round sets up and tears down.
    type Live;
    /// Set up a round (timed as `setup_s`), recording `setup.*` spans.
    fn setup(&mut self, round: u64, spans: &mut Vec<Span>) -> Self::Live;
    /// Processes that make up the system: the benchmark's own first.
    fn pids(&self, live: &Self::Live) -> Vec<u32>;
    /// Start the round's callers; each runs [`caller`] until stopped.
    fn callers(
        &mut self,
        live: &Self::Live,
        phase: &Arc<Phase>,
        round: u64,
    ) -> Vec<ProcHandle<CallerLog>>;
    /// After the callers returned: check results, collect stats and
    /// spans, tear down.
    fn finish(&mut self, live: Self::Live, spans: &mut Vec<Span>, failures: &mut Vec<String>);
    /// Tear down a set-up that ran no calls.
    fn teardown(&mut self, live: Self::Live);
}

/// One round's measured window over all callers.
pub struct Window {
    pub secs: f64,
    pub completed: u64,
    /// CPU µs spent in the window, per process of [`Workload::pids`].
    pub cpu_us: Vec<u64>,
    /// Share of the machine's CPU time the hypervisor stole.
    steal: f64,
    p50: Option<Pct>,
    p99: Option<Pct>,
    /// Traced over untraced p50 (traced runs only).
    trace_ratio: Option<f64>,
}

/// Everything a run of [`ROUNDS`] rounds measured.
pub struct Rounds {
    pub windows: Vec<Window>,
    pub attempted: u64,
    pub failed: u64,
    pub setup_s: f64,
    /// OS threads of all processes after the first set-up.
    pub threads: u64,
    pub ctx_switches: u64,
    /// Machine CPU ticks stolen by the hypervisor, and all ticks, over
    /// the measured windows.
    pub steal: (u64, u64),
    /// VmHWM of all processes at the end of the first round.
    pub peak_rss_kb: u64,
    pub spans: Vec<Span>,
    /// Wrong outputs: caller checks and the workload's audits.
    pub failures: Vec<String>,
}

/// Run the rounds: set up, warm up, measure one window of
/// `seconds / ROUNDS` while sampling `/proc`, stop the callers, finish.
pub fn run_rounds<W: Workload>(w: &mut W, opts: &Opts) -> Rounds {
    let window = Duration::from_secs_f64(opts.seconds / ROUNDS as f64);
    let me = std::process::id();
    let base_threads = procfs::status_field(me, "Threads");
    let mut r = Rounds {
        windows: Vec::new(),
        attempted: 0,
        failed: 0,
        setup_s: 0.0,
        threads: 0,
        ctx_switches: 0,
        steal: (0, 0),
        peak_rss_kb: 0,
        spans: Vec::new(),
        failures: Vec::new(),
    };
    let (mut setup_s, mut wrong, mut first_wrong) = (Vec::new(), 0u64, None);
    // Wait for the previous set-up's threads to exit, so they neither run
    // during the next warm-up nor add to its memory peak; then set up.
    let mut timed_setup = |w: &mut W, rep: u64, spans: &mut Vec<Span>| {
        let gone = Instant::now();
        while procfs::status_field(me, "Threads") > base_threads && gone.elapsed() < THREADS_GONE {
            std::thread::sleep(Duration::from_millis(1));
        }
        let t = Instant::now();
        let live = w.setup(rep, spans);
        setup_s.push(t.elapsed().as_secs_f64());
        live
    };
    for round in 0..ROUNDS as u64 {
        let live = timed_setup(w, round, &mut r.spans);
        let pids = w.pids(&live);
        if round == 0 {
            r.threads = pids
                .iter()
                .map(|&p| procfs::status_field(p, "Threads"))
                .sum();
        }

        let phase = Arc::new(Phase::default());
        let callers = w.callers(&live, &phase, round);
        std::thread::sleep(WARMUP);
        let cpu = || pids.iter().map(|&p| procfs::cpu_us(p)).collect::<Vec<_>>();
        let ctx = || pids.iter().map(|&p| procfs::ctx_switches(p)).sum::<u64>();
        let (ctx0, cpu0, steal0, t0) = (ctx(), cpu(), procfs::steal_and_total(), Instant::now());
        phase.0.store(MEASURE, Ordering::Release);
        std::thread::sleep(window);
        let (secs, cpu1, steal1) = (t0.elapsed().as_secs_f64(), cpu(), procfs::steal_and_total());
        phase.0.store(STOP, Ordering::Release);
        r.ctx_switches += ctx().saturating_sub(ctx0);
        let stolen = (
            steal1.0.saturating_sub(steal0.0),
            steal1.1.saturating_sub(steal0.1),
        );
        r.steal.0 += stolen.0;
        r.steal.1 += stolen.1;
        let logs: Vec<CallerLog> = callers
            .into_iter()
            .map(|c| c.join().expect("caller process"))
            .collect();
        if round == 0 {
            // Later rounds build their runtime again, which a user does
            // not, and each such cycle leaves the process about 1 MB
            // larger; the first round is the footprint of one set-up.
            r.peak_rss_kb = pids.iter().map(|&p| procfs::status_field(p, "VmHWM")).sum();
        }
        w.finish(live, &mut r.spans, &mut r.failures);

        let attempted: u64 = logs.iter().map(|l| l.attempted).sum();
        let failed: u64 = logs.iter().map(|l| l.failed).sum();
        let mut plain = pool(&logs.iter().map(|l| &l.lat).collect::<Vec<_>>());
        let mut traced = pool(&logs.iter().map(|l| &l.traced).collect::<Vec<_>>());
        let p50 = weighted_percentile(&mut plain, 0.50);
        r.windows.push(Window {
            secs,
            completed: attempted - failed,
            cpu_us: cpu1
                .iter()
                .zip(&cpu0)
                .map(|(a, b)| a.saturating_sub(*b))
                .collect(),
            steal: stolen.0 as f64 / stolen.1.max(1) as f64,
            p50,
            p99: weighted_percentile(&mut plain, 0.99),
            trace_ratio: weighted_percentile(&mut traced, 0.50)
                .zip(p50)
                .map(|(t, p)| t.value / p.value),
        });
        r.attempted += attempted;
        r.failed += failed;
        for l in logs {
            wrong += l.wrong;
            first_wrong = first_wrong.or(l.first_wrong);
            r.spans.extend(l.spans);
        }
    }
    // After the rounds, so they do not add to the first round's memory.
    for rep in 0..SETUP_ONLY as u64 {
        let live = timed_setup(w, ROUNDS as u64 + rep, &mut r.spans);
        w.teardown(live);
    }
    if let Some(first) = first_wrong {
        r.failures
            .push(format!("{wrong} wrong results; first: {first}"));
    }
    r.setup_s = median(&setup_s).unwrap_or(0.0);
    r
}

/// A metric as printed: `None` marks a layer this workload does not use.
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: Option<f64>,
    /// How the value was obtained (printed next to it, not in the JSON).
    pub note: String,
}

pub fn metric(name: &'static str, unit: &'static str, value: Option<f64>) -> Metric {
    Metric {
        name,
        unit,
        value,
        note: String::new(),
    }
}

impl Rounds {
    /// Calls that returned a result in the measured windows.
    pub fn completed(&self) -> u64 {
        self.windows.iter().map(|w| w.completed).sum()
    }

    /// The windows the end-to-end medians use: those under
    /// [`STEAL_LIMIT`], or the half with the least steal if fewer remain.
    fn quiet_windows(&self) -> Vec<&Window> {
        let mut ws: Vec<&Window> = self.windows.iter().collect();
        ws.sort_by(|a, b| a.steal.total_cmp(&b.steal));
        let quiet = ws.iter().filter(|w| w.steal <= STEAL_LIMIT).count();
        ws.truncate(quiet.max(ws.len().div_ceil(2)));
        ws
    }

    /// The seven end-to-end metrics, each a median over the quiet windows
    /// except the run-wide `success_rate`, `peak_rss_mb` and `setup_s`.
    pub fn end_to_end(&self) -> Vec<Metric> {
        let ws = self.quiet_windows();
        let thr: Vec<f64> = ws.iter().map(|w| w.completed as f64 / w.secs).collect();
        let p50: Vec<f64> = ws.iter().filter_map(|w| Some(w.p50?.value / 1e3)).collect();
        // p99 only from windows with at least ten samples beyond it.
        let p99: Vec<f64> = ws
            .iter()
            .filter_map(|w| w.p99.filter(|p| p.beyond >= 10).map(|p| p.value / 1e3))
            .collect();
        let cpu: Vec<f64> = ws
            .iter()
            .filter(|w| w.completed > 0)
            .map(|w| w.cpu_us.iter().sum::<u64>() as f64 / w.completed as f64)
            .collect();
        let samples: usize = ws.iter().filter_map(|w| Some(w.p50?.samples)).sum();
        let min_beyond = ws
            .iter()
            .filter_map(|w| Some(w.p99?.beyond))
            .min()
            .unwrap_or(0);
        let success = (self.attempted > 0).then(|| self.completed() as f64 / self.attempted as f64);
        let mut m = vec![
            metric("throughput_ops", "1/s", median(&thr)),
            metric("latency_p50_us", "us", median(&p50)),
            metric("latency_p99_us", "us", median(&p99)),
            metric("success_rate", "ratio", success),
            metric("cpu_us_per_op", "us", median(&cpu)),
            metric("peak_rss_mb", "MB", Some(self.peak_rss_kb as f64 / 1024.0)),
            metric("setup_s", "s", Some(self.setup_s)),
        ];
        let per_window = format!(
            "median of {} of {} windows (left out: steal > {}%)",
            ws.len(),
            self.windows.len(),
            STEAL_LIMIT * 100.0
        );
        m[0].note = format!("{per_window}; {} calls completed", self.completed());
        m[1].note = format!("{per_window}; {samples} raw samples");
        m[2].note = format!(
            "{per_window}, those with >= 10 samples beyond p99: {} (fewest beyond: {min_beyond}); {samples} raw samples",
            p99.len()
        );
        m[3].note = format!(
            "error_rate = {} ({} of {} calls failed)",
            success.map_or(1.0, |s| 1.0 - s),
            self.failed,
            self.attempted
        );
        m[4].note = format!("{per_window}; all processes");
        m[5].note = "VmHWM summed over processes, first round".into();
        m[6].note = format!("median of {} set-ups", ROUNDS + SETUP_ONLY);
        m
    }

    /// `bench.trace_overhead`: p50 of traced over untraced calls in the
    /// same window, median over windows.
    pub fn trace_overhead(&self) -> Metric {
        let v: Vec<f64> = self.windows.iter().filter_map(|w| w.trace_ratio).collect();
        let mut m = metric("bench.trace_overhead", "ratio", median(&v));
        m.note = format!("median of {} windows", v.len());
        m
    }

    /// `runtime.*` metrics: threads after set-up and context switches per
    /// completed call, over all processes.
    pub fn runtime_metrics(&self) -> Vec<Metric> {
        let completed = self.completed();
        vec![
            metric("runtime.os_threads", "count", Some(self.threads as f64)),
            metric(
                "runtime.ctxsw_per_op",
                "ratio",
                (completed > 0).then(|| self.ctx_switches as f64 / completed as f64),
            ),
        ]
    }
}
