//! `remote_counter`: a child process (this binary, in its server role)
//! serves a supervised managed `Counter` over loopback TCP with
//! `NetServer`; the parent drives it through one `RemoteHandle` per
//! caller, 80/20 Count/Bump, with `call_id_retry`.
//!
//! The wire, link, dedup and reply path take most of each call; the
//! object behind them does little. No fault is injected.

use std::io::{BufRead, BufReader, Read, Write};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use alps_core::{
    argv, Backoff, EntryDef, Guard, ObjectBuilder, ObjectHandle, RestartPolicy, RetryPolicy,
    Selected, Ty, ValVec,
};
use alps_net::wire::{decode_frame, encode_frame, Frame, NO_BUDGET};
use alps_net::{NetServer, RemoteHandle, TcpConnector};
use alps_runtime::{ProcHandle, Runtime};

use crate::measure::{Rng, Zipf};
use crate::nproc;
use crate::runner::{self, caller, CallerLog, Metric, Opts, Outcome, Phase, Rounds, Workload};
use crate::snap::CoreSnap;
use crate::trace::{self, Span, TRACED};

const KEYS: usize = 64;
/// A traced run traces every 2nd call: about 100k calls in a 10 s run.
const TRACE_STRIDE: u64 = 2;

/// The served object: `Bump(key, req)` adds one to the key's tally and
/// returns it, `Count(key, req)` reads it.
fn counter(rt: &Runtime, spans: Arc<Mutex<Vec<Span>>>) -> ObjectHandle {
    let tally = Arc::new(Mutex::new(vec![0i64; KEYS]));
    let (t_bump, t_count) = (Arc::clone(&tally), tally);
    let (s_bump, s_count) = (Arc::clone(&spans), spans);
    ObjectBuilder::new("Counter")
        .entry(
            EntryDef::new("Bump")
                .params([Ty::Int, Ty::Int])
                .results([Ty::Int])
                .intercepted()
                .body(move |_ctx, args| {
                    let (key, req) = (args[0].as_int()?, args[1].as_int()? as u64);
                    let t0 = trace::now_ns();
                    let n = {
                        let mut t = t_bump.lock().expect("tally lock");
                        t[key as usize] += 1;
                        t[key as usize]
                    };
                    if req & TRACED != 0 {
                        s_bump
                            .lock()
                            .expect("span lock")
                            .push(trace::close("body", req, t0));
                    }
                    Ok(argv![n])
                }),
        )
        .entry(
            EntryDef::new("Count")
                .params([Ty::Int, Ty::Int])
                .results([Ty::Int])
                .intercepted()
                .body(move |_ctx, args| {
                    let (key, req) = (args[0].as_int()?, args[1].as_int()? as u64);
                    let t0 = trace::now_ns();
                    let n = t_count.lock().expect("tally lock")[key as usize];
                    if req & TRACED != 0 {
                        s_count
                            .lock()
                            .expect("span lock")
                            .push(trace::close("body", req, t0));
                    }
                    Ok(argv![n])
                }),
        )
        .manager(|mgr| loop {
            match mgr.select(vec![Guard::accept("Bump"), Guard::accept("Count")])? {
                Selected::Accepted { call, .. } => {
                    mgr.execute(call)?;
                }
                _ => unreachable!("only accept guards"),
            }
        })
        .supervise(RestartPolicy::RestartTransient {
            max_restarts: 3,
            window_ticks: 1_000_000,
        })
        .spawn(rt)
        .expect("spawn Counter")
}

/// The server role: serve on an ephemeral loopback port, print it, and
/// serve until stdin closes. Then print the report the parent reads:
/// `SERVER <replayed> <suppressed>`, `CORE <CoreSnap line>`
/// and one `SPAN <req> <start_ns> <dur_ns>` per recorded body span.
pub fn serve() {
    let rt = Runtime::threaded();
    let spans = Arc::new(Mutex::new(Vec::new()));
    let obj = counter(&rt, Arc::clone(&spans));
    let server = NetServer::new(&rt);
    server.register(&obj);
    let addr = server.listen_tcp("127.0.0.1:0").expect("bind loopback");
    let mut out = std::io::stdout().lock();
    writeln!(out, "PORT {}", addr.port())
        .and_then(|()| out.flush())
        .expect("report port");
    let _ = std::io::stdin().read_to_end(&mut Vec::new());
    let st = server.stats();
    let mut snap = CoreSnap::default();
    snap.add(&obj.stats());
    let mut report = format!(
        "SERVER {} {}\nCORE {}\n",
        st.replayed.get(),
        st.suppressed.get(),
        snap.to_line()
    );
    for s in spans.lock().expect("span lock").iter() {
        report.push_str(&format!("SPAN {} {} {}\n", s.req, s.start_ns, s.dur_ns));
    }
    out.write_all(report.as_bytes())
        .and_then(|()| out.flush())
        .expect("write report");
    server.shutdown();
    obj.shutdown();
    rt.shutdown();
}

/// What the server child reported at exit.
#[derive(Default)]
struct ServerReport {
    replayed: u64,
    suppressed: u64,
    core: CoreSnap,
    spans: Vec<Span>,
}

/// A running server child. Closing its stdin asks it to report and exit.
struct Server {
    child: Child,
    stdout: BufReader<ChildStdout>,
    addr: String,
}

impl Server {
    fn start() -> Server {
        let exe = std::env::current_exe().expect("own executable");
        let mut child = Command::new(exe)
            .arg("--serve")
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .expect("spawn server child");
        let mut stdout = BufReader::new(child.stdout.take().expect("child stdout"));
        let mut line = String::new();
        stdout.read_line(&mut line).expect("read child port");
        let port: u16 = line
            .strip_prefix("PORT ")
            .and_then(|p| p.trim().parse().ok())
            .unwrap_or_else(|| panic!("server child did not report a port: {line:?}"));
        Server {
            child,
            stdout,
            addr: format!("127.0.0.1:{port}"),
        }
    }

    /// Close stdin, read the report, and wait for the child to exit.
    fn stop(mut self) -> ServerReport {
        drop(self.child.stdin.take());
        let mut text = String::new();
        let read = self.stdout.read_to_string(&mut text);
        let status = self.child.wait().expect("wait for server child");
        read.expect("read server report");
        assert!(status.success(), "server child exited with {status}");
        let mut r = ServerReport::default();
        for line in text.lines() {
            let (tag, rest) = line.split_once(' ').unwrap_or((line, ""));
            let nums: Vec<u64> = rest
                .split_whitespace()
                .filter_map(|w| w.parse().ok())
                .collect();
            match (tag, nums.as_slice()) {
                ("SERVER", &[rp, sp]) => (r.replayed, r.suppressed) = (rp, sp),
                ("CORE", _) => r.core = CoreSnap::from_line(rest).expect("server CORE line"),
                ("SPAN", &[req, start_ns, dur_ns]) => r.spans.push(Span {
                    name: "body",
                    req,
                    start_ns,
                    dur_ns,
                }),
                _ => panic!("unexpected server report line {line:?}"),
            }
        }
        r
    }
}

/// One round's server child and connections.
pub struct Live {
    rt: Runtime,
    server: Server,
    handles: Vec<RemoteHandle>,
    /// Per key: Bumps acknowledged, and Bumps that failed (their effect
    /// is unknown), summed over the round's callers.
    bumps: Arc<Mutex<(Vec<i64>, Vec<i64>)>>,
}

pub struct Remote {
    seed: u64,
    trace: bool,
    core: CoreSnap,
    /// Client retries and reconnects, summed over rounds.
    retries: u64,
    reconnects: u64,
    replayed: u64,
    suppressed: u64,
}

fn policy() -> RetryPolicy {
    RetryPolicy::new(4, 2_000_000).backoff(Backoff::Fixed(100))
}

/// Close the connections, stop the server child and read its report.
fn stop(live: Live) -> ServerReport {
    drop(live.handles);
    let report = live.server.stop();
    live.rt.shutdown();
    report
}

impl Workload for Remote {
    type Live = Live;

    fn setup(&mut self, round: u64, spans: &mut Vec<Span>) -> Live {
        let t = trace::now_ns();
        let rt = Runtime::threaded();
        spans.push(trace::close("setup.runtime", round, t));
        let t = trace::now_ns();
        let server = Server::start();
        spans.push(trace::close("setup.child_start", round, t));
        let t = trace::now_ns();
        let handles: Vec<RemoteHandle> = (0..nproc())
            .map(|_| {
                let h = RemoteHandle::new(&rt, "Counter", TcpConnector::new(server.addr.clone()));
                h.call_id(&h.entry_id("Count"), argv![0i64, 0i64])
                    .expect("connect to server child");
                h
            })
            .collect();
        spans.push(trace::close("setup.connect", round, t));
        Live {
            rt,
            server,
            handles,
            bumps: Arc::new(Mutex::new((vec![0; KEYS], vec![0; KEYS]))),
        }
    }

    fn pids(&self, live: &Live) -> Vec<u32> {
        vec![std::process::id(), live.server.child.id()]
    }

    fn callers(
        &mut self,
        live: &Live,
        phase: &Arc<Phase>,
        round: u64,
    ) -> Vec<ProcHandle<CallerLog>> {
        let ranks: Vec<usize> = (0..KEYS).collect();
        let zipf = Zipf::over((0..KEYS as i64).collect(), &ranks, 1.0);
        live.handles
            .iter()
            .enumerate()
            .map(|(i, h)| {
                let (h, phase, zipf, trace) =
                    (h.clone(), Arc::clone(phase), zipf.clone(), self.trace);
                let bumps = Arc::clone(&live.bumps);
                let id = round * live.handles.len() as u64 + i as u64;
                let mut rng = Rng::new(self.seed, id);
                live.rt.spawn(move || {
                    let (bump, count) = (h.entry_id("Bump"), h.entry_id("Count"));
                    let (mut acked, mut lost) = (vec![0i64; KEYS], vec![0i64; KEYS]);
                    let log = caller(&phase, trace, id, TRACE_STRIDE, |req| {
                        let key = zipf.sample(&mut rng);
                        let is_bump = rng.below(5) == 0;
                        let entry = if is_bump { &bump } else { &count };
                        let k = key as usize;
                        let Ok(r) = h.call_id_retry(entry, argv![key, req as i64], policy()) else {
                            lost[k] += i64::from(is_bump);
                            return Outcome::Failed;
                        };
                        acked[k] += i64::from(is_bump);
                        // This caller's acknowledged Bumps happened before
                        // this call returned, so the tally includes them.
                        let n = r[0].as_int().unwrap_or(-1);
                        if n < acked[k] {
                            return Outcome::Wrong(format!(
                                "{}({key}) returned {n} after {} acknowledged Bumps",
                                entry.name(),
                                acked[k]
                            ));
                        }
                        Outcome::Ok
                    });
                    let mut b = bumps.lock().expect("bump tally lock");
                    for k in 0..KEYS {
                        b.0[k] += acked[k];
                        b.1[k] += lost[k];
                    }
                    log
                })
            })
            .collect()
    }

    /// Audit over a fresh connection: every key holds exactly its
    /// acknowledged Bumps (plus at most the failed ones), and the server
    /// replayed or suppressed nothing.
    fn finish(&mut self, live: Live, spans: &mut Vec<Span>, failures: &mut Vec<String>) {
        let (acked, lost) = live.bumps.lock().expect("bump tally lock").clone();
        let audit = RemoteHandle::new(
            &live.rt,
            "Counter",
            TcpConnector::new(live.server.addr.clone()),
        );
        let count = audit.entry_id("Count");
        for k in 0..KEYS {
            match audit.call_id_retry(&count, argv![k as i64, 0i64], policy()) {
                Ok(r) => {
                    let n = r[0].as_int().unwrap_or(-1);
                    if n < acked[k] || n > acked[k] + lost[k] {
                        failures.push(format!(
                            "audit: key {k} counts {n}, {} Bumps acknowledged",
                            acked[k]
                        ));
                    }
                }
                Err(e) => failures.push(format!("audit: Count({k}) failed: {e}")),
            }
        }
        drop(audit);
        for h in &live.handles {
            let st = h.stats();
            self.retries += st.retries.get();
            self.reconnects += st.reconnects.get();
        }
        let report = stop(live);
        if report.replayed != 0 || report.suppressed != 0 {
            failures.push(format!(
                "server replayed {} and suppressed {} calls with no fault injected",
                report.replayed, report.suppressed
            ));
        }
        self.replayed += report.replayed;
        self.suppressed += report.suppressed;
        self.core.absorb(&report.core);
        spans.extend(report.spans);
    }

    fn teardown(&mut self, live: Live) {
        stop(live);
    }
}

/// Mean µs to encode and decode this workload's Call and Reply frames.
fn codec_us() -> f64 {
    let call = Frame::Call {
        call: 1 << 20,
        ack_below: 1 << 20,
        entry: 1,
        budget: NO_BUDGET,
        args: argv![17i64, 1i64 << 40 | 12_345],
    };
    let reply = Frame::Reply {
        call: 1 << 20,
        result: Ok::<ValVec, _>(argv![4_321i64]),
    };
    let iters = 200_000u32;
    let t = Instant::now();
    for _ in 0..iters {
        for f in [&call, &reply] {
            let bytes = encode_frame(std::hint::black_box(f)).expect("encode frame");
            let (back, _) = decode_frame(std::hint::black_box(&bytes)).expect("decode frame");
            std::hint::black_box(back);
        }
    }
    t.elapsed().as_secs_f64() * 1e6 / f64::from(iters)
}

pub fn run(opts: &Opts) -> (Rounds, Vec<Metric>) {
    let mut w = Remote {
        seed: opts.seed,
        trace: opts.trace,
        core: CoreSnap::default(),
        retries: 0,
        reconnects: 0,
        replayed: 0,
        suppressed: 0,
    };
    let r = runner::run_rounds(&mut w, opts);
    let done = r.completed() as f64;
    let server_cpu: f64 = r.windows.iter().map(|w| w.cpu_us[1] as f64).sum();
    let per_call = |x: f64| (done > 0.0).then(|| x / done);
    let mut layers = w.core.metrics();
    layers.extend([
        runner::metric("net.codec_us", "us", opts.trace.then(codec_us)),
        runner::metric(
            "net.overhead_us",
            "us",
            trace::median_self_us(&r.spans, "call", "body"),
        ),
        runner::metric("net.retries_per_call", "ratio", per_call(w.retries as f64)),
        runner::metric("net.reconnects", "count", Some(w.reconnects as f64)),
        runner::metric("net.server_replayed", "count", Some(w.replayed as f64)),
        runner::metric("net.server_suppressed", "count", Some(w.suppressed as f64)),
        runner::metric("net.server_cpu_us_per_op", "us", per_call(server_cpu)),
    ]);
    (r, layers)
}
