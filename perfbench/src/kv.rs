//! `kv_sharded`: a 4-shard group of supervised managed key-value objects,
//! one closed-loop caller per shard, 90/10 Get/Put over Zipf(1) keys.
//!
//! A body takes about 0.1 µs and a call several µs, so the protocol cost
//! dominates: intake (the single-producer lane), shard routing, the
//! manager's idle spin and, for `Put`, the retry loop.

use std::sync::{Arc, Mutex};

use alps_core::{
    argv, Backoff, EntryDef, Guard, ObjectBuilder, RestartPolicy, RetryPolicy, Selected,
    ShardedBuilder, ShardedHandle, Ty, Value,
};
use alps_runtime::{ProcHandle, Runtime, Spawn};

use crate::measure::{Rng, Zipf};
use crate::nproc;
use crate::runner::{self, caller, CallerLog, Metric, Opts, Outcome, Phase, Rounds, Workload};
use crate::snap::CoreSnap;
use crate::trace::{self, Span, TRACED};

const SHARDS: usize = 4;
const KEYS: usize = 64;
/// A traced run traces every 64th call: about 100k calls in a 10 s run.
const TRACE_STRIDE: u64 = 64;

type SpanLog = Arc<Mutex<Vec<Span>>>;

/// One shard: `Get(key, req) -> (key, value)` and `Put(key, value, req)`
/// on the shard's own table, both run by the manager through `execute`.
fn shard(i: usize, spans: SpanLog) -> ObjectBuilder {
    let table = Arc::new(Mutex::new(vec![0i64; KEYS]));
    let (t_get, t_put) = (Arc::clone(&table), table);
    let (s_get, s_put) = (Arc::clone(&spans), spans);
    ObjectBuilder::new(format!("KV#{i}"))
        .entry(
            EntryDef::new("Get")
                .params([Ty::Int, Ty::Int])
                .results([Ty::Int, Ty::Int])
                .intercepted()
                .body(move |_ctx, args| {
                    let (key, req) = (args[0].as_int()?, args[1].as_int()? as u64);
                    let t0 = trace::now_ns();
                    let v = t_get.lock().expect("table lock")[key as usize];
                    if req & TRACED != 0 {
                        s_get
                            .lock()
                            .expect("span lock")
                            .push(trace::close("body", req, t0));
                    }
                    Ok(argv![key, v])
                }),
        )
        .entry(
            EntryDef::new("Put")
                .params([Ty::Int, Ty::Int, Ty::Int])
                .intercepted()
                .body(move |_ctx, args| {
                    let (key, v, req) = (
                        args[0].as_int()?,
                        args[1].as_int()?,
                        args[2].as_int()? as u64,
                    );
                    let t0 = trace::now_ns();
                    t_put.lock().expect("table lock")[key as usize] = v;
                    if req & TRACED != 0 {
                        s_put
                            .lock()
                            .expect("span lock")
                            .push(trace::close("body", req, t0));
                    }
                    Ok(argv![])
                }),
        )
        .manager(|mgr| loop {
            match mgr.select(vec![Guard::accept("Get"), Guard::accept("Put")])? {
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
}

/// One round's live group.
pub struct Live {
    rt: Runtime,
    group: ShardedHandle,
    bodies: Vec<SpanLog>,
}

/// The workload across rounds: what the rounds' shards counted.
pub struct Kv {
    seed: u64,
    trace: bool,
    core: CoreSnap,
}

impl Workload for Kv {
    type Live = Live;

    fn setup(&mut self, round: u64, spans: &mut Vec<Span>) -> Live {
        let t = trace::now_ns();
        let rt = Runtime::thread_pool(nproc());
        spans.push(trace::close("setup.runtime", round, t));
        let t = trace::now_ns();
        let bodies: Vec<SpanLog> = (0..SHARDS).map(|_| SpanLog::default()).collect();
        let group = ShardedBuilder::new("KV", SHARDS)
            .spawn(&rt, |i| shard(i, Arc::clone(&bodies[i])))
            .expect("spawn KV shards");
        spans.push(trace::close("setup.spawn", round, t));
        Live { rt, group, bodies }
    }

    fn pids(&self, _: &Live) -> Vec<u32> {
        vec![std::process::id()]
    }

    fn callers(
        &mut self,
        live: &Live,
        phase: &Arc<Phase>,
        round: u64,
    ) -> Vec<ProcHandle<CallerLog>> {
        let group = &live.group;
        let get = group.entry_id("Get").expect("Get entry");
        let policy = RetryPolicy::new(4, 2_000_000).backoff(Backoff::Fixed(100));
        // One caller per shard, drawing Zipf(1) over the keys its shard owns.
        let mut owned = vec![Vec::new(); SHARDS];
        for k in 0..KEYS as i64 {
            owned[group.shard_for_key(k as u64)].push(k);
        }
        owned
            .into_iter()
            .enumerate()
            .map(|(i, keys)| {
                assert!(!keys.is_empty(), "shard {i} owns no key");
                let ranks: Vec<usize> = keys.iter().map(|&k| k as usize).collect();
                let zipf = Zipf::over(keys, &ranks, 1.0);
                let id = round * SHARDS as u64 + i as u64;
                let mut rng = Rng::new(self.seed, id);
                let (group, phase, trace) = (group.clone(), Arc::clone(phase), self.trace);
                // The value this shard's only caller last stored per key;
                // `None` after a failed Put, whose effect is unknown.
                let mut mirror: Vec<Option<i64>> = vec![Some(0); KEYS];
                // On its shard's worker (ShardedBuilder hints shard i onto
                // worker i mod K): the single producer sits next to its
                // manager, the placement shard affinity is designed for,
                // instead of wherever the injector puts it.
                let on = Spawn::new(format!("caller-{i}")).affinity(i % nproc());
                live.rt.spawn_with(on, move || {
                    caller(&phase, trace, id, TRACE_STRIDE, |req| {
                        let key = zipf.sample(&mut rng);
                        if rng.below(10) == 0 {
                            let v = (rng.next_u64() >> 2) as i64;
                            let args = vec![Value::Int(key), Value::Int(v), Value::Int(req as i64)];
                            let ok = group
                                .call_key_retry(key as u64, "Put", args, policy)
                                .is_ok();
                            mirror[key as usize] = ok.then_some(v);
                            return if ok { Outcome::Ok } else { Outcome::Failed };
                        }
                        let Ok(r) = group.call_id_key(get, key as u64, argv![key, req as i64])
                        else {
                            return Outcome::Failed;
                        };
                        let got = (r[0].as_int().ok(), r[1].as_int().ok());
                        match mirror[key as usize] {
                            Some(v) if got != (Some(key), Some(v)) => Outcome::Wrong(format!(
                                "Get({key}) returned {got:?}, expected ({key}, {v})"
                            )),
                            _ => Outcome::Ok,
                        }
                    })
                })
            })
            .collect()
    }

    fn finish(&mut self, live: Live, spans: &mut Vec<Span>, _: &mut Vec<String>) {
        for i in 0..SHARDS {
            self.core.add(&live.group.shard_stats(i));
        }
        for b in &live.bodies {
            spans.append(&mut b.lock().expect("span lock"));
        }
        self.teardown(live);
    }

    fn teardown(&mut self, live: Live) {
        live.group.shutdown();
        live.rt.shutdown();
    }
}

pub fn run(opts: &Opts) -> (Rounds, Vec<Metric>) {
    let mut kv = Kv {
        seed: opts.seed,
        trace: opts.trace,
        core: CoreSnap::default(),
    };
    let r = runner::run_rounds(&mut kv, opts);
    let mut layers = vec![runner::metric(
        "core.call_self_us",
        "us",
        trace::median_self_us(&r.spans, "call", "body"),
    )];
    layers.extend(kv.core.metrics());
    (r, layers)
}
