//! End-to-end remote calls: handshake, error propagation, deadlines,
//! duplicate suppression, and reconnect-after-disconnect — mostly on the
//! deterministic simulation runtime (the whole wire protocol runs over
//! in-memory [`MemLink`](alps_net::MemLink) channel pairs), plus one
//! real-TCP loopback round trip on the threaded runtime.

use std::collections::HashMap;
use std::sync::Arc;

use alps_core::{
    vals, AlpsError, Backoff, EntryDef, Guard, ObjectBuilder, ObjectHandle, RestartPolicy,
    RetryPolicy, Selected, Ty, Value,
};
use alps_net::{
    Connector, Link, NetFaultPlan, NetServer, ReconnectPolicy, RemoteHandle, TcpConnector,
};
use alps_runtime::{Runtime, SimRuntime, Spawn};
use parking_lot::Mutex;

/// A counting object: `Bump(k)` increments `k`'s tally and returns it;
/// `Count(k)` reads it. The tallies live *outside* the object so tests
/// can assert exactly-once execution directly.
fn counter(rt: &Runtime, counts: &Arc<Mutex<HashMap<i64, i64>>>) -> ObjectHandle {
    let (c_bump, c_read) = (Arc::clone(counts), Arc::clone(counts));
    ObjectBuilder::new("Counter")
        .entry(
            EntryDef::new("Bump")
                .params([Ty::Int])
                .results([Ty::Int])
                .body(move |_ctx, args| {
                    let k = args[0].as_int()?;
                    let mut m = c_bump.lock();
                    let n = m.entry(k).or_insert(0);
                    *n += 1;
                    Ok(vec![Value::Int(*n)])
                }),
        )
        .entry(
            EntryDef::new("Count")
                .params([Ty::Int])
                .results([Ty::Int])
                .body(move |_ctx, args| {
                    let k = args[0].as_int()?;
                    Ok(vec![Value::Int(
                        c_read.lock().get(&k).copied().unwrap_or(0),
                    )])
                }),
        )
        .spawn(rt)
        .unwrap()
}

/// Plain round trip under the sim: interned ids, deadline form, and the
/// remote error for an entry the server does not export.
#[test]
fn sim_round_trip_and_unknown_entry() {
    SimRuntime::new()
        .run(|rt| {
            let counts = Arc::new(Mutex::new(HashMap::new()));
            let obj = counter(rt, &counts);
            let server = NetServer::new(rt);
            server.register(&obj);
            let client = RemoteHandle::new(rt, "Counter", server.mem_connector());

            let bump = client.entry_id("Bump");
            for i in 1..=5i64 {
                let r = client.call_id(&bump, vals![7i64]).unwrap();
                assert_eq!(r[0], Value::Int(i));
            }
            let r = client.call_deadline("Count", vals![7i64], 50_000).unwrap();
            assert_eq!(r[0], Value::Int(5));

            let err = client.call("Nope", vals![1i64]).unwrap_err();
            assert!(
                matches!(&err, AlpsError::UnknownEntry { object, entry }
                    if object == "Counter" && entry == "Nope"),
                "{err:?}"
            );
            assert_eq!(client.stats().replies.get(), 6);
        })
        .unwrap();
}

/// Dialing an object the server never registered fails the handshake
/// with a terminal error — no retry storm, no hang.
#[test]
fn unknown_object_is_refused_at_handshake() {
    SimRuntime::new()
        .run(|rt| {
            let server = NetServer::new(rt);
            let client = RemoteHandle::new(rt, "Ghost", server.mem_connector());
            let err = client.call("P", vals![1i64]).unwrap_err();
            assert!(
                matches!(&err, AlpsError::Custom(m) if m.contains("Ghost")),
                "{err:?}"
            );
        })
        .unwrap();
}

/// The server propagates its error taxonomy over the wire: the remote
/// caller sees the *same* variant an in-process caller would.
#[test]
fn errors_cross_the_wire_as_themselves() {
    SimRuntime::new()
        .run(|rt| {
            let obj = ObjectBuilder::new("Faulty")
                .entry(EntryDef::new("Fail").params([]).results([]).body(
                    |_ctx, _args| -> alps_core::Result<Vec<Value>> {
                        Err(AlpsError::Custom("application said no".into()))
                    },
                ))
                .entry(
                    EntryDef::new("Boom")
                        .params([])
                        .results([])
                        .body(|_ctx, _args| -> alps_core::Result<Vec<Value>> { panic!("kaboom") }),
                )
                .poison_on_panic(true)
                .spawn(rt)
                .unwrap();
            let server = NetServer::new(rt);
            server.register(&obj);
            let client = RemoteHandle::new(rt, "Faulty", server.mem_connector());

            let local = obj.call("Fail", vals![]).unwrap_err();
            let remote = client.call("Fail", vals![]).unwrap_err();
            assert_eq!(remote, local, "delivered errors must match in-process form");

            // Poison the object, then observe ObjectPoisoned remotely.
            let _ = client.call("Boom", vals![]);
            let err = client.call("Fail", vals![]).unwrap_err();
            assert!(matches!(err, AlpsError::ObjectPoisoned { .. }), "{err:?}");
        })
        .unwrap();
}

/// Every `Call` frame duplicated in flight (`dup = 1.0`): the server's
/// session dedup must make execution exactly-once anyway.
#[test]
fn duplicated_frames_execute_at_most_once() {
    SimRuntime::new()
        .run(|rt| {
            let counts = Arc::new(Mutex::new(HashMap::new()));
            let obj = counter(rt, &counts);
            let server = NetServer::new(rt);
            server.register(&obj);
            let mut plan = NetFaultPlan::seeded(99);
            plan.dup_rate = 1.0;
            let client = RemoteHandle::new(rt, "Counter", server.mem_connector()).with_fault(plan);

            for k in 0..10i64 {
                let r = client.call("Bump", vals![k]).unwrap();
                assert_eq!(r[0], Value::Int(1), "key {k} executed more than once");
            }
            let m = counts.lock();
            for k in 0..10i64 {
                assert_eq!(m.get(&k), Some(&1), "key {k} tally");
            }
            drop(m);
            let s = server.stats();
            assert_eq!(s.executed.get(), 10);
            assert!(
                s.suppressed.get() + s.replayed.get() >= 1,
                "duplicates must have reached the dedup layer (suppressed={} replayed={})",
                s.suppressed.get(),
                s.replayed.get()
            );
        })
        .unwrap();
}

/// Forced disconnects every few sends: callers see clean transient
/// errors (`LinkLost`), `call_retry` rides through them over fresh
/// connections, and dedup keeps every key's tally at exactly one.
#[test]
fn retry_rides_through_forced_disconnects() {
    SimRuntime::new()
        .run(|rt| {
            let counts = Arc::new(Mutex::new(HashMap::new()));
            let obj = counter(rt, &counts);
            let server = NetServer::new(rt);
            server.register(&obj);
            let mut plan = NetFaultPlan::seeded(5);
            plan.disconnect_every = 4;
            let client = RemoteHandle::new(rt, "Counter", server.mem_connector())
                .with_fault(plan)
                .with_reconnect(ReconnectPolicy {
                    max_attempts: 6,
                    base_ticks: 20,
                    cap_ticks: 500,
                });
            let policy = RetryPolicy::new(10, 400_000).backoff(Backoff::ExpJitter {
                base: 20,
                cap: 1_000,
            });

            for k in 0..12i64 {
                let r = client.call_retry("Bump", vals![k], policy).unwrap();
                assert_eq!(r[0], Value::Int(1), "key {k}");
            }
            let m = counts.lock();
            for k in 0..12i64 {
                assert_eq!(m.get(&k), Some(&1), "key {k} tally");
            }
            drop(m);
            assert!(
                client.stats().reconnects.get() >= 2,
                "the disconnect schedule must have forced reconnects (got {})",
                client.stats().reconnects.get()
            );
        })
        .unwrap();
}

/// A supervised object restarting under a remote caller: the restart
/// error crosses the wire as `ObjectRestarting`, is not cached (the body
/// never ran), and the retry re-executes to success.
#[test]
fn remote_retry_through_a_supervised_restart() {
    SimRuntime::new()
        .run(|rt| {
            let fired = Arc::new(Mutex::new(false));
            let f = Arc::clone(&fired);
            let obj = ObjectBuilder::new("Flaky")
                .entry(
                    EntryDef::new("Once")
                        .params([])
                        .results([Ty::Int])
                        // Intercepted + managed so the panic kills the
                        // manager and the restart sweep answers with the
                        // transient ObjectRestarting (an implicit inline
                        // body's panic is delivered as BodyFailed — the
                        // body ran, so that one is rightly not retried).
                        .intercepted()
                        .body(move |_ctx, _args| {
                            let mut fired = f.lock();
                            if !*fired {
                                *fired = true;
                                drop(fired);
                                panic!("first-call crash");
                            }
                            Ok(vec![Value::Int(1)])
                        }),
                )
                .manager(|mgr| loop {
                    let acc = mgr.accept("Once")?;
                    mgr.execute(acc)?;
                })
                .supervise(RestartPolicy::RestartTransient {
                    max_restarts: 8,
                    window_ticks: 1_000_000,
                })
                .spawn(rt)
                .unwrap();
            let server = NetServer::new(rt);
            server.register(&obj);
            let client = RemoteHandle::new(rt, "Flaky", server.mem_connector());

            let policy = RetryPolicy::new(8, 400_000).backoff(Backoff::ExpJitter {
                base: 50,
                cap: 2_000,
            });
            let r = client.call_retry("Once", vals![], policy).unwrap();
            assert_eq!(r[0], Value::Int(1));
            assert_eq!(obj.stats().restarts(), 1);
        })
        .unwrap();
}

/// Clones of one handle share the session (and its dedup watermark);
/// concurrent callers from several sim processes all resolve.
#[test]
fn concurrent_callers_share_one_session() {
    SimRuntime::new()
        .run(|rt| {
            let counts = Arc::new(Mutex::new(HashMap::new()));
            let obj = counter(rt, &counts);
            let server = NetServer::new(rt);
            server.register(&obj);
            let client = RemoteHandle::new(rt, "Counter", server.mem_connector());

            let mut joins = Vec::new();
            for c in 0..4i64 {
                let h = client.clone();
                joins.push(rt.spawn_with(Spawn::new(format!("caller{c}")), move || {
                    for i in 0..5i64 {
                        let k = c * 5 + i;
                        let r = h.call("Bump", vals![k]).unwrap();
                        assert_eq!(r[0], Value::Int(1));
                    }
                }));
            }
            for j in joins {
                j.join().unwrap();
            }
            assert_eq!(counts.lock().len(), 20);
            assert_eq!(server.stats().executed.get(), 20);
        })
        .unwrap();
}

/// Real TCP over loopback on the threaded runtime: the 2-process wire
/// path minus the second process (covered by the bench's self-spawned
/// child and CI's remote-smoke job).
#[test]
fn tcp_loopback_round_trip() {
    let rt = Runtime::threaded();
    let counts = Arc::new(Mutex::new(HashMap::new()));
    let obj = counter(&rt, &counts);
    let server = NetServer::new(&rt);
    server.register(&obj);
    let addr = server.listen_tcp("127.0.0.1:0").unwrap();

    let client = RemoteHandle::new(&rt, "Counter", TcpConnector::new(addr.to_string()));
    let bump = client.entry_id("Bump");
    for i in 1..=8i64 {
        let r = client.call_id(&bump, vals![1i64]).unwrap();
        assert_eq!(r[0], Value::Int(i));
    }
    let r = client
        .call_deadline("Count", vals![1i64], 5_000_000)
        .unwrap();
    assert_eq!(r[0], Value::Int(8));

    server.shutdown();
    obj.shutdown();
}

/// A one-slot buffer whose manager accepts `Put(x)` only while the slot
/// is empty and `Get()` only while it is full.
fn one_slot(rt: &Runtime) -> ObjectHandle {
    let slot = Arc::new(Mutex::new(None));
    let (s_put, s_get) = (Arc::clone(&slot), slot);
    ObjectBuilder::new("Slot")
        .entry(
            EntryDef::new("Put")
                .params([Ty::Int])
                .intercepted()
                .body(move |_ctx, args| {
                    *s_put.lock() = Some(args[0].as_int()?);
                    Ok(vec![])
                }),
        )
        .entry(
            EntryDef::new("Get")
                .results([Ty::Int])
                .intercepted()
                .body(move |_ctx, _args| {
                    let v = s_get.lock().take().expect("Get accepted on a full slot");
                    Ok(vec![Value::Int(v)])
                }),
        )
        .manager(|mgr| {
            let mut full = false;
            loop {
                let sel = mgr.select(vec![
                    Guard::accept("Put").when(move |_| !full),
                    Guard::accept("Get").when(move |_| full),
                ])?;
                match sel {
                    Selected::Accepted { guard, call } => {
                        mgr.execute(call)?;
                        full = guard == 0;
                    }
                    _ => unreachable!("only accept guards"),
                }
            }
        })
        .spawn(rt)
        .unwrap()
}

/// A call blocked on a guard must not stall a later call on the same
/// session and connection: the `Get` waits for the `Put` that arrives
/// behind it, so running either on the connection's own process (or
/// behind the other's body) would deadlock. The getter, the first caller
/// to wait, holds the reader role, so it must also deliver the `Put`'s
/// reply to the other caller while its own call is still blocked.
fn guarded_call_does_not_stall_a_later_call(
    rt: &Runtime,
    server: &NetServer,
    client: &RemoteHandle,
) {
    let getter = client.clone();
    let get = rt.spawn_with(Spawn::new("getter"), move || getter.call("Get", vals![]));
    while server.stats().executed.get() == 0 {
        rt.sleep(1);
    }
    client.call("Put", vals![42i64]).unwrap();
    let r = get.join().unwrap().unwrap();
    assert_eq!(r[0], Value::Int(42));
    assert_eq!(client.stats().reconnects.get(), 1, "one connection");
    assert_eq!(
        server.stats().dispatchers.get(),
        2,
        "one per concurrent call"
    );
}

#[test]
fn guarded_call_does_not_stall_a_later_call_on_its_connection() {
    SimRuntime::new()
        .run(|rt| {
            let obj = one_slot(rt);
            let server = NetServer::new(rt);
            server.register(&obj);
            let client = RemoteHandle::new(rt, "Slot", server.mem_connector());
            guarded_call_does_not_stall_a_later_call(rt, &server, &client);
        })
        .unwrap();
}

#[test]
fn guarded_call_does_not_stall_a_later_call_on_its_tcp_connection() {
    let rt = Runtime::threaded();
    let obj = one_slot(&rt);
    let server = NetServer::new(&rt);
    server.register(&obj);
    let addr = server.listen_tcp("127.0.0.1:0").unwrap();
    let client = RemoteHandle::new(&rt, "Slot", TcpConnector::new(addr.to_string()));
    guarded_call_does_not_stall_a_later_call(&rt, &server, &client);
    server.shutdown();
    obj.shutdown();
}

/// An object whose `Wait` is never accepted, whose `Echo` is, and whose
/// implicit `Slow` sleeps 5000 ticks before it answers.
fn half_open(rt: &Runtime) -> ObjectHandle {
    let clock = rt.clone();
    ObjectBuilder::new("HalfOpen")
        .entry(
            EntryDef::new("Wait")
                .intercepted()
                .body(|_ctx, _| Ok(vec![])),
        )
        .entry(
            EntryDef::new("Slow")
                .params([Ty::Int])
                .results([Ty::Int])
                .body(move |_ctx, args| {
                    clock.sleep(5_000);
                    Ok(args)
                }),
        )
        .entry(
            EntryDef::new("Echo")
                .params([Ty::Int])
                .results([Ty::Int])
                .intercepted()
                .body(|_ctx, args| Ok(args)),
        )
        .manager(|mgr| loop {
            let acc = mgr.accept("Echo")?;
            mgr.execute(acc)?;
        })
        .spawn(rt)
        .unwrap()
}

/// The caller holding the reader role delivers another caller's reply,
/// and wakes it, while its own call stays blocked.
#[test]
fn reader_delivers_other_replies_while_its_own_call_waits() {
    SimRuntime::new()
        .run(|rt| {
            let obj = half_open(rt);
            let server = NetServer::new(rt);
            server.register(&obj);
            let client = RemoteHandle::new(rt, "HalfOpen", server.mem_connector());

            let budget = 1_000_000;
            let t0 = rt.now();
            let waiter = client.clone();
            let wait = rt.spawn_with(Spawn::new("waiter"), move || {
                waiter.call_deadline("Wait", vals![], budget)
            });
            while server.stats().executed.get() == 0 {
                rt.sleep(1);
            }
            let r = client.call("Echo", vals![5i64]).unwrap();
            assert_eq!(r[0], Value::Int(5));
            assert!(
                rt.now() < t0 + budget,
                "the Echo reply waited for the reader's deadline"
            );
            let err = wait.join().unwrap().unwrap_err();
            assert!(matches!(err, AlpsError::Timeout { .. }), "{err:?}");
        })
        .unwrap();
}

/// A reader that leaves at its deadline hands the role on: the caller
/// still waiting takes it and reads its own reply, which arrives after
/// the first reader has gone.
#[test]
fn reader_role_passes_on_when_its_holder_times_out() {
    SimRuntime::new()
        .run(|rt| {
            let obj = half_open(rt);
            let server = NetServer::new(rt);
            server.register(&obj);
            let client = RemoteHandle::new(rt, "HalfOpen", server.mem_connector());

            let reader = client.clone();
            let first = rt.spawn_with(Spawn::new("reader"), move || {
                reader.call_deadline("Slow", vals![1i64], 1_000)
            });
            while server.stats().executed.get() == 0 {
                rt.sleep(1);
            }
            let r = client.call("Slow", vals![2i64]).unwrap();
            assert_eq!(r[0], Value::Int(2));
            let err = first.join().unwrap().unwrap_err();
            assert!(matches!(err, AlpsError::Timeout { .. }), "{err:?}");
        })
        .unwrap();
}

/// Over TCP, a deadline-bounded call that holds the reader role while
/// its guard never opens gives the role up at its deadline and returns
/// `Timeout`. The server's own (timed-out) reply arrives after the
/// caller left; the next call on the handle reads past it and succeeds.
#[test]
fn tcp_reader_role_times_out_and_the_stale_reply_is_dropped() {
    let rt = Runtime::threaded();
    let obj = one_slot(&rt);
    let server = NetServer::new(&rt);
    server.register(&obj);
    let addr = server.listen_tcp("127.0.0.1:0").unwrap();
    let client = RemoteHandle::new(&rt, "Slot", TcpConnector::new(addr.to_string()));
    let get = client.entry_id("Get");

    let budget = 200_000; // ticks = µs
    let t0 = std::time::Instant::now();
    let err = client.call_id_deadline(&get, vals![], budget).unwrap_err();
    let waited = t0.elapsed();
    assert!(matches!(err, AlpsError::Timeout { .. }), "{err:?}");
    assert!(
        waited < std::time::Duration::from_micros(budget) + std::time::Duration::from_secs(2),
        "timed out after {waited:?}"
    );
    // Wait until the server's side of the `Get` has timed out as well,
    // so the `Put` below cannot open its guard; its reply is then
    // already on its way to this client.
    while obj.stats().timeouts() == 0 {
        rt.sleep(1_000);
    }

    client.call("Put", vals![7i64]).unwrap();
    assert_eq!(client.call_id(&get, vals![]).unwrap()[0], Value::Int(7));
    let s = client.stats();
    assert_eq!(s.sent.get(), 3);
    assert_eq!(s.replies.get(), 2, "the stale reply reached no caller");
    assert_eq!(s.reconnects.get(), 1, "one connection");
    server.shutdown();
    obj.shutdown();
}

/// Dials TCP and keeps each link it hands out, so a test can write to
/// the client's connection behind the handle's back.
struct KeepLinks {
    tcp: TcpConnector,
    links: Arc<Mutex<Vec<Arc<dyn Link>>>>,
}

impl Connector for KeepLinks {
    fn connect(&self) -> std::io::Result<Arc<dyn Link>> {
        let link = self.tcp.connect()?;
        self.links.lock().push(Arc::clone(&link));
        Ok(link)
    }

    fn endpoint(&self) -> String {
        self.tcp.endpoint()
    }
}

/// A client whose one connection the server has dropped while no call
/// was in flight on it, after one `Bump(1)`. No process reads an idle
/// connection, so the client has not noticed yet.
fn idle_dropped_client(
    rt: &Runtime,
    counts: &Arc<Mutex<HashMap<i64, i64>>>,
) -> (ObjectHandle, NetServer, RemoteHandle) {
    let obj = counter(rt, counts);
    let server = NetServer::new(rt);
    server.register(&obj);
    let addr = server.listen_tcp("127.0.0.1:0").unwrap();
    let links = Arc::new(Mutex::new(Vec::new()));
    let dialer = KeepLinks {
        tcp: TcpConnector::new(addr.to_string()),
        links: Arc::clone(&links),
    };
    let client = RemoteHandle::new(rt, "Counter", dialer);
    let bump = client.entry_id("Bump");
    assert_eq!(
        client.call_id(&bump, vals![1i64]).unwrap()[0],
        Value::Int(1)
    );

    // A frame whose checksum does not match its body: the server kills
    // the connection on it.
    let link = Arc::clone(&links.lock()[0]);
    link.send(&[1, 0, 0, 0, 0, 0, 0, 0, 0xFF]).unwrap();
    while server.stats().frame_errors.get() == 0 {
        rt.sleep(1_000);
    }
    (obj, server, client)
}

/// The idle connection's death is noticed on the next call, which fails
/// with the retryable `LinkLost`; `call_id_retry` redials and succeeds.
#[test]
fn idle_connection_dropped_by_the_server_fails_over_on_the_next_call() {
    let rt = Runtime::threaded();
    let counts = Arc::new(Mutex::new(HashMap::new()));
    let (obj, server, client) = idle_dropped_client(&rt, &counts);
    let policy = RetryPolicy::new(4, 5_000_000).backoff(Backoff::ExpJitter {
        base: 1_000,
        cap: 10_000,
    });
    let r = client
        .call_id_retry(&client.entry_id("Bump"), vals![1i64], policy)
        .unwrap();
    assert_eq!(r[0], Value::Int(2));
    assert_eq!(client.stats().reconnects.get(), 2, "redialed once");
    assert!(client.stats().retries.get() >= 1);
    assert_eq!(counts.lock().get(&1), Some(&2));
    server.shutdown();
    obj.shutdown();
}

/// A plain `call` does not retry: the first call after an idle drop
/// returns `LinkLost` to its caller, with the body not run. That call
/// marked the connection down, so the next plain call redials.
#[test]
fn idle_connection_dropped_by_the_server_fails_a_plain_call_once() {
    let rt = Runtime::threaded();
    let counts = Arc::new(Mutex::new(HashMap::new()));
    let (obj, server, client) = idle_dropped_client(&rt, &counts);
    let err = client.call("Bump", vals![1i64]).unwrap_err();
    assert!(matches!(err, AlpsError::LinkLost { .. }), "{err:?}");
    assert!(err.is_retryable());
    assert_eq!(counts.lock().get(&1), Some(&1), "the lost call never ran");
    assert_eq!(client.call("Bump", vals![1i64]).unwrap()[0], Value::Int(2));
    assert_eq!(client.stats().reconnects.get(), 2, "redialed once");
    server.shutdown();
    obj.shutdown();
}

/// After `shutdown`, a call on a connection opened before it fails
/// without running its body.
#[test]
fn shutdown_stops_calls_on_existing_connections() {
    SimRuntime::new()
        .run(|rt| {
            let counts = Arc::new(Mutex::new(HashMap::new()));
            let obj = counter(rt, &counts);
            let server = NetServer::new(rt);
            server.register(&obj);
            let client = RemoteHandle::new(rt, "Counter", server.mem_connector());
            assert_eq!(client.call("Bump", vals![1i64]).unwrap()[0], Value::Int(1));

            server.shutdown();
            let err = client.call("Bump", vals![1i64]).unwrap_err();
            assert!(err.is_retryable(), "{err:?}");
            assert_eq!(server.stats().executed.get(), 1);
            assert_eq!(counts.lock().get(&1), Some(&1));
        })
        .unwrap();
}

/// Dialing a shut-down server fails instead of waiting forever for a
/// handshake reply, so the caller's reconnect budget decides the outcome.
#[test]
fn dial_after_shutdown_fails_instead_of_hanging() {
    SimRuntime::new()
        .run(|rt| {
            let counts = Arc::new(Mutex::new(HashMap::new()));
            let obj = counter(rt, &counts);
            let server = NetServer::new(rt);
            server.register(&obj);
            let connector = server.mem_connector();
            server.shutdown();

            let client = RemoteHandle::new(rt, "Counter", connector);
            let err = client
                .call_deadline("Bump", vals![1i64], 50_000)
                .unwrap_err();
            assert!(matches!(err, AlpsError::LinkLost { .. }), "{err:?}");
            let err = client.call("Bump", vals![1i64]).unwrap_err();
            assert!(matches!(err, AlpsError::LinkLost { .. }), "{err:?}");
            assert_eq!(server.stats().executed.get(), 0);
        })
        .unwrap();
}

/// Real TCP on the threaded runtime: a thousand sequential calls over
/// one connection reuse one dispatch process.
#[test]
fn tcp_sequential_calls_reuse_dispatchers() {
    let rt = Runtime::threaded();
    let counts = Arc::new(Mutex::new(HashMap::new()));
    let obj = counter(&rt, &counts);
    let server = NetServer::new(&rt);
    server.register(&obj);
    let addr = server.listen_tcp("127.0.0.1:0").unwrap();

    let client = RemoteHandle::new(&rt, "Counter", TcpConnector::new(addr.to_string()));
    let bump = client.entry_id("Bump");
    for i in 1..=1000i64 {
        let r = client.call_id(&bump, vals![1i64]).unwrap();
        assert_eq!(r[0], Value::Int(i));
    }
    // The dispatcher marks itself idle before it sends a reply, so each
    // next call finds it idle: one dispatcher, where a process per call
    // would have made a thousand.
    let s = server.stats();
    assert_eq!(s.executed.get(), 1000);
    assert_eq!(s.dispatchers.get(), 1);
    assert_eq!(client.stats().reconnects.get(), 1, "one connection");

    server.shutdown();
    obj.shutdown();
}
