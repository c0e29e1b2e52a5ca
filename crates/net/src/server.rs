//! The server side of distributed ALPS objects: expose a runtime's
//! [`ObjectHandle`]s over any [`Link`] transport.
//!
//! # At-most-once execution
//!
//! The server's partial-failure contract is a per-session
//! duplicate-suppression cache. Every call arrives with a session-scoped
//! correlation id; the server tracks each id through
//! `InFlight → Done(reply)` and
//!
//! * replays the cached reply when a **resolved** id is redelivered
//!   (the client retried because the reply was lost, not the call), and
//! * silently ignores an **in-flight** id (the client's retry raced the
//!   original, e.g. a duplicated frame).
//!
//! An entry body therefore runs at most once per call id no matter how
//! often the transport redelivers the call — the property the 256-seed
//! transport-fault sweep pins.
//!
//! The cache is pruned by the client's `ack_below` watermark (every id
//! below it is resolved client-side), so a long-lived session does not
//! grow the cache without bound. Only `Done` entries are pruned; an
//! `InFlight` marker must survive until its dispatch resolves, or a
//! duplicate could re-execute the body.
//!
//! # Error propagation
//!
//! A dispatch that fails maps its [`AlpsError`] onto the wire taxonomy
//! ([`err_to_wire`](crate::wire::err_to_wire)) — `Overloaded`,
//! `ObjectRestarting`, `ObjectPoisoned` and the rest arrive at the
//! remote caller as the same variant they would see in-process.
//! *Retryable* failures are **not** cached: `Overloaded` and
//! `ObjectRestarting` mean the body never ran, so the client's retry of
//! the same call id must re-execute, not replay the refusal.
//!
//! # Dispatch processes
//!
//! A call cannot run on its connection's process: a guarded body may
//! wait for a later call on the same connection, which that process
//! would then never read. Creating a process per call (paper §3's first
//! strategy) costs a process creation per call, which dominated the
//! server's time. Calls are instead handed to reused **dispatch
//! processes**: a call goes to an idle dispatcher if one exists and to a
//! newly spawned one otherwise. A dispatcher serves one call at a time,
//! so no call waits behind another's body; once the verdict is cached it
//! marks itself idle, sends the reply, and waits for its next call
//! instead of exiting. The number of dispatchers therefore never exceeds
//! the peak number of calls accepted and not yet answered, and a client
//! making one call at a time is served by a single dispatcher.

use std::collections::HashMap;
use std::io;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use alps_core::{AlpsError, EntryId, ObjectHandle, ValVec};
use alps_runtime::metrics::Counter;
use alps_runtime::{Chan, Runtime, Spawn};
use parking_lot::Mutex;

use crate::link::{Link, MemLink, TcpLink};
use crate::wire::{
    decode_frame, encode_frame, err_to_wire, Frame, WireErr, NO_BUDGET, PROTO_VERSION,
};

/// Where a tracked call id stands.
enum CallState {
    /// Dispatched; the entry body may be running. A duplicate of this id
    /// is dropped — answering it will be the original dispatch's job.
    InFlight,
    /// Resolved; redelivery replays this cached reply.
    Done(Result<ValVec, WireErr>),
}

/// A session's dedup cache.
#[derive(Default)]
struct Calls {
    states: HashMap<u64, CallState>,
    /// The highest `ack_below` watermark pruned so far.
    pruned_below: u64,
}

impl Calls {
    /// Forget the cached replies below `ack_below`: the client vouches
    /// that every id below it is resolved on its side, so they can never
    /// be asked for again. Scans the map only when the watermark moves.
    /// InFlight markers stay — pruning one would let a late duplicate
    /// re-execute the body.
    fn prune(&mut self, ack_below: u64) {
        if ack_below <= self.pruned_below {
            return;
        }
        self.pruned_below = ack_below;
        self.states
            .retain(|&id, st| id >= ack_below || matches!(st, CallState::InFlight));
    }
}

/// One client session: the dedup cache plus the entry table, surviving
/// reconnects (the session key is client-chosen, the connection is not).
struct Session {
    object: ObjectHandle,
    /// Wire entry index → interned [`EntryId`], built once at first
    /// handshake (the wire analogue of resolving ids after spawn).
    entry_ids: Vec<EntryId>,
    entry_names: Vec<String>,
    calls: Mutex<Calls>,
    /// The *current* connection's writer. Replies always go to the
    /// newest link: a reply computed during a dead connection is cached,
    /// and the client's retry replays it over the new one.
    writer: Mutex<Option<Arc<dyn Link>>>,
}

/// Advisory counters for the server ([`NetServer::stats`]).
#[derive(Debug, Default, Clone)]
pub struct ServerStats {
    /// Connections accepted (handshakes completed).
    pub connections: Counter,
    /// Calls dispatched to an entry body.
    pub executed: Counter,
    /// Cached replies replayed for redelivered call ids.
    pub replayed: Counter,
    /// Duplicate deliveries of in-flight call ids dropped.
    pub suppressed: Counter,
    /// Connections killed by undecodable frames.
    pub frame_errors: Counter,
    /// Dispatch processes spawned to run calls. Dispatchers are reused,
    /// so this is at most the peak number of calls in flight at once.
    pub dispatchers: Counter,
}

/// One accepted call, handed to a dispatch process as plain data.
struct Job {
    session: Arc<Session>,
    call: u64,
    entry: u32,
    budget: u64,
    args: ValVec,
}

struct ServerInner {
    rt: Runtime,
    objects: Mutex<HashMap<String, ObjectHandle>>,
    sessions: Mutex<HashMap<(String, u64), Arc<Session>>>,
    stats: ServerStats,
    /// Set under the `idle` lock, so a call is never handed off after
    /// [`NetServer::shutdown`] has released the idle dispatchers.
    shutdown: AtomicBool,
    conn_seq: AtomicU64,
    /// Inboxes of the dispatch processes waiting for a call.
    idle: Mutex<Vec<Chan<Job>>>,
}

/// Serves a set of objects over [`Link`]s. Clone to share.
///
/// ```
/// use alps_core::{EntryDef, ObjectBuilder, Ty, Value};
/// use alps_net::{NetServer, RemoteHandle};
/// use alps_runtime::Runtime;
///
/// let rt = Runtime::threaded();
/// let obj = ObjectBuilder::new("Echo")
///     .entry(
///         EntryDef::new("Id")
///             .params([Ty::Int])
///             .results([Ty::Int])
///             .body(|_ctx, args| Ok(args)),
///     )
///     .spawn(&rt)
///     .unwrap();
/// let server = NetServer::new(&rt);
/// server.register(&obj);
/// let client = RemoteHandle::new(&rt, "Echo", server.mem_connector());
/// let r = client.call("Id", vec![Value::Int(7)]).unwrap();
/// assert_eq!(r, vec![Value::Int(7)]);
/// # server.shutdown();
/// # obj.shutdown();
/// ```
#[derive(Clone)]
pub struct NetServer {
    inner: Arc<ServerInner>,
}

impl NetServer {
    /// New server with no objects registered.
    pub fn new(rt: &Runtime) -> NetServer {
        NetServer {
            inner: Arc::new(ServerInner {
                rt: rt.clone(),
                objects: Mutex::new(HashMap::new()),
                sessions: Mutex::new(HashMap::new()),
                stats: ServerStats::default(),
                shutdown: AtomicBool::new(false),
                conn_seq: AtomicU64::new(0),
                idle: Mutex::new(Vec::new()),
            }),
        }
    }

    /// Expose an object to remote callers under its own name.
    pub fn register(&self, object: &ObjectHandle) {
        self.inner
            .objects
            .lock()
            .insert(object.name().to_string(), object.clone());
    }

    /// Server counters.
    pub fn stats(&self) -> ServerStats {
        self.inner.stats.clone()
    }

    /// Stop accepting connections and calls. Existing connections die on
    /// their next frame without running it; listeners exit on their next
    /// accept; idle dispatch processes exit now, busy ones after their
    /// current call.
    pub fn shutdown(&self) {
        let idle = {
            let mut idle = self.inner.idle.lock();
            self.inner.shutdown.store(true, Ordering::SeqCst);
            std::mem::take(&mut *idle)
        };
        for inbox in idle {
            inbox.close(&self.inner.rt);
        }
    }

    /// Serve one established link on a daemon process. Returns
    /// immediately; the connection loop runs until the link dies.
    pub fn serve_link(&self, link: Arc<dyn Link>) {
        let inner = Arc::clone(&self.inner);
        let n = inner.conn_seq.fetch_add(1, Ordering::Relaxed);
        self.inner.rt.spawn_with(
            Spawn::new(format!("net.conn.{n}")).daemon(true),
            move || inner.serve_conn(link),
        );
    }

    /// Accept loop over loopback/real TCP. Binds `addr` (use port 0 for
    /// ephemeral), returns the bound address, and serves each accepted
    /// stream on its own daemon process.
    ///
    /// # Errors
    ///
    /// Bind failure.
    pub fn listen_tcp(&self, addr: &str) -> io::Result<std::net::SocketAddr> {
        let listener = std::net::TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let this = self.clone();
        self.inner
            .rt
            .spawn_with(Spawn::new("net.accept.tcp").daemon(true), move || {
                for stream in listener.incoming() {
                    if this.inner.shutdown.load(Ordering::Relaxed) {
                        break;
                    }
                    let Ok(stream) = stream else { continue };
                    match TcpLink::new(stream) {
                        Ok(link) => this.serve_link(Arc::new(link)),
                        Err(_) => continue,
                    }
                }
            });
        Ok(local)
    }

    /// Accept loop over a Unix-domain socket at `path`.
    ///
    /// # Errors
    ///
    /// Bind failure (e.g. the path exists).
    #[cfg(unix)]
    pub fn listen_unix(&self, path: &std::path::Path) -> io::Result<()> {
        let listener = std::os::unix::net::UnixListener::bind(path)?;
        let this = self.clone();
        self.inner
            .rt
            .spawn_with(Spawn::new("net.accept.unix").daemon(true), move || {
                for stream in listener.incoming() {
                    if this.inner.shutdown.load(Ordering::Relaxed) {
                        break;
                    }
                    let Ok(stream) = stream else { continue };
                    match crate::link::UnixLink::new(stream) {
                        Ok(link) => this.serve_link(Arc::new(link)),
                        Err(_) => continue,
                    }
                }
            });
        Ok(())
    }

    /// An in-memory connector to this server: each
    /// [`connect`](crate::client::Connector::connect) creates a
    /// [`MemLink`] pair and hands the server end to a daemon accept
    /// loop. Because the whole transport is runtime [`Chan`]s, a client
    /// and server sharing a [`SimRuntime`](alps_runtime::SimRuntime)
    /// exercise the full wire protocol deterministically.
    pub fn mem_connector(&self) -> crate::client::MemConnector {
        let accept: Chan<Arc<MemLink>> = Chan::unbounded("net.accept.mem");
        let this = self.clone();
        let rx = accept.clone();
        self.inner
            .rt
            .spawn_with(Spawn::new("net.accept.mem").daemon(true), move || {
                while let Ok(server_end) = rx.recv(&this.inner.rt) {
                    if this.inner.shutdown.load(Ordering::SeqCst) {
                        // Refuse rather than drop: a dropped end would
                        // leave the dialer's handshake waiting forever.
                        // Closing the queue fails later dials at connect;
                        // the loop drains (and refuses) what is queued.
                        server_end.shutdown();
                        rx.close(&this.inner.rt);
                        continue;
                    }
                    this.serve_link(server_end);
                }
            });
        crate::client::MemConnector::new(&self.inner.rt, accept)
    }
}

impl ServerInner {
    /// Handshake + frame loop for one connection. Any protocol breach —
    /// an undecodable frame, a non-`Hello` opener, a `Call` before
    /// handshake — kills the connection; the client's supervision
    /// reconnects and its dedup-protected retries resume.
    fn serve_conn(self: Arc<Self>, link: Arc<dyn Link>) {
        let session = match self.handshake(&link) {
            Some(s) => s,
            None => {
                link.shutdown();
                return;
            }
        };
        self.stats.connections.incr();
        *session.writer.lock() = Some(Arc::clone(&link));

        while let Ok(Some(bytes)) = link.recv(None) {
            if self.shutdown.load(Ordering::SeqCst) {
                break;
            }
            match decode_frame(&bytes) {
                Ok((
                    Frame::Call {
                        call,
                        ack_below,
                        entry,
                        budget,
                        args,
                    },
                    _,
                )) => self.on_call(&session, call, ack_below, entry, budget, args),
                Ok(_) => break, // protocol breach: only calls after handshake
                Err(_) => {
                    // Corruption reached us (or framing desynced): the
                    // stream can no longer be trusted to carry call ids
                    // faithfully. Kill the connection — never guess.
                    self.stats.frame_errors.incr();
                    break;
                }
            }
        }
        link.shutdown();
        // Forget this link as the session's reply path iff it is still
        // the current one (a reconnect may already have replaced it).
        let mut w = session.writer.lock();
        if w.as_ref().is_some_and(|cur| Arc::ptr_eq(cur, &link)) {
            *w = None;
        }
    }

    /// Run the `Hello`/`HelloAck` exchange. Returns the (possibly
    /// pre-existing) session, or `None` when the connection must die.
    fn handshake(&self, link: &Arc<dyn Link>) -> Option<Arc<Session>> {
        let bytes = link.recv(None).ok()??;
        let (frame, _) = match decode_frame(&bytes) {
            Ok(f) => f,
            Err(_) => {
                self.stats.frame_errors.incr();
                return None;
            }
        };
        let Frame::Hello {
            version,
            session,
            object,
        } = frame
        else {
            return None;
        };
        if version != PROTO_VERSION {
            let _ = self.refuse(
                link,
                WireErr {
                    code: 0,
                    a: format!("protocol version {version} unsupported"),
                    b: String::new(),
                    aux: 0,
                },
            );
            return None;
        }
        let Some(handle) = self.objects.lock().get(&object).cloned() else {
            let _ = self.refuse(
                link,
                WireErr {
                    code: 0,
                    a: format!("no object named `{object}` is registered"),
                    b: String::new(),
                    aux: 0,
                },
            );
            return None;
        };
        let sess = {
            let mut sessions = self.sessions.lock();
            Arc::clone(
                sessions
                    .entry((object, session))
                    .or_insert_with(|| Arc::new(Session::new(handle))),
            )
        };
        let entries = sess
            .entry_names
            .iter()
            .enumerate()
            .map(|(i, n)| (n.clone(), i as u32))
            .collect();
        let ack = encode_frame(&Frame::HelloAck { entries }).ok()?;
        link.send(&ack).ok()?;
        Some(sess)
    }

    fn refuse(&self, link: &Arc<dyn Link>, err: WireErr) -> io::Result<()> {
        let frame = encode_frame(&Frame::HelloErr { err })
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        link.send(&frame)
    }

    /// Handle one `Call` frame: prune, dedup, dispatch.
    fn on_call(
        self: &Arc<Self>,
        session: &Arc<Session>,
        call: u64,
        ack_below: u64,
        entry: u32,
        budget: u64,
        args: ValVec,
    ) {
        {
            let mut calls = session.calls.lock();
            calls.prune(ack_below);
            match calls.states.get(&call) {
                Some(CallState::Done(cached)) => {
                    let cached = cached.clone();
                    drop(calls);
                    self.stats.replayed.incr();
                    self.reply(session, call, cached);
                    return;
                }
                Some(CallState::InFlight) => {
                    // The original dispatch will answer; a second
                    // execution is exactly what dedup exists to prevent.
                    self.stats.suppressed.incr();
                    return;
                }
                None => {
                    calls.states.insert(call, CallState::InFlight);
                }
            }
        }
        let job = Job {
            session: Arc::clone(session),
            call,
            entry,
            budget,
            args,
        };
        let inbox = {
            let mut idle = self.idle.lock();
            if self.shutdown.load(Ordering::SeqCst) {
                // Shut down after this frame was read: the body never
                // runs, so the marker must not suppress a later retry.
                drop(idle);
                session.calls.lock().states.remove(&call);
                return;
            }
            self.stats.executed.incr();
            idle.pop()
        };
        match inbox {
            // A popped inbox is open: only shutdown closes inboxes, and
            // it empties the idle list first.
            Some(inbox) => {
                let _ = inbox.send(&self.rt, job);
            }
            None => self.spawn_dispatcher(job),
        }
    }

    /// Start a dispatch process on `job`. It serves one call at a time
    /// and waits on its inbox between calls; it exits at shutdown.
    fn spawn_dispatcher(self: &Arc<Self>, job: Job) {
        self.stats.dispatchers.incr();
        let this = Arc::clone(self);
        self.rt
            .spawn_with(Spawn::new("net.dispatch").daemon(true), move || {
                let inbox: Chan<Job> = Chan::unbounded("net.dispatch");
                let mut job = job;
                loop {
                    let Job {
                        session,
                        call,
                        entry,
                        budget,
                        args,
                    } = job;
                    let result = this.execute(&session, call, entry, budget, args);
                    // Idle *before* replying: a client never holds a reply
                    // whose dispatcher cannot yet take its next call, so
                    // sequential calls reuse one dispatcher. A call handed
                    // over now waits only for this reply's send.
                    let open = {
                        let mut idle = this.idle.lock();
                        let open = !this.shutdown.load(Ordering::SeqCst);
                        if open {
                            idle.push(inbox.clone());
                        }
                        open
                    };
                    // Cache first, send second: if the reply frame dies
                    // with the link, the client's retry finds the cached
                    // verdict.
                    this.reply(&session, call, result);
                    if !open {
                        return;
                    }
                    // Only shutdown closes an inbox.
                    let Ok(next) = inbox.recv(&this.rt) else {
                        return;
                    };
                    job = next;
                }
            });
    }

    /// Run one call's body and record its verdict in the session cache.
    fn execute(
        &self,
        session: &Session,
        call: u64,
        entry: u32,
        budget: u64,
        args: ValVec,
    ) -> Result<ValVec, WireErr> {
        let result = self.dispatch(session, entry, budget, args);
        let mut calls = session.calls.lock();
        if matches!(&result, Err(e) if wire_is_retryable(e)) {
            // The body never ran (shed / restart sweep) or timed out
            // without an answer: drop the marker so the client's retry of
            // this id re-executes rather than replaying a refusal.
            calls.states.remove(&call);
        } else {
            calls.states.insert(call, CallState::Done(result.clone()));
        }
        result
    }

    /// Run the entry body, mapping every failure onto the wire taxonomy.
    fn dispatch(
        &self,
        session: &Session,
        entry: u32,
        budget: u64,
        args: ValVec,
    ) -> Result<ValVec, WireErr> {
        let Some(&eid) = session.entry_ids.get(entry as usize) else {
            return Err(err_to_wire(&AlpsError::UnknownEntry {
                object: session.object.name().to_string(),
                entry: format!("#{entry}"),
            }));
        };
        let r = if budget == NO_BUDGET {
            session.object.call_id(eid, args)
        } else {
            // The budget crossed the wire as *remaining ticks*; re-anchor
            // it on this process's clock (no shared clock exists).
            session.object.call_id_deadline(eid, args, budget.max(1))
        };
        r.map_err(|e| err_to_wire(&e))
    }

    /// Send a reply over the session's current link, if any. A send
    /// failure is deliberately ignored: the reply is already cached, and
    /// the client's dedup-protected retry will replay it after
    /// reconnecting.
    fn reply(&self, session: &Session, call: u64, result: Result<ValVec, WireErr>) {
        let Ok(frame) = encode_frame(&Frame::Reply { call, result }) else {
            return;
        };
        let writer = session.writer.lock().clone();
        if let Some(link) = writer {
            let _ = link.send(&frame);
        }
    }
}

impl Session {
    fn new(object: ObjectHandle) -> Session {
        let entry_names = object.entry_names();
        let entry_ids = entry_names
            .iter()
            .map(|n| {
                object
                    .entry_id(n)
                    .expect("entry_names() only yields resolvable entries")
            })
            .collect();
        Session {
            object,
            entry_ids,
            entry_names,
            calls: Mutex::new(Calls::default()),
            writer: Mutex::new(None),
        }
    }
}

/// Whether a wire error maps back to a retryable [`AlpsError`] — the
/// server-side mirror of [`AlpsError::is_retryable`], used to decide
/// cache-vs-forget (kept as one conversion so the taxonomies cannot
/// drift).
fn wire_is_retryable(w: &WireErr) -> bool {
    crate::wire::wire_to_err(w).is_retryable()
}

#[cfg(test)]
mod tests {
    use super::*;
    use alps_core::{EntryDef, ObjectBuilder, Ty, Value};
    use alps_runtime::SimRuntime;

    /// The dedup cache is pruned when a call raises the watermark, and
    /// only then: a `Done` entry below the new watermark goes, an
    /// `InFlight` one stays.
    #[test]
    fn dedup_prune_follows_the_watermark() {
        let mut calls = Calls::default();
        calls.states.insert(1, CallState::Done(Ok(ValVec::new())));
        calls.states.insert(2, CallState::InFlight);
        calls.states.insert(5, CallState::Done(Ok(ValVec::new())));
        calls.prune(4);
        assert!(!calls.states.contains_key(&1), "Done below the watermark");
        assert!(
            matches!(calls.states.get(&2), Some(CallState::InFlight)),
            "InFlight survives"
        );
        assert!(calls.states.contains_key(&5), "above the watermark");

        // A watermark that does not move prunes nothing.
        calls.states.insert(3, CallState::Done(Ok(ValVec::new())));
        calls.prune(4);
        calls.prune(2);
        assert!(calls.states.contains_key(&3));
        calls.prune(6);
        assert!(!calls.states.contains_key(&3));
        assert!(!calls.states.contains_key(&5));
        assert!(calls.states.contains_key(&2));
    }

    /// Shutdown ends the idle dispatchers, which drop their reference to
    /// the server.
    #[test]
    fn shutdown_releases_idle_dispatchers() {
        SimRuntime::new()
            .run(|rt| {
                let obj = ObjectBuilder::new("Echo")
                    .entry(
                        EntryDef::new("Id")
                            .params([Ty::Int])
                            .results([Ty::Int])
                            .body(|_ctx, args| Ok(args)),
                    )
                    .spawn(rt)
                    .unwrap();
                let server = NetServer::new(rt);
                server.register(&obj);
                let client = crate::RemoteHandle::new(rt, "Echo", server.mem_connector());
                assert_eq!(
                    client.call("Id", vec![Value::Int(7)]).unwrap(),
                    vec![Value::Int(7)]
                );
                assert_eq!(server.stats().dispatchers.get(), 1);
                let refs = Arc::strong_count(&server.inner);
                server.shutdown();
                rt.sleep(1);
                assert_eq!(Arc::strong_count(&server.inner), refs - 1);
                assert!(server.inner.idle.lock().is_empty());
            })
            .unwrap();
    }
}
