//! Frame transports. A [`Link`] moves whole frames (header + body, as
//! produced by [`encode_frame`](crate::wire::encode_frame)) between two
//! endpoints:
//!
//! * [`StreamLink`] — any byte stream: [`TcpLink`] (loopback or real
//!   TCP, for the 2-process case) and [`UnixLink`] (Unix-domain sockets,
//!   unix only), with the same framing.
//! * [`MemLink`] — a pair of runtime [`Chan`]s, so the *entire* client ↔
//!   server protocol (handshake, calls, reconnects) runs inside one
//!   deterministic simulation.
//! * [`FaultyLink`] — wraps any of the above and applies a seeded
//!   [`NetFault`] at the send and receive points.
//!
//! A link is dumb on purpose: it neither parses nor retries. Framing
//! errors, checksum failures, and disconnects all surface to the
//! connection layer, which owns the supervision policy.

use std::io;
use std::sync::Arc;
use std::time::{Duration, Instant};

use alps_runtime::{Chan, Notifier, Runtime};
use parking_lot::Mutex;

use crate::fault::{NetFault, RecvPlan, SendPlan};
use crate::wire::{HEADER_LEN, MAX_FRAME};

/// A bidirectional whole-frame transport.
///
/// `recv` blocks until a frame, EOF, transport error, or its timeout;
/// `shutdown` must unblock any blocked `recv` (that is how connection
/// supervision tears a link down from outside).
pub trait Link: Send + Sync {
    /// Send one encoded frame.
    ///
    /// # Errors
    ///
    /// Any transport-level failure; the connection layer treats every
    /// send error as link death.
    fn send(&self, frame: &[u8]) -> io::Result<()>;

    /// Receive one whole frame (header + body). With `Some(ticks)`, give
    /// up after about that many ticks and return `Ok(None)`; no byte is
    /// lost by giving up, so the next `recv` carries on where this one
    /// stopped. `None` waits for as long as it takes.
    ///
    /// # Errors
    ///
    /// [`io::ErrorKind::UnexpectedEof`] on orderly close; anything else
    /// on transport failure. Both mean the link is dead.
    fn recv(&self, timeout_ticks: Option<u64>) -> io::Result<Option<Vec<u8>>>;

    /// Tear the link down, unblocking any blocked [`recv`](Link::recv).
    fn shutdown(&self);

    /// Human-readable peer description for error messages.
    fn peer(&self) -> String;
}

fn eof() -> io::Error {
    io::Error::new(io::ErrorKind::UnexpectedEof, "link closed")
}

// --------------------------------------------------------------- stream

/// A byte stream a [`StreamLink`] can carry frames over.
pub trait Stream: io::Read + io::Write + Send + 'static {
    /// Bound each blocking `read` (`None`: block indefinitely).
    ///
    /// # Errors
    ///
    /// As the socket option call.
    fn set_read_timeout(&self, timeout: Option<Duration>) -> io::Result<()>;

    /// Shut both directions down, unblocking a blocked `read`.
    fn shutdown(&self);
}

impl Stream for std::net::TcpStream {
    fn set_read_timeout(&self, timeout: Option<Duration>) -> io::Result<()> {
        std::net::TcpStream::set_read_timeout(self, timeout)
    }

    fn shutdown(&self) {
        let _ = std::net::TcpStream::shutdown(self, std::net::Shutdown::Both);
    }
}

#[cfg(unix)]
impl Stream for std::os::unix::net::UnixStream {
    fn set_read_timeout(&self, timeout: Option<Duration>) -> io::Result<()> {
        std::os::unix::net::UnixStream::set_read_timeout(self, timeout)
    }

    fn shutdown(&self) {
        let _ = std::os::unix::net::UnixStream::shutdown(self, std::net::Shutdown::Both);
    }
}

/// A [`Link`] over a byte stream. Reader and writer sides are guarded by
/// separate locks so a blocked `recv` never starves `send`.
///
/// The reader keeps its bytes in a reassembly buffer that only grows, so
/// once it has held a frame of a given size one `read` call brings in a
/// whole frame of that size (or several), and a `recv` that times out
/// in the middle of a frame keeps the bytes it has for the next `recv`.
/// The buffer is as long as the largest frame the link has received, so
/// a link holds at most `HEADER_LEN + MAX_FRAME` bytes (just over 1 MiB)
/// until it is dropped.
pub struct StreamLink<S> {
    reader: Mutex<Reassembly<S>>,
    writer: Mutex<S>,
    peer: String,
}

/// A [`StreamLink`] over TCP.
pub type TcpLink = StreamLink<std::net::TcpStream>;

/// A [`StreamLink`] over a Unix-domain socket.
#[cfg(unix)]
pub type UnixLink = StreamLink<std::os::unix::net::UnixStream>;

struct Reassembly<S> {
    stream: S,
    /// `buf[..filled]` holds bytes read but not yet returned as frames.
    buf: Vec<u8>,
    filled: usize,
    /// The stream's current read timeout (`None`: blocks).
    timeout: Option<Duration>,
}

impl<S: Stream> Reassembly<S> {
    /// Cut the first whole frame off the buffer, if one is there.
    fn take_frame(&mut self) -> io::Result<Option<Vec<u8>>> {
        let total = self.frame_len()?;
        if self.filled < total {
            return Ok(None);
        }
        let frame = self.buf[..total].to_vec();
        self.buf.copy_within(total..self.filled, 0);
        self.filled -= total;
        Ok(Some(frame))
    }

    /// The length of the frame being assembled, as far as the buffer
    /// shows it: the header's declared length once the header is in,
    /// the header's own length before.
    fn frame_len(&self) -> io::Result<usize> {
        if self.filled < HEADER_LEN {
            return Ok(HEADER_LEN);
        }
        let b = &self.buf;
        let len = u32::from_le_bytes([b[0], b[1], b[2], b[3]]) as usize;
        if len > MAX_FRAME {
            // A corrupted length prefix has desynchronized the byte
            // stream; there is no way to find the next frame boundary.
            // Kill the link.
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("declared frame length {len} exceeds cap"),
            ));
        }
        Ok(HEADER_LEN + len)
    }

    /// One `read` into the buffer, which first grows to hold at least the
    /// rest of the frame being assembled. Returns the bytes read.
    fn fill(&mut self) -> io::Result<usize> {
        let want = self.frame_len()?;
        if self.buf.len() < want {
            self.buf.resize(want, 0);
        }
        self.stream.read(&mut self.buf[self.filled..]).inspect(|n| {
            self.filled += n;
        })
    }

    /// Bound each `read` by `ticks` µs rounded down to a power of two,
    /// or not at all for `None`. The socket option is set only when that
    /// bound differs from the current one, so a run of similar deadlines
    /// sets it once.
    fn bound_reads(&mut self, ticks: Option<u64>) -> io::Result<()> {
        let want = ticks.map(|t| Duration::from_micros(1 << t.max(1).ilog2()));
        if want != self.timeout {
            self.stream.set_read_timeout(want)?;
            self.timeout = want;
        }
        Ok(())
    }
}

impl<S: Stream> StreamLink<S> {
    fn from_halves(reader: S, writer: S, peer: String) -> StreamLink<S> {
        StreamLink {
            reader: Mutex::new(Reassembly {
                stream: reader,
                buf: Vec::new(),
                filled: 0,
                timeout: None,
            }),
            writer: Mutex::new(writer),
            peer,
        }
    }
}

impl TcpLink {
    /// Wrap a connected stream.
    ///
    /// # Errors
    ///
    /// When the stream cannot be cloned into reader/writer halves.
    pub fn new(stream: std::net::TcpStream) -> io::Result<TcpLink> {
        stream.set_nodelay(true).ok();
        let peer = stream
            .peer_addr()
            .map(|a| a.to_string())
            .unwrap_or_else(|_| "tcp:?".into());
        let writer = stream.try_clone()?;
        Ok(StreamLink::from_halves(stream, writer, peer))
    }
}

#[cfg(unix)]
impl UnixLink {
    /// Wrap a connected stream.
    ///
    /// # Errors
    ///
    /// When the stream cannot be cloned into reader/writer halves.
    pub fn new(stream: std::os::unix::net::UnixStream) -> io::Result<UnixLink> {
        let peer = stream
            .peer_addr()
            .ok()
            .and_then(|a| a.as_pathname().map(|p| p.display().to_string()))
            .unwrap_or_else(|| "unix:?".into());
        let writer = stream.try_clone()?;
        Ok(StreamLink::from_halves(stream, writer, peer))
    }
}

impl<S: Stream> Link for StreamLink<S> {
    fn send(&self, frame: &[u8]) -> io::Result<()> {
        let mut w = self.writer.lock();
        w.write_all(frame)?;
        w.flush()
    }

    fn recv(&self, timeout_ticks: Option<u64>) -> io::Result<Option<Vec<u8>>> {
        // A timeout too long to represent is no timeout.
        let until =
            timeout_ticks.and_then(|t| Instant::now().checked_add(Duration::from_micros(t)));
        let mut r = self.reader.lock();
        r.bound_reads(timeout_ticks)?;
        loop {
            if let Some(frame) = r.take_frame()? {
                return Ok(Some(frame));
            }
            match r.fill() {
                Ok(0) => return Err(eof()),
                Ok(_) => {}
                // The bound is rounded down, so it can fire before our
                // deadline: give up only once the deadline has passed.
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                    ) =>
                {
                    if until.is_some_and(|u| Instant::now() >= u) {
                        return Ok(None);
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }

    fn shutdown(&self) {
        self.writer.lock().shutdown();
    }

    fn peer(&self) -> String {
        self.peer.clone()
    }
}

// ------------------------------------------------------------------ mem

/// An in-memory [`Link`] over two runtime [`Chan`]s. Because `Chan`
/// works identically on both executors, a `MemLink` connection under the
/// simulation runtime makes the full distributed protocol — including
/// reconnects and transport faults — deterministic and sweepable.
pub struct MemLink {
    rt: Runtime,
    tx: Chan<Vec<u8>>,
    rx: Chan<Vec<u8>>,
    /// Bumped by every send to (and the close of) `rx` once a timed
    /// `recv` has subscribed it.
    arrived: Notifier,
    peer: String,
}

impl MemLink {
    /// A connected pair of in-memory links (client end, server end).
    pub fn pair(rt: &Runtime, name: &str) -> (Arc<MemLink>, Arc<MemLink>) {
        let a2b: Chan<Vec<u8>> = Chan::unbounded(format!("{name}.c2s"));
        let b2a: Chan<Vec<u8>> = Chan::unbounded(format!("{name}.s2c"));
        let client = Arc::new(MemLink {
            rt: rt.clone(),
            tx: a2b.clone(),
            rx: b2a.clone(),
            arrived: Notifier::new(),
            peer: format!("mem:{name}/server"),
        });
        let server = Arc::new(MemLink {
            rt: rt.clone(),
            tx: b2a,
            rx: a2b,
            arrived: Notifier::new(),
            peer: format!("mem:{name}/client"),
        });
        (client, server)
    }
}

impl Link for MemLink {
    fn send(&self, frame: &[u8]) -> io::Result<()> {
        self.tx
            .send(&self.rt, frame.to_vec())
            .map_err(|_| io::Error::new(io::ErrorKind::BrokenPipe, "mem link closed"))
    }

    fn recv(&self, timeout_ticks: Option<u64>) -> io::Result<Option<Vec<u8>>> {
        let Some(ticks) = timeout_ticks else {
            return self.rx.recv(&self.rt).map(Some).map_err(|_| eof());
        };
        let deadline = self.rt.now().saturating_add(ticks);
        // Subscribing again is a no-op; it must precede the first epoch
        // snapshot so no send can slip between the check and the wait.
        self.rx.subscribe(&self.arrived);
        loop {
            let seen = self.arrived.epoch();
            if let Some(frame) = self.rx.try_recv(&self.rt) {
                return Ok(Some(frame));
            }
            if self.rx.is_closed() {
                // Sends stop at close, so what is buffered now is all
                // there will ever be.
                return self.rx.try_recv(&self.rt).map(Some).ok_or_else(eof);
            }
            if !self.arrived.wait_past_deadline(&self.rt, seen, deadline) {
                return Ok(None);
            }
        }
    }

    fn shutdown(&self) {
        // Closing both directions unblocks the peer's recv too.
        self.tx.close(&self.rt);
        self.rx.close(&self.rt);
    }

    fn peer(&self) -> String {
        self.peer.clone()
    }
}

// ---------------------------------------------------------------- faulty

/// A [`Link`] decorator that applies a seeded [`NetFault`] plan at the
/// send and receive points: drops, delays (via the runtime clock, so
/// they are virtual under the sim), duplicates, single-byte corruption,
/// and forced disconnects.
pub struct FaultyLink {
    inner: Arc<dyn Link>,
    fault: Arc<NetFault>,
    rt: Runtime,
}

impl FaultyLink {
    /// Wrap `inner` with the given fault state.
    pub fn new(rt: &Runtime, inner: Arc<dyn Link>, fault: Arc<NetFault>) -> FaultyLink {
        FaultyLink {
            inner,
            fault,
            rt: rt.clone(),
        }
    }
}

impl Link for FaultyLink {
    fn send(&self, frame: &[u8]) -> io::Result<()> {
        match self.fault.on_send() {
            SendPlan::Drop => Ok(()), // vanished in flight; sender can't tell
            SendPlan::Disconnect => {
                self.inner.shutdown();
                Err(io::Error::new(
                    io::ErrorKind::BrokenPipe,
                    "fault injection: forced disconnect",
                ))
            }
            SendPlan::Deliver {
                delay_ticks,
                dup,
                corrupt,
            } => {
                self.rt.sleep(delay_ticks);
                let bytes: Vec<u8>;
                let payload: &[u8] = if let Some((offset_seed, mask)) = corrupt {
                    let mut damaged = frame.to_vec();
                    if damaged.len() > HEADER_LEN {
                        // Damage checksummed bytes only (crc or body):
                        // corrupting the length prefix desyncs stream
                        // framing, which is the disconnect fault, not the
                        // corruption fault.
                        let span = damaged.len() - 4;
                        let off = 4 + (offset_seed as usize) % span;
                        damaged[off] ^= mask;
                    }
                    bytes = damaged;
                    &bytes
                } else {
                    frame
                };
                self.inner.send(payload)?;
                if dup {
                    self.inner.send(payload)?;
                }
                Ok(())
            }
        }
    }

    fn recv(&self, timeout_ticks: Option<u64>) -> io::Result<Option<Vec<u8>>> {
        let deadline = timeout_ticks.map(|t| self.rt.now().saturating_add(t));
        loop {
            let left = deadline.map(|d| d.saturating_sub(self.rt.now()));
            let Some(frame) = self.inner.recv(left)? else {
                return Ok(None);
            };
            match self.fault.on_recv() {
                RecvPlan::Drop => continue,
                RecvPlan::Deliver { delay_ticks } => {
                    self.rt.sleep(delay_ticks);
                    return Ok(Some(frame));
                }
            }
        }
    }

    fn shutdown(&self) {
        self.inner.shutdown();
    }

    fn peer(&self) -> String {
        self.inner.peer()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::NetFaultPlan;
    use crate::wire::{decode_frame, encode_frame, Frame, FrameError, PROTO_VERSION};

    fn hello() -> Vec<u8> {
        encode_frame(&Frame::Hello {
            version: PROTO_VERSION,
            session: 9,
            object: "X".into(),
        })
        .unwrap()
    }

    #[test]
    fn mem_link_round_trips_frames() {
        let rt = Runtime::threaded();
        let (client, server) = MemLink::pair(&rt, "t");
        client.send(&hello()).unwrap();
        let got = server.recv(None).unwrap().unwrap();
        assert_eq!(got, hello());
        server.shutdown();
        assert!(client.recv(None).is_err());
        assert!(client.send(&hello()).is_err());
    }

    #[test]
    fn faulty_link_corruption_is_detectable_not_desyncing() {
        let rt = Runtime::threaded();
        let (client, server) = MemLink::pair(&rt, "t");
        let mut plan = NetFaultPlan::seeded(3);
        plan.corrupt_rate = 1.0;
        let faulty = FaultyLink::new(&rt, client.clone(), Arc::new(NetFault::new(plan)));
        for _ in 0..50 {
            faulty.send(&hello()).unwrap();
            let got = server.recv(None).unwrap().unwrap();
            // Every frame was corrupted past the length prefix, so it
            // still frames correctly and decodes to a clean checksum (or
            // header-crc) error — never a panic, never a wrong frame.
            assert_eq!(got.len(), hello().len());
            match decode_frame(&got) {
                Err(FrameError::Checksum { .. }) => {}
                other => panic!("corrupted frame decoded to {other:?}"),
            }
        }
    }

    #[test]
    fn faulty_link_disconnect_every_kills_the_pipe() {
        let rt = Runtime::threaded();
        let (client, server) = MemLink::pair(&rt, "t");
        let mut plan = NetFaultPlan::seeded(3);
        plan.disconnect_every = 3;
        let faulty = FaultyLink::new(&rt, client.clone(), Arc::new(NetFault::new(plan)));
        faulty.send(&hello()).unwrap();
        faulty.send(&hello()).unwrap();
        let err = faulty.send(&hello()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::BrokenPipe);
        // The inner link was shut down, so the server sees EOF after
        // draining what was delivered.
        server.recv(None).unwrap().unwrap();
        server.recv(None).unwrap().unwrap();
        assert!(server.recv(None).is_err());
    }

    #[test]
    fn tcp_link_round_trips_frames() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let t = std::thread::spawn(move || {
            let (s, _) = listener.accept().unwrap();
            let link = TcpLink::new(s).unwrap();
            let got = link.recv(None).unwrap().unwrap();
            link.send(&got).unwrap();
        });
        let link = TcpLink::new(std::net::TcpStream::connect(addr).unwrap()).unwrap();
        link.send(&hello()).unwrap();
        assert_eq!(link.recv(None).unwrap().unwrap(), hello());
        t.join().unwrap();
    }

    #[test]
    fn mem_link_recv_times_out_then_delivers() {
        let rt = Runtime::threaded();
        let (client, server) = MemLink::pair(&rt, "t");
        assert_eq!(server.recv(Some(1_000)).unwrap(), None);
        client.send(&hello()).unwrap();
        assert_eq!(server.recv(Some(1_000)).unwrap(), Some(hello()));
        client.shutdown();
        assert!(server.recv(Some(1_000)).is_err());
    }

    /// One step of a [`Script`]ed stream.
    enum Step {
        Bytes(Vec<u8>),
        Timeout,
    }

    /// A stream that plays back `steps`, one per `read` call (a step
    /// longer than the read buffer is split across reads), then EOF.
    struct Script {
        steps: std::collections::VecDeque<Step>,
        reads: Arc<std::sync::atomic::AtomicUsize>,
        /// The read timeout last set, and how many times one was set.
        timeout: Arc<Mutex<(Option<Duration>, usize)>>,
    }

    impl io::Read for Script {
        fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
            self.reads
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            match self.steps.pop_front() {
                None => Ok(0),
                Some(Step::Timeout) => Err(io::ErrorKind::WouldBlock.into()),
                Some(Step::Bytes(b)) => {
                    let n = b.len().min(out.len());
                    out[..n].copy_from_slice(&b[..n]);
                    if n < b.len() {
                        self.steps.push_front(Step::Bytes(b[n..].to_vec()));
                    }
                    Ok(n)
                }
            }
        }
    }

    impl io::Write for Script {
        fn write(&mut self, b: &[u8]) -> io::Result<usize> {
            Ok(b.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    impl Stream for Script {
        fn set_read_timeout(&self, timeout: Option<Duration>) -> io::Result<()> {
            let mut t = self.timeout.lock();
            *t = (timeout, t.1 + 1);
            Ok(())
        }
        fn shutdown(&self) {}
    }

    /// A link reading `steps`, and its read counter.
    fn scripted(steps: Vec<Step>) -> (StreamLink<Script>, Arc<std::sync::atomic::AtomicUsize>) {
        let reads = Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let script = |steps: Vec<Step>| Script {
            steps: steps.into(),
            reads: Arc::clone(&reads),
            timeout: Arc::default(),
        };
        let link = StreamLink::from_halves(script(steps), script(vec![]), "script".into());
        (link, reads)
    }

    fn reads(n: &std::sync::atomic::AtomicUsize) -> usize {
        n.load(std::sync::atomic::Ordering::Relaxed)
    }

    #[test]
    fn stream_link_reassembles_a_frame_split_across_reads() {
        let f = hello();
        let (link, _) = scripted(vec![
            Step::Bytes(f[..3].to_vec()),
            Step::Bytes(f[3..10].to_vec()),
            Step::Bytes(f[10..].to_vec()),
        ]);
        assert_eq!(link.recv(None).unwrap(), Some(f));
        assert_eq!(
            link.recv(None).unwrap_err().kind(),
            io::ErrorKind::UnexpectedEof
        );
    }

    #[test]
    fn stream_link_splits_two_frames_from_one_read() {
        let f = hello();
        let big = encode_frame(&Frame::Hello {
            version: PROTO_VERSION,
            session: 9,
            object: "X".repeat(4 * f.len()),
        })
        .unwrap();
        let (link, n) = scripted(vec![
            // The big frame grows the buffer past two small ones.
            Step::Bytes(big.clone()),
            Step::Bytes([f.clone(), f.clone()].concat()),
        ]);
        assert_eq!(link.recv(None).unwrap(), Some(big));
        let before = reads(&n);
        assert_eq!(link.recv(None).unwrap(), Some(f.clone()));
        assert_eq!(link.recv(None).unwrap(), Some(f));
        assert_eq!(reads(&n) - before, 1, "both frames came from one read");
    }

    #[test]
    fn stream_link_timeout_mid_frame_keeps_the_partial_bytes() {
        let f = hello();
        let (link, _) = scripted(vec![
            Step::Bytes(f[..5].to_vec()),
            Step::Timeout,
            Step::Bytes(f[5..].to_vec()),
        ]);
        // A zero timeout has passed by the time the read times out.
        assert_eq!(link.recv(Some(0)).unwrap(), None);
        assert_eq!(link.recv(Some(0)).unwrap(), Some(f));
    }

    #[test]
    fn stream_link_read_timeout_follows_each_recv() {
        let f = hello();
        let (link, _) = scripted(vec![
            Step::Bytes(f.clone()),
            Step::Bytes(f.clone()),
            Step::Bytes(f.clone()),
            Step::Bytes(f.clone()),
        ]);
        let timeout = Arc::clone(&link.reader.lock().stream.timeout);
        let micros = |us| Some(Duration::from_micros(us));
        // A short timed recv, then a long one: the bound goes back up.
        link.recv(Some(3)).unwrap().unwrap();
        assert_eq!(*timeout.lock(), (micros(2), 1));
        link.recv(Some(5_000_000)).unwrap().unwrap();
        assert_eq!(*timeout.lock(), (micros(1 << 22), 2));
        // A like deadline in the same power-of-two bucket sets nothing.
        link.recv(Some(4_500_000)).unwrap().unwrap();
        assert_eq!(timeout.lock().1, 2);
        // An untimed recv clears the bound.
        link.recv(None).unwrap().unwrap();
        assert_eq!(*timeout.lock(), (None, 3));
    }

    #[test]
    fn stream_link_oversize_length_prefix_is_invalid_data() {
        let mut header = vec![0u8; HEADER_LEN];
        header[..4].copy_from_slice(&(MAX_FRAME as u32 + 1).to_le_bytes());
        let (link, _) = scripted(vec![Step::Bytes(header)]);
        assert_eq!(
            link.recv(None).unwrap_err().kind(),
            io::ErrorKind::InvalidData
        );
    }
}
