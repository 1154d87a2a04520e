//! The load generator: one client thread speaking the serve protocol over
//! loopback TCP. A closed loop keeps a fixed window of frames in flight on
//! one connection; an open loop sends point queries on a fixed schedule
//! while a second connection sends weight-update batches.

use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use hc2l_oracle::WeightUpdate;
use hc2l_serve::{write_request, FrameDecoder, Request, Response};

use crate::stats::Windows;
use crate::trace::{SpanId, Tracer, ROOT};

/// How long the client waits on a silent server before it counts the
/// frames in flight as failed.
pub const REPLY_TIMEOUT: Duration = Duration::from_secs(10);

pub fn connect(addr: SocketAddr) -> io::Result<TcpStream> {
    let s = TcpStream::connect(addr)?;
    s.set_nodelay(true)?;
    s.set_read_timeout(Some(REPLY_TIMEOUT))?;
    Ok(s)
}

/// Counters every loop keeps.
#[derive(Debug, Default, Clone)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub request_frames: u64,
    pub request_bytes: u64,
    pub response_frames: u64,
    pub response_bytes: u64,
    /// How late each timed frame was sent, ms: after its slot freed up
    /// (closed loop) or after its scheduled time (open loop).
    pub late_ms: Vec<f64>,
}

/// Sends one request and waits for its response (used outside the timed
/// windows, for property checks).
pub struct Conn {
    stream: TcpStream,
    decoder: FrameDecoder,
    buf: Vec<u8>,
}

impl Conn {
    pub fn new(stream: TcpStream) -> Self {
        Conn {
            stream,
            decoder: FrameDecoder::new(),
            buf: vec![0; 1 << 16],
        }
    }

    pub fn call(&mut self, req: &Request) -> io::Result<Response> {
        let mut out = Vec::new();
        write_request(&mut out, req)?;
        self.stream.write_all(&out)?;
        loop {
            if let Some(r) = self.decoder.next_response()? {
                return Ok(r);
            }
            let n = self.stream.read(&mut self.buf)?;
            if n == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "server closed",
                ));
            }
            self.decoder.feed(&self.buf[..n]);
        }
    }
}

/// One frame in flight.
struct Pending {
    req: Request,
    sent: Instant,
    span: SpanId,
    id: u64,
}

/// Runs a closed loop of `window` frames in flight until `until`.
/// `next` makes the i-th request; `check` sees each request with its
/// response and returns false for a wrong or failed answer. Latencies go
/// into `windows` (when given), one window per `windows.len()`; `units`
/// says how many distances a request carries.
#[allow(clippy::too_many_arguments)]
pub fn closed_loop(
    conn: &mut Conn,
    window: usize,
    until: Instant,
    mut windows: Option<&mut Windows>,
    tally: &mut Tally,
    tracer: &mut Tracer,
    mut next: impl FnMut(u64) -> Request,
    mut check: impl FnMut(&Request, &Response) -> bool,
    units: impl Fn(&Request) -> u64,
) -> io::Result<()> {
    let mut inflight: VecDeque<Pending> = VecDeque::with_capacity(window);
    let mut out = Vec::with_capacity(window * 64);
    let mut issued = 0u64;
    let mut window_start = Instant::now();
    let wlen = windows.as_ref().map(|w| w.len()).unwrap_or(Duration::MAX);
    let mut sending = true;
    // When the last read freed slots: the frames sent next were due then.
    let mut freed = Instant::now();
    loop {
        if sending {
            out.clear();
            let first_new = inflight.len();
            let placeholder = window_start;
            while inflight.len() < window {
                let req = next(issued);
                let (span, enc) = if tracer.samples(issued) {
                    let span = tracer.begin("client.request", ROOT, issued);
                    (span, tracer.begin("protocol.encode", span, issued))
                } else {
                    (ROOT, ROOT)
                };
                write_request(&mut out, &req)?;
                tracer.end(enc);
                inflight.push_back(Pending {
                    req,
                    sent: placeholder,
                    span,
                    id: issued,
                });
                issued += 1;
            }
            if !out.is_empty() {
                let sent = Instant::now();
                for p in inflight.iter_mut().skip(first_new) {
                    p.sent = sent;
                }
                if windows.is_some() {
                    tally.late_ms.push((sent - freed).as_secs_f64() * 1e3);
                }
                tally.attempted += (inflight.len() - first_new) as u64;
                tally.request_frames += (inflight.len() - first_new) as u64;
                tally.request_bytes += out.len() as u64;
                conn.stream.write_all(&out)?;
            }
        }
        if inflight.is_empty() {
            return Ok(());
        }
        let n = match conn.stream.read(&mut conn.buf) {
            Ok(0) => Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed",
            )),
            Ok(n) => Ok(n),
            Err(e) => Err(e),
        };
        let n = match n {
            Ok(n) => n,
            Err(e) => {
                tally.failed += inflight.len() as u64;
                return Err(e);
            }
        };
        let now = Instant::now();
        freed = now;
        tally.response_bytes += n as u64;
        conn.decoder.feed(&conn.buf[..n]);
        loop {
            let dec_start = tracer.stamp();
            let Some(resp) = conn.decoder.next_response()? else {
                break;
            };
            let p = inflight.pop_front().ok_or_else(|| {
                io::Error::new(io::ErrorKind::InvalidData, "response with no request")
            })?;
            if p.span != ROOT {
                tracer.record("protocol.decode", p.span, p.id, dec_start, tracer.stamp());
                tracer.end(p.span);
            }
            tally.response_frames += 1;
            if !check(&p.req, &resp) {
                tally.failed += 1;
            } else if let (true, Some(w)) = (sending, windows.as_deref_mut()) {
                w.record((now - p.sent).as_secs_f64() * 1e6, units(&p.req));
            }
        }
        if let Some(w) = windows.as_deref_mut() {
            if now - window_start >= wlen {
                w.close(now - window_start, tracer.enabled());
                tracer.window_boundary();
                window_start = now;
            }
        }
        if now >= until {
            sending = false;
        }
    }
}

/// Whether a response is a usable answer at all (not `Error`,
/// `Overloaded` or a mismatched kind).
pub fn distance_of(resp: &Response) -> Option<u64> {
    match resp {
        Response::Distance(d) => Some(*d),
        _ => None,
    }
}

#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

const POLLIN: i16 = 0x001;
const POLLOUT: i16 = 0x004;
const PR_SET_TIMERSLACK: i32 = 29;

extern "C" {
    fn ppoll(fds: *mut PollFd, nfds: u64, timeout: *const Timespec, sigmask: *const u8) -> i32;
    fn prctl(option: i32, ...) -> i32;
}

/// Waits until one of `conns` is ready for what `want_write` asks, or for
/// `timeout`, with nanosecond timer resolution.
fn wait_ready(conns: &[(&TcpStream, bool)], timeout: Duration) {
    use std::os::unix::io::AsRawFd;
    let mut fds: Vec<PollFd> = conns
        .iter()
        .map(|(s, want_write)| PollFd {
            fd: s.as_raw_fd(),
            events: POLLIN | if *want_write { POLLOUT } else { 0 },
            revents: 0,
        })
        .collect();
    let ts = Timespec {
        tv_sec: timeout.as_secs() as i64,
        tv_nsec: i64::from(timeout.subsec_nanos()),
    };
    // SAFETY: `fds` is a live, correctly laid out `struct pollfd` array of
    // `fds.len()` entries for the duration of the call, `ts` is a valid
    // `struct timespec`, and a null sigmask leaves the mask unchanged.
    // Errors (EINTR) only end the wait early, which the caller tolerates.
    unsafe {
        ppoll(fds.as_mut_ptr(), fds.len() as u64, &ts, std::ptr::null());
    }
}

/// Lets this thread's timed waits wake within ~1 µs instead of the
/// default 50 µs slack, so the open loop's send schedule holds.
pub fn tighten_timer_slack() {
    // SAFETY: PR_SET_TIMERSLACK takes one unsigned long and changes only
    // the calling thread's timer slack.
    unsafe {
        prctl(PR_SET_TIMERSLACK, 1u64);
    }
}

/// A non-blocking connection with an outgoing byte queue.
struct Nb {
    conn: Conn,
    out: Vec<u8>,
    out_pos: usize,
}

impl Nb {
    fn new(conn: Conn) -> io::Result<Self> {
        conn.stream.set_nonblocking(true)?;
        Ok(Nb {
            conn,
            out: Vec::new(),
            out_pos: 0,
        })
    }

    fn into_conn(self) -> io::Result<Conn> {
        self.conn.stream.set_nonblocking(false)?;
        Ok(self.conn)
    }

    fn pending_write(&self) -> bool {
        self.out_pos < self.out.len()
    }

    fn flush(&mut self) -> io::Result<()> {
        while self.pending_write() {
            match self.conn.stream.write(&self.out[self.out_pos..]) {
                Ok(n) => self.out_pos += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        if !self.pending_write() {
            self.out.clear();
            self.out_pos = 0;
        }
        Ok(())
    }

    /// Reads what the socket has into the decoder; returns bytes read.
    fn fill(&mut self) -> io::Result<usize> {
        let mut total = 0;
        loop {
            match self.conn.stream.read(&mut self.conn.buf) {
                Ok(0) => {
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "server closed",
                    ))
                }
                Ok(n) => {
                    self.conn.decoder.feed(&self.conn.buf[..n]);
                    total += n;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(total),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }
}

/// A point query of the open loop, with the epoch its answer is checked
/// against (when it is one of the checked ones).
struct Due {
    due: Instant,
    source: u32,
    target: u32,
    check_epoch: Option<usize>,
    span: SpanId,
    id: u64,
}

/// One acknowledged weight-update batch.
#[derive(Debug, Clone, Copy)]
pub struct BatchResult {
    pub size: usize,
    pub visible_ms: f64,
    pub absorb_ms: f64,
    pub strategy_tag: u32,
}

/// What the open loop hands back besides the tally.
#[derive(Default)]
pub struct OpenLoopOut {
    /// `(epoch, source, target, answer)` of the checked queries: each was
    /// sent after the epoch's acknowledgement and answered before the next
    /// batch was sent.
    pub checked: Vec<(usize, u32, u32, u64)>,
    pub batches: Vec<BatchResult>,
}

/// Queries checked after each acknowledged batch (and at the start).
pub const CHECKS_PER_EPOCH: usize = 8;

/// Runs the open loop: point queries at `rate` per second from `start`
/// until `until`, latency timed from when each was due; meanwhile the
/// update connection sends `plan`'s batches one at a time, each no sooner
/// than `period` after the previous one was sent and only once it was
/// acknowledged. The server starts at epoch 0.
#[allow(clippy::too_many_arguments)]
pub fn open_loop(
    queries: Conn,
    updates: Conn,
    rate: f64,
    start: Instant,
    until: Instant,
    plan: &[Vec<WeightUpdate>],
    period: Duration,
    mut windows: Option<&mut Windows>,
    tally: &mut Tally,
    tracer: &mut Tracer,
    mut next: impl FnMut(u64) -> (u32, u32),
    out: &mut OpenLoopOut,
) -> io::Result<(Conn, Conn)> {
    let mut q = Nb::new(queries)?;
    let mut u = Nb::new(updates)?;
    let interval = Duration::from_secs_f64(1.0 / rate);
    let mut issued = 0u64;
    let mut inflight: VecDeque<Due> = VecDeque::new();
    // Update state: the batch in flight (index, sent at, span), when the
    // next one may go, and which epoch queries are checked against.
    let mut batch_inflight: Option<(usize, Instant, SpanId)> = None;
    let mut next_batch = 0;
    let mut next_batch_at = start + period;
    let mut epoch = 0;
    let mut checks_left = CHECKS_PER_EPOCH;
    let mut window_start = start;
    let wlen = windows.as_ref().map(|w| w.len()).unwrap_or(Duration::MAX);
    let deadline_after = until + REPLY_TIMEOUT;
    loop {
        let now = Instant::now();
        let sending = now < until;
        if !sending && inflight.is_empty() && batch_inflight.is_none() {
            break;
        }
        if now > deadline_after {
            tally.failed += inflight.len() as u64 + u64::from(batch_inflight.is_some());
            return Err(io::Error::new(
                io::ErrorKind::TimedOut,
                "open loop: no reply",
            ));
        }
        // Queries that are due.
        let mut due = start + interval.mul_f64(issued as f64);
        while sending && due <= now {
            let (source, target) = next(issued);
            let check_epoch = if batch_inflight.is_none() && checks_left > 0 {
                checks_left -= 1;
                Some(epoch)
            } else {
                None
            };
            let sampled = tracer.samples(issued);
            let enc = tracer.stamp();
            write_request(&mut q.out, &Request::Distance(source, target))?;
            let span = if sampled {
                let enc_end = tracer.stamp();
                let span = tracer.record("client.request", ROOT, issued, enc, enc_end);
                tracer.record("protocol.encode", span, issued, enc, enc_end);
                span
            } else {
                ROOT
            };
            inflight.push_back(Due {
                due,
                source,
                target,
                check_epoch,
                span,
                id: issued,
            });
            if windows.is_some() {
                tally.late_ms.push((now - due).as_secs_f64() * 1e3);
            }
            tally.attempted += 1;
            tally.request_frames += 1;
            issued += 1;
            due = start + interval.mul_f64(issued as f64);
        }
        let before = q.out.len() - q.out_pos;
        q.flush()?;
        tally.request_bytes += (before - (q.out.len() - q.out_pos)) as u64;
        // The next update batch, once the previous one is acknowledged.
        if sending && batch_inflight.is_none() && next_batch < plan.len() && now >= next_batch_at {
            write_request(
                &mut u.out,
                &Request::UpdateWeights(plan[next_batch].clone()),
            )?;
            let span = tracer.begin("update.batch", ROOT, next_batch as u64);
            batch_inflight = Some((next_batch, Instant::now(), span));
            // Queries still in flight may be answered on either epoch.
            for d in inflight.iter_mut() {
                d.check_epoch = None;
            }
            tally.attempted += 1;
            tally.request_frames += 1;
            next_batch_at = now + period;
            next_batch += 1;
        }
        u.flush()?;
        // Query answers.
        let n = q.fill()?;
        tally.response_bytes += n as u64;
        let now = Instant::now();
        loop {
            let dec = tracer.stamp();
            let Some(resp) = q.conn.decoder.next_response()? else {
                break;
            };
            let d = inflight.pop_front().ok_or_else(|| {
                io::Error::new(io::ErrorKind::InvalidData, "response with no request")
            })?;
            if d.span != ROOT {
                tracer.record("protocol.decode", d.span, d.id, dec, tracer.stamp());
                tracer.end(d.span);
            }
            tally.response_frames += 1;
            match distance_of(&resp) {
                None => tally.failed += 1,
                Some(got) => {
                    if let Some(e) = d.check_epoch {
                        out.checked.push((e, d.source, d.target, got));
                    }
                    if let (true, Some(w)) = (sending, windows.as_deref_mut()) {
                        w.record((now - d.due).as_secs_f64() * 1e6, 1);
                    }
                }
            }
        }
        // Update acknowledgements.
        let n = u.fill()?;
        tally.response_bytes += n as u64;
        if let Some(resp) = u.conn.decoder.next_response()? {
            let acked = Instant::now();
            let (idx, sent, span) = batch_inflight
                .take()
                .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "ack with no batch"))?;
            tracer.end(span);
            tally.response_frames += 1;
            match resp {
                Response::Updated(o)
                    if o.applied == plan[idx].len() as u64
                        && o.rejected == 0
                        && o.epoch == idx as u64 + 1 =>
                {
                    let visible = acked - sent;
                    let absorb = Duration::from_micros(o.micros);
                    if tracer.enabled() {
                        let end = tracer.now_ns();
                        let a = absorb.min(visible).as_nanos() as u64;
                        tracer.record(
                            "dynamic.absorb",
                            span,
                            idx as u64,
                            end.saturating_sub(a),
                            end,
                        );
                    }
                    out.batches.push(BatchResult {
                        size: plan[idx].len(),
                        visible_ms: visible.as_secs_f64() * 1e3,
                        absorb_ms: absorb.as_secs_f64() * 1e3,
                        strategy_tag: o.strategy_tag,
                    });
                    epoch = idx + 1;
                    checks_left = CHECKS_PER_EPOCH;
                }
                _ => tally.failed += 1,
            }
        }
        if let Some(w) = windows.as_deref_mut() {
            if sending && now - window_start >= wlen {
                w.close(now - window_start, tracer.enabled());
                tracer.window_boundary();
                window_start = now;
            }
        }
        // Sleep until the next query is due, a batch may go, or a reply.
        let now = Instant::now();
        let mut wake = if sending {
            due
        } else {
            now + Duration::from_millis(5)
        };
        if sending && batch_inflight.is_none() && next_batch < plan.len() {
            wake = wake.min(next_batch_at);
        }
        if wake > now {
            wait_ready(
                &[
                    (&q.conn.stream, q.pending_write()),
                    (&u.conn.stream, u.pending_write()),
                ],
                wake - now,
            );
        }
    }
    Ok((q.into_conn()?, u.into_conn()?))
}
