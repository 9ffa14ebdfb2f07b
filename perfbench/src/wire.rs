//! Load over loopback TCP for the serving workloads, with at most two
//! threads and two connections. Open-loop latency counts from each
//! request's scheduled due time; closed-loop latency from the write. Every
//! response is checked against the oracle entry it answers.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use afpr_serve::{encode_message, parse_message, Request, Response, Status};

use crate::report::Tally;
use crate::stats::{same_bits, Samples};

pub const CONNECTIONS: usize = 2;
/// Wire op names, indexing per-op statistics.
pub const OPS: [&str; 4] = ["matvec", "infer", "forward_batch", "matvec_partial"];

/// The oracle's answer to one request.
#[derive(Debug, Clone)]
pub enum Expect {
    Output(Vec<f32>),
    Outputs(Vec<Vec<f32>>),
}

/// One request the generator can send: its pre-encoded frame and the
/// answer the single-node oracle computed in set-up.
pub struct Entry {
    pub op: usize,
    pub id: u64,
    pub request: Request,
    pub frame: Vec<u8>,
    pub expect: Expect,
}

impl Entry {
    pub fn new(op: usize, request: Request, expect: Expect) -> Self {
        let payload = encode_message(&request).expect("request encodes");
        let mut frame = (payload.len() as u32).to_be_bytes().to_vec();
        frame.extend_from_slice(&payload);
        Self {
            op,
            id: request.id,
            request,
            frame,
            expect,
        }
    }
}

/// Result of one phase over all connections.
#[derive(Debug, Default)]
pub struct PhaseResult {
    /// Latency per request in ms, stamped with its due (open loop) or
    /// answer (closed loop) offset; a failed request counts as +∞.
    pub samples: Samples,
    /// Generator lateness per send in ms (open loop).
    pub late: Samples,
    pub tally: Tally,
    pub elapsed_s: f64,
    /// Up to `capture` raw response payloads per op.
    pub payloads: Vec<(usize, Vec<u8>)>,
    /// Closed loop: completion offsets (s) of the successful requests.
    pub done: Vec<f64>,
    /// Closed loop with tracing: (sent, answered, request id) per request.
    pub spans: Vec<(Instant, Instant, u64)>,
}

impl PhaseResult {
    fn merge(&mut self, other: PhaseResult) {
        self.samples.extend(&other.samples);
        self.late.extend(&other.late);
        self.tally.add(&other.tally);
        self.payloads.extend(other.payloads);
        self.spans.extend(other.spans);
        self.done.extend(other.done);
    }

    /// Closed loop: successful requests per second, the median over
    /// half-second windows.
    pub fn ok_per_s(&self) -> f64 {
        const W: f64 = 0.5;
        let windows = ((self.elapsed_s / W).floor() as usize).max(1);
        if windows == 1 {
            return self.done.len() as f64 / self.elapsed_s;
        }
        let mut counts = vec![0usize; windows];
        for t in &self.done {
            if let Some(c) = counts.get_mut((t / W) as usize) {
                *c += 1;
            }
        }
        let rates: Vec<f64> = counts.iter().map(|&c| c as f64 / W).collect();
        crate::stats::median(&rates)
    }
}

/// Incremental length-prefixed frame assembly.
#[derive(Default)]
struct Frames {
    buf: Vec<u8>,
}

impl Frames {
    fn fill(&mut self, stream: &mut TcpStream, scratch: &mut [u8]) -> io::Result<usize> {
        let n = stream.read(scratch)?;
        if n == 0 {
            return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "peer closed"));
        }
        self.buf.extend_from_slice(&scratch[..n]);
        Ok(n)
    }

    fn next(&mut self) -> Option<Vec<u8>> {
        if self.buf.len() < 4 {
            return None;
        }
        let len = u32::from_be_bytes([self.buf[0], self.buf[1], self.buf[2], self.buf[3]]) as usize;
        if self.buf.len() < 4 + len {
            return None;
        }
        let payload = self.buf[4..4 + len].to_vec();
        self.buf.drain(..4 + len);
        Some(payload)
    }
}

fn would_block(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

/// Checks one response against its oracle entry. Returns whether it
/// counts as a success.
pub fn check(entry: &Entry, payload: &[u8], tally: &mut Tally) -> bool {
    let resp: Response = match parse_message(payload) {
        Ok(r) => r,
        Err(e) => {
            tally.mismatch(format!("unparseable response: {e}"));
            return false;
        }
    };
    if resp.status != Status::Ok {
        tally.non_ok += 1;
        return false;
    }
    if resp.id != entry.id {
        tally.mismatch(format!(
            "response id {} answers request {}",
            resp.id, entry.id
        ));
        return false;
    }
    let good = match &entry.expect {
        Expect::Output(want) => resp
            .output
            .as_deref()
            .is_some_and(|got| same_bits(got, want)),
        Expect::Outputs(want) => resp.outputs.as_ref().is_some_and(|got| {
            got.len() == want.len() && got.iter().zip(want).all(|(g, w)| same_bits(g, w))
        }),
    };
    if !good {
        tally.mismatch(format!(
            "{} id {} differs from the oracle",
            OPS[entry.op], entry.id
        ));
        return false;
    }
    tally.ok += 1;
    true
}

fn connect(addr: SocketAddr) -> io::Result<TcpStream> {
    let s = TcpStream::connect(addr)?;
    s.set_nodelay(true)?;
    s.set_write_timeout(Some(Duration::from_secs(5)))?;
    Ok(s)
}

/// Open loop over one connection driven by two threads: a sender that
/// writes each request at its due time, sleeping on a high-resolution
/// timer, and a receiver blocked in `read` that stamps each answer as it
/// arrives. `schedule` holds (due offset s, entry index) in due order.
/// Requests still unanswered `drain_s` after the last due time are lost.
pub fn open_loop(
    addr: SocketAddr,
    entries: &[Entry],
    schedule: &[(f64, usize)],
    drain_s: f64,
    capture: usize,
) -> PhaseResult {
    let mut r = PhaseResult::default();
    r.tally.attempted = schedule.len() as u64;
    let last_due = schedule.last().map_or(0.0, |j| j.0);
    r.elapsed_s = last_due.max(1e-9);
    let (writer, mut reader) = match connect(addr).and_then(|s| Ok((s.try_clone()?, s))) {
        Ok(pair) => pair,
        Err(e) => {
            r.tally.errors.push(format!("connect: {e}"));
            r.tally.lost = schedule.len() as u64;
            for job in schedule {
                r.samples.push(job.0, f64::INFINITY);
            }
            return r;
        }
    };
    let (tx, rx) = mpsc::channel::<(Instant, usize)>();
    let t0 = Instant::now();
    let deadline = t0 + Duration::from_secs_f64(last_due + drain_s);
    std::thread::scope(|s| {
        let sender = s.spawn(move || send_on_schedule(writer, entries, schedule, t0, &tx));
        let mut frames = Frames::default();
        let mut scratch = vec![0u8; 1 << 16];
        let mut captured = [0usize; OPS.len()];
        let mut answered = 0usize;
        while answered < schedule.len() {
            let now = Instant::now();
            if now >= deadline {
                break;
            }
            let wait = (deadline - now).max(Duration::from_millis(1));
            if reader.set_read_timeout(Some(wait)).is_err() {
                break;
            }
            match frames.fill(&mut reader, &mut scratch) {
                Ok(_) => {}
                Err(e) if would_block(&e) => continue,
                Err(e) => {
                    r.tally.errors.push(format!("read: {e}"));
                    break;
                }
            }
            let at = Instant::now();
            while let Some(payload) = frames.next() {
                let Ok((due, e)) = rx.recv_timeout(Duration::from_secs(1)) else {
                    r.tally.mismatch("response without a request".to_string());
                    break;
                };
                let entry = &entries[e];
                let ms = if check(entry, &payload, &mut r.tally) {
                    (at - due).as_secs_f64() * 1e3
                } else {
                    f64::INFINITY
                };
                r.samples.push((due - t0).as_secs_f64(), ms);
                answered += 1;
                if captured[entry.op] < capture {
                    captured[entry.op] += 1;
                    r.payloads.push((e, payload));
                }
            }
        }
        let (late, sent, err) = sender.join().expect("sender thread");
        r.late = late;
        if let Some(e) = err {
            r.tally.errors.push(format!("write: {e}"));
        }
        let unanswered = rx.try_iter().map(|(due, _)| (due - t0).as_secs_f64());
        let unsent = schedule[sent..].iter().map(|job| job.0);
        for t in unanswered.chain(unsent) {
            r.samples.push(t, f64::INFINITY);
            r.tally.lost += 1;
        }
    });
    r
}

/// The sender half of `open_loop`: returns its lateness samples, how many
/// requests it wrote, and the write error that stopped it, if any.
fn send_on_schedule(
    mut stream: TcpStream,
    entries: &[Entry],
    schedule: &[(f64, usize)],
    t0: Instant,
    tx: &mpsc::Sender<(Instant, usize)>,
) -> (Samples, usize, Option<io::Error>) {
    let mut late = Samples::default();
    for (sent, &(due_s, e)) in schedule.iter().enumerate() {
        let due = t0 + Duration::from_secs_f64(due_s);
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        late.push(
            due_s,
            Instant::now().saturating_duration_since(due).as_secs_f64() * 1e3,
        );
        // Announce before writing, so the receiver always finds the entry.
        if tx.send((due, e)).is_err() {
            return (late, sent, None);
        }
        if let Err(err) = stream.write_all(&entries[e].frame) {
            return (late, sent + 1, Some(err));
        }
    }
    (late, schedule.len(), None)
}

/// Closed loop: each connection keeps `inflight` requests outstanding,
/// cycling through `seq` (entry indices), for `secs` seconds. With
/// `trace`, every request's (sent, answered) span is kept.
pub fn closed_loop(
    addr: SocketAddr,
    entries: &[Entry],
    seq: &[usize],
    inflight: usize,
    secs: f64,
    trace: bool,
) -> PhaseResult {
    let conns: Vec<io::Result<TcpStream>> = (0..CONNECTIONS).map(|_| connect(addr)).collect();
    let t0 = Instant::now();
    let end = t0 + Duration::from_secs_f64(secs);
    let mut total = PhaseResult::default();
    std::thread::scope(|s| {
        let handles: Vec<_> = conns
            .into_iter()
            .enumerate()
            .map(|(c, stream)| {
                s.spawn(move || conn_closed(stream, entries, seq, c, inflight, (t0, end), trace))
            })
            .collect();
        for h in handles {
            total.merge(h.join().expect("generator thread"));
        }
    });
    total.elapsed_s = t0.elapsed().as_secs_f64();
    total
}

fn conn_closed(
    stream: io::Result<TcpStream>,
    entries: &[Entry],
    seq: &[usize],
    offset: usize,
    inflight: usize,
    (t0, end): (Instant, Instant),
    trace: bool,
) -> PhaseResult {
    let mut r = PhaseResult::default();
    let mut stream = match stream {
        Ok(s) => s,
        Err(e) => {
            r.tally.errors.push(format!("connect: {e}"));
            return r;
        }
    };
    let drain = end + Duration::from_secs(5);
    let _ = stream.set_read_timeout(Some(Duration::from_millis(100)));
    let mut frames = Frames::default();
    let mut scratch = vec![0u8; 1 << 16];
    let mut outstanding = std::collections::VecDeque::new();
    let mut k = offset;
    let send = |stream: &mut TcpStream,
                k: &mut usize,
                out: &mut std::collections::VecDeque<(Instant, usize)>| {
        let e = seq[*k % seq.len()];
        *k += CONNECTIONS;
        out.push_back((Instant::now(), e));
        stream.write_all(&entries[e].frame)
    };
    for _ in 0..inflight {
        r.tally.attempted += 1;
        if send(&mut stream, &mut k, &mut outstanding).is_err() {
            break;
        }
    }
    while !outstanding.is_empty() && Instant::now() < drain {
        match frames.fill(&mut stream, &mut scratch) {
            Ok(_) => {}
            Err(e) if would_block(&e) => continue,
            Err(e) => {
                r.tally.errors.push(format!("read: {e}"));
                break;
            }
        }
        while let Some(payload) = frames.next() {
            let Some((sent, e)) = outstanding.pop_front() else {
                r.tally.mismatch("response without a request".to_string());
                break;
            };
            let now = Instant::now();
            if trace {
                r.spans.push((sent, now, entries[e].id));
            }
            let t = (now - t0).as_secs_f64();
            if check(&entries[e], &payload, &mut r.tally) {
                r.samples.push(t, (now - sent).as_secs_f64() * 1e3);
                r.done.push(t);
            } else {
                r.samples.push(t, f64::INFINITY);
            }
            if now < end {
                r.tally.attempted += 1;
                if send(&mut stream, &mut k, &mut outstanding).is_err() {
                    break;
                }
            }
        }
    }
    r.tally.lost += outstanding.len() as u64;
    r
}
