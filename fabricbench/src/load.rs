//! The load generator: one submitter (the calling thread) and one
//! collector thread, driving the fabric only through `ClientSession::submit`
//! and `Ticket::wait_timeout`.
//!
//! Every ticket has a deadline ([`DEADLINE`] after it was due); a ticket
//! that aborts or is still unresolved at its deadline is a failure, and
//! its latency is the time at which it was declared failed. `Ticket::wait`
//! is never called: it panics on abort and never returns on a stall.

use crate::host;
use crate::spec::{Workload, DEADLINE, RECORDS, THETA, WARMUP, WINDOW};
use crate::trace::Spans;
use rdb_common::ids::ClientId;
use rdb_store::Operation;
use rdb_workload::ycsb::{YcsbConfig, YcsbWorkload};
use resilientdb::{ClientSession, CommitProof, Ticket};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{self, Receiver, Sender, TryRecvError};
use std::sync::Arc;
use std::time::{Duration, Instant};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    Warmup,
    Open,
    Saturation,
}

/// One resolved ticket.
#[derive(Debug, Clone, Copy)]
pub struct Outcome {
    pub phase: Phase,
    pub ok: bool,
    /// From due time (open loop) or submission (closed loop) to
    /// resolution or failure.
    pub latency: Duration,
    pub at: Instant,
    pub txns: usize,
}

/// What a run's load produced.
pub struct LoadResult {
    pub outcomes: Vec<Outcome>,
    /// Every committed ticket's proof with its session and `batch_seq`.
    pub proofs: Vec<(ClientId, u64, CommitProof)>,
    /// Duration of each `submit` call in the timed phases, µs.
    pub submit_us: Vec<f64>,
    /// How late the open-loop generator sent each batch, ms.
    pub late_ms: Vec<f64>,
    /// The throughput window: the saturation phase, or the open-loop
    /// phase of the overload workload.
    pub window: (Instant, Instant),
    /// Process CPU time spent during the throughput window.
    pub window_cpu: Duration,
    pub spans: Spans,
}

impl LoadResult {
    pub fn submitted(&self) -> usize {
        self.outcomes.len()
    }

    pub fn failed(&self) -> usize {
        self.outcomes.iter().filter(|o| !o.ok).count()
    }

    /// Transactions committed inside the throughput window.
    pub fn window_txns(&self) -> usize {
        let (from, to) = self.window;
        self.outcomes
            .iter()
            .filter(|o| o.ok && o.at >= from && o.at <= to)
            .map(|o| o.txns)
            .sum()
    }

    /// Open-loop latencies in ms, failures at their deadline.
    pub fn open_latencies_ms(&self) -> Vec<f64> {
        self.outcomes
            .iter()
            .filter(|o| o.phase == Phase::Open)
            .map(|o| o.latency.as_secs_f64() * 1e3)
            .collect()
    }
}

/// The deterministic operation stream of one session: YCSB batches from
/// the workload seed and the session's identity.
pub fn op_stream(w: &Workload, client: ClientId, seed: u64) -> impl FnMut() -> Vec<Operation> {
    let cfg = YcsbConfig {
        record_count: RECORDS,
        batch_size: w.batch,
        theta: THETA,
        mix: w.mix,
    };
    let mut gen = YcsbWorkload::new(cfg, client, seed);
    move || gen.next_batch(0).txns.into_iter().map(|t| t.op).collect()
}

struct Submitted {
    session: usize,
    ticket: Ticket,
    due: Instant,
    phase: Phase,
    txns: usize,
}

/// The collector: resolves tickets per session in submission order (a
/// session's batches commit in that order), records outcomes, and tells
/// the submitter about closed-loop completions.
fn collect(
    ids: Vec<ClientId>,
    rx: Receiver<Submitted>,
    done: Sender<(usize, Phase)>,
    outstanding: Arc<AtomicUsize>,
    mut spans: Spans,
    trace: bool,
) -> (Vec<Outcome>, Vec<(ClientId, u64, CommitProof)>, Spans) {
    let mut queues: Vec<VecDeque<Submitted>> = ids.iter().map(|_| VecDeque::new()).collect();
    let mut outcomes = Vec::new();
    let mut proofs = Vec::new();
    let mut closed = false;
    let mut resolve = |s: Submitted, proof: Option<CommitProof>, now: Instant| {
        let req = Some((ids[s.session], s.ticket.batch_seq()));
        if trace {
            let name = if proof.is_some() {
                "client.commit"
            } else {
                "client.failed"
            };
            spans.push(name, s.due, now, None, req);
        }
        outcomes.push(Outcome {
            phase: s.phase,
            ok: proof.is_some(),
            latency: now.saturating_duration_since(s.due),
            at: now,
            txns: s.txns,
        });
        if let Some(p) = proof {
            proofs.push((ids[s.session], s.ticket.batch_seq(), p));
        }
        if s.phase != Phase::Open {
            let _ = done.send((s.session, s.phase));
        }
        outstanding.fetch_sub(1, Ordering::SeqCst);
    };
    loop {
        loop {
            match rx.try_recv() {
                Ok(s) => queues[s.session].push_back(s),
                Err(TryRecvError::Empty) => break,
                Err(TryRecvError::Disconnected) => {
                    closed = true;
                    break;
                }
            }
        }
        let mut progressed = false;
        for q in &mut queues {
            while let Some(head) = q.front() {
                let now = Instant::now();
                let proof = head.ticket.try_wait();
                let dead = head.ticket.aborted().is_some() || now >= head.due + DEADLINE;
                if proof.is_none() && !dead {
                    break;
                }
                let s = q.pop_front().expect("head present");
                resolve(s, proof, now);
                progressed = true;
            }
        }
        if progressed {
            continue;
        }
        let busy: Vec<usize> = (0..queues.len())
            .filter(|&i| !queues[i].is_empty())
            .collect();
        let Some(&oldest) = busy
            .iter()
            .min_by_key(|&&i| queues[i].front().map(|s| s.due))
        else {
            if closed {
                break;
            }
            if let Ok(s) = rx.recv_timeout(Duration::from_millis(1)) {
                queues[s.session].push_back(s);
            }
            continue;
        };
        // Block on the oldest head. With several sessions the wait is
        // short so another session's completed head is seen promptly.
        let cap = if busy.len() > 1 {
            Duration::from_micros(200)
        } else {
            Duration::from_millis(1)
        };
        let head = queues[oldest].front().expect("non-empty");
        let left = (head.due + DEADLINE).saturating_duration_since(Instant::now());
        if let Some(proof) = head.ticket.wait_timeout(cap.min(left)) {
            let now = Instant::now();
            let s = queues[oldest].pop_front().expect("head present");
            resolve(s, Some(proof), now);
        }
    }
    (outcomes, proofs, spans)
}

/// The submitting side of a run: the calling thread.
struct Submitter<'a> {
    sessions: &'a [ClientSession],
    ids: Vec<ClientId>,
    streams: Vec<Box<dyn FnMut() -> Vec<Operation>>>,
    tx: Sender<Submitted>,
    done: Receiver<(usize, Phase)>,
    outstanding: Arc<AtomicUsize>,
    trace: bool,
    spans: Spans,
    submit_us: Vec<f64>,
    late_ms: Vec<f64>,
}

impl Submitter<'_> {
    /// Submit the session's next batch; returns when the call started.
    fn submit(&mut self, session: usize, due: Option<Instant>, phase: Phase) -> Instant {
        let ops = (self.streams[session])();
        if let Some(due) = due {
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
        }
        let txns = ops.len();
        let start = Instant::now();
        let ticket = self.sessions[session].submit(ops);
        let end = Instant::now();
        if phase != Phase::Warmup {
            self.submit_us.push((end - start).as_secs_f64() * 1e6);
        }
        if self.trace {
            let req = Some((self.ids[session], ticket.batch_seq()));
            self.spans.push("client.submit", start, end, None, req);
        }
        self.outstanding.fetch_add(1, Ordering::SeqCst);
        self.tx
            .send(Submitted {
                session,
                ticket,
                due: due.unwrap_or(start),
                phase,
                txns,
            })
            .expect("collector alive");
        start
    }

    /// Closed loop: [`WINDOW`] batches in flight per session for `len`.
    fn closed_loop(&mut self, len: Duration, phase: Phase) {
        let end = Instant::now() + len;
        let mut in_flight = vec![0usize; self.sessions.len()];
        // Completions of an earlier phase's tickets do not free a slot.
        let completed = |(s, p): (usize, Phase), in_flight: &mut [usize]| {
            if p == phase {
                in_flight[s] -= 1;
            }
        };
        loop {
            while let Ok(c) = self.done.try_recv() {
                completed(c, &mut in_flight);
            }
            let now = Instant::now();
            if now >= end {
                break;
            }
            let mut sent = false;
            for (s, n) in in_flight.iter_mut().enumerate() {
                if *n < WINDOW {
                    self.submit(s, None, phase);
                    *n += 1;
                    sent = true;
                }
            }
            if !sent {
                if let Ok(c) = self.done.recv_timeout(end - now) {
                    completed(c, &mut in_flight);
                }
            }
        }
    }

    /// Open loop at `rate` batches/s for `len`, sessions taking turns.
    fn open_loop(&mut self, rate: f64, len: Duration) {
        for (i, due) in due_times(Instant::now(), rate, len).enumerate() {
            let sent = self.submit(i % self.sessions.len(), Some(due), Phase::Open);
            self.late_ms.push(lateness(due, sent).as_secs_f64() * 1e3);
        }
    }

    /// Wait until every submitted ticket resolved (bounded by the
    /// deadline the collector enforces).
    fn drain(&self) {
        let give_up = Instant::now() + DEADLINE + Duration::from_secs(1);
        while self.outstanding.load(Ordering::SeqCst) > 0 && Instant::now() < give_up {
            std::thread::sleep(Duration::from_millis(1));
        }
    }
}

/// The open-loop schedule: batch `i` is due at `start + i / rate`. The
/// due times are fixed in advance, so a generator that runs late sends at
/// once and never skips a due batch.
fn due_times(start: Instant, rate: f64, len: Duration) -> impl Iterator<Item = Instant> {
    let interval = Duration::from_secs_f64(1.0 / rate);
    let end = start + len;
    (0u32..)
        .map(move |i| start + interval * i)
        .take_while(move |due| *due < end)
}

/// How late the generator sent a batch that was due at `due`.
fn lateness(due: Instant, sent: Instant) -> Duration {
    sent.saturating_duration_since(due)
}

/// Drive `sessions` through the workload's phases and collect every
/// ticket's outcome.
pub fn drive(
    w: &Workload,
    sessions: &[ClientSession],
    seed: u64,
    (open_len, sat_len): (Duration, Duration),
    trace: bool,
    epoch: Instant,
) -> LoadResult {
    let ids: Vec<ClientId> = sessions.iter().map(|s| s.id()).collect();
    let (tx, rx) = mpsc::channel::<Submitted>();
    let (done_tx, done_rx) = mpsc::channel::<(usize, Phase)>();
    let outstanding = Arc::new(AtomicUsize::new(0));
    let collector = {
        let ids = ids.clone();
        let outstanding = Arc::clone(&outstanding);
        let spans = Spans::new(epoch);
        std::thread::Builder::new()
            .name("bench-collector".into())
            .spawn(move || collect(ids, rx, done_tx, outstanding, spans, trace))
            .expect("spawn collector thread")
    };
    let mut sub = Submitter {
        sessions,
        streams: ids
            .iter()
            .map(|&id| Box::new(op_stream(w, id, seed)) as Box<dyn FnMut() -> Vec<Operation>>)
            .collect(),
        ids,
        tx,
        done: done_rx,
        outstanding,
        trace,
        spans: Spans::new(epoch),
        submit_us: Vec::new(),
        late_ms: Vec::new(),
    };

    if w.saturate {
        sub.closed_loop(WARMUP, Phase::Warmup);
        sub.drain();
    }
    let cpu = host::process_cpu();
    let start = Instant::now();
    sub.open_loop(w.open_rate, open_len);
    let mut window = (start, Instant::now());
    let mut window_cpu = host::process_cpu().saturating_sub(cpu);
    sub.drain();
    if w.saturate {
        let cpu = host::process_cpu();
        let start = Instant::now();
        sub.closed_loop(sat_len, Phase::Saturation);
        window = (start, Instant::now());
        window_cpu = host::process_cpu().saturating_sub(cpu);
        sub.drain();
    }

    let Submitter {
        tx,
        mut spans,
        submit_us,
        late_ms,
        ..
    } = sub;
    drop(tx);
    let (outcomes, proofs, collected) = collector.join().expect("collector thread");
    spans.extend(collected);
    LoadResult {
        outcomes,
        proofs,
        submit_us,
        late_ms,
        window,
        window_cpu,
        spans,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec;

    fn stream_bytes(name: &str, seed: u64) -> String {
        let w = spec::workload(name).expect("known workload");
        let mut ops = op_stream(&w, ClientId::new(0, 1 << 30), seed);
        let batches: Vec<Vec<Operation>> = (0..50).map(|_| ops()).collect();
        serde_json::to_string(&batches).expect("operations serialize")
    }

    #[test]
    fn late_generator_keeps_due_times_and_reports_lateness() {
        let start = Instant::now();
        let due: Vec<Instant> = due_times(start, 1000.0, Duration::from_millis(10)).collect();
        // Ten batches due 1 ms apart, whenever the generator gets to them.
        assert_eq!(due.len(), 10);
        assert_eq!(due[3] - start, Duration::from_millis(3));
        // The generator stalls 5 ms and sends batch 3 at 8 ms; it commits
        // at 9 ms. Its latency runs from the due time, so the stall counts.
        let sent = start + Duration::from_millis(8);
        let committed = start + Duration::from_millis(9);
        assert_eq!(lateness(due[3], sent), Duration::from_millis(5));
        let o = Outcome {
            phase: Phase::Open,
            ok: true,
            latency: committed.saturating_duration_since(due[3]),
            at: committed,
            txns: 1,
        };
        assert_eq!(o.latency, Duration::from_millis(6));
        // A generator that is early is never negative-late.
        assert_eq!(lateness(due[3], start), Duration::ZERO);
    }

    #[test]
    fn same_seed_gives_byte_identical_operation_streams() {
        for w in spec::WORKLOADS {
            assert_eq!(stream_bytes(w.name, 7), stream_bytes(w.name, 7));
            assert_ne!(stream_bytes(w.name, 7), stream_bytes(w.name, 8));
        }
    }
}
