//! The rank runtime: a MIMD distributed-memory message-passing environment
//! in which each rank owns only its own data, exchanging typed messages
//! through per-rank mailboxes, with a deterministic *virtual clock* per
//! rank driven by a [`MachineModel`].
//!
//! Two scheduler modes execute the ranks:
//!
//! * **1:1 (default)** — one OS thread per rank; blocking waits park on a
//!   condvar.
//! * **M:N** ([`UniverseBuilder::max_threads`]) — ranks run as cooperative
//!   coroutines multiplexed onto a bounded worker pool, yielding back to
//!   their worker at every communication point (`recv` with no matching
//!   message, collective rendezvous, [`Comm::end_step`]). This is how a
//!   512–4096-rank universe runs on a handful of host cores.
//!
//! Virtual-time rules:
//!
//! * `compute(flops, class)` advances the local clock by `flops / rate`,
//! * `send` charges the sender a CPU overhead and stamps the message with
//!   its (virtual) send time; the message becomes available at
//!   `send_time + latency + bytes/bandwidth`,
//! * `recv` advances the local clock to at least the arrival time,
//! * collectives synchronize every clock to the round maximum plus a
//!   log₂(P) collective cost.
//!
//! Determinism: all protocols in this workspace receive from explicit
//! (source, tag) pairs or collectives, never "whichever message lands
//! first", so virtual times are bit-reproducible run to run regardless of
//! wall-clock thread scheduling — and bit-identical between the two
//! scheduler modes for the same configuration.
//!
//! Failure handling: a panic in a rank body is caught on that rank, every
//! peer blocked in a communication call is woken and unblocked with
//! [`OversetError::AbortedByPeer`], and the run returns
//! [`OversetError::RankPanicked`] naming the failing rank and the
//! statistics phase it was in ([`UniverseBuilder::try_run`] surfaces it as
//! an error; [`UniverseBuilder::run`] re-raises it).
//!
//! Observability: every rank carries a [`MetricsRegistry`] (always on;
//! counters are cheap) and an optional virtual-time [`Tracer`]
//! (zero-cost-when-disabled). Phase attribution is RAII-scoped through
//! [`Comm::phase`] — see [`PhaseGuard`].

use crate::alloc::{self, AllocRecord, AllocTotals, RankAllocCounters};
use crate::error::OversetError;
use crate::flight::{FlightRecorder, StepRecord, DEFAULT_STEP_CAPACITY};
use crate::machine::{MachineModel, WorkClass};
use crate::metrics::{names, MetricsRegistry};
use crate::sched;
use crate::stats::{Phase, RankStats, NUM_PHASES};
use crate::trace::{ArgVal, TraceConfig, TraceEvent, Tracer};
use crate::transport::{self, FabricInner, ProcLink, ProcRound, TransportConfig};
use crate::wire::{intern, wire_type_hash, Wire, WireError, WireReader};
use std::any::Any;
use std::collections::VecDeque;
use std::ops::{Deref, DerefMut};
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

/// How a message's value travels: in-process messages hand the boxed value
/// across directly; messages that crossed a process boundary arrive as wire
/// bytes plus the sender's type hash, decoded lazily at the receive site
/// (where `T` is known).
enum Payload {
    Local(Box<dyn Any + Send>),
    Remote { type_hash: u64, encoded: Vec<u8> },
}

struct Envelope {
    src: usize,
    tag: u64,
    /// Virtual time at which the message is fully available at the receiver.
    arrival: f64,
    /// Logical payload size, carried so the receiver's trace span can report
    /// the same `bytes` the sender charged.
    bytes: usize,
    payload: Payload,
}

/// Marker published in place of a gathered vector when ranks contributed
/// mixed types to one collective round.
struct CollPoison;

/// Deadlock watchdog period: set `OVERSET_COMM_WATCHDOG=<seconds>` to make
/// every blocking wait (point-to-point recv, collective rendezvous, idle
/// M:N workers) report to stderr when it has been stuck longer than the
/// period. Diagnostic only — the wait then resumes; virtual time is
/// unaffected. A value that does not parse as a positive number of seconds
/// disables the watchdog with a one-time stderr warning (it used to be
/// silently ignored, which hid typos exactly when a hang investigation
/// needed the watchdog most).
fn watchdog_period() -> Option<std::time::Duration> {
    static PERIOD: std::sync::OnceLock<Option<std::time::Duration>> = std::sync::OnceLock::new();
    *PERIOD.get_or_init(|| {
        let raw = std::env::var("OVERSET_COMM_WATCHDOG").ok()?;
        match raw.parse::<f64>() {
            Ok(secs) if secs > 0.0 && secs.is_finite() => {
                Some(std::time::Duration::from_secs_f64(secs))
            }
            _ => {
                eprintln!(
                    "[overset-comm watchdog] ignoring OVERSET_COMM_WATCHDOG={raw:?}: \
                     expected a positive number of seconds; watchdog disabled"
                );
                None
            }
        }
    })
}

/// One rank's incoming message queue. `waiting` is true while the owner is
/// parked on the queue; it is only read and written under the mutex, so a
/// deliverer always knows whether a wake is needed and wakes can never be
/// lost.
struct MailboxInner {
    queue: VecDeque<Envelope>,
    waiting: bool,
}

struct Mailbox {
    m: Mutex<MailboxInner>,
    cv: Condvar,
}

/// What the first failing rank recorded before the universe was aborted.
struct FailureInfo {
    rank: usize,
    phase: &'static str,
    message: String,
}

/// State shared by every rank of a universe: mailboxes, the collective
/// rendezvous, the failure latch, per-rank completion flags, and (in M:N
/// mode) the scheduler's wakeup fabric.
struct Shared {
    size: usize,
    mailboxes: Vec<Mailbox>,
    coll: Collective,
    /// Raised (with release ordering) after `failure` is recorded; every
    /// blocking wait re-checks it after each park.
    aborted: AtomicBool,
    failure: Mutex<Option<FailureInfo>>,
    /// Set when a rank's body returns normally, so a peer still waiting on
    /// it gets [`OversetError::Disconnected`] instead of hanging.
    finished: Vec<AtomicBool>,
    /// Present in M:N mode only.
    mn: Option<Arc<sched::MnShared>>,
    /// Present in multi-process child mode only: the link to the parent
    /// router, shared with the socket-reader thread.
    proc: Option<Arc<ProcLink>>,
}

impl Shared {
    fn new(size: usize, mn: Option<Arc<sched::MnShared>>, proc: Option<Arc<ProcLink>>) -> Shared {
        Shared {
            size,
            mailboxes: (0..size)
                .map(|_| Mailbox {
                    m: Mutex::new(MailboxInner { queue: VecDeque::new(), waiting: false }),
                    cv: Condvar::new(),
                })
                .collect(),
            coll: Collective::new(size),
            aborted: AtomicBool::new(false),
            failure: Mutex::new(None),
            finished: (0..size).map(|_| AtomicBool::new(false)).collect(),
            mn,
            proc,
        }
    }

    /// Record a rank-body panic and unblock every peer. First failure wins:
    /// later failures (typically peers panicking on `AbortedByPeer` inside
    /// `recv`/`allgather` wrappers) are dropped, since the wake-all has
    /// already run. In child mode the failure is echoed to the parent
    /// router so the other rank groups shut down too.
    fn rank_failed(&self, rank: usize, phase: &'static str, message: String) {
        self.rank_failed_with(rank, phase, message, true);
    }

    /// A failure learned *from* the parent router (a peer group's panic, or
    /// the router disappearing): latch and unblock without echoing an Abort
    /// frame back.
    fn rank_failed_remote(&self, rank: usize, phase: &'static str, message: String) {
        self.rank_failed_with(rank, phase, message, false);
    }

    fn rank_failed_with(&self, rank: usize, phase: &'static str, message: String, echo: bool) {
        {
            let mut slot = self.failure.lock().expect("failure mutex poisoned");
            if slot.is_some() {
                return;
            }
            *slot = Some(FailureInfo { rank, phase, message: message.clone() });
        }
        if echo {
            if let Some(link) = &self.proc {
                link.send_abort(rank, phase, &message);
            }
        }
        self.aborted.store(true, Ordering::Release);
        for mb in &self.mailboxes {
            let mut inner = mb.m.lock().expect("mailbox poisoned");
            inner.waiting = false;
            mb.cv.notify_all();
        }
        {
            let mut inner = self.coll.m.lock().expect("collective mutex poisoned");
            inner.waiters.clear();
            self.coll.cv.notify_all();
        }
        if let Some(link) = &self.proc {
            // Ranks parked on a process-backed collective round.
            let mut inner = link.coll.lock().expect("proc collective poisoned");
            let waiters = std::mem::take(&mut inner.waiters);
            drop(inner);
            link.collcv.notify_all();
            if let Some(mn) = &self.mn {
                for r in waiters {
                    mn.wake(r);
                }
            }
        }
        if let Some(mn) = &self.mn {
            // Wake every virtual rank; parked ones re-check `aborted`,
            // finished ones are skipped by their worker.
            for r in 0..self.size {
                mn.wake(r);
            }
        }
    }

    /// Rank `rank`'s body returned normally: mark it and wake any peer
    /// currently parked in a receive, so waits on this rank fail fast. In
    /// child mode the completion is announced to the parent router, which
    /// relays it to the other rank groups.
    fn rank_finished(&self, rank: usize) {
        if let Some(link) = &self.proc {
            link.send_finish(rank);
        }
        self.rank_finished_notify(rank);
    }

    /// A remote rank's completion relayed by the parent router.
    fn rank_finished_remote(&self, rank: usize) {
        self.rank_finished_notify(rank);
    }

    fn rank_finished_notify(&self, rank: usize) {
        self.finished[rank].store(true, Ordering::Release);
        for (r, mb) in self.mailboxes.iter().enumerate() {
            if r == rank {
                continue;
            }
            let mut inner = mb.m.lock().expect("mailbox poisoned");
            if inner.waiting {
                inner.waiting = false;
                mb.cv.notify_all();
                if let Some(mn) = &self.mn {
                    mn.wake(r);
                }
            }
        }
    }
}

/// Extract a human-readable message from a panic payload.
fn panic_message(payload: Box<dyn Any + Send>) -> String {
    match payload.downcast::<&'static str>() {
        Ok(s) => (*s).to_string(),
        Err(p) => match p.downcast::<String>() {
            Ok(s) => *s,
            Err(_) => "non-string panic payload".to_string(),
        },
    }
}

/// Child-mode socket reader: drains frames from the parent router into the
/// local mailboxes, collective rounds and failure machinery. Runs on a
/// detached thread — it blocks in `read` between frames, and the child's
/// deliberate `exit(0)` after its rank group completes tears it down.
fn child_router(shared: &Shared, sock: &UnixStream) {
    let link = shared.proc.as_ref().expect("child router without a proc link");
    loop {
        let frame = match transport::read_frame(sock) {
            Ok(Some(f)) => f,
            Ok(None) | Err(_) => {
                // The parent died (or closed our socket) mid-run: without
                // the router no cross-group traffic can complete, so abort
                // the local ranks instead of hanging them.
                link.parent_gone.store(true, Ordering::SeqCst);
                if !shared.aborted.load(Ordering::Acquire) {
                    shared.rank_failed_remote(
                        link.lo,
                        "other",
                        "parent router process disconnected".to_string(),
                    );
                }
                return;
            }
        };
        match frame {
            transport::Frame::Data { dst, src, tag, arrival, bytes, type_hash, payload } => {
                if dst >= shared.size {
                    continue;
                }
                let env = Envelope {
                    src,
                    tag,
                    arrival,
                    bytes,
                    payload: Payload::Remote { type_hash, encoded: payload },
                };
                let mb = &shared.mailboxes[dst];
                let mut inner = mb.m.lock().expect("mailbox poisoned");
                inner.queue.push_back(env);
                if inner.waiting {
                    inner.waiting = false;
                    mb.cv.notify_all();
                    if let Some(mn) = &shared.mn {
                        mn.wake(dst);
                    }
                }
            }
            transport::Frame::CollResult { round, round_clock, poison, blobs } => {
                let mut inner = link.coll.lock().expect("proc collective poisoned");
                inner.rounds.insert(
                    round,
                    ProcRound {
                        round_clock,
                        poison,
                        blobs: Arc::new(blobs),
                        readers_left: link.hi - link.lo,
                    },
                );
                let waiters = std::mem::take(&mut inner.waiters);
                drop(inner);
                link.collcv.notify_all();
                if let Some(mn) = &shared.mn {
                    for r in waiters {
                        mn.wake(r);
                    }
                }
            }
            transport::Frame::Finish { rank } if rank < shared.size => {
                shared.rank_finished_remote(rank);
            }
            transport::Frame::Abort { rank, phase, message } => {
                shared.rank_failed_remote(rank, intern(&phase), message);
            }
            // Hello/Coll/Done/Bye only ever travel child -> parent.
            _ => {}
        }
    }
}

struct CollInner {
    generation: u64,
    arrived: usize,
    max_clock: f64,
    slots: Vec<Option<Box<dyn Any + Send>>>,
    published: Option<Arc<dyn Any + Send + Sync>>,
    published_clock: f64,
    readers_left: usize,
    /// M:N mode: virtual ranks parked in a collective wait, to be woken
    /// when the round publishes or advances. Duplicates are harmless
    /// (parked ranks re-check their predicate on every resume).
    waiters: Vec<usize>,
}

struct Collective {
    m: Mutex<CollInner>,
    cv: Condvar,
}

impl Collective {
    fn new(n: usize) -> Self {
        Collective {
            m: Mutex::new(CollInner {
                generation: 0,
                arrived: 0,
                max_clock: f64::NEG_INFINITY,
                slots: (0..n).map(|_| None).collect(),
                published: None,
                published_clock: 0.0,
                readers_left: 0,
                waiters: Vec::new(),
            }),
            cv: Condvar::new(),
        }
    }
}

/// Per-rank communicator handle. Created by [`Universe`]; owns the rank's
/// virtual clock, statistics, metrics registry, optional tracer, and its
/// view of the shared mailbox/collective state.
pub struct Comm {
    rank: usize,
    size: usize,
    machine: Arc<MachineModel>,
    clock: f64,
    working_set_bytes: f64,
    shared: Arc<Shared>,
    pending: Vec<Envelope>,
    coll_gen: u64,
    stats: RankStats,
    metrics: MetricsRegistry,
    flight: FlightRecorder,
    tracer: Option<Tracer>,
    phase: Phase,
    phase_start: f64,
    /// Host wall-clock seconds spent per phase on this rank — the *real*
    /// cost of the run, as opposed to the deterministic virtual clock. Only
    /// ever reported in advisory channels; nothing bit-compared reads it.
    host_time: [f64; NUM_PHASES],
    /// Host instant of the last phase switch.
    phase_host_start: Instant,
    /// Per-rank allocation counters; the thread-local allocator context
    /// points at this block while the rank body runs (see [`crate::alloc`]).
    alloc_counters: Arc<RankAllocCounters>,
    /// Set by the innermost [`PhaseGuard`] unwound through during a panic,
    /// so the failure report names the phase the rank was actually in.
    panicked_phase: Option<&'static str>,
}

/// RAII phase scope: created by [`Comm::phase`]; while alive, virtual time
/// and flops accrue to its phase; dropping it restores the previous phase
/// (flushing elapsed time) and, when tracing, emits a `phase` span covering
/// the scope. Derefs to [`Comm`], so communication happens *through* the
/// guard — phase attribution cannot be left dangling.
pub struct PhaseGuard<'a> {
    comm: &'a mut Comm,
    prev: Phase,
    start: f64,
}

impl Deref for PhaseGuard<'_> {
    type Target = Comm;
    fn deref(&self) -> &Comm {
        self.comm
    }
}

impl DerefMut for PhaseGuard<'_> {
    fn deref_mut(&mut self) -> &mut Comm {
        self.comm
    }
}

impl Drop for PhaseGuard<'_> {
    fn drop(&mut self) {
        let ended = self.comm.phase;
        if std::thread::panicking() && self.comm.panicked_phase.is_none() {
            // Innermost guard drops first during unwinding — `ended` is the
            // phase the panic actually happened in.
            self.comm.panicked_phase = Some(ended.name());
        }
        let start = self.start;
        let dur = self.comm.clock - start;
        self.comm.switch_phase(self.prev);
        if let Some(t) = &mut self.comm.tracer {
            t.complete("phase", ended.name(), start, dur, Vec::new());
        }
    }
}

impl Comm {
    #[inline]
    pub fn rank(&self) -> usize {
        self.rank
    }

    #[inline]
    pub fn size(&self) -> usize {
        self.size
    }

    #[inline]
    pub fn machine(&self) -> &MachineModel {
        &self.machine
    }

    /// Current virtual time, seconds.
    #[inline]
    pub fn now(&self) -> f64 {
        self.clock
    }

    /// The rank's metrics registry (read side).
    #[inline]
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// The rank's metrics registry (record side).
    #[inline]
    pub fn metrics_mut(&mut self) -> &mut MetricsRegistry {
        &mut self.metrics
    }

    /// Is event tracing active on this rank?
    #[inline]
    pub fn tracing_enabled(&self) -> bool {
        self.tracer.is_some()
    }

    /// Record a completed span from virtual time `start` to now. No-op
    /// (one branch) when tracing is disabled.
    #[inline]
    pub fn trace_complete(
        &mut self,
        cat: &'static str,
        name: &'static str,
        start: f64,
        args: &[(&'static str, ArgVal)],
    ) {
        if let Some(t) = &mut self.tracer {
            let _quiet = alloc::suspend();
            let dur = self.clock - start;
            t.complete(cat, name, start, dur, args.to_vec());
        }
    }

    /// Set the per-rank working set used by the cache model (bytes).
    pub fn set_working_set(&mut self, bytes: f64) {
        self.working_set_bytes = bytes;
    }

    /// Close the current timestep for the flight recorder: flushes the open
    /// phase's elapsed time and appends one [`StepRecord`] of per-step
    /// deltas (phase times, service/orphan/cache counters, traffic,
    /// repartitions). Reads only existing state — never advances the
    /// virtual clock, so recording is physics- and timing-neutral.
    ///
    /// In M:N mode a step boundary is also a fairness point: the rank
    /// requeues itself and yields so sibling ranks on the same worker make
    /// progress. This affects wall-clock interleaving only, never virtual
    /// time.
    pub fn end_step(&mut self) {
        // Recorder/sink bookkeeping is runtime overhead, not rank work.
        let _quiet = alloc::suspend();
        let phase = self.phase;
        self.switch_phase(phase); // flush elapsed time, keep the phase
        let (rec, arec) = self.flight.end_step(
            &self.stats,
            &self.metrics,
            self.clock,
            self.alloc_counters.snapshot(),
        );
        if let Some(t) = &mut self.tracer {
            t.record_step(&rec);
            t.record_alloc_step(&arec);
        }
        if let Some(mn) = &self.shared.mn {
            mn.wake(self.rank);
            sched::mn_yield();
        }
    }

    /// Per-step records collected so far (oldest retained first).
    pub fn step_records(&self) -> impl Iterator<Item = &StepRecord> + '_ {
        self.flight.records()
    }

    /// Enter `phase` for the lifetime of the returned guard. Statistics
    /// time accrues to the phase that was active up to this call; the
    /// guard's drop restores it.
    pub fn phase(&mut self, phase: Phase) -> PhaseGuard<'_> {
        let prev = self.switch_phase(phase);
        let start = self.clock;
        PhaseGuard { comm: self, prev, start }
    }

    /// The phase statistics currently accrue to.
    #[inline]
    pub fn current_phase(&self) -> Phase {
        self.phase
    }

    /// Switch the statistics phase, flushing elapsed time into the bucket
    /// of the phase that was active. Internal: external callers scope
    /// phases with [`Comm::phase`].
    fn switch_phase(&mut self, phase: Phase) -> Phase {
        let elapsed = self.clock - self.phase_start;
        self.stats.time[self.phase as usize] += elapsed;
        let host_now = Instant::now();
        self.host_time[self.phase as usize] +=
            host_now.duration_since(self.phase_host_start).as_secs_f64();
        let prev = self.phase;
        self.phase = phase;
        alloc::set_phase(phase);
        self.phase_start = self.clock;
        self.phase_host_start = host_now;
        prev
    }

    /// Account `flops` of `class` compute work: advances the virtual clock
    /// and the flop counters.
    pub fn compute(&mut self, flops: f64, class: WorkClass) {
        debug_assert!(flops >= 0.0);
        let t0 = self.clock;
        let dt = self.machine.compute_time(flops, class, self.working_set_bytes);
        self.clock += dt;
        self.stats.flops[self.phase as usize] += flops;
        if let Some(t) = &mut self.tracer {
            let _quiet = alloc::suspend();
            let name = match class {
                WorkClass::Flow => "flow",
                WorkClass::Search => "search",
                WorkClass::Other => "other",
            };
            t.complete("compute", name, t0, dt, vec![("flops", ArgVal::F64(flops))]);
        }
    }

    /// Advance the clock without doing flops (e.g. fixed overheads).
    pub fn advance(&mut self, seconds: f64) {
        debug_assert!(seconds >= 0.0);
        self.clock += seconds;
    }

    /// The error a blocked rank reports when it was woken because a peer
    /// panicked.
    fn abort_error(&self) -> OversetError {
        let failed_rank = self
            .shared
            .failure
            .lock()
            .expect("failure mutex poisoned")
            .as_ref()
            .map_or(self.rank, |f| f.rank);
        OversetError::AbortedByPeer { rank: self.rank, failed_rank }
    }

    /// Send `payload` (logical size `bytes`) to `dst` with a message `tag`.
    /// Non-blocking (asynchronous send, as DCF3D's search requests are).
    ///
    /// The payload must be a [`Wire`] type: the in-process backend still
    /// hands the value across directly, but the bound guarantees every
    /// protocol message has a byte representation, so the same program runs
    /// unchanged on the multi-process backend.
    pub fn send<T: Wire + Send + 'static>(
        &mut self,
        dst: usize,
        tag: u64,
        payload: T,
        bytes: usize,
    ) {
        assert!(dst < self.size, "send to rank {dst} of {}", self.size);
        // Delivery machinery (envelope boxing, mailbox growth, socket
        // buffers) allocates in host-timing-dependent patterns — exclude it
        // from attribution so per-phase alloc counts stay deterministic.
        let _quiet = alloc::suspend();
        let t0 = self.clock;
        self.clock += self.machine.send_overhead;
        let arrival = self.clock + self.machine.transit_time(bytes);
        self.stats.msgs_sent += 1;
        self.stats.bytes_sent += bytes as u64;
        self.metrics.inc(names::msgs_in(self.phase));
        self.metrics.add(names::bytes_in(self.phase), bytes as u64);
        if let Some(t) = &mut self.tracer {
            let _quiet = alloc::suspend();
            t.complete(
                "comm",
                "send",
                t0,
                self.machine.send_overhead,
                vec![
                    ("dst", ArgVal::U64(dst as u64)),
                    ("tag", ArgVal::U64(tag)),
                    ("bytes", ArgVal::U64(bytes as u64)),
                ],
            );
        }
        if let Some(link) = &self.shared.proc {
            if dst < link.lo || dst >= link.hi {
                // Cross-process: encode and hand to the parent router. The
                // arrival stamp was computed above from local virtual state,
                // so timing is identical to the in-process delivery path.
                link.send_data(
                    dst,
                    self.rank,
                    tag,
                    arrival,
                    bytes,
                    wire_type_hash::<T>(),
                    payload.to_wire_bytes(),
                );
                return;
            }
        }
        let env = Envelope {
            src: self.rank,
            tag,
            arrival,
            bytes,
            payload: Payload::Local(Box::new(payload)),
        };
        let mb = &self.shared.mailboxes[dst];
        let mut inner = mb.m.lock().expect("mailbox poisoned");
        inner.queue.push_back(env);
        if inner.waiting {
            inner.waiting = false;
            mb.cv.notify_all();
            if let Some(mn) = &self.shared.mn {
                mn.wake(dst);
            }
        }
    }

    /// Blocking receive of a message of type `T` from `src` with `tag`.
    /// Advances the clock to at least the message arrival time.
    ///
    /// Convenience wrapper over [`Comm::try_recv`] that treats failure as
    /// an internal protocol invariant violation (panics). Fallible callers
    /// use `try_recv`.
    pub fn recv<T: Wire + Send + 'static>(&mut self, src: usize, tag: u64) -> T {
        self.try_recv(src, tag).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Blocking receive of a message of type `T` from `src` with `tag`,
    /// surfacing type mismatches, wire-decode failures, finished senders
    /// and peer failures as [`OversetError`].
    pub fn try_recv<T: Wire + Send + 'static>(
        &mut self,
        src: usize,
        tag: u64,
    ) -> Result<T, OversetError> {
        // Out-of-order buffering in `take_matching` (and payload decode on
        // the process transport) allocates depending on arrival interleaving
        // — runtime machinery, excluded from attribution.
        let _quiet = alloc::suspend();
        let t0 = self.clock;
        let env = self.take_matching(src, tag)?;
        let stall = (env.arrival - self.clock).max(0.0);
        // Time the fully-arrived message sat buffered before this receive —
        // the Scalasca-style "late receiver" complement of `stall`.
        let idle = (self.clock - env.arrival).max(0.0);
        self.clock = self.clock.max(env.arrival);
        self.metrics.observe(names::COMM_RECV_STALL, stall);
        if let Some(t) = &mut self.tracer {
            let _quiet = alloc::suspend();
            t.complete(
                "comm",
                "recv",
                t0,
                self.clock - t0,
                vec![
                    ("src", ArgVal::U64(src as u64)),
                    ("tag", ArgVal::U64(tag)),
                    ("bytes", ArgVal::U64(env.bytes as u64)),
                    ("stall", ArgVal::F64(stall)),
                    ("idle", ArgVal::F64(idle)),
                ],
            );
        }
        match env.payload {
            Payload::Local(b) => match b.downcast::<T>() {
                Ok(v) => Ok(*v),
                Err(_) => Err(OversetError::TypeMismatch {
                    rank: self.rank,
                    src,
                    tag,
                    expected: std::any::type_name::<T>(),
                }),
            },
            Payload::Remote { type_hash, encoded } => {
                if type_hash != wire_type_hash::<T>() {
                    return Err(OversetError::TypeMismatch {
                        rank: self.rank,
                        src,
                        tag,
                        expected: std::any::type_name::<T>(),
                    });
                }
                T::from_wire_bytes(&encoded).map_err(|e| OversetError::WireDecode {
                    rank: self.rank,
                    src,
                    tag,
                    detail: e.to_string(),
                })
            }
        }
    }

    fn take_matching(&mut self, src: usize, tag: u64) -> Result<Envelope, OversetError> {
        if let Some(pos) = self.pending.iter().position(|e| e.src == src && e.tag == tag) {
            // Order-preserving removal: multiple buffered messages with the
            // same (src, tag) must be consumed FIFO (e.g. pipelined line
            // chunks).
            return Ok(self.pending.remove(pos));
        }
        let shared = Arc::clone(&self.shared);
        let mb = &shared.mailboxes[self.rank];
        let mut inner = mb.m.lock().expect("mailbox poisoned");
        loop {
            inner.waiting = false;
            // Drain everything delivered so far; non-matching messages go to
            // the pending buffer in delivery order.
            let mut found = None;
            while let Some(env) = inner.queue.pop_front() {
                if env.src == src && env.tag == tag {
                    found = Some(env);
                    break;
                }
                self.pending.push(env);
            }
            if let Some(env) = found {
                return Ok(env);
            }
            if shared.aborted.load(Ordering::Acquire) {
                return Err(self.abort_error());
            }
            if shared.finished[src].load(Ordering::Acquire) {
                return Err(OversetError::Disconnected { rank: self.rank, src, tag });
            }
            inner.waiting = true;
            if shared.mn.is_some() {
                // M:N: give the OS thread back to the worker; a deliverer
                // (or abort/finish) wakes this rank through the scheduler.
                drop(inner);
                sched::mn_yield();
                inner = mb.m.lock().expect("mailbox poisoned");
            } else {
                inner = match watchdog_period() {
                    None => mb.cv.wait(inner).expect("mailbox poisoned"),
                    Some(period) => {
                        let (g, to) = mb.cv.wait_timeout(inner, period).expect("mailbox poisoned");
                        if to.timed_out() {
                            let buffered: Vec<(usize, u64)> =
                                self.pending.iter().map(|e| (e.src, e.tag)).collect();
                            eprintln!(
                                "[overset-comm watchdog] rank {} stuck in recv(src={src}, tag={tag}); \
                                 buffered={buffered:?}",
                                self.rank
                            );
                        }
                        g
                    }
                };
            }
        }
    }

    /// Synchronize all ranks: everyone leaves with the same clock (round max
    /// plus the collective cost).
    pub fn barrier(&mut self) {
        let _: Vec<u8> = self.allgather_inner("barrier", 0u8, 8).unwrap_or_else(|e| panic!("{e}"));
    }

    /// All-gather: every rank contributes `value` (logical size `bytes`) and
    /// receives the vector of all contributions indexed by rank.
    ///
    /// Convenience wrapper over [`Comm::try_allgather`] that treats failure
    /// as an internal protocol invariant violation (panics).
    pub fn allgather<T: Wire + Clone + Send + Sync + 'static>(
        &mut self,
        value: T,
        bytes: usize,
    ) -> Vec<T> {
        self.try_allgather(value, bytes).unwrap_or_else(|e| panic!("{e}"))
    }

    /// All-gather surfacing mixed-type collectives and peer failures as
    /// [`OversetError`].
    pub fn try_allgather<T: Wire + Clone + Send + Sync + 'static>(
        &mut self,
        value: T,
        bytes: usize,
    ) -> Result<Vec<T>, OversetError> {
        self.allgather_inner("allgather", value, bytes)
    }

    fn allgather_inner<T: Wire + Clone + Send + Sync + 'static>(
        &mut self,
        span_name: &'static str,
        value: T,
        bytes: usize,
    ) -> Result<Vec<T>, OversetError> {
        // Rendezvous buffers (which rank gathers, how many wait-loop
        // iterations run) depend on host timing — excluded from attribution.
        let _quiet = alloc::suspend();
        let t0 = self.clock;
        // Rendezvous through whichever fabric carries collectives, then
        // apply the backend-independent virtual-time tail. The round clock
        // is the max over contributing clocks — an order-independent fold,
        // so it is bit-identical across backends.
        let (result, round_clock) = if self.shared.proc.is_some() {
            self.proc_allgather(value)?
        } else {
            self.local_allgather(value)?
        };
        self.clock = round_clock + self.machine.collective_time(self.size, bytes * self.size);
        self.stats.collectives += 1;
        self.metrics.inc(names::COMM_COLLECTIVES);
        if let Some(t) = &mut self.tracer {
            let _quiet = alloc::suspend();
            t.complete(
                "comm",
                span_name,
                t0,
                self.clock - t0,
                vec![("bytes", ArgVal::U64(bytes as u64))],
            );
        }
        Ok(result)
    }

    /// In-process collective: rendezvous through the shared [`Collective`];
    /// the last arriver gathers and publishes. Returns the contributions in
    /// rank order plus the round clock.
    fn local_allgather<T: Clone + Send + Sync + 'static>(
        &mut self,
        value: T,
    ) -> Result<(Vec<T>, f64), OversetError> {
        let gen = self.coll_gen;
        self.coll_gen += 1;
        let shared = Arc::clone(&self.shared);
        let coll = &shared.coll;
        let mut inner = coll.m.lock().expect("collective mutex poisoned");
        // Wait for our round to open (previous round fully consumed).
        while inner.generation != gen {
            if shared.aborted.load(Ordering::Acquire) {
                return Err(self.abort_error());
            }
            if shared.mn.is_some() {
                inner.waiters.push(self.rank);
                drop(inner);
                sched::mn_yield();
                inner = coll.m.lock().expect("collective mutex poisoned");
            } else {
                inner = match watchdog_period() {
                    None => coll.cv.wait(inner).expect("collective mutex poisoned"),
                    Some(period) => {
                        let (g, to) =
                            coll.cv.wait_timeout(inner, period).expect("collective mutex poisoned");
                        if to.timed_out() {
                            eprintln!(
                                "[overset-comm watchdog] rank {} stuck opening collective round \
                                 gen={gen} (current generation={}, arrived={}/{}, readers_left={})",
                                self.rank, g.generation, g.arrived, self.size, g.readers_left
                            );
                        }
                        g
                    }
                };
            }
        }
        inner.slots[self.rank] = Some(Box::new(value));
        inner.arrived += 1;
        inner.max_clock = inner.max_clock.max(self.clock);
        if inner.arrived == self.size {
            // Last arriver gathers and publishes. If any rank contributed a
            // different type, publish a poison marker so every rank reports
            // the mismatch instead of deadlocking.
            let mut gathered: Vec<T> = Vec::with_capacity(self.size);
            let mut poisoned = false;
            for s in inner.slots.iter_mut() {
                let b = s.take().expect("missing collective slot");
                match b.downcast::<T>() {
                    Ok(v) => gathered.push(*v),
                    Err(_) => poisoned = true,
                }
            }
            inner.published =
                Some(if poisoned { Arc::new(CollPoison) } else { Arc::new(gathered) });
            inner.published_clock = inner.max_clock;
            inner.readers_left = self.size;
            inner.arrived = 0;
            inner.max_clock = f64::NEG_INFINITY;
            let waiters = std::mem::take(&mut inner.waiters);
            coll.cv.notify_all();
            if let Some(mn) = &shared.mn {
                for r in waiters {
                    mn.wake(r);
                }
            }
        } else {
            while inner.published.is_none() || inner.generation != gen {
                if shared.aborted.load(Ordering::Acquire) {
                    return Err(self.abort_error());
                }
                if shared.mn.is_some() {
                    inner.waiters.push(self.rank);
                    drop(inner);
                    sched::mn_yield();
                    inner = coll.m.lock().expect("collective mutex poisoned");
                } else {
                    inner = match watchdog_period() {
                        None => coll.cv.wait(inner).expect("collective mutex poisoned"),
                        Some(period) => {
                            let (g, to) = coll
                                .cv
                                .wait_timeout(inner, period)
                                .expect("collective mutex poisoned");
                            if to.timed_out() {
                                eprintln!(
                                    "[overset-comm watchdog] rank {} stuck in collective round \
                                     gen={gen} (arrived={}/{}, published={})",
                                    self.rank,
                                    g.arrived,
                                    self.size,
                                    g.published.is_some()
                                );
                            }
                            g
                        }
                    };
                }
            }
        }
        let arc = inner.published.clone().expect("published result");
        let round_clock = inner.published_clock;
        inner.readers_left -= 1;
        if inner.readers_left == 0 {
            inner.published = None;
            inner.generation = gen + 1;
            let waiters = std::mem::take(&mut inner.waiters);
            coll.cv.notify_all();
            if let Some(mn) = &shared.mn {
                for r in waiters {
                    mn.wake(r);
                }
            }
        }
        drop(inner);
        let result = match arc.downcast::<Vec<T>>() {
            Ok(v) => v.as_ref().clone(),
            Err(_) => {
                return Err(OversetError::CollectiveMismatch {
                    rank: self.rank,
                    expected: std::any::type_name::<T>(),
                })
            }
        };
        Ok((result, round_clock))
    }

    /// Process-backed collective: ship this rank's contribution to the
    /// parent router, wait for the aggregated round, decode every rank's
    /// blob. Round numbers are each rank's private collective counter —
    /// every rank executes the same collective sequence, so counter values
    /// agree globally without coordination.
    fn proc_allgather<T: Wire + 'static>(
        &mut self,
        value: T,
    ) -> Result<(Vec<T>, f64), OversetError> {
        let round = self.coll_gen;
        self.coll_gen += 1;
        let shared = Arc::clone(&self.shared);
        let link = shared.proc.as_ref().expect("proc_allgather without a proc link");
        link.send_coll(round, self.rank, self.clock, wire_type_hash::<T>(), value.to_wire_bytes());
        let mut inner = link.coll.lock().expect("proc collective poisoned");
        loop {
            if shared.aborted.load(Ordering::Acquire) {
                return Err(self.abort_error());
            }
            if let Some(r) = inner.rounds.get_mut(&round) {
                let round_clock = r.round_clock;
                let poison = r.poison;
                let blobs = Arc::clone(&r.blobs);
                r.readers_left -= 1;
                if r.readers_left == 0 {
                    inner.rounds.remove(&round);
                }
                drop(inner);
                if poison {
                    return Err(OversetError::CollectiveMismatch {
                        rank: self.rank,
                        expected: std::any::type_name::<T>(),
                    });
                }
                let mut out = Vec::with_capacity(blobs.len());
                for (src, blob) in blobs.iter().enumerate() {
                    out.push(T::from_wire_bytes(blob).map_err(|e| OversetError::WireDecode {
                        rank: self.rank,
                        src,
                        tag: round,
                        detail: format!("collective round {round}: {e}"),
                    })?);
                }
                return Ok((out, round_clock));
            }
            if shared.mn.is_some() {
                inner.waiters.push(self.rank);
                drop(inner);
                sched::mn_yield();
                inner = link.coll.lock().expect("proc collective poisoned");
            } else {
                inner = match watchdog_period() {
                    None => link.collcv.wait(inner).expect("proc collective poisoned"),
                    Some(period) => {
                        let (g, to) = link
                            .collcv
                            .wait_timeout(inner, period)
                            .expect("proc collective poisoned");
                        if to.timed_out() {
                            eprintln!(
                                "[overset-comm watchdog] rank {} stuck in process-backed \
                                 collective round {round} (resolved rounds: {:?})",
                                self.rank,
                                g.rounds.keys().collect::<Vec<_>>()
                            );
                        }
                        g
                    }
                };
            }
        }
    }

    /// All-reduce max over f64.
    pub fn allreduce_max(&mut self, value: f64) -> f64 {
        self.allgather(value, 8).into_iter().fold(f64::NEG_INFINITY, f64::max)
    }

    /// All-reduce sum over f64.
    pub fn allreduce_sum(&mut self, value: f64) -> f64 {
        self.allgather(value, 8).into_iter().sum()
    }

    /// All-reduce sum over usize.
    pub fn allreduce_sum_usize(&mut self, value: usize) -> usize {
        self.allgather(value, 8).into_iter().sum()
    }

    /// Finalize statistics (closes the open phase) and return them together
    /// with the recorded trace, the metrics registry, the flight recorder's
    /// per-step records, the host wall-clock phase times, and the rank's
    /// allocation telemetry. Closes the streaming sink (flush + footer)
    /// when one is attached.
    fn finish(mut self) -> FinishedRank {
        let phase = self.phase;
        self.switch_phase(phase); // flush elapsed time into the current bucket
        self.stats.final_clock = self.clock;
        let (steps, alloc_steps, dropped) = self.flight.into_records();
        let trace = self.tracer.take().map(|t| t.finish(dropped)).unwrap_or_default();
        FinishedRank {
            stats: self.stats,
            trace,
            metrics: self.metrics,
            steps,
            steps_dropped: dropped,
            host_time: self.host_time,
            alloc_steps,
            alloc: self.alloc_counters.totals(),
        }
    }
}

/// Everything [`Comm::finish`] hands back to `run_ranks` for one rank —
/// [`RankOutput`] minus the rank body's result.
struct FinishedRank {
    stats: RankStats,
    trace: Vec<TraceEvent>,
    metrics: MetricsRegistry,
    steps: Vec<StepRecord>,
    steps_dropped: u64,
    host_time: [f64; NUM_PHASES],
    alloc_steps: Vec<AllocRecord>,
    alloc: AllocTotals,
}

/// Result of one rank's execution under [`Universe`].
#[derive(Clone, Debug)]
pub struct RankOutput<R> {
    pub result: R,
    pub stats: RankStats,
    /// Virtual-time spans recorded on this rank (empty unless the universe
    /// was built with tracing enabled).
    pub trace: Vec<TraceEvent>,
    /// This rank's metrics registry.
    pub metrics: MetricsRegistry,
    /// Per-timestep telemetry recorded by [`Comm::end_step`], oldest
    /// retained record first (the ring may have evicted early steps — see
    /// `steps_dropped`). Empty when the rank body never called `end_step`.
    pub steps: Vec<StepRecord>,
    /// Step records evicted by the flight-recorder ring bound.
    pub steps_dropped: u64,
    /// Host wall-clock seconds per phase on this rank. Nondeterministic:
    /// useful for advisory profiling (`repro compare` host notes, `repro
    /// analyze --host`), never bit-compared.
    pub host_time: [f64; NUM_PHASES],
    /// Per-step allocation deltas, in lockstep with `steps` (same ring, so
    /// `steps_dropped` covers both). Counts/bytes are deterministic for
    /// deterministic rank code — see [`crate::alloc`].
    pub alloc_steps: Vec<AllocRecord>,
    /// End-of-run allocation totals for this rank. All fields deterministic
    /// except `peak_bytes` (allocation-order-dependent, advisory only).
    pub alloc: AllocTotals,
}

// A child process ships each rank's whole output (result, stats, trace,
// metrics, flight telemetry, host timings, allocation telemetry) back to
// the parent as one wire value. Wire schema v2 appended `host_time`; v3
// appended `alloc_steps` + `alloc` — see docs/TRANSPORT.md.
impl<R: Wire> Wire for RankOutput<R> {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.result.encode(buf);
        self.stats.encode(buf);
        self.trace.encode(buf);
        self.metrics.encode(buf);
        self.steps.encode(buf);
        self.steps_dropped.encode(buf);
        self.host_time.encode(buf);
        self.alloc_steps.encode(buf);
        self.alloc.encode(buf);
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(RankOutput {
            result: R::decode(r)?,
            stats: RankStats::decode(r)?,
            trace: Vec::decode(r)?,
            metrics: MetricsRegistry::decode(r)?,
            steps: Vec::decode(r)?,
            steps_dropped: u64::decode(r)?,
            host_time: <[f64; NUM_PHASES]>::decode(r)?,
            alloc_steps: Vec::decode(r)?,
            alloc: AllocTotals::decode(r)?,
        })
    }
}

/// The simulated parallel machine. Configure one with
/// [`Universe::builder`]:
///
/// ```
/// use overset_comm::prelude::*;
///
/// let out = Universe::builder()
///     .ranks(4)
///     .machine(&MachineModel::modern())
///     .trace(TraceConfig::enabled())
///     .run(|c| c.rank() * 2);
/// assert_eq!(out[2].result, 4);
/// ```
pub struct Universe;

/// Builder for a universe run: rank count, machine model, tracing, the
/// flight-recorder ring capacity, the scheduler mode
/// ([`UniverseBuilder::max_threads`]) and the transport backend
/// ([`UniverseBuilder::transport`]).
#[derive(Clone, Debug)]
pub struct UniverseBuilder {
    ranks: usize,
    machine: MachineModel,
    trace: TraceConfig,
    step_capacity: usize,
    max_threads: Option<usize>,
    stack_size: usize,
    transport: TransportConfig,
}

impl Universe {
    pub fn builder() -> UniverseBuilder {
        UniverseBuilder {
            ranks: 1,
            machine: MachineModel::modern(),
            trace: TraceConfig::disabled(),
            step_capacity: DEFAULT_STEP_CAPACITY,
            max_threads: None,
            stack_size: sched::DEFAULT_STACK_SIZE,
            transport: TransportConfig::InProcess,
        }
    }
}

impl UniverseBuilder {
    pub fn ranks(mut self, n: usize) -> Self {
        self.ranks = n;
        self
    }

    pub fn machine(mut self, m: &MachineModel) -> Self {
        self.machine = m.clone();
        self
    }

    pub fn trace(mut self, cfg: TraceConfig) -> Self {
        self.trace = cfg;
        self
    }

    /// Flight-recorder ring capacity: at most this many most-recent
    /// [`StepRecord`]s are retained per rank (default
    /// [`DEFAULT_STEP_CAPACITY`]).
    pub fn step_capacity(mut self, cap: usize) -> Self {
        self.step_capacity = cap;
        self
    }

    /// Bound the number of OS threads used to execute the ranks.
    ///
    /// Default (unset): one OS thread per rank. With `n < ranks`, the
    /// runtime switches to M:N mode — ranks run as cooperative coroutines
    /// multiplexed onto `n` worker threads, yielding at every communication
    /// point — which is how rank counts far beyond the host's core count
    /// stay runnable. Virtual times are **bit-identical** between the two
    /// modes for the same configuration. On targets without the coroutine
    /// context switch (non-x86-64), the builder warns once and falls back
    /// to one thread per rank.
    pub fn max_threads(mut self, n: usize) -> Self {
        assert!(n >= 1, "max_threads must be at least 1");
        self.max_threads = Some(n);
        self
    }

    /// Per-virtual-rank coroutine stack size in M:N mode, bytes (default
    /// 2 MiB, minimum 64 KiB). Ignored in 1:1 mode.
    pub fn stack_size(mut self, bytes: usize) -> Self {
        self.stack_size = bytes;
        self
    }

    /// Select the transport backend (default
    /// [`TransportConfig::InProcess`]). With a process transport, `run`
    /// forks rank-group processes and this process routes frames between
    /// them; virtual times, statistics and metrics are bit-identical to an
    /// in-process run of the same configuration. See [`crate::transport`].
    pub fn transport(mut self, t: TransportConfig) -> Self {
        self.transport = t;
        self
    }

    /// Run `f` on every rank. Returns per-rank outputs in rank order. A
    /// panic in any rank body is re-raised here with the failing rank,
    /// phase and message (see [`UniverseBuilder::try_run`] to handle it as
    /// an error instead).
    pub fn run<R, F>(self, f: F) -> Vec<RankOutput<R>>
    where
        R: Wire + Send,
        F: Fn(&mut Comm) -> R + Send + Sync,
    {
        self.try_run(f).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Run `f` on every rank, surfacing a rank-body panic as
    /// [`OversetError::RankPanicked`] naming the failing rank and the
    /// statistics phase it was in. Peers blocked in communication are
    /// unblocked (their calls return [`OversetError::AbortedByPeer`], which
    /// the panicking wrappers re-raise) so the universe shuts down instead
    /// of hanging. On a process transport, a rank-group process that dies
    /// without a clean goodbye (killed, `exit` mid-run) surfaces as
    /// `RankPanicked` too, with its surviving peer groups aborted.
    ///
    /// With a process transport this call is also where the current process
    /// may discover it *is* one of the rank-group children: it then runs
    /// only its rank subrange, ships the outputs back over its socket and
    /// exits — code after this call never runs in a child.
    pub fn try_run<R, F>(self, f: F) -> Result<Vec<RankOutput<R>>, OversetError>
    where
        R: Wire + Send,
        F: Fn(&mut Comm) -> R + Send + Sync,
    {
        let nranks = self.ranks;
        assert!(nranks >= 1);
        let fabric = self.transport.instantiate().establish(nranks)?;
        match fabric.0 {
            FabricInner::Local => self.run_ranks(&f, 0, nranks, None),
            FabricInner::Child(cf) => {
                if cf.nranks != nranks {
                    return Err(OversetError::Setup(format!(
                        "process transport: parent established {} ranks but this child's \
                         universe asks for {nranks}",
                        cf.nranks
                    )));
                }
                let (link, reader) = cf.split()?;
                let lo = link.lo;
                let result =
                    self.run_ranks(&f, link.lo, link.hi, Some((Arc::clone(&link), reader)));
                if let Ok(outputs) = &result {
                    for (i, out) in outputs.iter().enumerate() {
                        link.send_done(lo + i, out.to_wire_bytes());
                    }
                }
                // A failure was already echoed to the parent as an Abort
                // frame by the failing rank, so the Err branch has nothing
                // left to report.
                link.send_bye();
                // This process replayed the program only to execute this
                // rank group; nothing after the universe may run twice.
                std::process::exit(0);
            }
            FabricInner::Parent(pf) => pf.run::<R>(),
        }
    }

    /// Execute ranks `lo..hi` of a `self.ranks`-rank universe in this
    /// process; `proc` carries the parent link and the socket to drain in
    /// child mode. The in-process backend is the `(0, nranks, None)` case.
    fn run_ranks<R, F>(
        self,
        f: &F,
        lo: usize,
        hi: usize,
        proc: Option<(Arc<ProcLink>, UnixStream)>,
    ) -> Result<Vec<RankOutput<R>>, OversetError>
    where
        R: Wire + Send,
        F: Fn(&mut Comm) -> R + Send + Sync,
    {
        let nranks = self.ranks;
        let nlocal = hi - lo;
        let use_mn = match self.max_threads {
            Some(n) if n < nlocal => {
                if sched::MN_AVAILABLE {
                    true
                } else {
                    eprintln!(
                        "[overset-comm] max_threads({n}) requested but the M:N scheduler is \
                         not available on this target; running one thread per rank"
                    );
                    false
                }
            }
            _ => false,
        };
        let mn = use_mn.then(|| Arc::new(sched::MnShared::new(self.max_threads.unwrap())));
        let machine = Arc::new(self.machine.clone());
        let (link, reader) = match proc {
            Some((link, reader)) => (Some(link), Some(reader)),
            None => (None, None),
        };
        let shared = Arc::new(Shared::new(nranks, mn, link));
        if let Some(reader) = reader {
            // Detached on purpose: it blocks in `read` between frames and
            // is torn down by the child's deliberate exit.
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || child_router(&shared, &reader));
        }
        let trace = self.trace;
        let step_capacity = self.step_capacity;
        let stack_size = self.stack_size;
        let outputs: Mutex<Vec<Option<RankOutput<R>>>> =
            Mutex::new((0..nlocal).map(|_| None).collect());
        {
            let outputs = &outputs;
            let shared_ref = &shared;
            let machine_ref = &machine;
            // One rank's whole life: build its Comm, run the body under
            // catch_unwind, then either publish the output or record the
            // failure and abort the universe. Runs on an OS thread (1:1) or
            // a coroutine (M:N). `rank` is always the global rank id.
            let rank_main = move |rank: usize| {
                let alloc_counters = Arc::new(RankAllocCounters::new());
                let mut comm = Comm {
                    rank,
                    size: nranks,
                    machine: Arc::clone(machine_ref),
                    clock: 0.0,
                    working_set_bytes: 0.0,
                    shared: Arc::clone(shared_ref),
                    pending: Vec::new(),
                    coll_gen: 0,
                    stats: RankStats::new(rank),
                    metrics: MetricsRegistry::new(),
                    flight: FlightRecorder::new(step_capacity),
                    tracer: trace.enabled.then(|| Tracer::for_rank(&trace, rank)),
                    phase: Phase::Other,
                    phase_start: 0.0,
                    host_time: [0.0; NUM_PHASES],
                    phase_host_start: Instant::now(),
                    alloc_counters: Arc::clone(&alloc_counters),
                    panicked_phase: None,
                };
                // Attribute this rank's allocations from here until the body
                // returns (or unwinds). `comm` holds a clone of the counters,
                // so the raw pointer in the thread-local context stays valid
                // until the explicit clear below.
                alloc::install(&alloc_counters, Phase::Other);
                let body = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(&mut comm)));
                alloc::clear();
                match body {
                    Ok(result) => {
                        comm.shared.rank_finished(rank);
                        let fin = comm.finish();
                        outputs.lock().expect("outputs poisoned")[rank - lo] = Some(RankOutput {
                            result,
                            stats: fin.stats,
                            trace: fin.trace,
                            metrics: fin.metrics,
                            steps: fin.steps,
                            steps_dropped: fin.steps_dropped,
                            host_time: fin.host_time,
                            alloc_steps: fin.alloc_steps,
                            alloc: fin.alloc,
                        });
                    }
                    Err(payload) => {
                        let phase = comm.panicked_phase.take().unwrap_or_else(|| comm.phase.name());
                        shared_ref.rank_failed(rank, phase, panic_message(payload));
                    }
                }
            };
            let rank_main = &rank_main;
            if let Some(mn) = shared.mn.as_ref() {
                let nworkers = mn.nworkers();
                std::thread::scope(|s| {
                    let mut per_worker: Vec<Vec<sched::Coro>> =
                        (0..nworkers).map(|_| Vec::new()).collect();
                    for rank in lo..hi {
                        // The task borrows `rank_main`'s captures, which all
                        // outlive this scope; the workers (and with them
                        // every coroutine) join before the scope exits, so
                        // promoting the closure to 'static cannot dangle.
                        let task: Box<dyn FnOnce() + Send + '_> = Box::new(move || rank_main(rank));
                        let task: Box<dyn FnOnce() + Send + 'static> =
                            unsafe { std::mem::transmute(task) };
                        per_worker[rank % nworkers].push(sched::Coro::new(rank, stack_size, task));
                    }
                    for (widx, coros) in per_worker.into_iter().enumerate() {
                        let mn = Arc::clone(mn);
                        s.spawn(move || sched::worker_loop(widx, &mn, coros, watchdog_period()));
                    }
                });
            } else {
                std::thread::scope(|s| {
                    let handles: Vec<_> =
                        (lo..hi).map(|rank| s.spawn(move || rank_main(rank))).collect();
                    for (i, h) in handles.into_iter().enumerate() {
                        if h.join().is_err() {
                            // Body panics are caught inside rank_main;
                            // reaching here means the runtime itself
                            // panicked on this rank's thread.
                            shared.rank_failed(
                                lo + i,
                                "other",
                                "rank thread panicked outside the rank body".to_string(),
                            );
                        }
                    }
                });
            }
        }
        if let Some(fail) = shared.failure.lock().expect("failure mutex poisoned").take() {
            return Err(OversetError::RankPanicked {
                rank: fail.rank,
                phase: fail.phase,
                message: fail.message,
            });
        }
        let outs = outputs.into_inner().expect("outputs poisoned");
        Ok(outs.into_iter().map(|o| o.expect("missing rank output")).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn modern() -> MachineModel {
        MachineModel::modern()
    }

    /// An in-process universe of `nranks` ranks on `machine`.
    fn run<R, F>(nranks: usize, machine: &MachineModel, f: F) -> Vec<RankOutput<R>>
    where
        R: Wire + Send,
        F: Fn(&mut Comm) -> R + Send + Sync,
    {
        Universe::builder().ranks(nranks).machine(machine).run(f)
    }

    #[test]
    fn single_rank_compute_time() {
        let m = MachineModel {
            name: "t",
            flops_per_sec: 100.0,
            class_efficiency: [1.0, 0.5, 1.0],
            cache: crate::machine::CacheModel::FLAT,
            latency: 0.0,
            bandwidth: 1.0,
            send_overhead: 0.0,
        };
        let out = run(1, &m, |c| {
            c.compute(50.0, WorkClass::Flow);
            c.compute(50.0, WorkClass::Search);
            c.now()
        });
        assert!((out[0].result - (0.5 + 1.0)).abs() < 1e-12);
    }

    #[test]
    fn ping_pong_times_are_deterministic() {
        let m = modern();
        let run = || {
            run(2, &m, |c| {
                if c.rank() == 0 {
                    c.send(1, 7, 42.0f64, 1024);
                    c.recv::<f64>(1, 8)
                } else {
                    let v = c.recv::<f64>(0, 7);
                    c.send(0, 8, v * 2.0, 1024);
                    v
                }
            })
        };
        let a = run();
        let b = run();
        assert_eq!(a[0].result, 84.0);
        assert_eq!(a[0].stats.final_clock.to_bits(), b[0].stats.final_clock.to_bits());
        assert_eq!(a[1].stats.final_clock.to_bits(), b[1].stats.final_clock.to_bits());
        // Receiver clock includes transit time.
        assert!(a[1].stats.final_clock >= m.transit_time(1024));
    }

    #[test]
    fn barrier_synchronizes_clocks() {
        let m = modern();
        let out = run(4, &m, |c| {
            // Rank r does r units of work, then a barrier.
            c.compute(1.0e9 * c.rank() as f64, WorkClass::Flow);
            c.barrier();
            c.now()
        });
        let clocks: Vec<f64> = out.iter().map(|o| o.result).collect();
        for w in clocks.windows(2) {
            assert!((w[0] - w[1]).abs() < 1e-15, "clocks differ: {clocks:?}");
        }
        // Barrier clock at least the slowest rank's work time.
        let slowest = m.compute_time(3.0e9, WorkClass::Flow, 0.0);
        assert!(clocks[0] >= slowest);
    }

    #[test]
    fn allgather_returns_rank_ordered_values() {
        let out = run(5, &modern(), |c| c.allgather(c.rank() * 10, 8));
        for o in &out {
            assert_eq!(o.result, vec![0, 10, 20, 30, 40]);
        }
    }

    #[test]
    fn repeated_collectives_do_not_deadlock_or_cross() {
        let out = run(3, &modern(), |c| {
            let mut acc = Vec::new();
            for round in 0..50u64 {
                let v = c.allgather(round * 100 + c.rank() as u64, 8);
                acc.push(v.iter().sum::<u64>());
            }
            acc
        });
        for o in &out {
            for (round, &s) in o.result.iter().enumerate() {
                assert_eq!(s, 300 * round as u64 + 3);
            }
        }
    }

    #[test]
    fn allreduce_ops() {
        let out = run(4, &modern(), |c| {
            (
                c.allreduce_max(c.rank() as f64),
                c.allreduce_sum(1.5),
                c.allreduce_sum_usize(c.rank()),
            )
        });
        for o in &out {
            assert_eq!(o.result.0, 3.0);
            assert!((o.result.1 - 6.0).abs() < 1e-12);
            assert_eq!(o.result.2, 6);
        }
    }

    #[test]
    fn out_of_order_tags_are_buffered() {
        let out = run(2, &modern(), |c| {
            if c.rank() == 0 {
                c.send(1, 1, 10i32, 4);
                c.send(1, 2, 20i32, 4);
                0
            } else {
                // Receive in the opposite order of sending.
                let b = c.recv::<i32>(0, 2);
                let a = c.recv::<i32>(0, 1);
                a + b * 100
            }
        });
        assert_eq!(out[1].result, 2010);
    }

    #[test]
    fn phase_accounting_via_guards() {
        let m = MachineModel {
            name: "t",
            flops_per_sec: 1.0,
            class_efficiency: [1.0; 3],
            cache: crate::machine::CacheModel::FLAT,
            latency: 0.0,
            bandwidth: 1.0,
            send_overhead: 0.0,
        };
        let out = run(1, &m, |c| {
            {
                let mut ph = c.phase(Phase::Flow);
                ph.compute(2.0, WorkClass::Flow);
            }
            {
                let mut ph = c.phase(Phase::Connectivity);
                ph.compute(3.0, WorkClass::Search);
            }
        });
        let s = &out[0].stats;
        assert!((s.time[Phase::Flow as usize] - 2.0).abs() < 1e-12);
        assert!((s.time[Phase::Connectivity as usize] - 3.0).abs() < 1e-12);
        assert!((s.flops[Phase::Flow as usize] - 2.0).abs() < 1e-12);
        assert!((s.total_time() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn phase_guards_nest_and_restore() {
        let m = MachineModel {
            name: "t",
            flops_per_sec: 1.0,
            class_efficiency: [1.0; 3],
            cache: crate::machine::CacheModel::FLAT,
            latency: 0.0,
            bandwidth: 1.0,
            send_overhead: 0.0,
        };
        let out = run(1, &m, |c| {
            let mut outer = c.phase(Phase::Flow);
            outer.compute(1.0, WorkClass::Flow);
            {
                let mut inner = outer.phase(Phase::Balance);
                inner.compute(4.0, WorkClass::Other);
                assert_eq!(inner.current_phase(), Phase::Balance);
            }
            // Inner guard restored the outer phase.
            assert_eq!(outer.current_phase(), Phase::Flow);
            outer.compute(2.0, WorkClass::Flow);
        });
        let s = &out[0].stats;
        assert!((s.time[Phase::Flow as usize] - 3.0).abs() < 1e-12);
        assert!((s.time[Phase::Balance as usize] - 4.0).abs() < 1e-12);
    }

    #[test]
    fn message_stats_counted() {
        let out = run(2, &modern(), |c| {
            if c.rank() == 0 {
                c.send(1, 0, (), 500);
                c.send(1, 1, (), 700);
            } else {
                c.recv::<()>(0, 0);
                c.recv::<()>(0, 1);
            }
        });
        assert_eq!(out[0].stats.msgs_sent, 2);
        assert_eq!(out[0].stats.bytes_sent, 1200);
        assert_eq!(out[1].stats.msgs_sent, 0);
    }

    #[test]
    fn per_phase_message_metrics() {
        let out = run(2, &modern(), |c| {
            if c.rank() == 0 {
                {
                    let mut ph = c.phase(Phase::Flow);
                    ph.send(1, 0, (), 100);
                }
                {
                    let mut ph = c.phase(Phase::Connectivity);
                    ph.send(1, 1, (), 300);
                    ph.send(1, 2, (), 50);
                }
            } else {
                c.recv::<()>(0, 0);
                c.recv::<()>(0, 1);
                c.recv::<()>(0, 2);
            }
        });
        let m = &out[0].metrics;
        assert_eq!(m.counter(names::msgs_in(Phase::Flow)), 1);
        assert_eq!(m.counter(names::bytes_in(Phase::Flow)), 100);
        assert_eq!(m.counter(names::msgs_in(Phase::Connectivity)), 2);
        assert_eq!(m.counter(names::bytes_in(Phase::Connectivity)), 350);
        // Receiver recorded stall observations.
        let stall = out[1].metrics.histogram(names::COMM_RECV_STALL).unwrap();
        assert_eq!(stall.count, 3);
        assert!(stall.max > 0.0);
    }

    #[test]
    fn tracing_records_phase_comm_and_compute_spans() {
        let out =
            Universe::builder().ranks(2).machine(&modern()).trace(TraceConfig::enabled()).run(
                |c| {
                    let mut ph = c.phase(Phase::Flow);
                    ph.compute(1.0e6, WorkClass::Flow);
                    if ph.rank() == 0 {
                        ph.send(1, 9, 7u8, 64);
                    } else {
                        ph.recv::<u8>(0, 9);
                    }
                    ph.barrier();
                },
            );
        for o in &out {
            let cats: Vec<&str> = o.trace.iter().map(|e| e.cat).collect();
            assert!(cats.contains(&"phase"), "{cats:?}");
            assert!(cats.contains(&"comm"));
            assert!(cats.contains(&"compute"));
            // Phase span covers the whole scope.
            let phase = o.trace.iter().find(|e| e.cat == "phase").unwrap();
            assert_eq!(phase.name, "flow");
            assert!(phase.dur > 0.0);
        }
        // Tracing off: no events.
        let off = run(1, &modern(), |c| {
            c.compute(1.0, WorkClass::Flow);
        });
        assert!(off[0].trace.is_empty());
    }

    #[test]
    fn comm_span_args_are_uniform_per_category() {
        // Every comm-category span must carry the full argument set its
        // name promises — the trace-analysis comm matrix and wait-state
        // classifier rely on it (docs/OBSERVABILITY.md span table).
        let out =
            Universe::builder().ranks(3).machine(&modern()).trace(TraceConfig::enabled()).run(
                |c| {
                    if c.rank() == 0 {
                        c.send(1, 3, 1u8, 64);
                        c.send(2, 4, 2u8, 128);
                    } else {
                        c.recv::<u8>(0, 2 + c.rank() as u64);
                    }
                    c.barrier();
                    c.allgather(c.rank(), 8);
                },
            );
        let has = |e: &TraceEvent, key: &str| e.args.iter().any(|(k, _)| *k == key);
        let mut seen = [0usize; 4]; // send, recv, barrier, allgather
        for o in &out {
            for e in o.trace.iter().filter(|e| e.cat == "comm") {
                match e.name {
                    "send" => {
                        seen[0] += 1;
                        for key in ["dst", "tag", "bytes"] {
                            assert!(has(e, key), "send span missing {key}: {e:?}");
                        }
                    }
                    "recv" => {
                        seen[1] += 1;
                        for key in ["src", "tag", "bytes", "stall", "idle"] {
                            assert!(has(e, key), "recv span missing {key}: {e:?}");
                        }
                    }
                    "barrier" | "allgather" => {
                        seen[if e.name == "barrier" { 2 } else { 3 }] += 1;
                        assert!(has(e, "bytes"), "collective span missing bytes: {e:?}");
                    }
                    other => panic!("unexpected comm span name {other:?}"),
                }
            }
        }
        assert_eq!(seen[0], 2, "expected two send spans");
        assert_eq!(seen[1], 2, "expected two recv spans");
        assert_eq!(seen[2], 3, "expected one barrier span per rank");
        assert_eq!(seen[3], 3, "expected one allgather span per rank");
        // The recv span's bytes echo what the sender charged, and its
        // stall/idle split is consistent with the span duration.
        let recv = out[1].trace.iter().find(|e| e.cat == "comm" && e.name == "recv").unwrap();
        let arg = |key: &str| {
            recv.args
                .iter()
                .find(|(k, _)| *k == key)
                .map(|(_, v)| match v {
                    ArgVal::U64(x) => *x as f64,
                    ArgVal::F64(x) => *x,
                    ArgVal::Str(_) => f64::NAN,
                })
                .unwrap()
        };
        assert_eq!(arg("bytes"), 64.0);
        assert!((arg("stall") - recv.dur).abs() < 1e-15);
        assert_eq!(arg("idle"), 0.0);
    }

    #[test]
    fn flight_recorder_collects_per_step_deltas() {
        let m = MachineModel {
            name: "t",
            flops_per_sec: 1.0,
            class_efficiency: [1.0; 3],
            cache: crate::machine::CacheModel::FLAT,
            latency: 0.0,
            bandwidth: 1.0,
            send_overhead: 0.0,
        };
        let out = run(2, &m, |c| {
            for step in 0..3u64 {
                {
                    let mut ph = c.phase(Phase::Flow);
                    ph.compute((step + 1) as f64, WorkClass::Flow);
                    if ph.rank() == 0 {
                        ph.send(1, step, (), 100);
                    } else {
                        ph.recv::<()>(0, step);
                    }
                    ph.barrier();
                }
                c.metrics_mut().add(names::CONN_SERVICED, 10 * (step + 1));
                c.end_step();
            }
        });
        for o in &out {
            assert_eq!(o.steps.len(), 3);
            assert_eq!(o.steps_dropped, 0);
            for (i, rec) in o.steps.iter().enumerate() {
                assert_eq!(rec.step, i as u64);
                // Per-step flow time covers at least the step's own compute
                // (plus comm/barrier time, which also accrues to the phase).
                assert!(
                    rec.time[Phase::Flow as usize] >= (i + 1) as f64,
                    "rank {} step {i}: {:?}",
                    o.stats.rank,
                    rec.time
                );
                assert_eq!(rec.serviced, 10 * (i as u64 + 1));
            }
            // The per-step deltas partition the rank's cumulative phase time.
            let flow_sum: f64 = o.steps.iter().map(|r| r.time[Phase::Flow as usize]).sum();
            let total_flow = o.stats.time[Phase::Flow as usize];
            assert!((flow_sum - total_flow).abs() < 1e-12 * total_flow.max(1.0));
            // Clocks are the rank clock at each boundary, nondecreasing.
            assert!(o.steps.windows(2).all(|w| w[0].clock <= w[1].clock));
        }
        assert_eq!(out[0].steps[0].msgs_sent, 1);
        assert_eq!(out[0].steps[0].bytes_sent, 100);
        assert_eq!(out[1].steps[0].msgs_sent, 0);
    }

    #[test]
    fn flight_ring_capacity_via_builder() {
        let out = Universe::builder().ranks(1).machine(&modern()).step_capacity(2).run(|c| {
            for _ in 0..5 {
                c.compute(1.0, WorkClass::Flow);
                c.end_step();
            }
        });
        assert_eq!(out[0].steps.len(), 2);
        assert_eq!(out[0].steps_dropped, 3);
        assert_eq!(out[0].steps[0].step, 3);
    }

    #[test]
    fn trace_filter_thins_universe_spans() {
        let cfg = TraceConfig::enabled()
            .with_filter(crate::trace::CategoryFilter::parse("phase").unwrap());
        let out = Universe::builder().ranks(1).machine(&modern()).trace(cfg).run(|c| {
            let mut ph = c.phase(Phase::Flow);
            ph.compute(1.0e6, WorkClass::Flow);
        });
        assert!(!out[0].trace.is_empty());
        assert!(out[0].trace.iter().all(|e| e.cat == "phase"), "{:?}", out[0].trace);
    }

    #[test]
    fn try_recv_type_mismatch_is_an_error() {
        let out = run(2, &modern(), |c| {
            if c.rank() == 0 {
                c.send(1, 5, 1.25f64, 8);
                Ok(())
            } else {
                c.try_recv::<u32>(0, 5).map(|_| ())
            }
        });
        assert!(out[0].result.is_ok());
        match &out[1].result {
            Err(OversetError::TypeMismatch { rank: 1, src: 0, tag: 5, .. }) => {}
            other => panic!("expected TypeMismatch, got {other:?}"),
        }
    }

    #[test]
    fn mixed_type_collective_is_an_error_on_every_rank() {
        let out = run(2, &modern(), |c| {
            if c.rank() == 0 {
                c.try_allgather(1u32, 4).map(|_| ())
            } else {
                c.try_allgather(1.5f64, 8).map(|_| ())
            }
        });
        for o in &out {
            assert!(
                matches!(o.result, Err(OversetError::CollectiveMismatch { .. })),
                "expected CollectiveMismatch, got {:?}",
                o.result
            );
        }
    }

    #[test]
    fn working_set_changes_rate() {
        let m = MachineModel::ibm_sp2();
        let out = run(1, &m, |c| {
            c.set_working_set(1.0); // tiny: fast cache factor
            c.compute(1.0e6, WorkClass::Flow);
            let t_small = c.now();
            c.set_working_set(1e9); // huge: memory bound
            c.compute(1.0e6, WorkClass::Flow);
            (t_small, c.now() - t_small)
        });
        let (t_small, t_large) = out[0].result;
        assert!(t_large > 1.3 * t_small, "cache model had no effect");
    }

    // ---- M:N scheduler -------------------------------------------------

    /// A workload exercising every comm primitive plus phases and step
    /// boundaries, used to compare the two scheduler modes bit-for-bit.
    fn mixed_workload(c: &mut Comm) -> f64 {
        let me = c.rank();
        let n = c.size();
        for step in 0..4u64 {
            {
                let mut ph = c.phase(Phase::Flow);
                ph.compute(1.0e6 * (1.0 + me as f64), WorkClass::Flow);
                let right = (me + 1) % n;
                let left = (me + n - 1) % n;
                ph.send(right, 100 + step, me as f64 * 1.5 + step as f64, 256 + 32 * me);
                let v = ph.recv::<f64>(left, 100 + step);
                ph.compute(v.abs() * 10.0, WorkClass::Search);
            }
            {
                let mut ph = c.phase(Phase::Connectivity);
                let maxv = ph.allreduce_max(me as f64 * 0.25 + step as f64);
                ph.compute(maxv * 1.0e3, WorkClass::Other);
            }
            c.end_step();
        }
        c.barrier();
        c.now()
    }

    #[test]
    fn mn_clocks_bit_identical_to_thread_mode() {
        let m = MachineModel::ibm_sp2();
        let one_to_one = Universe::builder().ranks(16).machine(&m).run(mixed_workload);
        let mn = Universe::builder().ranks(16).machine(&m).max_threads(4).run(mixed_workload);
        for (a, b) in one_to_one.iter().zip(&mn) {
            assert_eq!(
                a.result.to_bits(),
                b.result.to_bits(),
                "rank {} clock differs between scheduler modes",
                a.stats.rank
            );
            assert_eq!(a.stats.final_clock.to_bits(), b.stats.final_clock.to_bits());
            assert_eq!(a.stats.msgs_sent, b.stats.msgs_sent);
            assert_eq!(a.stats.collectives, b.stats.collectives);
            assert_eq!(a.steps.len(), b.steps.len());
        }
    }

    #[test]
    fn many_virtual_ranks_on_few_threads() {
        // 128 virtual ranks on 4 workers: a ring exchange plus a collective
        // per rank, far beyond what 1:1 threading would need.
        let out = Universe::builder().ranks(128).machine(&modern()).max_threads(4).run(|c| {
            let me = c.rank();
            let n = c.size();
            c.send((me + 1) % n, 7, me, 8);
            let left = c.recv::<usize>((me + n - 1) % n, 7);
            let total = c.allreduce_sum_usize(left);
            c.end_step();
            total
        });
        assert_eq!(out.len(), 128);
        let expect: usize = (0..128).sum();
        for o in &out {
            assert_eq!(o.result, expect);
            assert_eq!(o.steps.len(), 1);
        }
    }

    // ---- panic handling ------------------------------------------------

    #[test]
    fn rank_panic_surfaces_error_not_hang() {
        let err = Universe::builder().ranks(16).machine(&modern()).try_run(|c| {
            if c.rank() == 7 {
                let _ph = c.phase(Phase::Connectivity);
                panic!("boom on rank 7");
            }
            // Every other rank blocks in a collective the panicking rank
            // never joins — they must be unblocked, not hang.
            c.barrier();
        });
        match err {
            Err(OversetError::RankPanicked { rank: 7, phase, message }) => {
                assert_eq!(phase, "connectivity");
                assert!(message.contains("boom on rank 7"), "message: {message}");
            }
            other => panic!("expected RankPanicked for rank 7, got {other:?}"),
        }
    }

    #[test]
    fn rank_panic_in_mn_mode_surfaces_error() {
        let err = Universe::builder().ranks(32).machine(&modern()).max_threads(4).try_run(|c| {
            if c.rank() == 13 {
                panic!("mn boom");
            }
            c.barrier();
        });
        match err {
            Err(OversetError::RankPanicked { rank: 13, phase, message }) => {
                assert_eq!(phase, "other");
                assert!(message.contains("mn boom"), "message: {message}");
            }
            other => panic!("expected RankPanicked for rank 13, got {other:?}"),
        }
    }

    #[test]
    fn rank_panic_unblocks_point_to_point_waits() {
        let err = Universe::builder().ranks(4).machine(&modern()).try_run(|c| {
            match c.rank() {
                0 => panic!("early exit"),
                // Rank 1 waits for a message rank 0 will never send.
                1 => {
                    let _ = c.try_recv::<u8>(0, 42);
                }
                _ => {}
            }
        });
        match err {
            Err(OversetError::RankPanicked { rank: 0, message, .. }) => {
                assert!(message.contains("early exit"), "message: {message}");
            }
            other => panic!("expected RankPanicked for rank 0, got {other:?}"),
        }
    }

    #[test]
    fn recv_from_finished_rank_errors() {
        let out = run(2, &modern(), |c| {
            if c.rank() == 0 {
                // Finish immediately without sending anything.
                Ok(())
            } else {
                c.try_recv::<u8>(0, 9).map(|_| ())
            }
        });
        assert!(out[0].result.is_ok());
        match &out[1].result {
            Err(OversetError::Disconnected { rank: 1, src: 0, tag: 9 }) => {}
            other => panic!("expected Disconnected, got {other:?}"),
        }
    }
}
