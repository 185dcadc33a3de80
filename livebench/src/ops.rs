//! The benchmark's own operators: a replaying spout (closed loop, or open
//! loop on a fixed due-time schedule) and a recording sink that counts
//! every delivery by id, so the correctness gate can check each one.

use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};
use whale_dsps::{
    hash_value, hash_value_view, Bolt, DecodeError, Emitter, LazyTuple, Spout, Tuple, Value,
};

/// The process-wide time origin due times are stamped against.
pub fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn stamp(t: Instant) -> i64 {
    t.saturating_duration_since(epoch()).as_nanos() as i64
}

/// What the spout saw, handed back when the runtime drops it.
#[derive(Default)]
pub struct SpoutLog {
    /// The first `next_tuple` call (the end of set-up).
    pub first_pull: Option<Instant>,
    /// Open loop only: how late each pull ran past its due time.
    pub lag_ns: Vec<u64>,
    /// Traced runs only: the self time of each pull.
    pub pull_ns: Vec<u64>,
}

/// Replays a fixed input, stamping each tuple's due time into
/// `due_field`. Closed loop (`period: None`) stamps the pull time; open
/// loop waits for `first_pull + i · period` and stamps that.
pub struct BenchSpout {
    tuples: Arc<Vec<Tuple>>,
    next: usize,
    due_field: usize,
    period: Option<Duration>,
    trace: bool,
    log: SpoutLog,
    out: Arc<Mutex<Option<SpoutLog>>>,
}

impl BenchSpout {
    pub fn new(
        tuples: Arc<Vec<Tuple>>,
        due_field: usize,
        rate: Option<f64>,
        trace: bool,
        out: Arc<Mutex<Option<SpoutLog>>>,
    ) -> Self {
        let n = tuples.len();
        BenchSpout {
            tuples,
            next: 0,
            due_field,
            period: rate.map(|r| Duration::from_secs_f64(1.0 / r)),
            trace,
            log: SpoutLog {
                lag_ns: Vec::with_capacity(if rate.is_some() { n } else { 0 }),
                pull_ns: Vec::with_capacity(if trace { n } else { 0 }),
                ..SpoutLog::default()
            },
            out,
        }
    }
}

/// Wait until `due`: sleep through long gaps, then yield until it
/// passes. Yielding rather than spinning keeps the schedule within
/// microseconds without starving the pipeline and drain threads that
/// share the host's few cores.
fn wait_until(due: Instant) -> Instant {
    loop {
        let now = Instant::now();
        if now >= due {
            return now;
        }
        let gap = due - now;
        if gap > Duration::from_micros(200) {
            std::thread::sleep(gap - Duration::from_micros(100));
        } else {
            std::thread::yield_now();
        }
    }
}

impl Spout for BenchSpout {
    fn next_tuple(&mut self) -> Option<Tuple> {
        let first = *self.log.first_pull.get_or_insert_with(Instant::now);
        let template = self.tuples.get(self.next)?;
        let due = match self.period {
            Some(p) => {
                let due = first + p * self.next as u32;
                let ran = wait_until(due);
                self.log.lag_ns.push((ran - due).as_nanos() as u64);
                due
            }
            None => Instant::now(),
        };
        let start = self.trace.then(Instant::now);
        let mut t = template.clone();
        t.values[self.due_field] = Value::I64(stamp(due));
        self.next += 1;
        if let Some(s) = start {
            self.log.pull_ns.push(s.elapsed().as_nanos() as u64);
        }
        Some(t)
    }
}

impl Drop for BenchSpout {
    fn drop(&mut self) {
        // A poisoned lock means another operator panicked; the missing log
        // then fails the phase's gate instead of panicking in `drop`.
        if let Ok(mut out) = self.out.lock() {
            *out = Some(std::mem::take(&mut self.log));
        }
    }
}

/// One sink instance's record of a phase.
#[derive(Default)]
pub struct SinkLog {
    /// The instance index within the sink component.
    pub instance: u32,
    /// Deliveries per input id (saturating).
    pub counts: Vec<u8>,
    /// Deliveries whose id lies outside the input.
    pub stray: u64,
    /// Deliveries executed.
    pub delivered: u64,
    /// The last execution's start.
    pub last_exec: Option<Instant>,
    /// Open loop only: due time → execute, per delivery.
    pub latency_ns: Vec<u64>,
    /// Traced runs only: the self time of each `execute_lazy`.
    pub exec_ns: Vec<u64>,
    /// Folded field reads, so the touches cannot be optimized away.
    pub checksum: u64,
}

/// How much of each tuple a sink reads.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SinkKind {
    /// Reads the key and the due time off the wire view (no
    /// materialization).
    LazyKeyTouch,
    /// Materializes the tuple and reads every field.
    Eager,
}

/// Where one sink instance's log ends up.
pub type SinkLogs = Arc<Mutex<Vec<SinkLog>>>;

/// The recording sink.
pub struct BenchSink {
    kind: SinkKind,
    due_field: usize,
    record_latency: bool,
    trace: bool,
    log: SinkLog,
    out: SinkLogs,
}

impl BenchSink {
    /// A sink for `inputs` ids, recording due-time latency when the phase
    /// is open loop.
    pub fn new(
        instance: u32,
        kind: SinkKind,
        inputs: usize,
        due_field: usize,
        record_latency: bool,
        trace: bool,
        out: SinkLogs,
    ) -> Self {
        BenchSink {
            kind,
            due_field,
            record_latency,
            trace,
            log: SinkLog {
                instance,
                counts: vec![0; inputs],
                ..SinkLog::default()
            },
            out,
        }
    }

    /// Count one delivery of `id` that started at `now` and was due at
    /// `due_ns`.
    fn record(&mut self, id: u64, due_ns: i64, now: Instant, touched: u64) {
        let log = &mut self.log;
        match log.counts.get_mut(id as usize) {
            Some(c) => *c = c.saturating_add(1),
            None => log.stray += 1,
        }
        log.delivered += 1;
        log.last_exec = Some(now);
        log.checksum = log.checksum.wrapping_add(touched);
        if self.record_latency {
            log.latency_ns.push((stamp(now) - due_ns).max(0) as u64);
        }
    }

    /// Read every field of an owned tuple.
    fn touch_all(t: &Tuple) -> u64 {
        t.values.iter().fold(0u64, |acc, v| acc ^ hash_value(v))
    }

    /// The sink body over a lazily decoded tuple.
    pub fn run(&mut self, input: &LazyTuple) -> Result<(), DecodeError> {
        let now = Instant::now();
        let (due, touched) = match self.kind {
            SinkKind::LazyKeyTouch => {
                let key = match input.field(0) {
                    Some(v) => hash_value_view(&v?),
                    None => 0,
                };
                let due = input.field(self.due_field).transpose()?;
                (due.and_then(|v| v.as_i64()).unwrap_or(0), key)
            }
            SinkKind::Eager => {
                let t = input.materialize()?;
                let due = t.get(self.due_field).and_then(Value::as_i64).unwrap_or(0);
                (due, Self::touch_all(t))
            }
        };
        self.record(input.id(), due, now, touched);
        if self.trace {
            self.log.exec_ns.push(now.elapsed().as_nanos() as u64);
        }
        Ok(())
    }
}

impl Bolt for BenchSink {
    fn execute(&mut self, input: &Tuple, _out: &mut dyn Emitter) {
        // Direct (non-wire) invocation; the runtime always calls
        // `execute_lazy`.
        let _ = self.run(&LazyTuple::from_tuple(input.clone()));
    }

    fn execute_lazy(
        &mut self,
        input: &LazyTuple,
        _out: &mut dyn Emitter,
    ) -> Result<(), DecodeError> {
        self.run(input)
    }
}

impl Drop for BenchSink {
    fn drop(&mut self) {
        if let Ok(mut out) = self.out.lock() {
            out.push(std::mem::take(&mut self.log));
        }
    }
}
