//! One measured phase: a `run_topology` call over a fixed input, timed
//! from outside the runtime, with every sink delivery checked against a
//! reference computed from the input alone.

use crate::ops::{BenchSink, BenchSpout, SinkLog, SinkLogs};
use crate::probe::cpu_seconds;
use crate::workload::{Workload, SINK, SINKS, SOURCE};
use std::sync::{Arc, Mutex};
use std::time::Instant;
use whale_dsps::{run_topology, GroupingExec, Operators, RunReport, Tuple};

/// A phase's input and its reference outcome.
pub struct Phase {
    pub tuples: Arc<Vec<Tuple>>,
    /// Fields grouping: the sink instance `GroupingExec` picks for each
    /// id. `None` for `All`: every instance receives every id.
    pub owners: Option<Vec<u32>>,
    /// Open loop at this many tuples/s; `None` is closed loop.
    pub rate: Option<f64>,
}

impl Phase {
    pub fn new(w: Workload, tuples: Vec<Tuple>, rate: Option<f64>) -> Phase {
        let owners = w.keyed().then(|| {
            let targets = w.topology().tasks_of(SINK);
            let mut exec = GroupingExec::new(w.grouping(), targets.clone());
            let mut out = Vec::new();
            tuples
                .iter()
                .map(|t| {
                    exec.route_into(t, None, &mut out)
                        .expect("every input has its key");
                    targets
                        .iter()
                        .position(|&x| x == out[0])
                        .expect("routes to a target") as u32
                })
                .collect()
        });
        Phase {
            tuples: Arc::new(tuples),
            owners,
            rate,
        }
    }

    /// Sink deliveries the reference expects.
    pub fn expected(&self) -> u64 {
        let n = self.tuples.len() as u64;
        if self.owners.is_some() {
            n
        } else {
            n * SINKS as u64
        }
    }

    /// Whether the reference delivers `id` to `instance`.
    fn wants(&self, instance: u32, id: usize) -> bool {
        self.owners.as_ref().is_none_or(|o| o[id] == instance)
    }

    /// Missing, duplicate and misrouted deliveries in the sinks' logs. A
    /// sink that never reported marks the phase unclean.
    pub fn tally_deliveries(&self, sinks: &[SinkLog]) -> Tally {
        let n = self.tuples.len();
        let mut t = Tally {
            expected: self.expected(),
            ..Tally::default()
        };
        if sinks.len() != SINKS as usize {
            t.mark_unclean();
        }
        for instance in 0..SINKS {
            let Some(log) = sinks.iter().find(|s| s.instance == instance) else {
                t.missing += (0..n).filter(|&id| self.wants(instance, id)).count() as u64;
                continue;
            };
            t.misrouted += log.stray;
            for (id, &got) in log.counts.iter().enumerate() {
                match (self.wants(instance, id), got) {
                    (true, 0) => t.missing += 1,
                    (true, c) => t.duplicate += c as u64 - 1,
                    (false, c) => t.misrouted += c as u64,
                }
            }
        }
        t
    }
}

/// Delivery violations of one phase.
#[derive(Clone, Copy, Default, Debug)]
pub struct Tally {
    /// Sink deliveries the reference expects.
    pub expected: u64,
    pub missing: u64,
    pub duplicate: u64,
    /// Deliveries on an instance the grouping does not pick (or of an id
    /// outside the input).
    pub misrouted: u64,
    /// `RunReport::tuples_failed`.
    pub tuples_failed: u64,
    /// Tracked runs: `|acked + failed − emitted|`; always:
    /// `|emitted − inputs|`.
    pub accounting: u64,
    /// Expected deliveries of phases whose outcome was not `Clean`, or
    /// in which an operator never reported: such a phase counts as failed
    /// as a whole.
    pub unclean_expected: u64,
}

impl Tally {
    /// Failed deliveries (at most the expected count).
    pub fn failed(&self) -> u64 {
        let v = self.missing
            + self.duplicate
            + self.misrouted
            + self.tuples_failed
            + self.accounting
            + self.unclean_expected;
        v.min(self.expected)
    }

    /// Count this phase as failed as a whole.
    fn mark_unclean(&mut self) {
        self.unclean_expected = self.expected;
    }

    pub fn add(&mut self, o: &Tally) {
        self.expected += o.expected;
        self.missing += o.missing;
        self.duplicate += o.duplicate;
        self.misrouted += o.misrouted;
        self.tuples_failed += o.tuples_failed;
        self.accounting += o.accounting;
        self.unclean_expected += o.unclean_expected;
    }
}

/// Check every sink's deliveries, and the run's own accounting, against
/// the phase's reference.
fn check(w: Workload, phase: &Phase, sinks: &[SinkLog], report: &RunReport) -> Tally {
    let mut t = phase.tally_deliveries(sinks);
    t.tuples_failed = report.tuples_failed;
    if !report.outcome.is_clean() {
        t.mark_unclean();
    }
    t.accounting = report.spout_emitted.abs_diff(phase.tuples.len() as u64);
    if w.config().ack.is_some() {
        t.accounting += (report.tuples_acked + report.tuples_failed).abs_diff(report.spout_emitted);
    }
    t
}

/// What one phase measured.
pub struct PhaseResult {
    /// `run_topology` call → first spout pull.
    pub setup_s: f64,
    /// First spout pull → last sink execution.
    pub active_s: f64,
    /// Last sink execution → `run_topology` returns.
    pub teardown_s: f64,
    /// Process CPU (user + system) over the call.
    pub cpu_s: f64,
    /// Open loop: due time → sink execute, every delivery.
    pub latency_ns: Vec<u64>,
    /// Open loop: generator lateness per pull.
    pub lag_ns: Vec<u64>,
    /// Traced: spout pull self times.
    pub pull_ns: Vec<u64>,
    /// Traced: sink execute self times.
    pub exec_ns: Vec<u64>,
    /// Deliveries per sink instance.
    pub per_instance: Vec<u64>,
    pub tally: Tally,
    pub report: RunReport,
}

impl PhaseResult {
    /// Source tuples per second over the active span.
    pub fn throughput(&self, inputs: usize) -> f64 {
        inputs as f64 / self.active_s.max(1e-9)
    }
}

/// Run one phase on the live runtime.
pub fn run_phase(w: Workload, phase: &Phase, trace: bool) -> PhaseResult {
    let spout_out = Arc::new(Mutex::new(None));
    let sink_out: SinkLogs = Arc::new(Mutex::new(Vec::new()));
    let kind = w.sink_kind();
    let (n, due, rate) = (phase.tuples.len(), w.due_field(), phase.rate);
    let operators = {
        let (tuples, spout_out, sinks) = (
            Arc::clone(&phase.tuples),
            Arc::clone(&spout_out),
            Arc::clone(&sink_out),
        );
        Operators::new()
            .spout(SOURCE, move |_| {
                Box::new(BenchSpout::new(
                    Arc::clone(&tuples),
                    due,
                    rate,
                    trace,
                    Arc::clone(&spout_out),
                ))
            })
            .bolt(SINK, move |i| {
                Box::new(BenchSink::new(
                    i,
                    kind,
                    n,
                    due,
                    rate.is_some(),
                    trace,
                    Arc::clone(&sinks),
                ))
            })
    };
    let (topology, config) = (w.topology(), w.config());

    let cpu0 = cpu_seconds();
    let called = Instant::now();
    let report = run_topology(topology, operators, config);
    let returned = Instant::now();
    let cpu_s = cpu_seconds() - cpu0;

    let spout = spout_out
        .lock()
        .expect("operators hand their logs over without panicking")
        .take()
        .unwrap_or_default();
    let sinks = std::mem::take(
        &mut *sink_out
            .lock()
            .expect("operators hand their logs over without panicking"),
    );
    let first_pull = spout.first_pull.unwrap_or(returned);
    let last_exec = sinks
        .iter()
        .filter_map(|s| s.last_exec)
        .max()
        .unwrap_or(first_pull);
    let mut per_instance = vec![0; SINKS as usize];
    let (mut latency_ns, mut exec_ns) = (Vec::new(), Vec::new());
    for s in &sinks {
        per_instance[s.instance as usize] = s.delivered;
        latency_ns.extend_from_slice(&s.latency_ns);
        exec_ns.extend_from_slice(&s.exec_ns);
    }
    let mut tally = check(w, phase, &sinks, &report);
    if spout.first_pull.is_none() {
        tally.mark_unclean();
    }
    PhaseResult {
        setup_s: (first_pull - called).as_secs_f64(),
        active_s: last_exec
            .saturating_duration_since(first_pull)
            .as_secs_f64(),
        teardown_s: returned.saturating_duration_since(last_exec).as_secs_f64(),
        cpu_s,
        latency_ns,
        lag_ns: spout.lag_ns,
        pull_ns: spout.pull_ns,
        exec_ns,
        per_instance,
        tally,
        report,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_phases_deliver_exactly_once_on_every_workload() {
        for w in Workload::ALL {
            for rate in [None, Some(20_000.0)] {
                let phase = Phase::new(w, w.generate(3, 400), rate);
                let r = run_phase(w, &phase, true);
                assert_eq!(
                    r.tally.failed(),
                    0,
                    "{} {:?}: {:?}",
                    w.name(),
                    rate,
                    r.tally
                );
                assert_eq!(r.per_instance.iter().sum::<u64>(), phase.expected());
                assert_eq!(r.exec_ns.len() as u64, phase.expected());
                assert_eq!(r.pull_ns.len(), 400);
                assert_eq!(r.latency_ns.is_empty(), rate.is_none());
                assert!(r.setup_s > 0.0 && r.active_s > 0.0);
            }
        }
    }

    #[test]
    fn the_gate_counts_missing_duplicate_and_misrouted_deliveries() {
        let w = Workload::KeyedAckedLog;
        let phase = Phase::new(w, w.generate(5, 50), None);
        let mut r = run_phase(w, &phase, false);
        assert_eq!(r.tally.failed(), 0);
        // Forge a sink log: drop one delivery, duplicate one, misroute one.
        let owners = phase.owners.as_ref().unwrap();
        let mut logs: Vec<SinkLog> = (0..SINKS)
            .map(|i| SinkLog {
                instance: i,
                counts: (0..50).map(|id| (owners[id] == i) as u8).collect(),
                ..SinkLog::default()
            })
            .collect();
        logs[owners[0] as usize].counts[0] = 0;
        logs[owners[1] as usize].counts[1] = 2;
        logs[(owners[2] as usize + 1) % SINKS as usize].counts[2] = 1;
        r.tally = check(w, &phase, &logs, &r.report);
        assert_eq!(
            (r.tally.missing, r.tally.duplicate, r.tally.misrouted),
            (1, 1, 1)
        );
        assert_eq!(r.tally.failed(), 3);
    }
}
