//! The live runtime: a miniature Storm executing a topology on real
//! threads, with workers and shard-owned pipelines wired through the
//! in-process fabric.
//!
//! Each worker's tasks are split across [`LiveConfig::shards`] pipeline
//! threads by the stable map `task % shards`. A pipeline owns the whole
//! hot path for its slice — reader (its own fabric endpoint), routing
//! (per-task [`GroupingExec`] state), execution, and sink — with no
//! central dispatcher thread and no global queue. Traffic crosses
//! pipelines only when a grouping demands it (a destination task another
//! shard owns), through bounded per-shard inboxes with
//! [`SendError::Full`] backpressure; same-shard deliveries loop back
//! through a thread-local queue without touching a channel at all.
//!
//! The [`CommMode`] decides whether an emitted tuple becomes one
//! [`InstanceMessage`](crate::codec::InstanceMessage) per destination task
//! (Storm) or one [`WorkerMessage`](crate::codec::WorkerMessage) per
//! destination worker (Whale), and `zero_copy` selects RDMA-style shared
//! buffers vs TCP-style copies on the fabric.

use crate::acker::Acker;
use crate::codec::{
    self, DecodeError, InstanceMessage, InstanceMessageView, LazyTuple, RelayHeader, TupleView,
    WorkerMessage, WorkerMessageView,
};
use crate::grouping::GroupingExec;
use crate::messaging::{CommMode, EdgeRouter, RoutePlan};
use crate::operator::{Bolt, BoltFactory, Emitter, Spout, SpoutFactory};
use crate::pool::BufferPool;
use crate::scheduler::{Placement, WorkerId};
use crate::task::{ComponentId, TaskId};
use crate::topology::{ComponentKind, Grouping, Topology};
use crate::tuple::Tuple;
use bytes::{Buf, BufMut, BytesMut};
use crossbeam::channel::{bounded, unbounded, Receiver, Sender, TryRecvError, TrySendError};
use parking_lot::{Mutex, RwLock};
use std::cell::{Cell, RefCell};
use std::collections::{HashMap, HashSet, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};
use whale_multicast::{
    build_nonblocking, plan_switch, run_switch_over_fabric_at, AdjustController, ControllerConfig,
    Decision, LinkPressure, MulticastTree, Node, TopoTreeBuilder, WorkloadMonitor,
};
use whale_net::{
    ClusterSpec, EndpointId, FabricKind, FabricPath, FaultFabric, FaultPlan, LinkTracker,
    LogConfig, PartitionLog, Payload, SendError, SendPolicy, TopologyConfig,
};
use whale_sim::{SimDuration, SimTime};

/// Message tags on the live fabric.
const TAG_INSTANCE: u8 = 1;
const TAG_WORKER: u8 = 2;
const TAG_EOS: u8 = 3;
/// A broadcast tuple traveling through the non-blocking multicast tree:
/// `origin_worker | to_component | node_index | data item`.
const TAG_RELAY: u8 = 4;
/// End-of-stream traveling the same tree path as relayed data, so it
/// cannot overtake in-flight tuples:
/// `origin_worker | to_component | node_index | src_task`.
const TAG_RELAY_EOS: u8 = 5;
/// An acker-tracked worker-oriented frame: `tracked u64 | WorkerMessage`.
/// Anchors are not carried: each side derives the per-destination anchor
/// from `(tracked, dst_task)` with [`anchor_for`].
const TAG_WORKER_TRACKED: u8 = 6;
/// An acker-tracked instance-oriented frame: `tracked u64 | InstanceMessage`.
const TAG_INSTANCE_TRACKED: u8 = 7;

/// Tracked ids pack a replay attempt above [`ROOT_BITS`] bits of root id,
/// so every replay re-registers under a fresh ledger key while sinks
/// dedup on the stable root.
const ROOT_BITS: u32 = 48;
const ROOT_MASK: u64 = (1 << ROOT_BITS) - 1;

/// The root id a tracked id belongs to (stable across replays).
fn root_of(tracked: u64) -> u64 {
    tracked & ROOT_MASK
}

fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The XOR-ledger anchor of destination `dst` within tree `tracked` — a
/// pure function, so the sender arms the ledger and the receiver acks it
/// without the anchor ever traveling on the wire. Never zero (a zero
/// anchor would be an XOR no-op).
fn anchor_for(tracked: u64, dst: TaskId) -> u64 {
    splitmix64(tracked ^ splitmix64(dst.0 as u64 + 1)).max(1)
}

/// Acker bookkeeping attached to a tracked tuple delivery.
#[derive(Clone, Copy, Debug)]
struct AckTag {
    /// Ledger key: `attempt << ROOT_BITS | root`.
    tracked: u64,
    /// This destination's XOR anchor.
    anchor: u64,
}

/// What an executor receives in its incoming queue.
enum ExecMsg {
    /// A data tuple — locally emitted ones arrive owned, received wire
    /// frames arrive as lazy views anchored to the shared receive buffer
    /// (the handle memoizes, so a worker still decodes at most once) —
    /// with acker bookkeeping when the run tracks deliveries.
    Data(LazyTuple, Option<AckTag>),
    /// End-of-stream from one upstream task.
    Eos(TaskId),
}

/// Per-task routing state: one [`EdgeRouter`] per downstream edge. An
/// all-grouped edge's [`RoutePlan`] (local tasks plus one frame per
/// destination pipeline) is computed once, at build; keyed and shuffled
/// edges refill reusable scratch. Steady-state routing allocates nothing.
struct Groupings {
    edges: Vec<(ComponentId, EdgeRouter)>,
}

/// Runtime configuration.
#[derive(Clone, Debug)]
pub struct LiveConfig {
    /// Number of simulated machines (= worker processes).
    pub machines: u32,
    /// Instance-oriented (Storm) or worker-oriented (Whale) messaging.
    pub comm_mode: CommMode,
    /// RDMA-style shared buffers (true) vs TCP-style copies (false).
    pub zero_copy: bool,
    /// Relay all-grouped broadcasts through a non-blocking multicast tree
    /// over the workers with this maximum out-degree, instead of the
    /// source sending to every worker directly. Requires
    /// [`CommMode::WorkerOriented`].
    pub multicast_d_star: Option<u32>,
    /// Re-plan the relay tree's out-degree at runtime from live workload
    /// samples (the paper's workload monitor + self-adjusting
    /// controller), switching between epoch-versioned tree generations
    /// without stopping the data plane. Implies the relay path; when
    /// both this and `multicast_d_star` are set, `multicast_d_star`
    /// seeds the initial degree. Requires [`CommMode::WorkerOriented`].
    pub multicast_adaptive: Option<AdaptiveConfig>,
    /// Shard-owned pipelines per worker. Each worker's tasks are split
    /// across this many pipeline threads by the stable map
    /// `task % shards` (mirroring `RingConfig::flusher_shards`); every
    /// pipeline owns its own fabric endpoint, routing state, and
    /// executors, so the per-worker receive path scales with cores
    /// instead of serializing behind one dispatcher. `1` (the default)
    /// runs one pipeline per worker. Values are clamped to at least 1.
    pub shards: u32,
    /// Capacity of each pipeline's cross-shard inbox (allocated by the
    /// first delivery into it). Deliveries to a task another shard owns
    /// go through this bounded queue; a full
    /// inbox backpressures the sender under [`LiveConfig::send`] and
    /// drops loudly (`send_failed`) if it never clears.
    pub shard_inbox_capacity: usize,
    /// Which live transport carries inter-worker frames: synchronous
    /// per-send delivery, or descriptors posted to per-endpoint rings and
    /// flushed in MMS/WTL batches (the paper's stream slicing, §4).
    pub fabric: FabricKind,
    /// Bounded retry schedule for backpressured sends. The default parks
    /// up to 5 s before declaring a frame failed; a run can never
    /// livelock on a dead flusher.
    pub send: SendPolicy,
    /// At-least-once delivery tracking (Storm's XOR acker wired into the
    /// live path). `None` (the default) runs exactly the untracked wire
    /// protocol; `Some` tracks every spout emission to its first-hop
    /// subscribers, replays expired trees, and dedups replays at the
    /// executors by root id.
    pub ack: Option<AckConfig>,
    /// Deterministic fault injection: when set, the run's fabric is
    /// wrapped in a [`FaultFabric`] driven by this plan, and the injected
    /// fault counters surface in the [`RunReport`].
    pub fault: Option<FaultPlan>,
    /// Persistent partition log behind the send path: every
    /// point-to-point data frame is appended to a per-endpoint
    /// [`PartitionLog`] *before* the fabric send (write-ahead, so frames
    /// rejected inside a crash window are still replayable). On tracked
    /// runs the acker's resolved roots drive the log's GC watermark, and
    /// a crashed endpoint with a scheduled [`whale_net::EndpointRestart`]
    /// gets its slice replayed from the log once it rejoins — executors'
    /// root-id dedup absorbs the overlap with live and acker-replayed
    /// deliveries, so delivery upgrades to effectively-once without
    /// spending the acker's replay budget. Relay-tree frames are not
    /// logged (crash recovery on relay runs stays with the acker).
    pub log: Option<LogConfig>,
    /// Liveness backstop: executors give up waiting for traffic (EOS
    /// included) this long after the run starts, so a lost EOS frame can
    /// degrade the run but never hang it. `None` waits forever.
    pub run_deadline: Option<Duration>,
    /// Snapshot the run's counters at this interval into
    /// [`RunReport::timeline`], so long runs show *when* things happened
    /// rather than only end-of-run totals. `None` records no timeline.
    pub monitor_interval: Option<Duration>,
}

impl Default for LiveConfig {
    fn default() -> Self {
        LiveConfig {
            machines: 4,
            comm_mode: CommMode::WorkerOriented,
            zero_copy: true,
            multicast_d_star: None,
            multicast_adaptive: None,
            shards: 1,
            shard_inbox_capacity: 4096,
            fabric: FabricKind::PerSend,
            send: SendPolicy::default(),
            ack: None,
            fault: None,
            log: None,
            run_deadline: None,
            monitor_interval: None,
        }
    }
}

/// Runtime tree adaptation (see [`LiveConfig::multicast_adaptive`]).
#[derive(Clone, Debug)]
pub struct AdaptiveConfig {
    /// Out-degree of the initial tree generation.
    pub initial_d: u32,
    /// Controller sampling interval (wall clock).
    pub interval: Duration,
    /// Transfer-queue capacity Q feeding the controller's waterline and
    /// the M/D/1 `d*` computation.
    pub queue_capacity: usize,
    /// EWMA smoothing factor for the arrival-rate estimate λ.
    pub alpha: f64,
    /// Per-hop emit-time estimate t_e (seconds) used until calibrated.
    pub t_e_default: f64,
    /// Bounded wait for the previous tree generation to drain before it
    /// is retired (and before EOS departs on the current tree). Frames a
    /// fault swallowed never drain; the grace keeps lossy runs moving.
    pub drain_grace: Duration,
    /// Drive the paper's coordinator/agent switch protocol over the data
    /// fabric for every reconfiguration (one representative session —
    /// all per-origin trees share a shape). Costs protocol round-trips;
    /// `false` applies the planned moves directly.
    pub switch_protocol: bool,
    /// Deterministic forced switches for benchmarks and tests: when
    /// `spout_emitted` crosses each threshold, switch to the paired
    /// degree. Non-empty bypasses the λ-driven controller.
    pub forced_switches: Vec<(u64, u32)>,
    /// Cluster topology awareness: when set, workers are placed on the
    /// configured rack layout, a [`LinkTracker`] attributes every fabric
    /// send to its (loopback / intra-rack / rack-uplink) link, the
    /// controller sees per-uplink pressure alongside λ, and — unless
    /// [`TopologyConfig::topo_trees`] is off — relay epochs are built
    /// rack-aware: subtrees stay intra-rack, each destination rack is
    /// entered over exactly one uplink edge, and switches route rack
    /// entries over the coolest uplinks. `None` keeps the single-rack
    /// topology-oblivious behavior.
    pub topology: Option<TopologyConfig>,
}

impl Default for AdaptiveConfig {
    fn default() -> Self {
        AdaptiveConfig {
            initial_d: 2,
            interval: Duration::from_millis(2),
            queue_capacity: 1024,
            alpha: 0.3,
            t_e_default: 20e-6,
            drain_grace: Duration::from_millis(250),
            switch_protocol: false,
            forced_switches: Vec::new(),
            topology: None,
        }
    }
}

/// At-least-once tracking configuration (see [`LiveConfig::ack`]).
#[derive(Clone, Copy, Debug)]
pub struct AckConfig {
    /// How long a tuple tree may stay incomplete before it is failed and
    /// replayed (Storm's `topology.message.timeout.secs`).
    pub timeout: Duration,
    /// Replay attempts per tuple before giving up and counting it in
    /// [`RunReport::tuples_failed`].
    pub max_replays: u32,
    /// Hard bound on the spout's post-emission drain loop; pending
    /// tuples left at the deadline are failed, never waited on forever.
    pub drain_deadline: Duration,
    /// Sleep between drain-loop passes.
    pub poll_interval: Duration,
    /// Send each remote EOS frame this many times. The receiver's EOS
    /// accounting is idempotent, so redundancy costs only bytes and buys
    /// EOS survival under drop faults.
    pub eos_redundancy: u32,
}

impl Default for AckConfig {
    fn default() -> Self {
        AckConfig {
            timeout: Duration::from_millis(250),
            max_replays: 8,
            drain_deadline: Duration::from_secs(30),
            poll_interval: Duration::from_millis(1),
            eos_redundancy: 1,
        }
    }
}

/// Why a topology could not be built into a running worker set.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum BuildError {
    /// A spout component has no registered factory in [`Operators`].
    MissingSpout(String),
    /// A bolt component has no registered factory in [`Operators`].
    MissingBolt(String),
}

impl std::fmt::Display for BuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BuildError::MissingSpout(name) => write!(f, "no spout registered for {name:?}"),
            BuildError::MissingBolt(name) => write!(f, "no bolt registered for {name:?}"),
        }
    }
}

impl std::error::Error for BuildError {}

/// Structured shutdown reason of a live run.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum RunOutcome {
    /// Every thread completed normally.
    Clean,
    /// The topology never ran: validation failed before any thread was
    /// spawned, and the report carries all-zero counters.
    ConfigError(BuildError),
    /// The run completed and tore down in order, but lost something along
    /// the way: panicking threads, frames whose bounded send retries
    /// exhausted, tuples that ran out of replays, or executors that hit
    /// the run deadline still waiting for traffic. Nothing here is
    /// silent — every loss is counted.
    Degraded {
        /// Number of threads that panicked.
        thread_panics: u64,
        /// Frames dropped after the send policy's deadline exhausted.
        failed_sends: u64,
        /// Tracked tuples that exhausted their replay budget.
        failed_tuples: u64,
        /// Executors that exited on [`LiveConfig::run_deadline`].
        deadline_exits: u64,
    },
}

impl RunOutcome {
    /// True only for a fully clean completion.
    pub fn is_clean(&self) -> bool {
        *self == RunOutcome::Clean
    }
}

/// Run-wide counters of a live run. The per-delivery counters live in
/// per-pipeline slots instead, so executors never write a shared line.
#[derive(Debug, Default)]
pub struct RunStats {
    /// Times a data item was serialized.
    pub serializations: AtomicU64,
    /// Wire frames encoded (each a pool acquire + fill). Redundant EOS
    /// copies and relay forwards resend existing bytes, so they grow
    /// fabric messages without growing this.
    pub frames_encoded: AtomicU64,
    /// Tuples emitted by spouts.
    pub spout_emitted: AtomicU64,
    /// Malformed, truncated, unroutable fabric frames — and tuples whose
    /// grouping could not route them (e.g. a missing key field) —
    /// dropped by the pipelines instead of crashing the worker.
    pub dropped_frames: AtomicU64,
    /// Operator invocations (`next_tuple`/`execute`/`finish`) that
    /// panicked; the owning pipeline poisons the task and keeps running.
    pub op_panics: AtomicU64,
    /// Backpressure retries performed under the send policy.
    pub send_retries: AtomicU64,
    /// Frames dropped after the send policy's deadline exhausted.
    pub send_failed: AtomicU64,
    /// Executors that exited on the run deadline instead of EOS.
    pub deadline_exits: AtomicU64,
}

/// A value alone on its cache line.
#[repr(align(64))]
#[derive(Debug, Default)]
struct CacheLine<T>(T);

/// One pipeline's per-delivery counters. Only the thread running the
/// pipeline writes its set, and the report and the timeline sum every
/// set, so no two pipelines ever write the same cache line.
#[repr(align(64))]
#[derive(Debug, Default)]
struct PipelineCounters {
    /// Executor deliveries made as lazy wire views (shared receive
    /// buffer, nothing decoded at dispatch).
    wire_tuples_lazy: AtomicU64,
    /// Lazy wire tuples an executor actually materialized (first touch
    /// of a tuple that crossed the operator boundary; fan-out sharing
    /// means this counts decodes, not deliveries).
    tuples_materialized: AtomicU64,
    /// Executor messages that crossed shard pipelines through a bounded
    /// inbox (same-shard deliveries loop back without a channel).
    cross_shard_msgs: AtomicU64,
    /// Relay forwards performed by non-source workers (multicast tree).
    relay_forwards: AtomicU64,
    /// Wire bytes sent on the relay path (origin sends + forwards).
    relay_bytes: AtomicU64,
    /// Received relay frames by tree depth of the receiving node.
    relay_depths: [AtomicU64; DEPTH_BUCKETS],
    /// Tuples executed, indexed by component id.
    executed: Box<[CacheLine<AtomicU64>]>,
}

impl PipelineCounters {
    /// One set per pipeline (`n_flat`).
    fn for_run(n_flat: usize, n_components: usize) -> Box<[PipelineCounters]> {
        (0..n_flat)
            .map(|_| PipelineCounters {
                executed: (0..n_components).map(|_| CacheLine::default()).collect(),
                ..PipelineCounters::default()
            })
            .collect()
    }
}

/// A counter summed over every set.
fn total(sets: &[PipelineCounters], field: impl Fn(&PipelineCounters) -> &AtomicU64) -> u64 {
    sets.iter().map(|c| field(c).load(Ordering::Relaxed)).sum()
}

/// Per-component executions summed over every set.
fn executed_totals(sets: &[PipelineCounters]) -> Vec<u64> {
    let n = sets.first().map_or(0, |c| c.executed.len());
    (0..n).map(|i| total(sets, |c| &c.executed[i].0)).collect()
}

/// The delivery-latency probe of one pipeline: sampled tuple ids with
/// the run-clock time (ns) of their spout emission and of every
/// execution, plus sampled relay forward latencies. Recording pushes
/// into buffers the pipeline owns — no lock, no shared write — and
/// teardown joins executions to emissions into
/// [`RunReport::delivery_ns`].
#[derive(Debug, Default)]
struct LatencyProbe {
    /// `(id, ns)` of sampled spout emissions.
    emitted: Vec<(u64, u64)>,
    /// `(id, ns)` of sampled executions.
    executed: Vec<(u64, u64)>,
    /// Relay forward events seen (drives forward-latency sampling).
    forward_events: u64,
    /// Sampled per-hop relay forward latencies (ns).
    forward_ns: Vec<u64>,
}

impl LatencyProbe {
    /// Join every pipeline's probe into `(delivery_ns, forward_ns)`: each
    /// sampled execution's latency from the latest emission of its id at
    /// or before it (executions of ids no spout emitted are not samples),
    /// and every sampled relay forward. Only the emissions are gathered
    /// into one buffer; executions are read where they were recorded.
    fn join(probes: &[LatencyProbe]) -> (Vec<u64>, Vec<u64>) {
        let mut emitted = Vec::with_capacity(probes.iter().map(|p| p.emitted.len()).sum());
        for p in probes {
            emitted.extend_from_slice(&p.emitted);
        }
        emitted.sort_unstable();
        let mut delivery = Vec::with_capacity(probes.iter().map(|p| p.executed.len()).sum());
        for &(id, at) in probes.iter().flat_map(|p| &p.executed) {
            let i = emitted.partition_point(|&e| e <= (id, at));
            match emitted[..i].last() {
                Some(&(eid, from)) if eid == id => delivery.push(at - from),
                _ => {}
            }
        }
        let mut forward = Vec::with_capacity(probes.iter().map(|p| p.forward_ns.len()).sum());
        for p in probes {
            forward.extend_from_slice(&p.forward_ns);
        }
        (delivery, forward)
    }
}

/// The shared at-least-once machinery of one tracked run.
struct AckRuntime {
    config: AckConfig,
    acker: Mutex<Acker>,
    /// Wall-clock epoch backing the acker's [`SimTime`] clock.
    epoch: Instant,
    /// Next root id (roots stay below `2^ROOT_BITS`).
    next_root: AtomicU64,
    /// Roots fully delivered (ledger hit zero, observed by their spout).
    acked: AtomicU64,
    /// Roots given up on after the replay budget or drain deadline.
    failed: AtomicU64,
    /// Replay emissions performed.
    replayed: AtomicU64,
    /// Duplicate deliveries suppressed at executors (same root seen
    /// again: a replay that raced the original, or a duplicated frame).
    dedup_dropped: AtomicU64,
}

impl AckRuntime {
    fn new(config: AckConfig) -> Self {
        let timeout = SimDuration::from_nanos((config.timeout.as_nanos() as u64).max(1));
        AckRuntime {
            config,
            acker: Mutex::new(Acker::new(timeout)),
            epoch: Instant::now(),
            next_root: AtomicU64::new(1),
            acked: AtomicU64::new(0),
            failed: AtomicU64::new(0),
            replayed: AtomicU64::new(0),
            dedup_dropped: AtomicU64::new(0),
        }
    }

    /// Now on the acker's clock.
    fn now(&self) -> SimTime {
        SimTime::from_nanos(self.epoch.elapsed().as_nanos() as u64)
    }
}

/// The per-run partition-log machinery (see [`LiveConfig::log`]): one
/// write-ahead [`PartitionLog`] per flat destination endpoint, an
/// acknowledgement-driven GC watermark, and replay counters.
struct LogRuntime {
    /// One log per flat fabric endpoint, indexed by endpoint id.
    logs: Vec<Mutex<PartitionLog>>,
    /// Per-endpoint FIFO of `(seq, root)` for tracked appends. The GC
    /// watermark advances over the prefix whose roots have resolved.
    pending: Vec<Mutex<VecDeque<(u64, u64)>>>,
    /// Roots whose ledger resolved — acked, replay budget exhausted, or
    /// force-failed at the drain deadline. Their log records are dead
    /// weight: replaying them is at worst a dedup-dropped duplicate.
    resolved: Mutex<HashSet<u64>>,
    /// Records re-sent from the log after an endpoint restart.
    replayed_records: AtomicU64,
    /// Bytes re-sent from the log after an endpoint restart.
    replayed_bytes: AtomicU64,
}

impl LogRuntime {
    fn new(config: LogConfig, n_flat: usize) -> Self {
        LogRuntime {
            logs: (0..n_flat)
                .map(|_| Mutex::new(PartitionLog::new(config)))
                .collect(),
            pending: (0..n_flat).map(|_| Mutex::new(VecDeque::new())).collect(),
            resolved: Mutex::new(HashSet::new()),
            replayed_records: AtomicU64::new(0),
            replayed_bytes: AtomicU64::new(0),
        }
    }

    /// Write one encoded frame through the destination's log (called
    /// before the fabric send). Endpoints outside the data range (switch
    /// protocol endpoints sit above it) are not logged.
    fn append(&self, to: EndpointId, tracked: Option<u64>, bytes: &[u8]) {
        let Some(log) = self.logs.get(to.0 as usize) else {
            return;
        };
        let seq = log.lock().append(bytes);
        if let Some(tr) = tracked {
            self.pending[to.0 as usize]
                .lock()
                .push_back((seq, root_of(tr)));
        }
    }

    /// Mark a root's ledger resolved, unblocking log GC past its records.
    fn note_resolved(&self, root: u64) {
        self.resolved.lock().insert(root);
    }

    /// One GC pass: per endpoint, advance the watermark over the
    /// resolved prefix of tracked appends and truncate the log to it.
    fn gc_pass(&self) {
        let resolved = self.resolved.lock();
        for (idx, pend) in self.pending.iter().enumerate() {
            let mut pend = pend.lock();
            let mut watermark = None;
            while let Some(&(seq, root)) = pend.front() {
                if !resolved.contains(&root) {
                    break;
                }
                watermark = Some(seq + 1);
                pend.pop_front();
            }
            if let Some(wm) = watermark {
                self.logs[idx].lock().truncate_to(wm);
            }
        }
    }

    fn fold(&self, f: impl Fn(&PartitionLog) -> u64) -> u64 {
        self.logs.iter().map(|l| f(&l.lock())).sum()
    }

    fn appended_records(&self) -> u64 {
        self.fold(|l| l.appended_records())
    }

    fn appended_bytes(&self) -> u64 {
        self.fold(|l| l.appended_bytes())
    }

    fn gcd_bytes(&self) -> u64 {
        self.fold(|l| l.gcd_bytes())
    }

    fn retained_bytes(&self) -> u64 {
        self.fold(|l| l.retained_bytes())
    }

    fn torn_tails(&self) -> u64 {
        self.fold(|l| l.torn_tails())
    }

    fn gc_watermark(&self) -> u64 {
        self.logs
            .iter()
            .map(|l| l.lock().gc_watermark())
            .max()
            .unwrap_or(0)
    }
}

/// Every `LATENCY_SAMPLE`-th tracked tuple is timed from spout emission to
/// each bolt execution (wall clock).
const LATENCY_SAMPLE: u64 = 8;

/// Result of a completed live run.
#[derive(Debug)]
pub struct RunReport {
    /// Wall-clock time of the run.
    pub elapsed: std::time::Duration,
    /// Data-item serializations performed.
    pub serializations: u64,
    /// Tuples executed per component (by component id index).
    pub executed: Vec<u64>,
    /// Tuples emitted by spouts.
    pub spout_emitted: u64,
    /// Network messages through the fabric.
    pub fabric_messages: u64,
    /// Bytes copied (TCP semantics).
    pub copied_bytes: u64,
    /// Bytes shared (RDMA semantics).
    pub shared_bytes: u64,
    /// Relay forwards performed by non-source workers (multicast tree).
    pub relay_forwards: u64,
    /// Wire frames encoded (pool acquire + fill). Redundant EOS copies
    /// and relay forwards resend existing bytes without re-encoding.
    pub frames_encoded: u64,
    /// Wire bytes sent on the relay path (origin sends + forwards); the
    /// remainder of the fabric byte totals moved point-to-point.
    pub relay_bytes: u64,
    /// Relay frames dropped because their tree generation was retired.
    pub relay_stale_drops: u64,
    /// Bytes delivered over rack uplinks — the oversubscribed links a
    /// topology-aware tree economizes (0 unless a topology is
    /// configured).
    pub uplink_bytes: u64,
    /// Delivered bytes per link (`LinkId` rendered, bytes), every link
    /// with traffic. Sums to `copied_bytes + shared_bytes`: each send
    /// traverses exactly one link, so per-link totals tile the wire
    /// total. Empty unless a topology is configured.
    pub link_bytes: Vec<(String, u64)>,
    /// Runtime tree reconfigurations performed.
    pub relay_switches: u64,
    /// Per-instance connection moves across all reconfigurations.
    pub relay_switch_moves: u64,
    /// Final relay tree generation (0 when no switch happened).
    pub relay_epoch: u32,
    /// Final relay out-degree (0 when the relay path was off).
    pub relay_d_star: u32,
    /// Received relay frames by tree depth of the receiving node (last
    /// bucket absorbs deeper hops); empty when the relay path was off.
    pub relay_depths: Vec<u64>,
    /// Sampled per-hop relay forward latencies (receipt to last child
    /// send, ns), unordered.
    pub relay_forward_ns: Vec<u64>,
    /// Malformed or unroutable fabric frames (and unroutable tuples)
    /// dropped by the pipelines.
    pub dropped_frames: u64,
    /// Panicked operator invocations plus panicked runtime threads; a
    /// panicking operator poisons its task, and the run still joins
    /// every thread and tears the fabric down in order.
    pub thread_panics: u64,
    /// Pipeline shards per worker the run executed with.
    pub shards: u64,
    /// Executor messages that crossed shard pipelines through bounded
    /// inboxes (0 when every delivery stayed shard-local).
    pub cross_shard_msgs: u64,
    /// Executor deliveries made as lazy wire views — received frames
    /// dispatched without decoding anything.
    pub wire_tuples_lazy: u64,
    /// Lazy wire tuples materialized on first executor touch; the gap to
    /// `wire_tuples_lazy` is decode work the view layer never did.
    pub tuples_materialized: u64,
    /// Sends that failed at the fabric (unknown endpoint, backpressure
    /// that never cleared, or a receiver dropped during teardown). Failed
    /// sends never count toward the byte totals.
    pub send_errors: u64,
    /// Batches the transport flushed (0 on the per-send path).
    pub batches_flushed: u64,
    /// Mean messages per flushed batch (0 on the per-send path).
    pub mean_batch_size: f64,
    /// Encode-buffer pool acquires served from a reused buffer.
    pub pool_hits: u64,
    /// Encode-buffer pool acquires that had to allocate.
    pub pool_misses: u64,
    /// Most encode buffers outstanding at once during the run.
    pub pool_high_watermark: u64,
    /// Pool hits over total acquires (≈ 1.0 once warm: the steady-state
    /// hot path allocates nothing).
    pub pool_hit_rate: f64,
    /// Backpressure retries performed under the send policy.
    pub send_retries: u64,
    /// Frames dropped after the send policy's deadline exhausted (these
    /// degrade the run; teardown races do not).
    pub send_failed: u64,
    /// Executors that exited on [`LiveConfig::run_deadline`].
    pub deadline_exits: u64,
    /// Tracked tuples fully delivered (ack runs only).
    pub tuples_acked: u64,
    /// Tracked tuples given up on after the replay budget (ack runs only).
    pub tuples_failed: u64,
    /// Replay emissions performed (ack runs only).
    pub tuples_replayed: u64,
    /// Duplicate deliveries suppressed at executors by root-id dedup.
    pub dedup_dropped: u64,
    /// Frames silently dropped by injected drop faults.
    pub fault_drops: u64,
    /// Frames duplicated by injected faults.
    pub fault_duplicates: u64,
    /// Frames parked by injected delay faults.
    pub fault_delayed: u64,
    /// Sends rejected by injected `Full` bursts.
    pub fault_full_injected: u64,
    /// Frames lost inside injected partition windows.
    pub fault_partition_drops: u64,
    /// Sends rejected because an injected crash took the destination.
    pub fault_crashed_sends: u64,
    /// Data frames written through the partition log before the fabric
    /// (0 unless [`LiveConfig::log`] is set).
    pub log_appended_records: u64,
    /// Payload bytes written through the partition log.
    pub log_appended_bytes: u64,
    /// Frames re-sent from the log after an endpoint restart.
    pub log_replayed_records: u64,
    /// Bytes re-sent from the log after an endpoint restart.
    pub log_replayed_bytes: u64,
    /// Log bytes reclaimed by acker-watermark garbage collection.
    pub log_gcd_bytes: u64,
    /// Highest per-endpoint log GC watermark (sequence number).
    pub log_gc_watermark: u64,
    /// Log bytes still resident at shutdown.
    pub log_retained_bytes: u64,
    /// Torn tails healed when recovering persisted log images.
    pub log_torn_tails: u64,
    /// Periodic counter snapshots (empty unless
    /// [`LiveConfig::monitor_interval`] is set).
    pub timeline: Vec<TimelineSample>,
    /// Structured shutdown reason.
    pub outcome: RunOutcome,
    /// Sampled spout-to-execute delivery latencies (ns), unordered.
    pub delivery_ns: Vec<u64>,
}

/// One periodic snapshot of a live run's counters (see
/// [`LiveConfig::monitor_interval`]).
#[derive(Clone, Copy, Debug)]
pub struct TimelineSample {
    /// Wall-clock offset from run start.
    pub at: Duration,
    /// Tuples emitted by spouts so far.
    pub spout_emitted: u64,
    /// Tuples executed so far (all components).
    pub executed: u64,
    /// Fabric messages delivered so far.
    pub fabric_messages: u64,
    /// Fabric send errors so far (includes injected faults).
    pub send_errors: u64,
    /// Backpressure retries so far.
    pub send_retries: u64,
    /// Tracked tuples acked so far (0 on untracked runs).
    pub acked: u64,
    /// Tracked tuples failed so far (0 on untracked runs).
    pub failed: u64,
    /// Replays performed so far (0 on untracked runs).
    pub replayed: u64,
}

impl RunReport {
    /// Mean sampled delivery latency.
    pub fn mean_delivery(&self) -> std::time::Duration {
        if self.delivery_ns.is_empty() {
            return std::time::Duration::ZERO;
        }
        let sum: u64 = self.delivery_ns.iter().sum();
        std::time::Duration::from_nanos(sum / self.delivery_ns.len() as u64)
    }

    /// p99 sampled delivery latency.
    pub fn p99_delivery(&self) -> std::time::Duration {
        if self.delivery_ns.is_empty() {
            return std::time::Duration::ZERO;
        }
        let mut v = self.delivery_ns.clone();
        v.sort_unstable();
        let idx = ((v.len() - 1) as f64 * 0.99).round() as usize;
        std::time::Duration::from_nanos(v[idx])
    }

    /// Export the run as a [`MetricsRegistry`] snapshot under `dsps.*`:
    /// dispatch/send/relay counters, fabric byte split, and the sampled
    /// delivery-latency distribution as a percentile summary.
    pub fn metrics(&self) -> whale_sim::MetricsRegistry {
        use whale_sim::{Histogram, MetricsRegistry};
        let mut reg = MetricsRegistry::new();
        reg.set_gauge("dsps.elapsed_secs", self.elapsed.as_secs_f64());
        reg.set_counter("dsps.serializations", self.serializations);
        reg.set_counter("dsps.spout_emitted", self.spout_emitted);
        reg.set_counter("dsps.frames_encoded", self.frames_encoded);
        reg.set_counter("dsps.relay_forwards", self.relay_forwards);
        // The relay/direct byte split: what traveled the multicast tree
        // vs point-to-point. (A fault-swallowed relay frame is charged
        // here but never reached the fabric totals, hence saturating.)
        let wire = self.copied_bytes + self.shared_bytes;
        reg.set_counter("dsps.relay.bytes", self.relay_bytes);
        reg.set_counter("dsps.direct_bytes", wire.saturating_sub(self.relay_bytes));
        reg.set_counter("dsps.relay.stale_drops", self.relay_stale_drops);
        reg.set_counter("dsps.links.uplink_bytes", self.uplink_bytes);
        for (link, bytes) in &self.link_bytes {
            reg.set_counter(&format!("dsps.links.bytes.{link}"), *bytes);
        }
        reg.set_counter("dsps.relay.switches", self.relay_switches);
        reg.set_counter("dsps.relay.switch_moves", self.relay_switch_moves);
        reg.set_gauge("dsps.relay.epoch", self.relay_epoch as f64);
        reg.set_gauge("dsps.relay.d_star", self.relay_d_star as f64);
        for (d, &n) in self.relay_depths.iter().enumerate() {
            if n > 0 {
                reg.set_counter(&format!("dsps.relay.depth_{d}"), n);
            }
        }
        if !self.relay_forward_ns.is_empty() {
            let mut h = Histogram::new();
            for &ns in &self.relay_forward_ns {
                h.record(ns);
            }
            reg.set_summary("dsps.relay.forward_ns", &h);
        }
        reg.set_counter("dsps.dropped_frames", self.dropped_frames);
        reg.set_counter("dsps.thread_panics", self.thread_panics);
        reg.set_gauge("dsps.shards", self.shards as f64);
        reg.set_counter("dsps.cross_shard_msgs", self.cross_shard_msgs);
        reg.set_counter("dsps.fabric.messages", self.fabric_messages);
        reg.set_counter("dsps.fabric.copied_bytes", self.copied_bytes);
        reg.set_counter("dsps.fabric.shared_bytes", self.shared_bytes);
        reg.set_counter("dsps.fabric.send_errors", self.send_errors);
        reg.set_counter("dsps.fabric.batches_flushed", self.batches_flushed);
        reg.set_gauge("dsps.fabric.mean_batch_size", self.mean_batch_size);
        reg.set_counter("dsps.pool.hits", self.pool_hits);
        reg.set_counter("dsps.pool.misses", self.pool_misses);
        reg.set_gauge("dsps.pool.high_watermark", self.pool_high_watermark as f64);
        reg.set_gauge("dsps.pool.hit_rate", self.pool_hit_rate);
        reg.set_counter("dsps.send.retries", self.send_retries);
        reg.set_counter("dsps.send.failed", self.send_failed);
        reg.set_counter("dsps.deadline_exits", self.deadline_exits);
        reg.set_counter("dsps.ack.acked", self.tuples_acked);
        reg.set_counter("dsps.ack.failed", self.tuples_failed);
        reg.set_counter("dsps.ack.replayed", self.tuples_replayed);
        reg.set_counter("dsps.ack.dedup_dropped", self.dedup_dropped);
        reg.set_counter("dsps.fault.drops", self.fault_drops);
        reg.set_counter("dsps.fault.duplicates", self.fault_duplicates);
        reg.set_counter("dsps.fault.delayed", self.fault_delayed);
        reg.set_counter("dsps.fault.full_injected", self.fault_full_injected);
        reg.set_counter("dsps.fault.partition_drops", self.fault_partition_drops);
        reg.set_counter("dsps.fault.crashed_sends", self.fault_crashed_sends);
        reg.set_counter("dsps.log.appended_records", self.log_appended_records);
        reg.set_counter("dsps.log.appended_bytes", self.log_appended_bytes);
        reg.set_counter("dsps.log.replayed_records", self.log_replayed_records);
        reg.set_counter("dsps.log.replayed_bytes", self.log_replayed_bytes);
        reg.set_counter("dsps.log.gcd_bytes", self.log_gcd_bytes);
        reg.set_counter("dsps.log.torn_tails", self.log_torn_tails);
        reg.set_gauge("dsps.log.gc_watermark", self.log_gc_watermark as f64);
        reg.set_gauge("dsps.log.retained_bytes", self.log_retained_bytes as f64);
        if !self.timeline.is_empty() {
            use whale_sim::TimeSeries;
            type SampleField = fn(&TimelineSample) -> u64;
            let mut by_metric: Vec<(&str, SampleField)> = Vec::new();
            by_metric.push(("dsps.timeline.spout_emitted", |s| s.spout_emitted));
            by_metric.push(("dsps.timeline.executed", |s| s.executed));
            by_metric.push(("dsps.timeline.fabric_messages", |s| s.fabric_messages));
            by_metric.push(("dsps.timeline.send_errors", |s| s.send_errors));
            by_metric.push(("dsps.timeline.send_retries", |s| s.send_retries));
            by_metric.push(("dsps.timeline.acked", |s| s.acked));
            by_metric.push(("dsps.timeline.failed", |s| s.failed));
            by_metric.push(("dsps.timeline.replayed", |s| s.replayed));
            for (name, f) in by_metric {
                let mut ts = TimeSeries::new();
                for s in &self.timeline {
                    ts.push(SimTime::from_nanos(s.at.as_nanos() as u64), f(s) as f64);
                }
                reg.set_series(name, &ts);
            }
        }
        reg.set_gauge(
            "dsps.clean",
            if self.outcome.is_clean() { 1.0 } else { 0.0 },
        );
        for (i, &n) in self.executed.iter().enumerate() {
            reg.set_counter(&format!("dsps.executed.component_{i}"), n);
        }
        let mut h = Histogram::new();
        for &ns in &self.delivery_ns {
            h.record(ns);
        }
        reg.set_summary("dsps.delivery_ns", &h);
        reg
    }
}

/// Per-component operator implementations.
#[derive(Default)]
pub struct Operators {
    spouts: HashMap<String, SpoutFactory>,
    bolts: HashMap<String, BoltFactory>,
}

impl Operators {
    /// New empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a spout factory for a component name.
    pub fn spout(
        mut self,
        name: &str,
        f: impl Fn(u32) -> Box<dyn Spout> + Send + Sync + 'static,
    ) -> Self {
        self.spouts.insert(name.to_string(), Box::new(f));
        self
    }

    /// Register a bolt factory for a component name.
    pub fn bolt(
        mut self,
        name: &str,
        f: impl Fn(u32) -> Box<dyn Bolt> + Send + Sync + 'static,
    ) -> Self {
        self.bolts.insert(name.to_string(), Box::new(f));
        self
    }
}

/// Shared, immutable routing context used by every sender thread.
struct Routing {
    topology: Topology,
    placement: Placement,
    config: LiveConfig,
    fabric: Arc<dyn FabricPath>,
    /// Encode scratch buffers, reused across frames: the steady-state hot
    /// path allocates nothing (see [`BufferPool`]).
    pool: BufferPool,
    /// Cross-shard inboxes, indexed by flat shard id
    /// (`worker * shards + task % shards`). Bounded: a full inbox
    /// backpressures the sender under the run's [`SendPolicy`].
    shard_inboxes: Vec<ShardInbox>,
    /// Pipeline threads per worker (`LiveConfig::shards`, clamped ≥ 1).
    shards: u32,
    stats: Arc<RunStats>,
    /// Per-delivery counters: one set per flat shard (see
    /// [`Routing::counters`]).
    counters: Box<[PipelineCounters]>,
    /// The run clock the latency probe stamps against.
    clock: Instant,
    /// At-least-once machinery; `None` runs untracked.
    ack: Option<AckRuntime>,
    /// Epoch-versioned multicast relay structures; `None` sends
    /// broadcasts directly.
    relay: Option<RelayState>,
    /// Per-link load accounting over the cluster topology; `None` unless
    /// [`AdaptiveConfig::topology`] is set. Installed on the outermost
    /// fabric, so every send is attributed to exactly one link.
    tracker: Option<Arc<LinkTracker>>,
    /// Write-ahead partition logs for crash recovery; `None` runs
    /// unlogged (see [`LiveConfig::log`]).
    log: Option<LogRuntime>,
}

/// One pipeline's bounded cross-shard inbox. The ring is allocated by
/// the first delivery that needs it, so a run whose deliveries never
/// cross pipelines (one pipeline per worker, the default) never pays
/// for it at setup.
struct ShardInbox {
    capacity: usize,
    tx: OnceLock<Sender<(TaskId, ExecMsg)>>,
    /// The receiving half, parked until the owning pipeline takes it.
    rx: Mutex<Option<Receiver<(TaskId, ExecMsg)>>>,
}

impl ShardInbox {
    fn new(capacity: usize) -> Self {
        ShardInbox {
            capacity,
            tx: OnceLock::new(),
            rx: Mutex::new(None),
        }
    }

    /// The sending half, creating the inbox on first use.
    fn sender(&self) -> &Sender<(TaskId, ExecMsg)> {
        self.tx.get_or_init(|| {
            let (tx, rx) = bounded(self.capacity);
            *self.rx.lock() = Some(rx);
            tx
        })
    }

    /// The receiving half, once the inbox exists (the receiver is parked
    /// before the sender is published, so it is there to take).
    fn take_receiver(&self) -> Option<Receiver<(TaskId, ExecMsg)>> {
        self.tx.get()?;
        self.rx.lock().take()
    }

    /// Messages queued and not yet received.
    fn depth(&self) -> usize {
        self.tx.get().map_or(0, Sender::len)
    }
}

/// Node index i of origin worker `origin` maps to this worker id.
fn relay_node_worker(origin: u32, node: u32, n_workers: u32) -> WorkerId {
    // Workers ascending, skipping the origin.
    let id = if node < origin { node } else { node + 1 };
    debug_assert!(id < n_workers);
    WorkerId(id)
}

/// Inverse of [`relay_node_worker`]: the node index of `worker` in
/// `origin`'s tree, or `None` for the origin itself. Because the mapping
/// is a pure function of `(origin, worker)`, relay frames never carry a
/// node index — every receiver derives its own — which is what makes one
/// wire buffer valid for every child.
fn relay_node_of_worker(origin: u32, worker: u32) -> Option<u32> {
    match worker.cmp(&origin) {
        std::cmp::Ordering::Less => Some(worker),
        std::cmp::Ordering::Equal => None,
        std::cmp::Ordering::Greater => Some(worker - 1),
    }
}

/// Relay-depth histogram buckets (hop distance from the origin; the last
/// bucket absorbs deeper hops).
const DEPTH_BUCKETS: usize = 16;

/// One immutable generation of relay structures: every origin worker's
/// tree over the *other* workers (node index i = the i-th worker id
/// excluding the origin), all built with the same out-degree.
///
/// Each generation owns its in-flight send accounting: the counter is
/// charged against the epoch a frame was stamped with, travels with the
/// generation through demotion, and dies with it — so a retired
/// generation's leftover charges can never bleed into a fresh epoch (the
/// old slot-aliased array needed extra slots and a reset to approximate
/// this).
struct RelayEpoch {
    epoch: u32,
    d_star: u32,
    trees: Vec<MulticastTree>,
    /// Relay frames sent minus received on this generation. A node
    /// forwards to its children *before* decrementing its own receipt,
    /// so zero means the generation is genuinely drained (frames a fault
    /// dropped never decrement; the bounded grace covers those).
    inflight: AtomicI64,
}

impl RelayEpoch {
    /// Charge one in-flight frame — called *before* the send, so the
    /// generation can never read drained while an accepted frame sits
    /// uncounted in a fabric queue. Undo with [`Self::note_received`] if
    /// the fabric rejects the send.
    fn note_sent(&self) {
        self.inflight.fetch_add(1, Ordering::Relaxed);
    }

    fn note_received(&self) {
        self.inflight.fetch_sub(1, Ordering::Relaxed);
    }
}

fn build_relay_epoch(epoch: u32, d: u32, workers: u32) -> RelayEpoch {
    RelayEpoch {
        epoch,
        d_star: d,
        trees: (0..workers)
            .map(|_| build_nonblocking(workers.saturating_sub(1), d))
            .collect(),
        inflight: AtomicI64::new(0),
    }
}

/// Rack-aware sibling of [`build_relay_epoch`]: each origin's tree is
/// built over the placement's rack map (node i of origin o lives in the
/// rack of `relay_node_worker(o, i)`'s machine), with the current
/// per-rack uplink loads steering which uplinks carry rack entries.
fn build_relay_epoch_topo(
    epoch: u32,
    d: u32,
    placement: &Placement,
    spec: &ClusterSpec,
    uplink_loads: &[u64],
) -> RelayEpoch {
    let workers = placement.workers();
    let rack_of_worker =
        |w: WorkerId| spec.rack_of(placement.machine_of_worker(w)).0;
    let trees = (0..workers)
        .map(|origin| {
            let node_racks: Vec<u32> = (0..workers.saturating_sub(1))
                .map(|node| rack_of_worker(relay_node_worker(origin, node, workers)))
                .collect();
            TopoTreeBuilder::new(d.max(1), rack_of_worker(WorkerId(origin)), node_racks)
                .with_uplink_load(uplink_loads)
                .build()
        })
        .collect();
    RelayEpoch {
        epoch,
        d_star: d,
        trees,
        inflight: AtomicI64::new(0),
    }
}

/// The live relay plane: the current tree generation behind a swap slot,
/// the previous generation draining out, and the relay-path counters.
///
/// Epoch lifecycle: senders stamp the current epoch into every relay
/// frame; a switch publishes a new generation and demotes the old one to
/// `prev`, which keeps accepting its in-flight frames until drained (or
/// until the bounded grace expires). Frames from any older generation
/// are dropped and counted in `stale_drops` — on tracked runs the acker
/// replays them on the current tree, so a switch can delay but never
/// silently lose a tracked tuple.
struct RelayState {
    current: RwLock<Arc<RelayEpoch>>,
    prev: RwLock<Option<Arc<RelayEpoch>>>,
    /// Frames dropped because their epoch was already retired.
    stale_drops: AtomicU64,
    /// Tree reconfigurations performed.
    switches: AtomicU64,
    /// Per-instance connection moves across all reconfigurations.
    switch_moves: AtomicU64,
}

impl RelayState {
    fn new(initial: RelayEpoch) -> Self {
        RelayState {
            current: RwLock::new(Arc::new(initial)),
            prev: RwLock::new(None),
            stale_drops: AtomicU64::new(0),
            switches: AtomicU64::new(0),
            switch_moves: AtomicU64::new(0),
        }
    }

    fn current(&self) -> Arc<RelayEpoch> {
        Arc::clone(&self.current.read())
    }

    /// The generation a frame's epoch belongs to: current, draining
    /// previous, or `None` (retired — the frame is stale).
    fn lookup(&self, epoch: u32) -> Option<Arc<RelayEpoch>> {
        let cur = self.current.read();
        if cur.epoch == epoch {
            return Some(Arc::clone(&cur));
        }
        drop(cur);
        let prev = self.prev.read();
        prev.as_ref().filter(|p| p.epoch == epoch).map(Arc::clone)
    }

    /// Retire the previous generation if it has drained. Returns true
    /// when no previous generation remains.
    fn try_retire_prev(&self) -> bool {
        let mut prev = self.prev.write();
        match prev.as_ref() {
            None => true,
            Some(p) => {
                // Drained means no counted frames in flight AND nobody
                // else holds the generation (senders keep the Arc from
                // snapshot until after their note_sent; receivers keep
                // theirs through forwarding) — so a frame between
                // snapshot and charge can't slip through retirement. The
                // counter is the generation's own, so retirement is
                // exact: it fires the moment *this* epoch's queue is
                // empty, not when a shared slot happens to read zero.
                if p.inflight.load(Ordering::Relaxed) <= 0 && Arc::strong_count(p) == 1 {
                    *prev = None;
                    true
                } else {
                    false
                }
            }
        }
    }

    /// Bounded wait for the previous generation to drain; frames a fault
    /// swallowed never decrement the slot, so the grace keeps a lossy run
    /// from wedging the switch (tracked replays recover the loss).
    fn await_prev_drained(&self, grace: Duration) -> bool {
        let deadline = Instant::now() + grace;
        loop {
            if self.try_retire_prev() {
                return true;
            }
            if Instant::now() >= deadline {
                return false;
            }
            std::thread::sleep(Duration::from_micros(200));
        }
    }

    /// Install a new generation: the current one becomes `prev` (any
    /// unretired `prev` is force-retired — its remaining frames become
    /// stale and their charges die with the dropped generation).
    fn publish(&self, next: Arc<RelayEpoch>) {
        let mut cur = self.current.write();
        let old = std::mem::replace(&mut *cur, next);
        *self.prev.write() = Some(old);
    }
}

thread_local! {
    /// Flat shard id of the pipeline running on this thread, if any.
    /// Deliveries targeting this shard skip the inbox and loop back
    /// through [`LOCAL_QUEUE`]; threads without a pipeline always deliver
    /// through the inboxes.
    static CURRENT_SHARD: Cell<Option<usize>> = const { Cell::new(None) };
    /// Same-shard deliveries looped back without touching any channel;
    /// the owning pipeline drains it after every operator step.
    static LOCAL_QUEUE: RefCell<VecDeque<(TaskId, ExecMsg)>> =
        const { RefCell::new(VecDeque::new()) };
}

impl Routing {
    /// The shard slice a task belongs to on its worker (stable map).
    fn shard_of(&self, t: TaskId) -> u32 {
        t.0 % self.shards
    }

    /// The calling pipeline's own counter set. Only pipeline threads
    /// route, execute and relay, so only they count.
    fn counters(&self) -> &PipelineCounters {
        let own = CURRENT_SHARD.with(Cell::get);
        debug_assert!(own.is_some(), "counters are written on pipeline threads");
        &self.counters[own.unwrap_or(0)]
    }

    /// Nanoseconds on the run clock.
    fn now_ns(&self) -> u64 {
        self.clock.elapsed().as_nanos() as u64
    }

    /// Whether an edge's broadcasts travel the relay tree.
    fn relays(&self, grouping: &Grouping) -> bool {
        self.relay.is_some()
            && self.config.comm_mode == CommMode::WorkerOriented
            && *grouping == Grouping::All
    }

    /// Charge wire bytes sent on the relay path.
    fn note_relay_bytes(&self, bytes: usize) {
        self.counters()
            .relay_bytes
            .fetch_add(bytes as u64, Ordering::Relaxed);
    }

    /// The run's topology config, if topology awareness is on.
    fn topology_config(&self) -> Option<&TopologyConfig> {
        self.config
            .multicast_adaptive
            .as_ref()
            .and_then(|a| a.topology.as_ref())
    }

    /// Rack-uplink pressure snapshot for the controller (zeros when no
    /// tracker is installed).
    fn link_pressure(&self) -> LinkPressure {
        match (self.tracker.as_deref(), self.topology_config()) {
            (Some(t), Some(cfg)) => LinkPressure {
                max_uplink_queue: t.max_uplink_queue(),
                uplink_bytes: t.uplink_bytes(),
                hot_uplinks: t.hot_uplinks(cfg.hot_uplink_queue),
            },
            _ => LinkPressure::default(),
        }
    }

    /// The tree-construction inputs when rack-aware relay trees are on:
    /// the cluster spec plus the current per-rack uplink loads.
    fn topo_tree_inputs(&self) -> Option<(&ClusterSpec, Vec<u64>)> {
        let tracker = self.tracker.as_deref()?;
        self.topology_config()
            .filter(|cfg| cfg.topo_trees)
            .map(|_| (tracker.spec(), tracker.uplink_loads()))
    }

    /// The flat pipeline index of a task: `worker * shards + shard`.
    fn flat_shard_of(&self, t: TaskId) -> usize {
        (self.placement.worker_of(t).0 * self.shards + self.shard_of(t)) as usize
    }

    /// The fabric endpoint of one (worker, shard) pipeline.
    fn endpoint(&self, worker: u32, shard: u32) -> EndpointId {
        EndpointId(worker * self.shards + shard)
    }

    /// The endpoint relay traffic targets: a worker's shard-0 pipeline
    /// (relay frames address whole workers, not tasks; the receiving
    /// pipeline fans decoded tuples out to the owning shards).
    fn relay_endpoint(&self, worker: u32) -> EndpointId {
        EndpointId(worker * self.shards)
    }

    /// Deepest cross-shard inbox backlog (queue-pressure input for the
    /// adaptive controller, alongside the fabric's transfer queues).
    fn max_inbox_depth(&self) -> usize {
        self.shard_inboxes.iter().map(ShardInbox::depth).max().unwrap_or(0)
    }

    /// Turn a received data item into the executor-facing handle. A
    /// shared payload (RDMA semantics) is anchored as-is — the view
    /// rides the receive buffer's refcount and nothing is decoded until
    /// an executor touches it. A copied payload (TCP semantics) does not
    /// outlive dispatch, so the tuple is materialized here, eagerly —
    /// which is also where a copied frame's bad UTF-8 still surfaces.
    fn lazy_tuple(
        &self,
        payload: &Payload,
        view: &TupleView<'_>,
    ) -> Result<LazyTuple, DecodeError> {
        match payload {
            Payload::Shared(buf) => Ok(LazyTuple::from_wire_view(Arc::clone(buf), view)),
            Payload::Copied(_) => view.to_tuple().map(LazyTuple::from_tuple),
        }
    }

    /// Count one lazy-view executor delivery (no-op for owned handles).
    fn note_lazy_delivery(&self, lazy: &LazyTuple) {
        if lazy.is_wire() {
            self.counters()
                .wire_tuples_lazy
                .fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Deliver one executor message to the pipeline owning `dst`.
    /// Same-shard deliveries loop back through the thread-local queue
    /// (no channel, no lock); everything else goes to the owning shard's
    /// bounded inbox under the send policy's backoff — a full inbox that
    /// never clears drops the message loudly (`send_failed`), mirroring
    /// fabric backpressure. Returns false only when `dst` is not a task
    /// this run hosts (the caller counts the drop when it came off the
    /// wire); backpressure loss and teardown races are handled here.
    fn deliver(&self, dst: TaskId, msg: ExecMsg) -> bool {
        if self.topology.tasks().component_of(dst).is_none() {
            return false;
        }
        let flat = self.flat_shard_of(dst);
        let Some(inbox) = self.shard_inboxes.get(flat) else {
            return false;
        };
        if CURRENT_SHARD.with(|c| c.get()) == Some(flat) {
            LOCAL_QUEUE.with_borrow_mut(|q| q.push_back((dst, msg)));
            return true;
        }
        let tx = inbox.sender();
        let mut item = Some((dst, msg));
        let sent = self.config.send.run(&self.stats.send_retries, || {
            match tx.try_send(item.take().expect("re-armed on Full")) {
                Ok(()) => Ok(()),
                Err(TrySendError::Full(v)) => {
                    item = Some(v);
                    Err(SendError::Full)
                }
                Err(TrySendError::Disconnected(_)) => Err(SendError::Disconnected),
            }
        });
        match sent {
            Ok(()) => {
                self.counters()
                    .cross_shard_msgs
                    .fetch_add(1, Ordering::Relaxed);
            }
            Err(SendError::Full) => {
                // Backpressure never cleared: the message is lost,
                // loudly (tracked tuples time out into replays).
                self.stats.send_failed.fetch_add(1, Ordering::Relaxed);
            }
            // Teardown race: the owning pipeline already exited.
            Err(_) => {}
        }
        true
    }

    /// Send one tuple from `src` to routed destinations of every
    /// downstream edge. `groupings` carries the per-task grouping state.
    /// A `tracked` id pre-registered with the acker is armed here: one
    /// anchor per destination, XOR'd into the ledger atomically after
    /// every destination is known (an empty destination set arms to zero
    /// and acks immediately). A tuple a grouping cannot route (missing
    /// key field) is dropped and counted, never a panic.
    fn emit(&self, src: TaskId, groupings: &mut Groupings, tuple: Tuple, tracked: Option<u64>) {
        let mut tuple = Emitted::Owned(tuple);
        let mut arm_xor = 0u64;
        for (comp, router) in groupings.edges.iter_mut() {
            // Tracked tuples ride the relay tree too: the frame carries
            // the tracked id, every receiver derives its local tasks'
            // anchors, and executor root-id dedup makes any relay
            // duplicate harmless.
            let relayed = self.relays(router.grouping());
            let Ok(plan) = router.route(tuple.get(), &self.placement) else {
                self.stats.dropped_frames.fetch_add(1, Ordering::Relaxed);
                continue;
            };
            arm_xor ^= if relayed {
                self.relay_broadcast(src, &mut tuple, *comp, plan, tracked)
            } else {
                self.send_data(src, &mut tuple, plan, tracked)
            };
        }
        if let (Some(tr), Some(ack)) = (tracked, self.ack.as_ref()) {
            // Arming is order-independent with executor acks: XOR cancels
            // regardless of which side lands first.
            ack.acker.lock().ack(tr, arm_xor);
        }
    }

    /// Whale's multicast path: serialize once into a child-invariant
    /// wire frame (`tag | RelayHeader | item` — no node index, every
    /// receiver derives its own), dispatch locally, and send the same
    /// shared buffer to each of the source worker's tree children;
    /// relays forward the received bytes verbatim. Returns the XOR of
    /// the anchors armed for the component's tasks when `tracked` is
    /// set (the whole subscriber set, local and remote, is charged up
    /// front — an undelivered branch times out into a replay).
    fn relay_broadcast(
        &self,
        src: TaskId,
        tuple: &mut Emitted,
        comp: ComponentId,
        plan: &RoutePlan,
        tracked: Option<u64>,
    ) -> u64 {
        let relay = self.relay.as_ref().expect("relayable implies relay state");
        self.stats.serializations.fetch_add(1, Ordering::Relaxed);
        let src_worker = self.placement.worker_of(src);
        let mut arm_xor = 0u64;
        if let Some(tr) = tracked {
            for &t in plan.local().iter().chain(plan.remote()) {
                arm_xor ^= anchor_for(tr, t);
            }
        }
        // Local instances of the broadcast target on the source's worker.
        for &t in plan.local() {
            let tag = tracked.map(|tr| AckTag {
                tracked: tr,
                anchor: anchor_for(tr, t),
            });
            self.deliver(t, ExecMsg::Data(tuple.share(), tag));
        }
        let tuple = tuple.get();
        // Encode the whole wire frame exactly once into pooled scratch.
        let epoch = relay.current();
        let mut scratch = self.pool.acquire();
        scratch.put_u8(TAG_RELAY);
        RelayHeader {
            origin: src_worker.0,
            epoch: epoch.epoch,
            component: comp.0,
            tracked: tracked.unwrap_or(0),
        }
        .encode_into(&mut scratch);
        codec::encode_tuple_into(&mut scratch, tuple);
        self.stats.frames_encoded.fetch_add(1, Ordering::Relaxed);
        let frame_len = scratch.len();
        let tree = &epoch.trees[src_worker.0 as usize];
        let from = self.relay_endpoint(src_worker.0);
        if self.config.zero_copy {
            // One shared wire buffer serves every child send.
            let buf = scratch.share();
            drop(scratch);
            for &child in tree.children(Node::Source) {
                let Node::Dest(node) = child else { continue };
                let dst = relay_node_worker(src_worker.0, node, self.placement.workers());
                epoch.note_sent();
                if self.send_with_policy(|| {
                    self.fabric
                        .send_shared(from, self.relay_endpoint(dst.0), Arc::clone(&buf))
                }) {
                    self.note_relay_bytes(frame_len);
                } else {
                    epoch.note_received();
                }
            }
        } else {
            for &child in tree.children(Node::Source) {
                let Node::Dest(node) = child else { continue };
                let dst = relay_node_worker(src_worker.0, node, self.placement.workers());
                epoch.note_sent();
                if self.send_with_policy(|| {
                    self.fabric
                        .send_copied(from, self.relay_endpoint(dst.0), &scratch)
                }) {
                    self.note_relay_bytes(frame_len);
                } else {
                    epoch.note_received();
                }
            }
        }
        arm_xor
    }

    /// A relay worker received a broadcast frame: forward the *received
    /// wire bytes* to the tree children — no decode, no re-encode, no
    /// buffer-pool round-trip; a shared payload is refcount-bumped, a
    /// copied one is copied by the fabric — then decode once, only for
    /// local delivery.
    fn on_relay_frame(
        &self,
        my_worker: u32,
        h: RelayHeader,
        payload: &Payload,
        item: &[u8],
        probe: &mut LatencyProbe,
    ) {
        let Some(relay) = self.relay.as_ref() else {
            self.stats.dropped_frames.fetch_add(1, Ordering::Relaxed);
            return;
        };
        let Some(epoch) = relay.lookup(h.epoch) else {
            // A retired generation: never deliver on it. Tracked runs
            // replay the tuple on the current tree.
            relay.stale_drops.fetch_add(1, Ordering::Relaxed);
            return;
        };
        let node = match relay_node_of_worker(h.origin, my_worker) {
            Some(n) if h.origin < self.placement.workers() => n,
            _ => {
                self.stats.dropped_frames.fetch_add(1, Ordering::Relaxed);
                epoch.note_received();
                return;
            }
        };
        let tree = &epoch.trees[h.origin as usize];
        if node >= tree.n() {
            self.stats.dropped_frames.fetch_add(1, Ordering::Relaxed);
            epoch.note_received();
            return;
        }
        if let Some(depth) = tree.depth(Node::Dest(node)) {
            let bucket = (depth as usize).min(DEPTH_BUCKETS - 1);
            self.counters().relay_depths[bucket].fetch_add(1, Ordering::Relaxed);
        }
        let t0 = Instant::now();
        let mut forwarded = 0u64;
        let from = self.relay_endpoint(my_worker);
        for &child in tree.children(Node::Dest(node)) {
            let Node::Dest(c) = child else { continue };
            let dst = relay_node_worker(h.origin, c, self.placement.workers());
            epoch.note_sent();
            let ok = match payload {
                Payload::Shared(buf) => self.send_with_policy(|| {
                    self.fabric
                        .send_shared(from, self.relay_endpoint(dst.0), Arc::clone(buf))
                }),
                Payload::Copied(bytes) => self.send_with_policy(|| {
                    self.fabric
                        .send_copied(from, self.relay_endpoint(dst.0), bytes)
                }),
            };
            if ok {
                self.note_relay_bytes(payload.len());
                forwarded += 1;
            } else {
                epoch.note_received();
            }
        }
        // Children are charged before this receipt is released, so the
        // epoch's in-flight count can only read zero once the whole
        // subtree has drained.
        epoch.note_received();
        if forwarded > 0 {
            self.counters()
                .relay_forwards
                .fetch_add(forwarded, Ordering::Relaxed);
            if probe.forward_events.is_multiple_of(LATENCY_SAMPLE) {
                probe.forward_ns.push(t0.elapsed().as_nanos() as u64);
            }
            probe.forward_events += 1;
        }
        // Validate framing once for the whole worker, then dispatch the
        // lazy view — local executors decode at most once, on first
        // touch, against the shared relay buffer. A corrupt frame is
        // dropped (and counted) rather than crashing the relay worker.
        let lazy = match TupleView::parse(item).and_then(|v| self.lazy_tuple(payload, &v)) {
            Ok(l) => l,
            Err(_) => {
                self.stats.dropped_frames.fetch_add(1, Ordering::Relaxed);
                return;
            }
        };
        let comp = ComponentId(h.component);
        for &t in self.placement.tasks_on(WorkerId(my_worker)) {
            if self.topology.tasks().component_of(t) == Some(comp) {
                let tag = (h.tracked != 0).then(|| AckTag {
                    tracked: h.tracked,
                    anchor: anchor_for(h.tracked, t),
                });
                self.note_lazy_delivery(&lazy);
                self.deliver(t, ExecMsg::Data(lazy.clone(), tag));
            }
        }
    }

    /// Deliver one tuple along `plan`: local tasks through the pipeline
    /// queues, every remote pipeline by one wire frame. Returns the XOR
    /// of the anchors assigned to the plan's tasks when `tracked` is set
    /// (for ledger arming), 0 otherwise. Anchors are charged for every
    /// destination — including ones whose frame fails to send — so an
    /// undelivered destination leaves the ledger non-zero and the tuple
    /// times out into a replay instead of silently "completing".
    fn send_data(
        &self,
        src: TaskId,
        tuple: &mut Emitted,
        plan: &RoutePlan,
        tracked: Option<u64>,
    ) -> u64 {
        let mut arm_xor = 0u64;
        // Local deliveries: no serialization beyond what the mode charges.
        for &t in plan.local() {
            let tag = tracked.map(|tr| AckTag {
                tracked: tr,
                anchor: anchor_for(tr, t),
            });
            if let Some(tag) = tag {
                arm_xor ^= tag.anchor;
            }
            // The owning pipeline may already have exited after EOS; the
            // delivery layer swallows that race.
            self.deliver(t, ExecMsg::Data(tuple.share(), tag));
        }
        self.stats
            .serializations
            .fetch_add(plan.serializations() as u64, Ordering::Relaxed);
        if plan.is_all_local() {
            return arm_xor;
        }
        let tuple = tuple.get();
        match self.config.comm_mode {
            CommMode::InstanceOriented => {
                // Storm's per-destination serialization, but without a
                // per-destination deep clone of the tuple: the shared
                // decoded tuple is borrowed straight into the frame.
                for (worker, shard, tasks) in plan.frames() {
                    let dst = tasks[0];
                    if let Some(tr) = tracked {
                        arm_xor ^= anchor_for(tr, dst);
                        self.transmit(src, worker, shard, tracked, |framed| {
                            framed.put_u8(TAG_INSTANCE_TRACKED);
                            framed.put_u64_le(tr);
                            InstanceMessage::encode_parts_into(src, dst, tuple, framed);
                        });
                    } else {
                        self.transmit(src, worker, shard, None, |framed| {
                            framed.put_u8(TAG_INSTANCE);
                            InstanceMessage::encode_parts_into(src, dst, tuple, framed);
                        });
                    }
                }
            }
            CommMode::WorkerOriented => {
                // Serialize the data item once into pooled scratch; each
                // per-pipeline frame borrows it and adds only the header.
                let mut item = self.pool.acquire();
                codec::encode_tuple_into(&mut item, tuple);
                for (worker, shard, tasks) in plan.frames() {
                    if let Some(tr) = tracked {
                        for &t in tasks {
                            arm_xor ^= anchor_for(tr, t);
                        }
                    }
                    self.transmit(src, worker, shard, tracked, |framed| {
                        match tracked {
                            Some(tr) => {
                                framed.put_u8(TAG_WORKER_TRACKED);
                                framed.put_u64_le(tr);
                            }
                            None => framed.put_u8(TAG_WORKER),
                        }
                        WorkerMessage::encode_with_item_into(src, tasks, &item, framed);
                    });
                }
            }
        }
        arm_xor
    }

    /// Send one point-to-point data frame. When [`LiveConfig::log`] is
    /// set the encoded frame is written through the destination's
    /// partition log *before* the fabric send (write-ahead), so a crash
    /// after the append can always be healed by replaying the log. Relay
    /// and EOS frames never come through here and are not logged.
    fn transmit(
        &self,
        src: TaskId,
        dst_worker: WorkerId,
        dst_shard: u32,
        tracked: Option<u64>,
        fill: impl FnOnce(&mut BytesMut),
    ) {
        let from = self.endpoint(self.placement.worker_of(src).0, self.shard_of(src));
        let to = self.endpoint(dst_worker.0, dst_shard);
        let Some(log) = &self.log else {
            self.send_frame(from, to, fill);
            return;
        };
        // Inlined send_frame with the log append between encode and send.
        let mut scratch = self.pool.acquire();
        fill(&mut scratch);
        self.stats.frames_encoded.fetch_add(1, Ordering::Relaxed);
        log.append(to, tracked, &scratch[..]);
        if self.config.zero_copy {
            let buf = scratch.share();
            drop(scratch);
            self.send_with_policy(|| self.fabric.send_shared(from, to, Arc::clone(&buf)));
        } else {
            self.send_with_policy(|| self.fabric.send_copied(from, to, &scratch));
        }
    }

    /// Encode one framed message into a pooled scratch buffer and send
    /// it, waiting out transient ring backpressure under the run's
    /// [`SendPolicy`] (`Full` means posted descriptors outran the
    /// flusher, the bounded transfer queue of the paper's model — spin,
    /// yield, then park with exponential backoff up to the policy
    /// deadline; a dead flusher degrades the run instead of livelocking
    /// it). Zero-copy runs snapshot the frame into a single shared wire
    /// buffer that every post and retry reuses (the batch descriptor
    /// borrows it by reference — no per-destination clone); copied runs
    /// pay the TCP copy tax per post. Teardown races (unknown or
    /// disconnected endpoints) are dropped here; the fabric itself counts
    /// them in `send_errors`. Returns whether the frame was accepted by
    /// the fabric.
    fn send_frame(&self, from: EndpointId, to: EndpointId, fill: impl FnOnce(&mut BytesMut)) -> bool {
        let mut scratch = self.pool.acquire();
        fill(&mut scratch);
        self.stats.frames_encoded.fetch_add(1, Ordering::Relaxed);
        if self.config.zero_copy {
            let buf = scratch.share();
            drop(scratch); // scratch returns to the pool before any retry wait
            self.send_with_policy(|| self.fabric.send_shared(from, to, Arc::clone(&buf)))
        } else {
            self.send_with_policy(|| self.fabric.send_copied(from, to, &scratch))
        }
    }

    /// Encode one frame and send it `copies` times: redundant copies
    /// reuse the single encoded buffer, so redundancy costs wire bytes
    /// but never an extra encode.
    fn send_frame_copies(
        &self,
        from: EndpointId,
        to: EndpointId,
        copies: u32,
        fill: impl FnOnce(&mut BytesMut),
    ) {
        let mut scratch = self.pool.acquire();
        fill(&mut scratch);
        self.stats.frames_encoded.fetch_add(1, Ordering::Relaxed);
        if self.config.zero_copy {
            let buf = scratch.share();
            drop(scratch);
            for _ in 0..copies {
                self.send_with_policy(|| self.fabric.send_shared(from, to, Arc::clone(&buf)));
            }
        } else {
            for _ in 0..copies {
                self.send_with_policy(|| self.fabric.send_copied(from, to, &scratch));
            }
        }
    }

    /// Run one fabric send under the policy's bounded backoff. `Full`
    /// past the deadline fails the frame loudly; teardown races (unknown
    /// or disconnected endpoints) are dropped here — the fabric counts
    /// them in `send_errors`. Returns whether the fabric accepted.
    fn send_with_policy(&self, attempt: impl FnMut() -> Result<(), SendError>) -> bool {
        match self.config.send.run(&self.stats.send_retries, attempt) {
            Ok(()) => true,
            Err(SendError::Full) => {
                // Backpressure never cleared within the policy deadline:
                // the frame is lost, loudly.
                self.stats.send_failed.fetch_add(1, Ordering::Relaxed);
                false
            }
            Err(SendError::UnknownEndpoint | SendError::Disconnected) => false,
        }
    }

    /// A relay worker received an EOS frame: forward the received bytes
    /// along the tree (same child-invariant frame — no re-encode), then
    /// deliver EOS to the local instances of the component.
    fn on_relay_eos(
        &self,
        my_worker: u32,
        origin: u32,
        epoch_id: u32,
        comp: ComponentId,
        src: TaskId,
        payload: &Payload,
    ) {
        let Some(relay) = self.relay.as_ref() else {
            self.stats.dropped_frames.fetch_add(1, Ordering::Relaxed);
            return;
        };
        let Some(epoch) = relay.lookup(epoch_id) else {
            relay.stale_drops.fetch_add(1, Ordering::Relaxed);
            return;
        };
        let node = match relay_node_of_worker(origin, my_worker) {
            Some(n) if origin < self.placement.workers() => n,
            _ => {
                self.stats.dropped_frames.fetch_add(1, Ordering::Relaxed);
                epoch.note_received();
                return;
            }
        };
        let tree = &epoch.trees[origin as usize];
        if node >= tree.n() {
            self.stats.dropped_frames.fetch_add(1, Ordering::Relaxed);
            epoch.note_received();
            return;
        }
        let from = self.relay_endpoint(my_worker);
        for &child in tree.children(Node::Dest(node)) {
            let Node::Dest(c) = child else { continue };
            let dst = relay_node_worker(origin, c, self.placement.workers());
            epoch.note_sent();
            let ok = match payload {
                Payload::Shared(buf) => self.send_with_policy(|| {
                    self.fabric
                        .send_shared(from, self.relay_endpoint(dst.0), Arc::clone(buf))
                }),
                Payload::Copied(bytes) => self.send_with_policy(|| {
                    self.fabric
                        .send_copied(from, self.relay_endpoint(dst.0), bytes)
                }),
            };
            if ok {
                self.note_relay_bytes(payload.len());
            } else {
                epoch.note_received();
            }
        }
        epoch.note_received();
        for &t in self.placement.tasks_on(WorkerId(my_worker)) {
            if self.topology.tasks().component_of(t) == Some(comp) {
                self.deliver(t, ExecMsg::Eos(src));
            }
        }
    }

    /// Broadcast end-of-stream from `src` to every subscriber of its
    /// component, across both local and remote paths.
    fn broadcast_eos(&self, src: TaskId) {
        let comp = self
            .topology
            .tasks()
            .component_of(src)
            .expect("task belongs to a component");
        // Ack runs may face injected frame drops; EOS frames are sent
        // redundantly (receivers count each upstream task at most once,
        // so duplicates are harmless). Each redundant frame is encoded
        // once and resent — copies grow wire traffic, not encodes.
        let copies = self
            .config
            .ack
            .map(|a| a.eos_redundancy.max(1))
            .unwrap_or(1);
        let src_worker = self.placement.worker_of(src);
        // EOS reaches every subscriber, whatever the grouping: local
        // tasks directly, and one frame per destination pipeline.
        let mut plan = RoutePlan::default();
        for edge in self.topology.downstream_edges(comp) {
            plan.fill(
                CommMode::WorkerOriented,
                src,
                &self.topology.tasks().tasks_of(edge.to),
                &self.placement,
                self.shards,
            );
            for &t in plan.local() {
                self.deliver(t, ExecMsg::Eos(src));
            }
            // Relay-path streams must carry EOS along the same tree so it
            // stays behind every in-flight tuple (per-hop FIFO channels).
            if self.relays(&edge.grouping) {
                let relay = self.relay.as_ref().expect("checked above");
                // EOS departs on the current generation; wait (bounded)
                // for the previous one to drain first so it cannot beat
                // still-relaying data from before a switch.
                if !relay.try_retire_prev() {
                    relay.await_prev_drained(self.drain_grace());
                }
                let epoch = relay.current();
                // Child-invariant EOS frame, encoded once.
                let mut scratch = self.pool.acquire();
                scratch.put_u8(TAG_RELAY_EOS);
                scratch.put_u32_le(src_worker.0);
                scratch.put_u32_le(epoch.epoch);
                scratch.put_u32_le(edge.to.0);
                scratch.put_u32_le(src.0);
                self.stats.frames_encoded.fetch_add(1, Ordering::Relaxed);
                let frame_len = scratch.len();
                let tree = &epoch.trees[src_worker.0 as usize];
                let from = self.relay_endpoint(src_worker.0);
                let buf = self.config.zero_copy.then(|| scratch.share());
                for &child in tree.children(Node::Source) {
                    let Node::Dest(node) = child else { continue };
                    let dst = relay_node_worker(src_worker.0, node, self.placement.workers());
                    for _ in 0..copies {
                        epoch.note_sent();
                        let ok = match &buf {
                            Some(b) => self.send_with_policy(|| {
                                self.fabric
                                    .send_shared(from, self.relay_endpoint(dst.0), Arc::clone(b))
                            }),
                            None => self.send_with_policy(|| {
                                self.fabric
                                    .send_copied(from, self.relay_endpoint(dst.0), &scratch)
                            }),
                        };
                        if ok {
                            self.note_relay_bytes(frame_len);
                        } else {
                            epoch.note_received();
                        }
                    }
                }
                continue;
            }
            let from = self.endpoint(src_worker.0, self.shard_of(src));
            for (worker, shard, tasks) in plan.frames() {
                self.send_frame_copies(from, self.endpoint(worker.0, shard), copies, |framed| {
                    framed.put_u8(TAG_EOS);
                    framed.put_u32_le(src.0);
                    framed.put_u32_le(tasks.len() as u32);
                    for t in tasks {
                        framed.put_u32_le(t.0);
                    }
                });
            }
        }
    }

    /// Bounded drain wait used before EOS departure and switches.
    fn drain_grace(&self) -> Duration {
        self.config
            .multicast_adaptive
            .as_ref()
            .map(|a| a.drain_grace)
            .unwrap_or(Duration::from_millis(250))
    }
}

/// Per-task routing state for `src`'s downstream edges. Shuffle cursors
/// are seeded by a stable hash of the source task id, so the N routers of
/// a parallel component start at spread-out offsets instead of all
/// hammering `targets[0]` first.
fn build_groupings(routing: &Routing, src: TaskId, comp: ComponentId) -> Groupings {
    let topology = &routing.topology;
    let edges = topology
        .downstream_edges(comp)
        .into_iter()
        .map(|e| {
            assert!(
                e.grouping != Grouping::Direct,
                "direct grouping is not supported by the live runtime"
            );
            let grouping = GroupingExec::with_rr_seed(
                e.grouping.clone(),
                topology.tasks().tasks_of(e.to),
                splitmix64(src.0 as u64),
            );
            let router = EdgeRouter::new(
                grouping,
                routing.config.comm_mode,
                src,
                &routing.placement,
                routing.shards,
            );
            (e.to, router)
        })
        .collect();
    Groupings { edges }
}

/// An emitted tuple on its way out: owned until a local executor needs
/// it, then moved once into a shared handle — a tuple with no local
/// destination is encoded straight from the owned value.
enum Emitted {
    Owned(Tuple),
    Shared(Arc<Tuple>),
}

impl Emitted {
    fn get(&self) -> &Tuple {
        match self {
            Emitted::Owned(t) => t,
            Emitted::Shared(t) => t,
        }
    }

    /// A handle for one local delivery.
    fn share(&mut self) -> LazyTuple {
        if let Emitted::Owned(t) = self {
            let t = std::mem::replace(t, Tuple::new(Vec::new()));
            *self = Emitted::Shared(Arc::new(t));
        }
        match self {
            Emitted::Shared(t) => LazyTuple::from_arc(Arc::clone(t)),
            Emitted::Owned(_) => unreachable!("shared above"),
        }
    }
}

/// A bolt's emitter: routes each emission inline, on the bolt's own
/// pipeline thread.
struct TaskEmitter<'a> {
    routing: &'a Routing,
    src: TaskId,
    groupings: &'a mut Groupings,
}

impl Emitter for TaskEmitter<'_> {
    fn emit(&mut self, tuple: Tuple) {
        // Bolt emissions are untracked: the acker tracks spout roots to
        // their first-hop subscribers (delivery tracking, not full tree
        // tracking — replays re-enter at the spout).
        self.routing.emit(self.src, self.groupings, tuple, None);
    }
}

/// An all-zero report for runs that never spawned a thread (config
/// errors caught before the fabric was built).
fn empty_report(outcome: RunOutcome, n_components: usize) -> RunReport {
    RunReport {
        elapsed: Duration::ZERO,
        serializations: 0,
        executed: vec![0; n_components],
        spout_emitted: 0,
        fabric_messages: 0,
        copied_bytes: 0,
        shared_bytes: 0,
        relay_forwards: 0,
        frames_encoded: 0,
        relay_bytes: 0,
        relay_stale_drops: 0,
        uplink_bytes: 0,
        link_bytes: Vec::new(),
        relay_switches: 0,
        relay_switch_moves: 0,
        relay_epoch: 0,
        relay_d_star: 0,
        relay_depths: Vec::new(),
        relay_forward_ns: Vec::new(),
        dropped_frames: 0,
        thread_panics: 0,
        shards: 0,
        cross_shard_msgs: 0,
        wire_tuples_lazy: 0,
        tuples_materialized: 0,
        send_errors: 0,
        batches_flushed: 0,
        mean_batch_size: 0.0,
        pool_hits: 0,
        pool_misses: 0,
        pool_high_watermark: 0,
        pool_hit_rate: 0.0,
        send_retries: 0,
        send_failed: 0,
        deadline_exits: 0,
        tuples_acked: 0,
        tuples_failed: 0,
        tuples_replayed: 0,
        dedup_dropped: 0,
        fault_drops: 0,
        fault_duplicates: 0,
        fault_delayed: 0,
        fault_full_injected: 0,
        fault_partition_drops: 0,
        fault_crashed_sends: 0,
        log_appended_records: 0,
        log_appended_bytes: 0,
        log_replayed_records: 0,
        log_replayed_bytes: 0,
        log_gcd_bytes: 0,
        log_gc_watermark: 0,
        log_retained_bytes: 0,
        log_torn_tails: 0,
        timeline: Vec::new(),
        outcome,
        delivery_ns: Vec::new(),
    }
}

/// Execute a topology to completion on the live runtime.
///
/// Every spout runs until its `next_tuple` returns `None`; EOS then
/// propagates through the DAG; the run finishes when every executor has
/// drained. Returns aggregate statistics.
pub fn run_topology(topology: Topology, operators: Operators, config: LiveConfig) -> RunReport {
    // Validate every component has an operator before spawning anything:
    // a missing factory is a configuration error reported through
    // [`RunOutcome::ConfigError`], not a worker crash.
    let n_components = topology.components().len();
    for comp in topology.components() {
        let err = match comp.kind {
            ComponentKind::Spout if !operators.spouts.contains_key(&comp.name) => {
                Some(BuildError::MissingSpout(comp.name.clone()))
            }
            ComponentKind::Bolt if !operators.bolts.contains_key(&comp.name) => {
                Some(BuildError::MissingBolt(comp.name.clone()))
            }
            _ => None,
        };
        if let Some(err) = err {
            return empty_report(RunOutcome::ConfigError(err), n_components);
        }
    }

    // Topology awareness (racks, per-link accounting) comes in through
    // the adaptive config; without it the cluster is one flat rack.
    let topo_config = config
        .multicast_adaptive
        .as_ref()
        .and_then(|a| a.topology.clone());
    let cluster = match &topo_config {
        Some(t) => t.cluster_spec(config.machines, 16),
        None => ClusterSpec::new(config.machines, 1, 16),
    };
    let placement = Placement::even(&topology, &cluster);
    let mut instance = config.fabric.build();
    // Fault injection wraps the concrete transport: every runtime send
    // and registration goes through the wrapper so the plan sees each
    // frame in order. The concrete handle is kept for its counters.
    let fault: Option<Arc<FaultFabric>> = config
        .fault
        .clone()
        .map(|plan| Arc::new(FaultFabric::new(Arc::clone(&instance.fabric), plan)));
    let fabric: Arc<dyn FabricPath> = match &fault {
        Some(f) => Arc::clone(f) as Arc<dyn FabricPath>,
        None => Arc::clone(&instance.fabric),
    };

    let stats = Arc::new(RunStats::default());

    let relay_enabled = config.multicast_d_star.is_some() || config.multicast_adaptive.is_some();
    if relay_enabled {
        assert_eq!(
            config.comm_mode,
            CommMode::WorkerOriented,
            "the multicast tree relays worker-oriented messages"
        );
    }
    // Per-link accounting: attribute every send on the *outermost*
    // fabric (the fault wrapper delegates inward, so injected drops
    // never count and nothing double-counts) to its one egress link.
    let tracker = topo_config.as_ref().map(|_| {
        let t = Arc::new(LinkTracker::new(cluster.clone()));
        fabric.install_link_tracker(Arc::clone(&t));
        t
    });

    let relay = relay_enabled.then(|| {
        let d = config.multicast_d_star.unwrap_or_else(|| {
            config
                .multicast_adaptive
                .as_ref()
                .expect("relay_enabled implies one of the two")
                .initial_d
        });
        let d = d.max(1);
        let topo_trees = topo_config.as_ref().map(|t| t.topo_trees).unwrap_or(false);
        RelayState::new(if topo_trees {
            // No traffic yet: the initial generation sees idle uplinks.
            build_relay_epoch_topo(0, d, &placement, &cluster, &[])
        } else {
            build_relay_epoch(0, d, placement.workers())
        })
    });

    // One flat shard per (worker, shard): each gets its own fabric
    // endpoint (ids are assigned sequentially, so registration cannot
    // collide) and a bounded cross-shard inbox.
    let shards = config.shards.max(1);
    let n_flat = (placement.workers() * shards) as usize;
    let inbox_capacity = config.shard_inbox_capacity.max(1);
    let mut shard_inboxes = Vec::with_capacity(n_flat);
    let mut shard_fabric_rx = Vec::with_capacity(n_flat);
    for flat in 0..n_flat {
        shard_inboxes.push(ShardInbox::new(inbox_capacity));
        shard_fabric_rx.push(
            fabric
                .register(EndpointId(flat as u32))
                .expect("shard endpoint ids are unique"),
        );
        if let Some(t) = &tracker {
            // Pipeline endpoint → hosting machine, so the tracker can
            // classify each send's one egress link.
            let worker = WorkerId(flat as u32 / shards);
            t.map_endpoint(EndpointId(flat as u32), placement.machine_of_worker(worker));
        }
    }

    let ack_runtime = config.ack.map(AckRuntime::new);
    let log_runtime = config.log.map(|cfg| LogRuntime::new(cfg, n_flat));
    let routing = Arc::new(Routing {
        topology,
        placement,
        config,
        relay,
        fabric: Arc::clone(&fabric),
        pool: BufferPool::default(),
        shard_inboxes,
        shards,
        stats: Arc::clone(&stats),
        counters: PipelineCounters::for_run(n_flat, n_components),
        clock: Instant::now(),
        ack: ack_runtime,
        tracker,
        log: log_runtime,
    });

    let start = std::time::Instant::now();
    let mut handles = Vec::new();

    // Log recovery thread: runs GC passes against the acker watermark
    // and, when an injected crash has a matching restart, replays the
    // crashed endpoint's slice straight from its partition log — the
    // replay path reads the log (a modeled one-sided READ region), never
    // the sending operator, and root-id dedup at executors absorbs any
    // overlap with in-flight acker replays.
    let log_stop = Arc::new(AtomicBool::new(false));
    let log_handle = routing.log.is_some().then(|| {
        let routing = Arc::clone(&routing);
        let fault = fault.clone();
        let stop = Arc::clone(&log_stop);
        std::thread::spawn(move || log_recovery_loop(&routing, fault.as_deref(), n_flat, &stop))
    });

    // Adaptive controller thread: samples the live workload, re-plans
    // d*, and switches tree generations while the data plane runs.
    let adaptive_stop = Arc::new(AtomicBool::new(false));
    let adaptive_handle = routing.config.multicast_adaptive.clone().map(|cfg| {
        let routing = Arc::clone(&routing);
        let stats = Arc::clone(&stats);
        let fabric = Arc::clone(&fabric);
        let stop = Arc::clone(&adaptive_stop);
        std::thread::spawn(move || adaptive_loop(&cfg, &routing, &stats, &fabric, &stop))
    });

    // Monitor thread: snapshot the run's counters every interval into
    // the timeline (plus one final post-run sample at teardown).
    let timeline: Arc<Mutex<Vec<TimelineSample>>> = Arc::new(Mutex::new(Vec::new()));
    let monitor_stop = Arc::new(AtomicBool::new(false));
    let monitor_handle = routing.config.monitor_interval.map(|interval| {
        let routing = Arc::clone(&routing);
        let stats = Arc::clone(&stats);
        let fabric = Arc::clone(&fabric);
        let timeline = Arc::clone(&timeline);
        let stop = Arc::clone(&monitor_stop);
        std::thread::spawn(move || {
            let sample = |at: Duration| TimelineSample {
                at,
                spout_emitted: stats.spout_emitted.load(Ordering::Relaxed),
                executed: executed_totals(&routing.counters).iter().sum(),
                fabric_messages: fabric.messages(),
                send_errors: fabric.send_errors(),
                send_retries: stats.send_retries.load(Ordering::Relaxed),
                acked: routing
                    .ack
                    .as_ref()
                    .map_or(0, |a| a.acked.load(Ordering::Relaxed)),
                failed: routing
                    .ack
                    .as_ref()
                    .map_or(0, |a| a.failed.load(Ordering::Relaxed)),
                replayed: routing
                    .ack
                    .as_ref()
                    .map_or(0, |a| a.replayed.load(Ordering::Relaxed)),
            };
            while sleep_with_stop(interval, &stop) {
                timeline.lock().push(sample(start.elapsed()));
            }
            timeline.lock().push(sample(start.elapsed()));
        })
    });

    // Build one pipeline per flat shard, each owning its slice of tasks
    // (stable `task % shards` map) — operators are constructed here on
    // the driver thread so factory panics surface as config-time panics,
    // not degraded runs.
    let mut pipelines: Vec<ShardPipeline> = Vec::with_capacity(n_flat);
    let (done_tx, done_rx) = unbounded::<()>();
    for (flat, fabric_rx) in shard_fabric_rx.into_iter().enumerate() {
        pipelines.push(ShardPipeline {
            flat,
            worker: flat as u32 / shards,
            fabric_rx,
            inbox_rx: None,
            spouts: Vec::new(),
            bolts: HashMap::new(),
            done_tx: done_tx.clone(),
            scratch: Vec::new(),
            probe: LatencyProbe::default(),
        });
    }
    drop(done_tx);
    for comp in routing.topology.components().to_vec() {
        for (idx, task) in routing
            .topology
            .tasks()
            .tasks_of(comp.id)
            .into_iter()
            .enumerate()
        {
            let flat = routing.flat_shard_of(task);
            let groupings = build_groupings(&routing, task, comp.id);
            match comp.kind {
                ComponentKind::Spout => {
                    let spout_factory = operators
                        .spouts
                        .get(&comp.name)
                        .expect("validated before spawning");
                    pipelines[flat].spouts.push(SpoutState {
                        task,
                        spout: spout_factory(idx as u32),
                        groupings: Some(groupings),
                        pending: HashMap::new(),
                        since_prune: 0,
                        phase: SpoutPhase::Emitting,
                    });
                }
                ComponentKind::Bolt => {
                    let bolt_factory = operators
                        .bolts
                        .get(&comp.name)
                        .expect("validated before spawning");
                    let expected_eos: usize = routing
                        .topology
                        .upstream_edges(comp.id)
                        .iter()
                        .map(|e| routing.topology.tasks().parallelism(e.from) as usize)
                        .sum();
                    pipelines[flat].bolts.insert(
                        task,
                        BoltState {
                            task,
                            comp: comp.id,
                            bolt: bolt_factory(idx as u32),
                            groupings: Some(groupings),
                            eos_seen: HashSet::new(),
                            expected_eos,
                            acked_tracked: HashSet::new(),
                            seen_roots: HashSet::new(),
                            poisoned: false,
                            done: false,
                        },
                    );
                }
            }
        }
    }
    for p in pipelines {
        let routing = Arc::clone(&routing);
        let stats = Arc::clone(&stats);
        handles.push(std::thread::spawn(move || {
            // Operator panics are caught inside the pipeline; a panic
            // escaping here is a runtime bug, but the completion signal
            // must still fire or the driver would block forever.
            let done_tx = p.done_tx.clone();
            match catch_unwind(AssertUnwindSafe(|| p.run(&routing, &stats))) {
                Ok(probe) => probe,
                Err(payload) => {
                    let _ = done_tx.send(());
                    std::panic::resume_unwind(payload);
                }
            }
        }));
    }

    // Wait until every pipeline reports its tasks complete (a pipeline
    // that panicked counts: its wrapper signals before re-raising).
    for _ in 0..n_flat {
        if done_rx.recv().is_err() {
            break;
        }
    }
    // Join helper threads even if some panicked: bailing on the first
    // failure would skip the endpoint teardown below and leave the
    // pipeline threads spinning on an open fabric forever.
    let mut thread_panics = 0u64;
    // Producers done: stop reconfiguring before the fabric tears down.
    adaptive_stop.store(true, Ordering::Relaxed);
    if let Some(h) = adaptive_handle {
        if h.join().is_err() {
            thread_panics += 1;
        }
    }
    // Producers done means every replay that can still complete a tuple
    // has happened; stop the log GC/replay thread before teardown.
    log_stop.store(true, Ordering::Relaxed);
    if let Some(h) = log_handle {
        if h.join().is_err() {
            thread_panics += 1;
        }
    }
    // All producers done: release any fault-parked frames, flush
    // anything still buffered in the transport (and stop the ring
    // flusher), then close the fabric endpoints so the pipelines exit
    // (they keep draining/relaying frames until their endpoint closes).
    if let Some(f) = &fault {
        f.flush();
    }
    instance.shutdown();
    for flat in 0..n_flat {
        fabric.deregister(EndpointId(flat as u32));
    }
    let mut probes = Vec::with_capacity(n_flat);
    for h in handles {
        match h.join() {
            Ok(p) => probes.push(p),
            Err(_) => thread_panics += 1,
        }
    }
    // Operator panics were caught on the pipelines (the thread survives
    // to run its other tasks); fold them into the same degradation
    // signal the per-task threads used to produce by dying.
    thread_panics += stats.op_panics.load(Ordering::Relaxed);
    monitor_stop.store(true, Ordering::Relaxed);
    if let Some(h) = monitor_handle {
        let _ = h.join();
    }

    let elapsed = start.elapsed();
    let ack = routing.ack.as_ref();
    let failed_sends = stats.send_failed.load(Ordering::Relaxed);
    let failed_tuples = ack.map_or(0, |a| a.failed.load(Ordering::Relaxed));
    let deadline_exits = stats.deadline_exits.load(Ordering::Relaxed);
    let degraded =
        thread_panics > 0 || failed_sends > 0 || failed_tuples > 0 || deadline_exits > 0;
    let timeline = std::mem::take(&mut *timeline.lock());
    let (delivery_ns, relay_forward_ns) = LatencyProbe::join(&probes);
    RunReport {
        elapsed,
        serializations: stats.serializations.load(Ordering::Relaxed),
        executed: executed_totals(&routing.counters),
        spout_emitted: stats.spout_emitted.load(Ordering::Relaxed),
        fabric_messages: fabric.messages(),
        copied_bytes: fabric.copied_bytes(),
        shared_bytes: fabric.shared_bytes(),
        relay_forwards: total(&routing.counters, |c| &c.relay_forwards),
        frames_encoded: stats.frames_encoded.load(Ordering::Relaxed),
        relay_bytes: total(&routing.counters, |c| &c.relay_bytes),
        relay_stale_drops: routing
            .relay
            .as_ref()
            .map_or(0, |r| r.stale_drops.load(Ordering::Relaxed)),
        uplink_bytes: routing.tracker.as_ref().map_or(0, |t| t.uplink_bytes()),
        link_bytes: routing.tracker.as_ref().map_or_else(Vec::new, |t| {
            t.snapshot()
                .into_iter()
                .filter(|l| l.bytes > 0)
                .map(|l| (l.link.to_string(), l.bytes))
                .collect()
        }),
        relay_switches: routing
            .relay
            .as_ref()
            .map_or(0, |r| r.switches.load(Ordering::Relaxed)),
        relay_switch_moves: routing
            .relay
            .as_ref()
            .map_or(0, |r| r.switch_moves.load(Ordering::Relaxed)),
        relay_epoch: routing.relay.as_ref().map_or(0, |r| r.current().epoch),
        relay_d_star: routing.relay.as_ref().map_or(0, |r| r.current().d_star),
        relay_depths: match &routing.relay {
            Some(_) => (0..DEPTH_BUCKETS)
                .map(|d| total(&routing.counters, |c| &c.relay_depths[d]))
                .collect(),
            None => Vec::new(),
        },
        relay_forward_ns,
        dropped_frames: stats.dropped_frames.load(Ordering::Relaxed),
        thread_panics,
        shards: routing.shards as u64,
        cross_shard_msgs: total(&routing.counters, |c| &c.cross_shard_msgs),
        wire_tuples_lazy: total(&routing.counters, |c| &c.wire_tuples_lazy),
        tuples_materialized: total(&routing.counters, |c| &c.tuples_materialized),
        send_errors: fabric.send_errors(),
        batches_flushed: fabric.flushed_batches(),
        mean_batch_size: {
            let batches = fabric.flushed_batches();
            if batches == 0 {
                0.0
            } else {
                fabric.flushed_items() as f64 / batches as f64
            }
        },
        pool_hits: routing.pool.hits(),
        pool_misses: routing.pool.misses(),
        pool_high_watermark: routing.pool.high_watermark(),
        pool_hit_rate: routing.pool.hit_rate(),
        send_retries: stats.send_retries.load(Ordering::Relaxed),
        send_failed: failed_sends,
        deadline_exits,
        tuples_acked: ack.map_or(0, |a| a.acked.load(Ordering::Relaxed)),
        tuples_failed: failed_tuples,
        tuples_replayed: ack.map_or(0, |a| a.replayed.load(Ordering::Relaxed)),
        dedup_dropped: ack.map_or(0, |a| a.dedup_dropped.load(Ordering::Relaxed)),
        fault_drops: fault.as_ref().map_or(0, |f| f.drops()),
        fault_duplicates: fault.as_ref().map_or(0, |f| f.duplicates()),
        fault_delayed: fault.as_ref().map_or(0, |f| f.delayed()),
        fault_full_injected: fault.as_ref().map_or(0, |f| f.full_injected()),
        fault_partition_drops: fault.as_ref().map_or(0, |f| f.partition_drops()),
        fault_crashed_sends: fault.as_ref().map_or(0, |f| f.crashed_sends()),
        log_appended_records: routing.log.as_ref().map_or(0, |l| l.appended_records()),
        log_appended_bytes: routing.log.as_ref().map_or(0, |l| l.appended_bytes()),
        log_replayed_records: routing
            .log
            .as_ref()
            .map_or(0, |l| l.replayed_records.load(Ordering::Relaxed)),
        log_replayed_bytes: routing
            .log
            .as_ref()
            .map_or(0, |l| l.replayed_bytes.load(Ordering::Relaxed)),
        log_gcd_bytes: routing.log.as_ref().map_or(0, |l| l.gcd_bytes()),
        log_gc_watermark: routing.log.as_ref().map_or(0, |l| l.gc_watermark()),
        log_retained_bytes: routing.log.as_ref().map_or(0, |l| l.retained_bytes()),
        log_torn_tails: routing.log.as_ref().map_or(0, |l| l.torn_tails()),
        timeline,
        outcome: if degraded {
            RunOutcome::Degraded {
                thread_panics,
                failed_sends,
                failed_tuples,
                deadline_exits,
            }
        } else {
            RunOutcome::Clean
        },
        delivery_ns,
    }
}

/// Sleep up to `total`, in small slices, re-checking `stop` between
/// slices. Returns `true` if the full interval elapsed, `false` if the
/// stop flag cut it short — background threads sleeping whole intervals
/// in one call used to delay shutdown by up to a full interval each.
fn sleep_with_stop(total: Duration, stop: &AtomicBool) -> bool {
    const SLICE: Duration = Duration::from_millis(5);
    let deadline = Instant::now() + total;
    loop {
        if stop.load(Ordering::Relaxed) {
            return false;
        }
        let remaining = deadline.saturating_duration_since(Instant::now());
        if remaining.is_zero() {
            return true;
        }
        std::thread::sleep(remaining.min(SLICE));
    }
}

/// The log GC/replay thread (see [`LiveConfig::log`]). Two duties, both
/// polled on a short interval: advance each endpoint's log GC watermark
/// over the resolved-root prefix (acker feedback keeps retention flat),
/// and watch injected crash+restart pairs — when the fault layer reports
/// an endpoint restarted, its log slice is replayed from the oldest
/// retained record. Replayed frames go straight to the fabric (one
/// modeled one-sided READ per record against the log's registered
/// region), bypassing `transmit` so they are not re-logged, and root-id
/// dedup at executors absorbs overlap with in-flight acker replays.
fn log_recovery_loop(
    routing: &Routing,
    fault: Option<&FaultFabric>,
    n_flat: usize,
    stop: &AtomicBool,
) {
    let log = routing.log.as_ref().expect("recovery thread implies logs");
    // Crash+restart pairs from the injected plan: data endpoints that
    // will come back and need their slice replayed exactly once.
    let mut awaiting: Vec<EndpointId> = routing
        .config
        .fault
        .as_ref()
        .map(|plan| {
            plan.crashes
                .iter()
                .filter(|c| (c.endpoint.0 as usize) < n_flat)
                .filter(|c| {
                    plan.restarts
                        .iter()
                        .any(|r| r.endpoint == c.endpoint && r.at_frame > c.at_frame)
                })
                .map(|c| c.endpoint)
                .collect()
        })
        .unwrap_or_default();
    loop {
        log.gc_pass();
        if let Some(fault) = fault {
            awaiting.retain(|&ep| {
                if !fault.restarted(ep) {
                    return true;
                }
                replay_endpoint(routing, ep);
                false
            });
        }
        if !sleep_with_stop(Duration::from_millis(1), stop) {
            // One final pass so the report's retained-bytes gauge
            // reflects the end-of-run watermark.
            log.gc_pass();
            return;
        }
    }
}

/// Replay everything a restarted endpoint's log still retains. The read
/// is priced as one-sided READs inside [`PartitionLog::read_from`]; the
/// re-sends cross the fault wrapper, which accepts them now that the
/// endpoint is back.
fn replay_endpoint(routing: &Routing, ep: EndpointId) {
    let log = routing.log.as_ref().expect("replay implies logs");
    let read = {
        let mut l = log.logs[ep.0 as usize].lock();
        let start = l.first_seq();
        l.read_from(start)
    };
    for (_seq, bytes) in read.records {
        let n = bytes.len() as u64;
        let buf: Arc<[u8]> = Arc::from(bytes.into_boxed_slice());
        if routing.send_with_policy(|| routing.fabric.send_shared(ep, ep, Arc::clone(&buf))) {
            log.replayed_records.fetch_add(1, Ordering::Relaxed);
            log.replayed_bytes.fetch_add(n, Ordering::Relaxed);
        }
    }
}

/// The adaptive controller thread: every interval, retire drained tree
/// generations, sample the live workload (λ from spout emissions, queue
/// length from the fabric's transfer queue plus the acker's pending
/// trees), and let the self-adjusting controller re-plan `d*`; a changed
/// target triggers a generation switch. Forced switches (when
/// configured) replace the controller with deterministic thresholds on
/// `spout_emitted` — benchmarks and tests use those to make switching
/// reproducible.
fn adaptive_loop(
    cfg: &AdaptiveConfig,
    routing: &Routing,
    stats: &RunStats,
    fabric: &Arc<dyn FabricPath>,
    stop: &AtomicBool,
) {
    let relay = routing.relay.as_ref().expect("adaptive implies relay state");
    let epoch0 = Instant::now();
    let interval = SimDuration::from_nanos((cfg.interval.as_nanos() as u64).max(1));
    let mut monitor = WorkloadMonitor::new(interval, cfg.alpha, cfg.t_e_default);
    let mut controller = AdjustController::new(
        ControllerConfig::for_queue(cfg.queue_capacity, routing.placement.workers()),
        relay.current().d_star,
    );
    let mut last_emitted = 0u64;
    let mut next_forced = 0usize;
    while sleep_with_stop(cfg.interval, stop) {
        relay.try_retire_prev();
        let emitted = stats.spout_emitted.load(Ordering::Relaxed);
        let target = if cfg.forced_switches.is_empty() {
            monitor.record_arrivals(emitted.saturating_sub(last_emitted));
            let now = SimTime::from_nanos(epoch0.elapsed().as_nanos() as u64);
            let queue_len = fabric.queue_depth() as usize
                + routing.max_inbox_depth()
                + routing.ack.as_ref().map_or(0, |a| a.acker.lock().pending());
            let report = monitor.sample_with_links(now, queue_len, routing.link_pressure());
            match controller.decide(&report) {
                Decision::Hold => None,
                Decision::ScaleDown { d_star } | Decision::ScaleUp { d_star } => Some(d_star),
            }
        } else {
            let mut t = None;
            while next_forced < cfg.forced_switches.len()
                && emitted >= cfg.forced_switches[next_forced].0
            {
                t = Some(cfg.forced_switches[next_forced].1);
                next_forced += 1;
            }
            t
        };
        last_emitted = emitted;
        if let Some(new_d) = target {
            let new_d = new_d.max(1);
            if new_d != relay.current().d_star {
                switch_structure(cfg, routing, fabric, new_d);
            }
        }
    }
}

/// Reconfigure the relay plane to out-degree `new_d`: wait (bounded) for
/// the previous generation to drain so at most two are ever live,
/// optionally drive the paper's coordinator/agent switch protocol over
/// the data fabric, plan the per-origin moves, and publish the new
/// generation. In-flight frames on the demoted generation keep being
/// accepted until it drains (or the grace expires on a lossy run).
fn switch_structure(
    cfg: &AdaptiveConfig,
    routing: &Routing,
    fabric: &Arc<dyn FabricPath>,
    new_d: u32,
) {
    let relay = routing.relay.as_ref().expect("switching implies relay state");
    relay.await_prev_drained(cfg.drain_grace);
    let cur = relay.current();
    if cfg.switch_protocol {
        // One representative coordinator/agent session per switch: every
        // per-origin tree shares the same shape, so one session carries
        // the status/control/ACK exchange the paper describes. Protocol
        // endpoints sit above the shard endpoint range to avoid
        // collisions.
        let base = routing.placement.workers() * routing.shards;
        let _ = run_switch_over_fabric_at(Arc::clone(fabric), &cur.trees[0], new_d, base);
    }
    let mut total_moves = 0u64;
    let trees = if let Some((spec, loads)) = routing.topo_tree_inputs() {
        // Rack-aware rebuild: the new generation's rack entries route
        // over whichever uplinks are coolest *right now*. Moves are the
        // parent changes between generations (same accounting
        // `plan_switch` reports on the oblivious path).
        let next = build_relay_epoch_topo(cur.epoch + 1, new_d, &routing.placement, spec, &loads);
        for (old, new) in cur.trees.iter().zip(&next.trees) {
            total_moves += (0..new.n())
                .filter(|&i| old.parent(i) != new.parent(i))
                .count() as u64;
        }
        next.trees
    } else {
        let mut trees = Vec::with_capacity(cur.trees.len());
        for t in &cur.trees {
            let (next, plan) = plan_switch(t, new_d);
            total_moves += plan.moves.len() as u64;
            trees.push(next);
        }
        trees
    };
    relay.publish(Arc::new(RelayEpoch {
        epoch: cur.epoch + 1,
        d_star: new_d,
        trees,
        inflight: AtomicI64::new(0),
    }));
    relay.switches.fetch_add(1, Ordering::Relaxed);
    relay.switch_moves.fetch_add(total_moves, Ordering::Relaxed);
}

/// Where one spout is in its lifecycle. The drain phase (tracked runs
/// only) is a cooperative state machine, not a blocking loop: the owning
/// pipeline interleaves drain passes with frame dispatch and executor
/// work, so a draining spout never starves the executors sharing its
/// thread.
enum SpoutPhase {
    /// Still producing tuples.
    Emitting,
    /// Emissions exhausted; waiting out in-flight tracked trees,
    /// replaying expired ones, until `deadline`. `next_poll` rate-limits
    /// the acker polls to the configured interval.
    Draining { deadline: Instant, next_poll: Instant },
    /// EOS broadcast; nothing left to do.
    Done,
}

/// One spout task owned by a shard pipeline.
struct SpoutState {
    task: TaskId,
    spout: Box<dyn Spout>,
    /// Taken exactly once, at EOS broadcast.
    groupings: Option<Groupings>,
    /// Tracked ids still in flight: id → (tuple, attempt).
    pending: HashMap<u64, (Tuple, u32)>,
    since_prune: u32,
    phase: SpoutPhase,
}

/// Advance one spout by one step: emit one tuple, or run one drain pass.
/// Returns whether the step made progress (drives the pipeline's idle
/// backoff). A panicking `next_tuple` poisons the spout: its pending
/// tuples are failed loudly and EOS still departs so downstream drains.
/// Sampled emissions are stamped into the pipeline's own `probe`.
fn spout_step(
    state: &mut SpoutState,
    routing: &Routing,
    stats: &RunStats,
    probe: &mut LatencyProbe,
) -> bool {
    match state.phase {
        SpoutPhase::Done => false,
        SpoutPhase::Emitting => {
            let next = catch_unwind(AssertUnwindSafe(|| state.spout.next_tuple()));
            let Ok(next) = next else {
                stats.op_panics.fetch_add(1, Ordering::Relaxed);
                if let Some(ack) = routing.ack.as_ref() {
                    ack.acker
                        .lock()
                        .expire_matching(SimTime::MAX, |id| state.pending.contains_key(&id));
                    ack.failed
                        .fetch_add(state.pending.len() as u64, Ordering::Relaxed);
                    if let Some(log) = &routing.log {
                        for id in state.pending.keys() {
                            log.note_resolved(root_of(*id));
                        }
                    }
                    state.pending.clear();
                }
                if state.groupings.take().is_some() {
                    routing.broadcast_eos(state.task);
                }
                state.phase = SpoutPhase::Done;
                return true;
            };
            let Some(t) = next else {
                match routing.ack.as_ref() {
                    Some(ack) => {
                        let now = Instant::now();
                        state.phase = SpoutPhase::Draining {
                            deadline: now + ack.config.drain_deadline,
                            next_poll: now,
                        };
                    }
                    None => {
                        if state.groupings.take().is_some() {
                            routing.broadcast_eos(state.task);
                        }
                        state.phase = SpoutPhase::Done;
                    }
                }
                return true;
            };
            let groupings = state.groupings.as_mut().expect("emitting spout has groupings");
            stats.spout_emitted.fetch_add(1, Ordering::Relaxed);
            if t.id != 0 && t.id % LATENCY_SAMPLE == 0 {
                probe.emitted.push((t.id, routing.now_ns()));
            }
            match routing.ack.as_ref() {
                None => routing.emit(state.task, groupings, t, None),
                Some(ack) => {
                    let tracked = ack.next_root.fetch_add(1, Ordering::Relaxed) & ROOT_MASK;
                    // Register before emitting: an executor's ack can land
                    // before the routing layer arms the ledger, and XOR
                    // order-independence keeps that race benign — but only
                    // if the entry already exists.
                    ack.acker.lock().init(tracked, 0, ack.now());
                    state.pending.insert(tracked, (t.clone(), 0));
                    routing.emit(state.task, groupings, t, Some(tracked));
                    state.since_prune += 1;
                    if state.since_prune >= 64 {
                        state.since_prune = 0;
                        prune_completed(routing, ack, &mut state.pending);
                    }
                }
            }
            true
        }
        SpoutPhase::Draining {
            deadline,
            next_poll,
        } => {
            let now = Instant::now();
            if now < next_poll {
                return false;
            }
            let ack = routing.ack.as_ref().expect("draining implies tracking");
            // One drain pass: replay expired trees (fresh ledger key,
            // stable root for sink dedup), prune completed ones.
            let expired = {
                let mut acker = ack.acker.lock();
                acker.expire_matching(ack.now(), |id| state.pending.contains_key(&id))
            };
            let mut replayed = false;
            for id in expired {
                let Some((tuple, attempt)) = state.pending.remove(&id) else {
                    continue;
                };
                if attempt >= ack.config.max_replays {
                    ack.failed.fetch_add(1, Ordering::Relaxed);
                    // A failed root is resolved for log-GC purposes: its
                    // records will never be needed again.
                    if let Some(log) = &routing.log {
                        log.note_resolved(root_of(id));
                    }
                    continue;
                }
                let attempt = attempt + 1;
                let tracked = ((attempt as u64) << ROOT_BITS) | root_of(id);
                ack.acker.lock().init(tracked, 0, ack.now());
                state.pending.insert(tracked, (tuple.clone(), attempt));
                ack.replayed.fetch_add(1, Ordering::Relaxed);
                replayed = true;
                let groupings = state.groupings.as_mut().expect("draining spout has groupings");
                routing.emit(state.task, groupings, tuple, Some(tracked));
            }
            prune_completed(routing, ack, &mut state.pending);
            if state.pending.is_empty() {
                if state.groupings.take().is_some() {
                    routing.broadcast_eos(state.task);
                }
                state.phase = SpoutPhase::Done;
                return true;
            }
            if now >= deadline {
                // Force-expire the remainder so late acks are rejected,
                // then count each as failed exactly once.
                ack.acker
                    .lock()
                    .expire_matching(SimTime::MAX, |id| state.pending.contains_key(&id));
                ack.failed
                    .fetch_add(state.pending.len() as u64, Ordering::Relaxed);
                if let Some(log) = &routing.log {
                    for id in state.pending.keys() {
                        log.note_resolved(root_of(*id));
                    }
                }
                state.pending.clear();
                if state.groupings.take().is_some() {
                    routing.broadcast_eos(state.task);
                }
                state.phase = SpoutPhase::Done;
                return true;
            }
            state.phase = SpoutPhase::Draining {
                deadline,
                next_poll: now + ack.config.poll_interval,
            };
            replayed
        }
    }
}

/// Drop roots the acker no longer tracks, counting them as acked. Only
/// acks can remove entries outside the drain loop (expiry is driven by
/// the owning spout), so anything gone from the acker completed. An
/// acked root is also reported to the partition log as resolved,
/// advancing the log's GC watermark past its records.
fn prune_completed(routing: &Routing, ack: &AckRuntime, pending: &mut HashMap<u64, (Tuple, u32)>) {
    let acker = ack.acker.lock();
    let before = pending.len();
    pending.retain(|id, _| {
        if acker.contains(*id) {
            return true;
        }
        if let Some(log) = &routing.log {
            log.note_resolved(root_of(*id));
        }
        false
    });
    ack.acked
        .fetch_add((before - pending.len()) as u64, Ordering::Relaxed);
}

/// Decode and dispatch one fabric frame received by `worker`'s pipeline.
/// Framing is validated once per frame (views, nothing materialized);
/// data items are handed to executors as shared [`LazyTuple`]s, and
/// `scratch` is the pipeline's reusable destination buffer, so the
/// steady-state dispatch path allocates nothing. A frame that is
/// truncated, fails to validate, carries an unknown tag, or addresses a
/// task this run does not host is dropped and counted
/// (`RunStats::dropped_frames`) — a bad peer must not crash the worker.
fn on_frame(
    worker: u32,
    msg: &whale_net::LiveMessage,
    routing: &Routing,
    scratch: &mut Vec<TaskId>,
    probe: &mut LatencyProbe,
) {
    let drop_frame = || {
        routing.stats.dropped_frames.fetch_add(1, Ordering::Relaxed);
    };
    let deliver = |dst: TaskId, msg: ExecMsg| {
        if !routing.deliver(dst, msg) {
            drop_frame();
        }
    };
    // Fan one parsed worker message out through the reusable scratch.
    let deliver_worker = |view: &WorkerMessageView<'_>,
                          tracked: Option<u64>,
                          scratch: &mut Vec<TaskId>| {
        match routing.lazy_tuple(&msg.payload, view.tuple()) {
            Ok(lazy) => {
                codec::dispatch_worker_message_into(view, scratch);
                for &dst in scratch.iter() {
                    let tag = tracked.map(|tr| AckTag {
                        tracked: tr,
                        anchor: anchor_for(tr, dst),
                    });
                    routing.note_lazy_delivery(&lazy);
                    deliver(dst, ExecMsg::Data(lazy.clone(), tag));
                }
            }
            Err(_) => drop_frame(),
        }
    };
    let deliver_instance = |view: &InstanceMessageView<'_>, tracked: Option<u64>| {
        match routing.lazy_tuple(&msg.payload, view.tuple()) {
            Ok(lazy) => {
                // The anchor is derived, not carried: the same pure
                // function the sender armed the ledger with.
                let tag = tracked.map(|tr| AckTag {
                    tracked: tr,
                    anchor: anchor_for(tr, view.dst()),
                });
                routing.note_lazy_delivery(&lazy);
                deliver(view.dst(), ExecMsg::Data(lazy, tag));
            }
            Err(_) => drop_frame(),
        }
    };
    {
        let mut buf = msg.payload.bytes();
        if buf.is_empty() {
            return;
        }
        let tag = buf.get_u8();
        match tag {
            TAG_RELAY => {
                // Fixed-offset header; the remaining slice is the item.
                // The original payload (tag + header + item) is handed
                // along untouched so forwards reuse the received bytes.
                let Ok(h) = RelayHeader::decode(&mut buf) else {
                    drop_frame();
                    return;
                };
                routing.on_relay_frame(worker, h, &msg.payload, buf, probe);
            }
            TAG_RELAY_EOS => {
                if buf.remaining() < 16 {
                    drop_frame();
                    return;
                }
                let origin = buf.get_u32_le();
                let epoch = buf.get_u32_le();
                let comp = ComponentId(buf.get_u32_le());
                let src = TaskId(buf.get_u32_le());
                routing.on_relay_eos(worker, origin, epoch, comp, src, &msg.payload);
            }
            TAG_INSTANCE => match InstanceMessageView::parse(buf) {
                Ok(view) => deliver_instance(&view, None),
                Err(_) => drop_frame(),
            },
            TAG_WORKER => match WorkerMessageView::parse(buf) {
                // One framing validation, fanned out to local executors
                // as views over the shared receive buffer.
                Ok(view) => deliver_worker(&view, None, scratch),
                Err(_) => drop_frame(),
            },
            TAG_INSTANCE_TRACKED => {
                if buf.remaining() < 8 {
                    drop_frame();
                    return;
                }
                let tracked = buf.get_u64_le();
                match InstanceMessageView::parse(buf) {
                    Ok(view) => deliver_instance(&view, Some(tracked)),
                    Err(_) => drop_frame(),
                }
            }
            TAG_WORKER_TRACKED => {
                if buf.remaining() < 8 {
                    drop_frame();
                    return;
                }
                let tracked = buf.get_u64_le();
                match WorkerMessageView::parse(buf) {
                    Ok(view) => deliver_worker(&view, Some(tracked), scratch),
                    Err(_) => drop_frame(),
                }
            }
            TAG_EOS => {
                if buf.remaining() < 8 {
                    drop_frame();
                    return;
                }
                let src = TaskId(buf.get_u32_le());
                let n = buf.get_u32_le() as usize;
                if buf.remaining() < n * 4 {
                    drop_frame();
                    return;
                }
                for _ in 0..n {
                    let dst = TaskId(buf.get_u32_le());
                    deliver(dst, ExecMsg::Eos(src));
                }
            }
            _ => drop_frame(),
        }
    }
}

/// One bolt task owned by a shard pipeline.
struct BoltState {
    task: TaskId,
    comp: ComponentId,
    bolt: Box<dyn Bolt>,
    /// Taken exactly once, at EOS broadcast.
    groupings: Option<Groupings>,
    eos_seen: HashSet<TaskId>,
    expected_eos: usize,
    /// Tracked ids already XOR'd into the acker (a duplicated frame must
    /// not ack the ledger twice) and roots already executed (replays and
    /// duplicates are acked but not re-executed).
    acked_tracked: HashSet<u64>,
    seen_roots: HashSet<u64>,
    /// A panicking `execute`/`finish` poisons the task: later tuples are
    /// dropped unprocessed and unacked (they time out into replays on
    /// tracked runs), but EOS still departs so downstream drains.
    poisoned: bool,
    done: bool,
}

/// Process one executor message for a bolt. Executions are counted in
/// the calling pipeline's own counter set, and sampled ids are stamped
/// into its own `probe`.
fn bolt_handle(
    state: &mut BoltState,
    msg: ExecMsg,
    routing: &Routing,
    stats: &RunStats,
    probe: &mut LatencyProbe,
) {
    if state.done {
        return;
    }
    match msg {
        ExecMsg::Data(t, tag) => {
            if state.poisoned {
                return;
            }
            let mut fresh = true;
            if let (Some(tag), Some(ack)) = (tag, routing.ack.as_ref()) {
                if state.acked_tracked.insert(tag.tracked) {
                    ack.acker.lock().ack(tag.tracked, tag.anchor);
                }
                fresh = state.seen_roots.insert(root_of(tag.tracked));
                if !fresh {
                    ack.dedup_dropped.fetch_add(1, Ordering::Relaxed);
                }
            }
            if !fresh {
                return;
            }
            let counters = routing.counters();
            counters.executed[state.comp.0 as usize]
                .0
                .fetch_add(1, Ordering::Relaxed);
            let id = t.id();
            if id != 0 && id % LATENCY_SAMPLE == 0 {
                probe.executed.push((id, routing.now_ns()));
            }
            let groupings = state.groupings.as_mut().expect("live bolt has groupings");
            let mut emitter = TaskEmitter {
                routing,
                src: state.task,
                groupings,
            };
            let bolt = &mut state.bolt;
            let was_materialized = t.is_materialized();
            match catch_unwind(AssertUnwindSafe(|| bolt.execute_lazy(&t, &mut emitter))) {
                Err(_) => {
                    state.poisoned = true;
                    stats.op_panics.fetch_add(1, Ordering::Relaxed);
                }
                // Corrupt wire bytes (deferred UTF-8 validation failed):
                // drop the tuple, keep the task healthy.
                Ok(Err(_)) => {
                    stats.dropped_frames.fetch_add(1, Ordering::Relaxed);
                }
                Ok(Ok(())) => {}
            }
            if !was_materialized && t.is_materialized() {
                counters.tuples_materialized.fetch_add(1, Ordering::Relaxed);
            }
        }
        ExecMsg::Eos(src) => {
            state.eos_seen.insert(src);
            if state.eos_seen.len() >= state.expected_eos {
                finish_bolt(state, routing, stats);
            }
        }
    }
}

/// Close out a bolt: run its `finish` hook (skipped for poisoned tasks —
/// a panicking operator gets no second invocation) and broadcast EOS.
fn finish_bolt(state: &mut BoltState, routing: &Routing, stats: &RunStats) {
    if state.done {
        return;
    }
    state.done = true;
    let Some(mut groupings) = state.groupings.take() else {
        return;
    };
    if !state.poisoned {
        let mut emitter = TaskEmitter {
            routing,
            src: state.task,
            groupings: &mut groupings,
        };
        let bolt = &mut state.bolt;
        if catch_unwind(AssertUnwindSafe(|| bolt.finish(&mut emitter))).is_err() {
            state.poisoned = true;
            stats.op_panics.fetch_add(1, Ordering::Relaxed);
        }
    }
    routing.broadcast_eos(state.task);
}

/// Fabric frames and cross-shard messages consumed per scheduling pass
/// before the pipeline rotates to its other work (keeps one flooded
/// source from starving the rest).
const PIPELINE_BATCH: usize = 128;
/// Idle passes of busy-spinning before the pipeline starts sleeping.
const IDLE_SPINS: u32 = 64;
const IDLE_SLEEP: Duration = Duration::from_micros(50);

/// One shard-owned pipeline: the whole hot path for its slice of tasks —
/// fabric reader, routing (each task's groupings), execution, and
/// sink — on one thread, with no central dispatcher. See the module docs.
struct ShardPipeline {
    /// Flat shard id (`worker * shards + shard`) — also the fabric
    /// endpoint this pipeline reads.
    flat: usize,
    worker: u32,
    fabric_rx: Receiver<whale_net::LiveMessage>,
    /// This pipeline's cross-shard inbox, once a delivery created it.
    inbox_rx: Option<Receiver<(TaskId, ExecMsg)>>,
    spouts: Vec<SpoutState>,
    bolts: HashMap<TaskId, BoltState>,
    /// Signals the run driver once every owned task has completed (the
    /// pipeline keeps relaying/draining frames until the fabric closes).
    done_tx: Sender<()>,
    /// Reusable destination-id buffer for worker-message fan-out, so the
    /// steady-state dispatch path allocates nothing per frame.
    scratch: Vec<TaskId>,
    /// This pipeline's half of the latency probe, handed back at exit.
    probe: LatencyProbe,
}

impl ShardPipeline {
    fn run(mut self, routing: &Routing, stats: &RunStats) -> LatencyProbe {
        CURRENT_SHARD.with(|c| c.set(Some(self.flat)));
        // A bolt with no upstream can never receive EOS; close it out
        // up front instead of hanging the pipeline.
        for b in self.bolts.values_mut() {
            if b.expected_eos == 0 {
                finish_bolt(b, routing, stats);
            }
        }
        self.drain_local(routing, stats);
        let deadline = routing.config.run_deadline.map(|d| Instant::now() + d);
        let mut fabric_open = true;
        let mut signaled = false;
        let mut idle_passes = 0u32;
        loop {
            let mut progress = false;
            for _ in 0..PIPELINE_BATCH {
                match self.fabric_rx.try_recv() {
                    Ok(msg) => {
                        on_frame(
                            self.worker,
                            &msg,
                            routing,
                            &mut self.scratch,
                            &mut self.probe,
                        );
                        progress = true;
                        self.drain_local(routing, stats);
                    }
                    Err(TryRecvError::Empty) => break,
                    Err(TryRecvError::Disconnected) => {
                        fabric_open = false;
                        break;
                    }
                }
            }
            if self.inbox_rx.is_none() {
                self.inbox_rx = routing.shard_inboxes[self.flat].take_receiver();
            }
            for _ in 0..PIPELINE_BATCH {
                let Some(Ok((dst, msg))) = self.inbox_rx.as_ref().map(Receiver::try_recv) else {
                    break;
                };
                self.handle_exec(dst, msg, routing, stats);
                progress = true;
                self.drain_local(routing, stats);
            }
            for spout in &mut self.spouts {
                if spout_step(spout, routing, stats, &mut self.probe) {
                    progress = true;
                }
            }
            if self.drain_local(routing, stats) {
                progress = true;
            }
            let all_done = self
                .spouts
                .iter()
                .all(|s| matches!(s.phase, SpoutPhase::Done))
                && self.bolts.values().all(|b| b.done);
            if all_done && !signaled {
                signaled = true;
                let _ = self.done_tx.send(());
            }
            if all_done && !fabric_open {
                break;
            }
            if progress {
                idle_passes = 0;
                continue;
            }
            if !all_done {
                if let Some(dl) = deadline {
                    if Instant::now() >= dl {
                        // Liveness backstop, checked only on idle passes
                        // (already-queued traffic is still processed): a
                        // lost EOS degrades the run but never hangs it.
                        // Finishing still broadcasts this task's own EOS
                        // so downstream can drain.
                        for b in self.bolts.values_mut() {
                            if !b.done {
                                stats.deadline_exits.fetch_add(1, Ordering::Relaxed);
                                finish_bolt(b, routing, stats);
                            }
                        }
                        self.drain_local(routing, stats);
                        continue;
                    }
                }
            }
            idle_passes += 1;
            if idle_passes < IDLE_SPINS {
                std::hint::spin_loop();
            } else {
                std::thread::sleep(IDLE_SLEEP);
            }
        }
        CURRENT_SHARD.with(|c| c.set(None));
        self.probe
    }

    /// Route one executor message to the owning task. Messages for tasks
    /// this shard does not own (a spout task, or a stale frame for a
    /// completed run) are ignored, matching the old dispatcher's
    /// fire-and-forget channel sends.
    fn handle_exec(&mut self, dst: TaskId, msg: ExecMsg, routing: &Routing, stats: &RunStats) {
        if let Some(state) = self.bolts.get_mut(&dst) {
            bolt_handle(state, msg, routing, stats, &mut self.probe);
        }
    }

    /// Drain the thread-local same-shard loopback queue. Executions may
    /// push more (a bolt emitting to a same-shard successor), so this
    /// loops until the queue is genuinely empty.
    fn drain_local(&mut self, routing: &Routing, stats: &RunStats) -> bool {
        let mut any = false;
        while let Some((dst, msg)) = LOCAL_QUEUE.with_borrow_mut(|q| q.pop_front()) {
            self.handle_exec(dst, msg, routing, stats);
            any = true;
        }
        any
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operator::{FnBolt, IterSpout};
    use crate::tuple::{Schema, Value};

    fn counting_topology(machines: u32, bolt_p: u32) -> (Topology, Operators) {
        let mut b = crate::topology::TopologyBuilder::new();
        b.spout("src", 1, Schema::new(vec!["n"]))
            .bolt("double", bolt_p, Schema::new(vec!["n"]))
            .bolt("sink", 1, Schema::new(vec!["n"]))
            .connect("src", "double", Grouping::All)
            .connect("double", "sink", Grouping::Shuffle);
        let t = b.build().unwrap();
        let _ = machines;
        let ops = Operators::new()
            .spout("src", |_| {
                Box::new(IterSpout::new(
                    (0..100i64).map(|i| Tuple::with_id(i as u64, vec![Value::I64(i)])),
                ))
            })
            .bolt("double", |_| {
                Box::new(FnBolt::new(|t: &Tuple, out: &mut dyn Emitter| {
                    let x = t.get(0).unwrap().as_i64().unwrap();
                    out.emit(Tuple::new(vec![Value::I64(x * 2)]));
                }))
            })
            .bolt("sink", |_| {
                Box::new(FnBolt::new(|_t: &Tuple, _out: &mut dyn Emitter| {}))
            });
        (t, ops)
    }

    fn run(mode: CommMode, zero_copy: bool, machines: u32, bolt_p: u32) -> RunReport {
        let (t, ops) = counting_topology(machines, bolt_p);
        run_topology(
            t,
            ops,
            LiveConfig {
                machines,
                comm_mode: mode,
                zero_copy,
                multicast_d_star: None,
                fabric: FabricKind::PerSend,
                ..LiveConfig::default()
            },
        )
    }

    #[test]
    fn all_grouping_fans_out_to_every_instance() {
        let r = run(CommMode::WorkerOriented, true, 4, 8);
        // 100 source tuples × 8 instances.
        assert_eq!(r.executed[1], 800);
        // Each doubled tuple shuffles to the single sink.
        assert_eq!(r.executed[2], 800);
        assert_eq!(r.spout_emitted, 100);
    }

    #[test]
    fn instance_oriented_matches_results_with_more_serialization() {
        let io = run(CommMode::InstanceOriented, false, 4, 8);
        let wo = run(CommMode::WorkerOriented, true, 4, 8);
        // Same data-plane results...
        assert_eq!(io.executed, wo.executed);
        // ...but instance-oriented serializes per destination: the
        // all-grouping stage costs 100×8 serializations instead of 100×1
        // (the shuffle stage is 1-fanout and serializes once either way).
        assert_eq!(io.serializations - wo.serializations, 100 * (8 - 1));
        // And moves more bytes (copied path) than worker-oriented fabric
        // messages.
        assert!(io.fabric_messages > wo.fabric_messages);
    }

    #[test]
    fn zero_copy_uses_shared_path() {
        let r = run(CommMode::WorkerOriented, true, 4, 8);
        assert_eq!(r.copied_bytes, 0);
        assert!(r.shared_bytes > 0);
        let r = run(CommMode::WorkerOriented, false, 4, 8);
        assert_eq!(r.shared_bytes, 0);
        assert!(r.copied_bytes > 0);
    }

    #[test]
    fn single_machine_runs_entirely_local() {
        let r = run(CommMode::WorkerOriented, true, 1, 4);
        assert_eq!(r.executed[1], 400);
        // EOS frames may be local too: everything is on one worker.
        assert_eq!(r.copied_bytes + r.shared_bytes, 0);
    }

    #[test]
    fn relay_multicast_equals_direct_results() {
        let (t, ops) = counting_topology(8, 16);
        let relayed = run_topology(
            t,
            ops,
            LiveConfig {
                machines: 8,
                comm_mode: CommMode::WorkerOriented,
                zero_copy: true,
                multicast_d_star: Some(2),
                fabric: FabricKind::PerSend,
                ..LiveConfig::default()
            },
        );
        let direct = run(CommMode::WorkerOriented, true, 8, 16);
        assert_eq!(relayed.executed, direct.executed);
        assert_eq!(relayed.spout_emitted, direct.spout_emitted);
        assert!(relayed.relay_forwards > 0, "relays must forward");
        assert_eq!(direct.relay_forwards, 0);
    }

    #[test]
    fn relay_offloads_the_source() {
        // With 8 workers and d* = 2, the source sends to its 2 tree
        // children; relays forward the remaining 5 frames per broadcast
        // tuple. 100 broadcast tuples → 500 relay forwards (the shuffle
        // stage to the sink is not relayed).
        let (t, ops) = counting_topology(8, 16);
        let r = run_topology(
            t,
            ops,
            LiveConfig {
                machines: 8,
                comm_mode: CommMode::WorkerOriented,
                zero_copy: true,
                multicast_d_star: Some(2),
                fabric: FabricKind::PerSend,
                ..LiveConfig::default()
            },
        );
        assert_eq!(r.relay_forwards, 100 * 5);
        // Still exactly one serialization per broadcast tuple.
        assert_eq!(r.executed[1], 100 * 16);
    }

    #[test]
    fn delivery_latency_sampled() {
        let r = run(CommMode::WorkerOriented, true, 4, 8);
        // 100 source tuples with ids 0..100: ids 8,16,...,96 are sampled
        // and each is executed by all 8 `double` instances; the doubled
        // tuples carry id 0 and are never sampled. A probe that loses a
        // single sample fails here.
        assert_eq!(
            r.delivery_ns.len(),
            12 * 8,
            "one sample per sampled id × instance"
        );
        assert!(r.mean_delivery() > std::time::Duration::ZERO);
        assert!(r.p99_delivery() >= r.mean_delivery() / 2);
    }

    #[test]
    fn relay_node_worker_mapping_skips_origin() {
        assert_eq!(relay_node_worker(0, 0, 4), WorkerId(1));
        assert_eq!(relay_node_worker(0, 2, 4), WorkerId(3));
        assert_eq!(relay_node_worker(2, 0, 4), WorkerId(0));
        assert_eq!(relay_node_worker(2, 1, 4), WorkerId(1));
        assert_eq!(relay_node_worker(2, 2, 4), WorkerId(3));
    }

    #[test]
    #[should_panic(expected = "worker-oriented")]
    fn relay_requires_worker_oriented() {
        let (t, ops) = counting_topology(4, 4);
        let _ = run_topology(
            t,
            ops,
            LiveConfig {
                machines: 4,
                comm_mode: CommMode::InstanceOriented,
                zero_copy: false,
                multicast_d_star: Some(2),
                fabric: FabricKind::PerSend,
                ..LiveConfig::default()
            },
        );
    }

    #[test]
    fn run_survives_panicking_bolt_and_tears_down_in_order() {
        // A panicking executor must not wedge the run: every thread is
        // still joined, the fabric endpoints are closed so dispatchers
        // exit, and the report records the failures.
        let mut b = crate::topology::TopologyBuilder::new();
        b.spout("src", 1, Schema::new(vec!["n"]))
            .bolt("boom", 4, Schema::new(vec!["n"]))
            .connect("src", "boom", Grouping::All);
        let t = b.build().unwrap();
        let ops = Operators::new()
            .spout("src", |_| {
                Box::new(IterSpout::new(
                    (0..10i64).map(|i| Tuple::with_id(i as u64, vec![Value::I64(i)])),
                ))
            })
            .bolt("boom", |_| {
                Box::new(FnBolt::new(|_t: &Tuple, _out: &mut dyn Emitter| {
                    panic!("injected bolt failure")
                }))
            });
        let r = run_topology(
            t,
            ops,
            LiveConfig {
                machines: 2,
                comm_mode: CommMode::WorkerOriented,
                zero_copy: true,
                multicast_d_star: None,
                fabric: FabricKind::PerSend,
                ..LiveConfig::default()
            },
        );
        assert!(r.thread_panics >= 1, "panics = {}", r.thread_panics);
        assert_eq!(r.spout_emitted, 10);
        assert_eq!(
            r.outcome,
            RunOutcome::Degraded {
                thread_panics: r.thread_panics,
                failed_sends: 0,
                failed_tuples: 0,
                deadline_exits: 0,
            }
        );
        assert!(!r.outcome.is_clean());
    }

    #[test]
    fn missing_spout_is_a_config_error_not_a_panic() {
        let (t, _ops) = counting_topology(2, 4);
        let ops = Operators::new()
            .bolt("double", |_| {
                Box::new(FnBolt::new(|_t: &Tuple, _out: &mut dyn Emitter| {}))
            })
            .bolt("sink", |_| {
                Box::new(FnBolt::new(|_t: &Tuple, _out: &mut dyn Emitter| {}))
            });
        let r = run_topology(t, ops, LiveConfig::default());
        assert_eq!(
            r.outcome,
            RunOutcome::ConfigError(BuildError::MissingSpout("src".into()))
        );
        // Nothing ran: the report is all zeros with one slot per component.
        assert_eq!(r.executed, vec![0, 0, 0]);
        assert_eq!(r.spout_emitted, 0);
        assert_eq!(r.fabric_messages, 0);
        assert_eq!(r.thread_panics, 0);
        // The reason round-trips through Display for operators' logs.
        if let RunOutcome::ConfigError(e) = &r.outcome {
            assert!(e.to_string().contains("src"));
        }
    }

    #[test]
    fn missing_bolt_is_a_config_error_not_a_panic() {
        let (t, _ops) = counting_topology(2, 4);
        let ops = Operators::new().spout("src", |_| {
            Box::new(IterSpout::new(
                (0..10i64).map(|i| Tuple::with_id(i as u64, vec![Value::I64(i)])),
            ))
        });
        let r = run_topology(t, ops, LiveConfig::default());
        assert!(matches!(
            &r.outcome,
            RunOutcome::ConfigError(BuildError::MissingBolt(name)) if name == "double" || name == "sink"
        ));
        assert_eq!(r.spout_emitted, 0, "no spout thread may have started");
    }

    #[test]
    fn clean_run_reports_clean_outcome() {
        let r = run(CommMode::WorkerOriented, true, 4, 8);
        assert_eq!(r.outcome, RunOutcome::Clean);
        assert!(r.outcome.is_clean());
        assert_eq!(r.send_errors, 0);
        assert_eq!(r.batches_flushed, 0, "per-send path never batches");
        assert_eq!(r.mean_batch_size, 0.0);
    }

    #[test]
    fn ring_fabric_matches_per_send_results_and_batches() {
        let (t, ops) = counting_topology(4, 8);
        let ring = run_topology(
            t,
            ops,
            LiveConfig {
                machines: 4,
                comm_mode: CommMode::WorkerOriented,
                zero_copy: true,
                multicast_d_star: None,
                fabric: FabricKind::Ring(whale_net::RingConfig::default()),
                ..LiveConfig::default()
            },
        );
        let direct = run(CommMode::WorkerOriented, true, 4, 8);
        // Same data-plane results through the batched path...
        assert_eq!(ring.executed, direct.executed);
        assert_eq!(ring.spout_emitted, direct.spout_emitted);
        assert_eq!(ring.fabric_messages, direct.fabric_messages);
        assert_eq!(ring.shared_bytes, direct.shared_bytes);
        // ...but delivered through MMS/WTL batches, cleanly.
        assert!(ring.batches_flushed > 0, "ring path must batch");
        assert!(ring.mean_batch_size >= 1.0);
        assert_eq!(ring.outcome, RunOutcome::Clean);
        assert_eq!(ring.send_errors, 0);
    }

    #[test]
    fn ring_fabric_with_relay_tree() {
        let (t, ops) = counting_topology(8, 16);
        let r = run_topology(
            t,
            ops,
            LiveConfig {
                machines: 8,
                comm_mode: CommMode::WorkerOriented,
                zero_copy: true,
                multicast_d_star: Some(2),
                fabric: FabricKind::Ring(whale_net::RingConfig::default()),
                ..LiveConfig::default()
            },
        );
        assert_eq!(r.executed[1], 100 * 16);
        assert_eq!(r.relay_forwards, 100 * 5);
        assert_eq!(r.outcome, RunOutcome::Clean);
        assert!(r.batches_flushed > 0);
    }

    #[test]
    fn one_sided_fabric_matches_per_send_results() {
        let (t, ops) = counting_topology(4, 8);
        let one_sided = run_topology(
            t,
            ops,
            LiveConfig {
                machines: 4,
                comm_mode: CommMode::WorkerOriented,
                zero_copy: true,
                multicast_d_star: None,
                fabric: FabricKind::OneSided(whale_net::OneSidedConfig::default()),
                ..LiveConfig::default()
            },
        );
        let direct = run(CommMode::WorkerOriented, true, 4, 8);
        // Same data-plane results through the remote-fetch path...
        assert_eq!(one_sided.executed, direct.executed);
        assert_eq!(one_sided.spout_emitted, direct.spout_emitted);
        assert_eq!(one_sided.fabric_messages, direct.fabric_messages);
        assert_eq!(one_sided.shared_bytes, direct.shared_bytes);
        // ...delivered by the fetcher, cleanly, with no push batching.
        assert_eq!(one_sided.batches_flushed, 0, "fetch path never batches");
        assert_eq!(one_sided.outcome, RunOutcome::Clean);
        assert_eq!(one_sided.send_errors, 0);
    }

    #[test]
    fn one_sided_fabric_with_relay_tree() {
        let (t, ops) = counting_topology(8, 16);
        let r = run_topology(
            t,
            ops,
            LiveConfig {
                machines: 8,
                comm_mode: CommMode::WorkerOriented,
                zero_copy: true,
                multicast_d_star: Some(2),
                fabric: FabricKind::OneSided(whale_net::OneSidedConfig::default()),
                ..LiveConfig::default()
            },
        );
        // The relay tree forwards fetched Arc frames unchanged.
        assert_eq!(r.executed[1], 100 * 16);
        assert_eq!(r.relay_forwards, 100 * 5);
        assert_eq!(r.outcome, RunOutcome::Clean);
        assert!(r.shared_bytes > 0, "relay forwards stay zero-copy");
    }

    /// A routing context over `counting_topology(2, 4)` on 2 machines with
    /// no pipelines behind it, for feeding frames to [`on_frame`] by hand.
    fn bare_routing(config: LiveConfig, relay: Option<RelayState>) -> Routing {
        let (t, _ops) = counting_topology(2, 4);
        let placement = Placement::even(&t, &ClusterSpec::new(2, 1, 16));
        let n_components = t.components().len();
        Routing {
            topology: t,
            placement,
            config,
            fabric: Arc::new(whale_net::LiveFabric::new()),
            pool: BufferPool::default(),
            shard_inboxes: Vec::new(),
            shards: 1,
            stats: Arc::new(RunStats::default()),
            counters: PipelineCounters::for_run(1, n_components),
            clock: Instant::now(),
            ack: None,
            relay,
            log: None,
            tracker: None,
        }
    }

    /// Hand each frame to [`on_frame`] as worker 0's pipeline (shard 0)
    /// would.
    fn feed(routing: &Routing, frames: &[Vec<u8>]) {
        let (mut scratch, mut probe) = (Vec::new(), LatencyProbe::default());
        CURRENT_SHARD.with(|c| c.set(Some(0)));
        for f in frames {
            let msg = whale_net::LiveMessage {
                from: EndpointId(1),
                payload: Payload::Copied(f.clone()),
            };
            on_frame(0, &msg, routing, &mut scratch, &mut probe);
        }
        CURRENT_SHARD.with(|c| c.set(None));
    }

    #[test]
    fn dispatcher_drops_garbage_frames_instead_of_crashing() {
        let routing = bare_routing(
            LiveConfig {
                machines: 2,
                comm_mode: CommMode::WorkerOriented,
                zero_copy: false,
                multicast_d_star: None,
                fabric: FabricKind::PerSend,
                ..LiveConfig::default()
            },
            None,
        );

        let mut frames: Vec<Vec<u8>> = vec![
            vec![99],                     // unknown tag
            vec![TAG_RELAY, 1, 2],        // truncated relay header
            vec![TAG_RELAY_EOS, 0, 0, 0], // truncated relay EOS
            vec![TAG_INSTANCE, 1, 2, 3],  // truncated instance message
            vec![TAG_WORKER],             // truncated worker message
            vec![TAG_EOS, 0],             // truncated EOS header
        ];
        // Relay frame with a truncated header (12 of 20 bytes).
        let mut f = vec![TAG_RELAY];
        f.extend_from_slice(&[0u8; 12]);
        frames.push(f);
        // Well-formed relay header on a worker with the relay path off.
        let mut f = vec![TAG_RELAY];
        f.extend_from_slice(&[0u8; RelayHeader::WIRE_BYTES]);
        frames.push(f);
        // EOS claiming 100 destinations but carrying none.
        let mut f = vec![TAG_EOS];
        f.extend_from_slice(&0u32.to_le_bytes());
        f.extend_from_slice(&100u32.to_le_bytes());
        frames.push(f);
        // Well-formed instance message addressed to a task with no inbox.
        let msg = InstanceMessage {
            src: TaskId(0),
            dst: TaskId(7),
            tuple: Tuple::new(vec![Value::I64(1)]),
        };
        let mut framed = BytesMut::with_capacity(1 + msg.wire_bytes());
        framed.put_u8(TAG_INSTANCE);
        framed.put_slice(&msg.encode());
        frames.push(framed.freeze().to_vec());

        let expected = frames.len() as u64;
        feed(&routing, &frames);
        assert_eq!(
            routing.stats.dropped_frames.load(Ordering::Relaxed),
            expected
        );
    }

    #[test]
    fn report_metrics_snapshot() {
        let r = run(CommMode::WorkerOriented, true, 4, 8);
        let m = r.metrics();
        assert_eq!(m.counter("dsps.spout_emitted"), Some(100));
        assert_eq!(m.counter("dsps.executed.component_1"), Some(800));
        assert_eq!(m.counter("dsps.dropped_frames"), Some(0));
        assert_eq!(m.counter("dsps.thread_panics"), Some(0));
        assert!(m.counter("dsps.fabric.messages").unwrap() > 0);
        let s = m.summary("dsps.delivery_ns").unwrap();
        assert_eq!(s.count, 12 * 8, "every sampled id × every instance");
        assert!(s.p99 >= s.p50);
    }

    #[test]
    fn hot_path_reuses_pooled_encode_buffers() {
        // 100 broadcast tuples to 8 instances across 4 machines produce
        // hundreds of frames; the pool must serve almost all of them from
        // reused buffers and every buffer must be back after the run.
        for zero_copy in [true, false] {
            let r = run(CommMode::WorkerOriented, zero_copy, 4, 8);
            assert!(
                r.pool_hits > 0,
                "zero_copy={zero_copy}: buffers returned after use are reused"
            );
            assert!(
                r.pool_hit_rate > 0.9,
                "zero_copy={zero_copy}: steady state must stop allocating, \
                 hit rate {:.3} (hits {}, misses {})",
                r.pool_hit_rate,
                r.pool_hits,
                r.pool_misses
            );
            assert!(r.pool_high_watermark >= 1);
            let m = r.metrics();
            assert_eq!(m.counter("dsps.pool.hits"), Some(r.pool_hits));
            assert!(m.gauge("dsps.pool.hit_rate").unwrap() > 0.9);
        }
    }

    #[test]
    fn deterministic_tuple_counts_across_modes_and_scales() {
        for machines in [1, 2, 8] {
            for p in [1, 4, 16] {
                let r = run(CommMode::WorkerOriented, true, machines, p);
                assert_eq!(r.executed[1] as u32, 100 * p, "machines={machines} p={p}");
            }
        }
    }

    /// spout → sink directly: the acker tracks spout emissions to their
    /// first-hop subscribers, so a one-edge topology makes the delivery
    /// accounting exact.
    fn ack_topology(n: i64, fanout: u32) -> (Topology, Operators) {
        let mut b = crate::topology::TopologyBuilder::new();
        b.spout("src", 1, Schema::new(vec!["n"]))
            .bolt("sink", fanout, Schema::new(vec!["n"]))
            .connect("src", "sink", Grouping::All);
        let t = b.build().unwrap();
        let ops = Operators::new()
            .spout("src", move |_| {
                Box::new(IterSpout::new(
                    (0..n).map(|i| Tuple::with_id(i as u64, vec![Value::I64(i)])),
                ))
            })
            .bolt("sink", |_| {
                Box::new(FnBolt::new(|_t: &Tuple, _out: &mut dyn Emitter| {}))
            });
        (t, ops)
    }

    #[test]
    fn tracked_clean_run_acks_every_tuple() {
        let (t, ops) = ack_topology(200, 4);
        let r = run_topology(
            t,
            ops,
            LiveConfig {
                machines: 4,
                ack: Some(AckConfig::default()),
                ..LiveConfig::default()
            },
        );
        assert_eq!(r.outcome, RunOutcome::Clean);
        assert_eq!(r.spout_emitted, 200);
        assert_eq!(r.tuples_acked, 200);
        assert_eq!(r.tuples_failed, 0);
        assert_eq!(r.tuples_replayed, 0);
        // Every instance executed every root exactly once.
        assert_eq!(r.executed[1], 200 * 4);
    }

    #[test]
    fn tracked_run_replays_through_injected_drops_without_silent_loss() {
        for fabric in [
            FabricKind::PerSend,
            FabricKind::Ring(whale_net::RingConfig::default()),
            FabricKind::OneSided(whale_net::OneSidedConfig::default()),
        ] {
            let (t, ops) = ack_topology(150, 2);
            let r = run_topology(
                t,
                ops,
                LiveConfig {
                    machines: 4,
                    fabric,
                    ack: Some(AckConfig {
                        timeout: Duration::from_millis(50),
                        max_replays: 20,
                        drain_deadline: Duration::from_secs(20),
                        eos_redundancy: 4,
                        ..AckConfig::default()
                    }),
                    fault: Some(FaultPlan::uniform_drops(7, 0.2)),
                    run_deadline: Some(Duration::from_secs(5)),
                    ..LiveConfig::default()
                },
            );
            // At-least-once accounting: every emission ends acked or
            // failed — never silently lost.
            assert_eq!(
                r.tuples_acked + r.tuples_failed,
                r.spout_emitted,
                "fabric run must account for every tuple"
            );
            assert!(r.fault_drops > 0, "the plan must actually drop frames");
            assert!(r.tuples_replayed > 0, "drops must trigger replays");
            // An acked root reached every subscriber; dedup keeps each
            // execution unique per instance.
            assert!(r.executed[1] >= r.tuples_acked);
            assert!(r.executed[1] <= 2 * r.spout_emitted);
        }
    }

    #[test]
    fn exhausted_send_deadline_degrades_instead_of_livelocking() {
        // Every remote send is stuck Full forever: the policy deadline
        // must fail frames loudly and the run deadline must reap the
        // starved executors — the run terminates on its own.
        let (t, ops) = ack_topology(20, 2);
        let plan = FaultPlan {
            seed: 1,
            default_link: whale_net::LinkFaults {
                full_burst: 1.0,
                full_burst_len: u32::MAX,
                ..whale_net::LinkFaults::default()
            },
            ..FaultPlan::default()
        };
        let started = Instant::now();
        let r = run_topology(
            t,
            ops,
            LiveConfig {
                machines: 2,
                send: SendPolicy {
                    spin: 4,
                    yields: 4,
                    park_initial: Duration::from_micros(50),
                    park_max: Duration::from_micros(200),
                    deadline: Duration::from_millis(5),
                },
                fault: Some(plan),
                run_deadline: Some(Duration::from_millis(500)),
                ..LiveConfig::default()
            },
        );
        assert!(r.send_failed > 0, "stuck sends must fail loudly");
        assert!(r.send_retries > 0);
        assert!(r.deadline_exits > 0, "starved executors must be reaped");
        assert!(matches!(r.outcome, RunOutcome::Degraded { .. }));
        assert!(
            started.elapsed() < Duration::from_secs(30),
            "bounded backoff must terminate promptly"
        );
        let m = r.metrics();
        assert_eq!(m.counter("dsps.send.failed"), Some(r.send_failed));
        assert_eq!(m.counter("dsps.send.retries"), Some(r.send_retries));
    }

    #[test]
    fn monitor_interval_records_timeline() {
        let (t, ops) = counting_topology(4, 8);
        let r = run_topology(
            t,
            ops,
            LiveConfig {
                machines: 4,
                monitor_interval: Some(Duration::from_millis(1)),
                ..LiveConfig::default()
            },
        );
        assert!(!r.timeline.is_empty(), "the final sample always lands");
        let last = r.timeline.last().unwrap();
        assert_eq!(last.spout_emitted, 100);
        assert!(last.executed > 0);
        // Samples are orderable and the series export is wired through.
        for w in r.timeline.windows(2) {
            assert!(w[0].at <= w[1].at);
        }
        let m = r.metrics();
        assert!(m.get("dsps.timeline.spout_emitted").is_some());
        assert!(m.get("dsps.timeline.executed").is_some());
    }

    #[test]
    fn tracked_run_with_crashed_endpoint_accounts_for_every_tuple() {
        // Crash worker 1 after its first 10 addressed frames: tuples
        // that can no longer reach it exhaust their replay budget and
        // are failed — counted, not lost.
        let (t, ops) = ack_topology(60, 2);
        let plan = FaultPlan {
            seed: 11,
            crashes: vec![whale_net::EndpointCrash {
                endpoint: EndpointId(1),
                at_frame: 10,
            }],
            ..FaultPlan::default()
        };
        let r = run_topology(
            t,
            ops,
            LiveConfig {
                machines: 2,
                ack: Some(AckConfig {
                    timeout: Duration::from_millis(30),
                    max_replays: 3,
                    drain_deadline: Duration::from_secs(10),
                    eos_redundancy: 2,
                    ..AckConfig::default()
                }),
                fault: Some(plan),
                run_deadline: Some(Duration::from_secs(5)),
                ..LiveConfig::default()
            },
        );
        assert_eq!(r.tuples_acked + r.tuples_failed, r.spout_emitted);
        assert!(r.fault_crashed_sends > 0, "the crash must reject sends");
        assert!(r.tuples_failed > 0, "unreachable tuples must fail loudly");
        assert!(matches!(r.outcome, RunOutcome::Degraded { .. }));
    }

    #[test]
    fn crash_with_restart_and_log_recovers_every_tuple_without_acker_replays() {
        // Same crash as above, but the endpoint restarts and the run
        // writes through a partition log: the recovery thread replays
        // the crashed slice from the log, so every tuple acks without
        // touching the acker's replay budget — effectively-once via
        // root-id dedup, zero failed tuples.
        let (t, ops) = ack_topology(60, 2);
        let plan = FaultPlan {
            seed: 11,
            crashes: vec![whale_net::EndpointCrash {
                endpoint: EndpointId(1),
                at_frame: 10,
            }],
            restarts: vec![whale_net::EndpointRestart {
                endpoint: EndpointId(1),
                at_frame: 25,
            }],
            ..FaultPlan::default()
        };
        let r = run_topology(
            t,
            ops,
            LiveConfig {
                machines: 2,
                ack: Some(AckConfig {
                    // Long timeout: the log replay must beat the acker to
                    // the recovery, not ride on it.
                    timeout: Duration::from_secs(10),
                    max_replays: 3,
                    drain_deadline: Duration::from_secs(30),
                    eos_redundancy: 2,
                    ..AckConfig::default()
                }),
                fault: Some(plan),
                log: Some(LogConfig::default()),
                ..LiveConfig::default()
            },
        );
        assert_eq!(r.tuples_acked + r.tuples_failed, r.spout_emitted);
        assert!(r.fault_crashed_sends > 0, "the crash must reject sends");
        assert_eq!(r.tuples_failed, 0, "log replay must recover every tuple");
        assert_eq!(
            r.tuples_replayed, 0,
            "recovery must come from the log, not the acker's replay budget"
        );
        assert!(r.log_appended_records > 0, "sends must write through the log");
        assert!(r.log_replayed_records > 0, "the restart must trigger a replay");
        assert!(r.log_replayed_bytes > 0);
        // Each of the two sink instances executed each root exactly once
        // even though the replay redelivers pre-crash frames.
        assert_eq!(r.executed[1], 60 * 2);
        let m = r.metrics();
        assert_eq!(
            m.counter("dsps.log.replayed_records"),
            Some(r.log_replayed_records)
        );
        assert_eq!(
            m.counter("dsps.log.appended_records"),
            Some(r.log_appended_records)
        );
    }

    #[test]
    fn acker_watermark_gc_bounds_log_retention() {
        // A clean tracked run with small log segments: acked roots feed
        // the GC watermark, so most of the log is reclaimed before the
        // run reports — retention stays flat instead of growing with the
        // stream.
        let (t, ops) = ack_topology(200, 2);
        let r = run_topology(
            t,
            ops,
            LiveConfig {
                machines: 2,
                ack: Some(AckConfig {
                    timeout: Duration::from_secs(10),
                    ..AckConfig::default()
                }),
                log: Some(LogConfig {
                    segment_bytes: 256,
                    max_segments: 4096,
                    rack_hops: 0,
                }),
                ..LiveConfig::default()
            },
        );
        assert_eq!(r.outcome, RunOutcome::Clean);
        assert_eq!(r.tuples_acked, 200);
        assert!(r.log_appended_records > 0);
        assert!(r.log_gcd_bytes > 0, "acked roots must reclaim log bytes");
        assert!(
            r.log_retained_bytes < r.log_appended_bytes,
            "retention must stay below the full stream"
        );
        assert!(r.log_gc_watermark > 0);
        let m = r.metrics();
        assert_eq!(m.counter("dsps.log.gcd_bytes"), Some(r.log_gcd_bytes));
        assert!(m.gauge("dsps.log.retained_bytes").is_some());
        assert!(m.gauge("dsps.log.gc_watermark").is_some());
    }

    #[test]
    fn unlogged_runs_report_zero_log_counters() {
        let (t, ops) = ack_topology(20, 2);
        let r = run_topology(
            t,
            ops,
            LiveConfig {
                machines: 2,
                ack: Some(AckConfig::default()),
                ..LiveConfig::default()
            },
        );
        assert_eq!(r.outcome, RunOutcome::Clean);
        assert_eq!(r.log_appended_records, 0);
        assert_eq!(r.log_replayed_records, 0);
        assert_eq!(r.log_retained_bytes, 0);
    }

    #[test]
    fn tracked_tuples_ride_the_relay_tree() {
        // The tracked-bypass is gone: an acked broadcast travels the
        // multicast tree (relay_forwards > 0) and still accounts for
        // every tuple exactly.
        let (t, ops) = ack_topology(150, 16);
        let r = run_topology(
            t,
            ops,
            LiveConfig {
                machines: 8,
                multicast_d_star: Some(2),
                ack: Some(AckConfig {
                    timeout: Duration::from_secs(10),
                    ..AckConfig::default()
                }),
                ..LiveConfig::default()
            },
        );
        assert_eq!(r.outcome, RunOutcome::Clean);
        assert!(r.relay_forwards > 0, "tracked broadcasts must relay");
        assert_eq!(r.tuples_acked + r.tuples_failed, r.spout_emitted);
        assert_eq!(r.tuples_acked, 150);
        assert_eq!(r.executed[1], 150 * 16);
        // Observability: the relay/direct byte split is exported.
        assert!(r.relay_bytes > 0);
        let m = r.metrics();
        assert_eq!(m.counter("dsps.relay.bytes"), Some(r.relay_bytes));
        assert!(m.counter("dsps.direct_bytes").is_some());
        assert!(
            r.relay_depths.iter().skip(1).any(|&n| n > 0),
            "d*=2 over 8 workers has relay nodes deeper than the root"
        );
        assert!(!r.relay_forward_ns.is_empty(), "forward latency sampled");
        assert!(m.summary("dsps.relay.forward_ns").is_some());
    }

    #[test]
    fn redundant_eos_is_encoded_once_and_resent() {
        // eos_redundancy grows wire frames, never encodes: the frame is
        // built once and the same buffer is resent.
        let frames_encoded_with = |redundancy: u32| {
            let (t, ops) = ack_topology(50, 4);
            run_topology(
                t,
                ops,
                LiveConfig {
                    machines: 4,
                    ack: Some(AckConfig {
                        timeout: Duration::from_secs(10),
                        eos_redundancy: redundancy,
                        ..AckConfig::default()
                    }),
                    ..LiveConfig::default()
                },
            )
        };
        let one = frames_encoded_with(1);
        let eight = frames_encoded_with(8);
        assert_eq!(one.outcome, RunOutcome::Clean);
        assert_eq!(eight.outcome, RunOutcome::Clean);
        assert_eq!(
            one.frames_encoded, eight.frames_encoded,
            "EOS redundancy must not add encodes"
        );
        assert!(
            eight.fabric_messages > one.fabric_messages,
            "redundant copies do add wire frames"
        );
    }

    #[test]
    fn stale_epoch_relay_frames_are_dropped_not_delivered() {
        let routing = bare_routing(
            LiveConfig {
                machines: 2,
                comm_mode: CommMode::WorkerOriented,
                zero_copy: false,
                multicast_d_star: Some(2),
                ..LiveConfig::default()
            },
            Some(RelayState::new(build_relay_epoch(3, 2, 2))),
        );

        let frame = |epoch: u32| {
            let mut f = BytesMut::new();
            f.put_u8(TAG_RELAY);
            RelayHeader {
                origin: 1,
                epoch,
                component: 1,
                tracked: 0,
            }
            .encode_into(&mut f);
            f.to_vec()
        };
        // A frame from a retired generation (stale-dropped, not counted as
        // a malformed frame, never delivered), then a frame on the live
        // generation with a corrupt (empty) item: accepted by the epoch
        // check, dropped at decode.
        feed(&routing, &[frame(0), frame(3)]);
        let relay = routing.relay.as_ref().unwrap();
        assert_eq!(relay.stale_drops.load(Ordering::Relaxed), 1);
        assert_eq!(routing.stats.dropped_frames.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn adaptive_forced_switch_keeps_every_delivery() {
        // Phase-shift the tree mid-run (d* 1 → 4) through the full
        // switch protocol: every broadcast still reaches every instance,
        // nothing lands on a retired generation.
        let mut b = crate::topology::TopologyBuilder::new();
        b.spout("src", 1, Schema::new(vec!["n"]))
            .bolt("fan", 16, Schema::new(vec!["n"]))
            .connect("src", "fan", Grouping::All);
        let t = b.build().unwrap();
        let ops = Operators::new()
            .spout("src", |_| {
                Box::new(IterSpout::new((0..100i64).map(|i| {
                    std::thread::sleep(Duration::from_micros(300));
                    Tuple::with_id(i as u64, vec![Value::I64(i)])
                })))
            })
            .bolt("fan", |_| {
                Box::new(FnBolt::new(|_t: &Tuple, _out: &mut dyn Emitter| {}))
            });
        let r = run_topology(
            t,
            ops,
            LiveConfig {
                machines: 8,
                multicast_adaptive: Some(AdaptiveConfig {
                    initial_d: 1,
                    interval: Duration::from_millis(1),
                    forced_switches: vec![(30, 4)],
                    switch_protocol: true,
                    ..AdaptiveConfig::default()
                }),
                ..LiveConfig::default()
            },
        );
        assert_eq!(r.executed[1], 100 * 16, "no broadcast lost to the switch");
        assert!(r.relay_switches >= 1, "the forced switch must fire");
        assert!(r.relay_switch_moves > 0, "d* 1→4 moves instances");
        assert_eq!(r.relay_d_star, 4);
        assert!(r.relay_epoch >= 1);
        assert!(r.relay_forwards > 0);
        assert_eq!(r.relay_stale_drops, 0, "drained switch drops nothing");
        assert_eq!(r.outcome, RunOutcome::Clean);
    }

    #[test]
    fn per_link_byte_sums_tile_the_wire_total() {
        // Every fabric send traverses exactly one link, so the per-link
        // accounting must tile the wire byte total exactly — with the
        // rack-aware trees and with Whale's oblivious trees under the
        // same topology (the regression that caught uplink sends being
        // attributed twice). The rack-aware trees must also move
        // strictly fewer bytes over the uplink: machines alternate racks
        // round-robin, so the oblivious tree crosses racks on most
        // edges while the topo tree enters the far rack exactly once.
        let run_with = |topo_trees: bool| {
            let (t, ops) = counting_topology(8, 16);
            run_topology(
                t,
                ops,
                LiveConfig {
                    machines: 8,
                    multicast_adaptive: Some(AdaptiveConfig {
                        initial_d: 2,
                        // No mid-run switches: one deterministic tree.
                        interval: Duration::from_secs(30),
                        topology: Some(TopologyConfig {
                            racks: 2,
                            topo_trees,
                            ..TopologyConfig::default()
                        }),
                        ..AdaptiveConfig::default()
                    }),
                    ..LiveConfig::default()
                },
            )
        };
        let topo = run_with(true);
        let oblivious = run_with(false);
        for r in [&topo, &oblivious] {
            assert_eq!(r.outcome, RunOutcome::Clean);
            assert_eq!(r.executed[1], 100 * 16, "every broadcast lands");
            let linked: u64 = r.link_bytes.iter().map(|(_, b)| b).sum();
            assert_eq!(
                linked,
                r.copied_bytes + r.shared_bytes,
                "per-link sums must tile the wire total exactly"
            );
            assert!(r.uplink_bytes > 0, "cross-rack traffic must register");
            assert!(r.uplink_bytes <= linked);
            let m = r.metrics();
            assert_eq!(m.counter("dsps.links.uplink_bytes"), Some(r.uplink_bytes));
        }
        assert!(
            topo.uplink_bytes < oblivious.uplink_bytes,
            "rack-aware trees must economize the uplink ({} vs {})",
            topo.uplink_bytes,
            oblivious.uplink_bytes
        );
    }

    #[test]
    fn sharded_pipelines_match_single_shard_results() {
        let base = run(CommMode::WorkerOriented, true, 4, 8);
        assert_eq!(base.shards, 1);
        for shards in [2, 4] {
            let (t, ops) = counting_topology(4, 8);
            let r = run_topology(
                t,
                ops,
                LiveConfig {
                    machines: 4,
                    shards,
                    ..LiveConfig::default()
                },
            );
            assert_eq!(r.outcome, RunOutcome::Clean, "{shards} shards");
            assert_eq!(r.executed, base.executed, "{shards} shards");
            assert_eq!(r.spout_emitted, base.spout_emitted);
            assert_eq!(r.shards, shards as u64);
            assert_eq!(r.dropped_frames, 0);
        }
    }

    #[test]
    fn delivery_counters_are_exact_on_every_shard_count_and_fabric() {
        // spout → 8 eager sinks, all-grouped, on 4 machines: every
        // per-delivery counter is fixed by the placement alone, so each
        // (shards, fabric) cell must report exactly the derived value —
        // summed over the pipelines' own counter sets — and the final
        // timeline sample must agree with the report.
        const N: u64 = 64;
        for shards in [1u32, 2, 4] {
            let mut cells = Vec::new();
            for fabric in [
                FabricKind::PerSend,
                FabricKind::Ring(whale_net::RingConfig::default()),
                FabricKind::OneSided(whale_net::OneSidedConfig::default()),
            ] {
                let (t, ops) = ack_topology(N as i64, 8);
                let placement = Placement::even(&t, &ClusterSpec::new(4, 1, 16));
                let src = t.tasks_of("src")[0];
                let home = placement.worker_of(src);
                let sinks = t.tasks_of("sink");
                let (local, remote): (Vec<TaskId>, Vec<TaskId>) =
                    sinks.iter().partition(|&&s| placement.worker_of(s) == home);
                let pipelines: HashSet<(WorkerId, u32)> = remote
                    .iter()
                    .map(|&s| (placement.worker_of(s), s.0 % shards))
                    .collect();
                let off_shard = local
                    .iter()
                    .filter(|s| s.0 % shards != src.0 % shards)
                    .count();
                let r = run_topology(
                    t,
                    ops,
                    LiveConfig {
                        machines: 4,
                        shards,
                        fabric,
                        monitor_interval: Some(Duration::from_millis(1)),
                        ..LiveConfig::default()
                    },
                );
                assert_eq!(r.outcome, RunOutcome::Clean, "shards={shards}");
                assert_eq!(r.executed, vec![0, N * 8], "shards={shards}");
                // Every remote delivery is a lazy view; an eager sink
                // decodes each received frame once, however many of the
                // pipeline's sinks share it.
                assert_eq!(r.wire_tuples_lazy, N * remote.len() as u64);
                assert_eq!(r.tuples_materialized, N * pipelines.len() as u64);
                // Local deliveries (data and EOS) to another shard's sinks
                // cross an inbox; received frames never do.
                assert_eq!(
                    r.cross_shard_msgs,
                    (N + 1) * off_shard as u64,
                    "shards={shards}"
                );
                let last = r.timeline.last().expect("the final sample always lands");
                assert_eq!(last.executed, r.executed.iter().sum::<u64>());
                assert_eq!(last.spout_emitted, r.spout_emitted);
                assert_eq!(last.fabric_messages, r.fabric_messages);
                assert_eq!(last.send_errors, r.send_errors);
                assert_eq!(last.send_retries, r.send_retries);
                cells.push((
                    r.executed,
                    r.wire_tuples_lazy,
                    r.tuples_materialized,
                    r.cross_shard_msgs,
                ));
            }
            assert!(
                cells.windows(2).all(|w| w[0] == w[1]),
                "shards={shards}: {cells:?}"
            );
        }
    }

    #[test]
    fn same_worker_cross_shard_traffic_uses_the_inboxes() {
        // One machine, 4 shards: nothing crosses the fabric, but the
        // all-grouped stage spans every shard, so deliveries must flow
        // through the cross-shard inboxes (and be counted).
        let (t, ops) = counting_topology(1, 8);
        let r = run_topology(
            t,
            ops,
            LiveConfig {
                machines: 1,
                shards: 4,
                ..LiveConfig::default()
            },
        );
        assert_eq!(r.outcome, RunOutcome::Clean);
        assert_eq!(r.executed[1], 800);
        assert_eq!(r.copied_bytes + r.shared_bytes, 0, "single worker");
        assert!(r.cross_shard_msgs > 0, "fan-out must cross shard inboxes");
        let m = r.metrics();
        assert_eq!(m.counter("dsps.cross_shard_msgs"), Some(r.cross_shard_msgs));
        assert_eq!(m.gauge("dsps.shards"), Some(4.0));
    }

    #[test]
    fn tracked_sharded_run_accounts_for_every_tuple() {
        for fabric in [
            FabricKind::PerSend,
            FabricKind::Ring(whale_net::RingConfig::default()),
            FabricKind::OneSided(whale_net::OneSidedConfig::default()),
        ] {
            let (t, ops) = ack_topology(200, 4);
            let r = run_topology(
                t,
                ops,
                LiveConfig {
                    machines: 4,
                    shards: 4,
                    fabric,
                    ack: Some(AckConfig::default()),
                    ..LiveConfig::default()
                },
            );
            assert_eq!(r.outcome, RunOutcome::Clean);
            assert_eq!(r.tuples_acked + r.tuples_failed, r.spout_emitted);
            assert_eq!(r.tuples_acked, 200);
            assert_eq!(r.executed[1], 200 * 4, "exactly once per instance");
        }
    }

    #[test]
    fn background_threads_shut_down_promptly() {
        // Monitor and adaptive intervals far longer than the run: both
        // threads used to sleep the whole interval before noticing the
        // stop flag, stalling teardown by up to a full interval each.
        let (t, ops) = counting_topology(4, 8);
        let started = Instant::now();
        let r = run_topology(
            t,
            ops,
            LiveConfig {
                machines: 4,
                monitor_interval: Some(Duration::from_secs(30)),
                multicast_adaptive: Some(AdaptiveConfig {
                    interval: Duration::from_secs(30),
                    ..AdaptiveConfig::default()
                }),
                ..LiveConfig::default()
            },
        );
        assert_eq!(r.outcome, RunOutcome::Clean);
        assert_eq!(r.spout_emitted, 100);
        assert!(
            started.elapsed() < Duration::from_secs(10),
            "shutdown must not wait out 30s sampling intervals (took {:?})",
            started.elapsed()
        );
        let last = r.timeline.last().expect("final sample always lands");
        assert_eq!(last.spout_emitted, 100);
    }
}
