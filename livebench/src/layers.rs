//! Per-layer timings for the traced run. Each layer's public function is
//! called from outside the runtime on a sample of the run's own generated
//! tuples, and the median per-call cost over several batches is kept.
//! Also: the single-threaded baseline and the cost-model predictions the
//! measurements stand beside.

use crate::harness::{Phase, Tally};
use crate::ops::{BenchSink, SinkLogs};
use crate::workload::{Workload, MACHINES, SINK, SINKS};
use bytes::{BufMut, BytesMut};
use std::hint::black_box;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use whale_dsps::codec::encode_tuple_into;
use whale_dsps::{
    hash_value_view, Acker, BufferPool, GroupingExec, LazyTuple, PoolConfig, TaskId, Tuple,
    WorkerMessage, WorkerMessageView,
};
use whale_net::{EndpointId, LogConfig, PartitionLog};
use whale_sim::stats::percentile;
use whale_sim::{CostModel, SimDuration, SimTime, Transport, Verb};

/// Tuples each timed batch cycles through.
const SAMPLE: usize = 2048;
/// Timed batches per layer; the median batch is kept.
const BATCHES: usize = 15;
/// Receiving endpoints in the fabric timings (one per other worker).
const RECEIVERS: u32 = MACHINES - 1;

/// Median ns per call of `op(i)` over [`BATCHES`] batches of `len` calls.
fn per_call(len: usize, mut op: impl FnMut(usize)) -> f64 {
    let per: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let start = Instant::now();
            for i in 0..len {
                op(i);
            }
            start.elapsed().as_nanos() as f64 / len as f64
        })
        .collect();
    percentile(&per, 50.0)
}

/// The measured per-call layer costs of one workload.
#[derive(Clone, Copy, Debug, Default)]
pub struct LayerTimes {
    /// `encode_tuple_into` + `WorkerMessage::encode_with_item_into`.
    pub encode_ns: f64,
    /// `LazyTuple::from_wire` + `field(0)`.
    pub view_key_ns: f64,
    /// `LazyTuple::from_wire` + `materialize`.
    pub materialize_ns: f64,
    /// `BufferPool::acquire` + fill + `PooledBuf::share`.
    pub acquire_share_ns: f64,
    /// `GroupingExec::route_into`.
    pub route_ns: f64,
    /// `FabricPath::send_shared` on the workload's fabric.
    pub send_ns: f64,
    /// `send_shared` → the receiver's channel yields the frame.
    pub handoff_p50_us: f64,
    /// `build_nonblocking(workers − 1, 2)`.
    pub build_us: f64,
    /// `Acker::init` + `Acker::ack` of one single-anchor tree.
    pub init_ack_ns: f64,
    /// `PartitionLog::append` of one workload frame.
    pub append_ns: f64,
    /// Mean encoded data-item bytes.
    pub item_bytes: f64,
    /// Mean worker-frame bytes.
    pub frame_bytes: f64,
    /// Destination ids per worker frame.
    pub ids_per_frame: usize,
}

/// The sink tasks one worker frame addresses: a worker's share of the
/// broadcast sinks, or the single owner of a keyed tuple.
fn frame_dsts(w: Workload) -> Vec<TaskId> {
    let sinks = w.topology().tasks_of(SINK);
    let per_worker = if w.keyed() {
        1
    } else {
        (SINKS / MACHINES) as usize
    };
    sinks[..per_worker].to_vec()
}

/// Encode `t` as one worker-oriented frame into `frame`, reusing `item`.
fn encode_frame(t: &Tuple, dsts: &[TaskId], item: &mut BytesMut, frame: &mut BytesMut) {
    item.clear();
    frame.clear();
    encode_tuple_into(item, t);
    WorkerMessage::encode_with_item_into(TaskId(0), dsts, item, frame);
}

/// Time every layer function on the first [`SAMPLE`] tuples of `tuples`.
pub fn time_layers(w: Workload, tuples: &[Tuple]) -> LayerTimes {
    let sample = &tuples[..tuples.len().min(SAMPLE)];
    let n = sample.len();
    let dsts = frame_dsts(w);
    let (mut item, mut frame) = (BytesMut::with_capacity(1024), BytesMut::with_capacity(1024));
    let mut items: Vec<Arc<[u8]>> = Vec::with_capacity(n);
    let mut frames: Vec<Arc<[u8]>> = Vec::with_capacity(n);
    for t in sample {
        encode_frame(t, &dsts, &mut item, &mut frame);
        items.push(Arc::from(&item[..]));
        frames.push(Arc::from(&frame[..]));
    }
    let mean_len = |v: &[Arc<[u8]>]| v.iter().map(|b| b.len()).sum::<usize>() as f64 / n as f64;
    let mut out = LayerTimes {
        item_bytes: mean_len(&items),
        frame_bytes: mean_len(&frames),
        ids_per_frame: dsts.len(),
        ..LayerTimes::default()
    };

    out.encode_ns = per_call(n, |i| {
        encode_frame(&sample[i], &dsts, &mut item, &mut frame);
        black_box(frame.len());
    });
    out.view_key_ns = per_call(n, |i| {
        let lazy = LazyTuple::from_wire(Arc::clone(&items[i]), 0).expect("valid frame");
        let key = lazy.field(0).expect("key field").expect("valid key");
        black_box(hash_value_view(&key));
    });
    out.materialize_ns = per_call(n, |i| {
        let lazy = LazyTuple::from_wire(Arc::clone(&items[i]), 0).expect("valid frame");
        black_box(lazy.materialize().expect("valid tuple").values.len());
    });

    let pool = BufferPool::new(PoolConfig::default());
    out.acquire_share_ns = per_call(n, |i| {
        let mut buf = pool.acquire();
        buf.put_slice(&frames[i]);
        black_box(buf.share());
    });

    let mut route = GroupingExec::new(w.grouping(), w.topology().tasks_of(SINK));
    let mut routed = Vec::with_capacity(SINKS as usize);
    out.route_ns = per_call(n, |i| {
        route
            .route_into(&sample[i], None, &mut routed)
            .expect("routable");
        black_box(routed.len());
    });

    (out.send_ns, out.handoff_p50_us) = time_fabric(w, &frames);

    out.build_us = per_call(64, |_| {
        black_box(whale_multicast::build_nonblocking(MACHINES - 1, 2));
    }) / 1e3;

    let mut acker = Acker::new(SimDuration::from_secs(30));
    let mut root = 0u64;
    out.init_ack_ns = per_call(n, |i| {
        root += 1;
        let anchor = (i as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
        acker.init(root, anchor, SimTime::ZERO);
        black_box(acker.ack(root, anchor));
    });

    let mut log = PartitionLog::new(LogConfig::default());
    out.append_ns = per_call(n, |i| {
        black_box(log.append(&frames[i]));
    });
    out
}

/// `(send ns, handoff p50 µs)` on a fresh instance of the workload's
/// fabric: sends fan out round-robin over [`RECEIVERS`] endpoints and are
/// drained (untimed) after each batch; the handoff is timed one frame at
/// a time, spinning on the receiver.
fn time_fabric(w: Workload, frames: &[Arc<[u8]>]) -> (f64, f64) {
    let mut instance = w.fabric().build();
    let fabric = Arc::clone(&instance.fabric);
    let _own = fabric.register(EndpointId(0)).expect("fresh endpoint");
    let rxs: Vec<_> = (1..=RECEIVERS)
        .map(|e| fabric.register(EndpointId(e)).expect("fresh endpoint"))
        .collect();
    let drain = |count: usize| {
        for (r, rx) in rxs.iter().enumerate() {
            let expect = (r..count).step_by(rxs.len()).count();
            for _ in 0..expect {
                rx.recv_timeout(Duration::from_secs(5))
                    .expect("fabric delivers every frame");
            }
        }
    };
    let n = frames.len();
    let per: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let start = Instant::now();
            for (i, f) in frames.iter().enumerate() {
                let to = EndpointId(1 + i as u32 % RECEIVERS);
                fabric
                    .send_shared(EndpointId(0), to, Arc::clone(f))
                    .expect("fabric accepts the frame");
            }
            let per = start.elapsed().as_nanos() as f64 / n as f64;
            drain(n);
            per
        })
        .collect();

    let mut handoff = Vec::new();
    let budget = Instant::now() + Duration::from_millis(400);
    while handoff.len() < 1000 && Instant::now() < budget {
        let f = Arc::clone(&frames[handoff.len() % n]);
        let start = Instant::now();
        fabric
            .send_shared(EndpointId(0), EndpointId(1), f)
            .expect("fabric accepts the frame");
        while rxs[0].try_recv().is_err() {
            assert!(
                start.elapsed() < Duration::from_secs(5),
                "fabric delivers every frame"
            );
            std::hint::spin_loop();
        }
        handoff.push(start.elapsed().as_nanos() as f64);
    }
    instance.shutdown();
    (percentile(&per, 50.0), percentile(&handoff, 50.0) / 1e3)
}

/// Source tuples per second of the same inputs pushed through encode →
/// view (or materialize) → sink body on one thread, without the runtime:
/// one worker frame per destination worker, as worker-oriented messaging
/// sends. Every delivery is checked like a live phase's.
pub fn baseline(w: Workload, phase: &Phase) -> (f64, Tally) {
    let targets = w.topology().tasks_of(SINK);
    let kind = w.sink_kind();
    let n = phase.tuples.len();
    let logs: SinkLogs = Arc::new(Mutex::new(Vec::new()));
    let mut sinks: Vec<BenchSink> = (0..SINKS)
        .map(|i| BenchSink::new(i, kind, n, w.due_field(), false, false, Arc::clone(&logs)))
        .collect();
    let per_worker = (SINKS / MACHINES) as usize;
    let (mut item, mut frame) = (BytesMut::with_capacity(1024), BytesMut::with_capacity(1024));
    let start = Instant::now();
    for (id, t) in phase.tuples.iter().enumerate() {
        item.clear();
        encode_tuple_into(&mut item, t);
        // One frame per destination worker: the keyed owner alone, or
        // each worker's share of the broadcast sinks.
        let (first, width, frames) = match &phase.owners {
            Some(owners) => (owners[id] as usize, 1, 1),
            None => (0, per_worker, SINKS as usize / per_worker),
        };
        for f in 0..frames {
            let group = first + f * width..first + (f + 1) * width;
            frame.clear();
            WorkerMessage::encode_with_item_into(
                TaskId(0),
                &targets[group.clone()],
                &item,
                &mut frame,
            );
            let buf: Arc<[u8]> = Arc::from(&frame[..]);
            let msg = WorkerMessageView::parse(&buf).expect("valid frame");
            let lazy = LazyTuple::from_wire_view(Arc::clone(&buf), msg.tuple());
            for sink in &mut sinks[group] {
                sink.run(&lazy).expect("valid tuple");
            }
        }
    }
    let tps = n as f64 / start.elapsed().as_secs_f64();
    drop(sinks);
    let logs = std::mem::take(
        &mut *logs
            .lock()
            .expect("sinks hand their logs over without panicking"),
    );
    let tally = phase.tally_deliveries(&logs);
    (tps, tally)
}

/// A measured layer cost beside the public `CostModel` constant that
/// predicts it: `(metric, measured ns, model term, model ns)`. The model
/// ns is `None` where `CostModel` has no constant for the layer.
pub fn model_vs_measured(
    w: Workload,
    t: &LayerTimes,
) -> Vec<(&'static str, f64, &'static str, Option<f64>)> {
    let cost = CostModel::default();
    let nanos = |d: SimDuration| Some(d.as_nanos() as f64);
    let (send_term, send_verb) = match w {
        Workload::BcastDirect | Workload::BcastTreeRing => {
            ("send_cpu(Rdma, SendRecv)", Verb::SendRecv)
        }
        Workload::KeyedAckedLog => ("send_cpu(Rdma, Read) = ring_publish", Verb::Read),
    };
    vec![
        (
            "codec.encode_ns",
            t.encode_ns,
            "serialize_batch(item_bytes, ids)",
            nanos(cost.serialize_batch(t.item_bytes as usize, t.ids_per_frame)),
        ),
        (
            "codec.view_key_ns",
            t.view_key_ns,
            "none (no CostModel constant)",
            None,
        ),
        (
            "codec.materialize_ns",
            t.materialize_ns,
            "deserialize(item_bytes)",
            nanos(cost.deserialize(t.item_bytes as usize)),
        ),
        (
            "fabric.send_ns",
            t.send_ns,
            send_term,
            nanos(cost.send_cpu(Transport::Rdma, send_verb, t.frame_bytes as usize)),
        ),
        (
            "log.append_ns",
            t.append_ns,
            "send_cpu(Rdma, Write)",
            nanos(cost.send_cpu(Transport::Rdma, Verb::Write, t.frame_bytes as usize)),
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_layer_time_is_positive_and_the_baseline_is_exact() {
        for w in Workload::ALL {
            let phase = Phase::new(w, w.generate(11, 600), None);
            let t = time_layers(w, &phase.tuples);
            for (name, v) in [
                ("encode", t.encode_ns),
                ("view", t.view_key_ns),
                ("materialize", t.materialize_ns),
                ("pool", t.acquire_share_ns),
                ("route", t.route_ns),
                ("send", t.send_ns),
                ("handoff", t.handoff_p50_us),
                ("build", t.build_us),
                ("ack", t.init_ack_ns),
                ("append", t.append_ns),
            ] {
                assert!(v > 0.0, "{} {name} = {v}", w.name());
            }
            let (tps, tally) = baseline(w, &phase);
            assert!(tps > 0.0);
            assert_eq!(tally.failed(), 0, "{}: {tally:?}", w.name());
            assert_eq!(model_vs_measured(w, &t).len(), 5);
        }
    }
}
