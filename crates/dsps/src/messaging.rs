//! Communication planning: instance-oriented vs worker-oriented.
//!
//! Given one emitted tuple and its destination tasks, a [`CommMode`]
//! decides what actually goes on the wire:
//!
//! - **Instance-oriented** (Storm, RDMA-Storm): one message per destination
//!   *task*, each with its own serialization of the data item.
//! - **Worker-oriented** (Whale): one message per destination *worker*,
//!   the data item serialized once and destination ids packed in the
//!   header (§3.5).
//!
//! The plan also separates local deliveries (same worker as the source —
//! no network) from remote ones, and carries the byte/serialization
//! accounting behind Figs 25–28.
//!
//! [`plan`] builds a fresh [`MessagePlan`] per call, which suits the
//! models. The live runtime sends through [`EdgeRouter`] instead: the
//! same frames, split per destination pipeline, from a [`RoutePlan`]
//! that is computed once for all-grouped edges and refilled in place
//! for keyed and shuffled ones.

use crate::grouping::{GroupingExec, RouteError};
use crate::scheduler::{Placement, WorkerId};
use crate::task::TaskId;
use crate::topology::Grouping;
use crate::tuple::Tuple;
use std::collections::BTreeMap;
use whale_sim::{CostModel, SimDuration};

/// Which communication mechanism the system runs.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CommMode {
    /// One message per destination instance (Storm's design).
    InstanceOriented,
    /// One message per destination worker (Whale's design).
    WorkerOriented,
}

/// One network message to be sent for the tuple.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Envelope {
    /// Receiving worker.
    pub dst_worker: WorkerId,
    /// Destination tasks on that worker covered by this message.
    pub dst_tasks: Vec<TaskId>,
    /// Bytes on the wire.
    pub wire_bytes: usize,
}

/// The complete send plan for one tuple.
#[derive(Clone, Debug)]
pub struct MessagePlan {
    /// Remote messages, ordered by destination worker.
    pub remote: Vec<Envelope>,
    /// Tasks delivered locally (source's own worker), no network involved.
    pub local_tasks: Vec<TaskId>,
    /// How many times the data item is serialized for this plan.
    pub serializations: u32,
    /// Total bytes crossing the network.
    pub total_wire_bytes: usize,
}

/// Fixed per-message header sizes, matching the codec
/// (`src:4 | dst:4` vs `src:4 | n:4 | ids:4n`).
const INSTANCE_HEADER: usize = 8;
const WORKER_HEADER: usize = 8;
const PER_ID: usize = 4;

/// Build the send plan for one tuple.
///
/// `item_bytes` is the serialized size of the data item;
/// `src` the emitting task; `dsts` the routed destination tasks.
pub fn plan(
    mode: CommMode,
    src: TaskId,
    item_bytes: usize,
    dsts: &[TaskId],
    placement: &Placement,
) -> MessagePlan {
    let src_worker = placement.worker_of(src);
    let by_worker: BTreeMap<WorkerId, Vec<TaskId>> = placement.group_by_worker(dsts);

    let mut remote = Vec::new();
    let mut local_tasks = Vec::new();
    let mut serializations: u32 = 0;
    let mut total_wire_bytes = 0usize;

    match mode {
        CommMode::InstanceOriented => {
            // Even local destinations pay serialization in Storm's executor
            // send path; only the network hop is skipped.
            for (&worker, tasks) in &by_worker {
                for &t in tasks {
                    serializations += 1;
                    if worker == src_worker {
                        local_tasks.push(t);
                    } else {
                        let wire_bytes = INSTANCE_HEADER + item_bytes;
                        total_wire_bytes += wire_bytes;
                        remote.push(Envelope {
                            dst_worker: worker,
                            dst_tasks: vec![t],
                            wire_bytes,
                        });
                    }
                }
            }
        }
        CommMode::WorkerOriented => {
            // Serialize the data item exactly once, reuse it per worker.
            serializations = 1;
            for (&worker, tasks) in &by_worker {
                if worker == src_worker {
                    local_tasks.extend(tasks.iter().copied());
                } else {
                    let wire_bytes = WORKER_HEADER + PER_ID * tasks.len() + item_bytes;
                    total_wire_bytes += wire_bytes;
                    remote.push(Envelope {
                        dst_worker: worker,
                        dst_tasks: tasks.clone(),
                        wire_bytes,
                    });
                }
            }
        }
    }

    MessagePlan {
        remote,
        local_tasks,
        serializations,
        total_wire_bytes,
    }
}

impl MessagePlan {
    /// Upstream CPU spent serializing for this plan.
    pub fn serialization_cpu(&self, item_bytes: usize, cost: &CostModel) -> SimDuration {
        match self.serializations {
            0 => SimDuration::ZERO,
            1 => {
                let ids: usize = self.remote.iter().map(|e| e.dst_tasks.len()).sum::<usize>()
                    + self.local_tasks.len();
                cost.serialize_batch(item_bytes, ids)
            }
            n => cost.serialize(item_bytes) * n as u64,
        }
    }

    /// Number of remote messages.
    pub fn remote_count(&self) -> usize {
        self.remote.len()
    }

    /// Total destination tasks covered (remote + local).
    pub fn fanout(&self) -> usize {
        self.remote.iter().map(|e| e.dst_tasks.len()).sum::<usize>() + self.local_tasks.len()
    }
}

/// One wire frame of a [`RoutePlan`]: a slice of the plan's remote tasks,
/// all read by one pipeline `shard` of one remote `worker`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
struct PlannedFrame {
    worker: WorkerId,
    shard: u32,
    start: u32,
    end: u32,
}

/// Where one tuple goes, in the shape the live runtime sends it: the
/// tasks on the source's own worker, and one wire frame per destination
/// pipeline. A worker's tasks are split across its pipelines by the
/// stable map `task % shards`. Worker-oriented frames address every
/// task one pipeline owns; instance-oriented frames address one task
/// each. Frames come in ascending worker order (then shard, for
/// worker-oriented frames), with tasks in routed order within a frame
/// — exactly what [`plan`] yields once each envelope is split by shard.
///
/// [`RoutePlan::fill`] reuses the plan's buffers, so refilling a plan
/// for a single destination allocates nothing once it has been used.
#[derive(Clone, Default, Debug)]
pub struct RoutePlan {
    local: Vec<TaskId>,
    remote: Vec<TaskId>,
    frames: Vec<PlannedFrame>,
    serializations: u32,
}

impl RoutePlan {
    /// Plan the sends of one tuple from `src` to the routed `dsts`.
    pub fn fill(
        &mut self,
        mode: CommMode,
        src: TaskId,
        dsts: &[TaskId],
        placement: &Placement,
        shards: u32,
    ) {
        let shards = shards.max(1);
        let src_worker = placement.worker_of(src);
        self.local.clear();
        self.remote.clear();
        self.frames.clear();
        for &t in dsts {
            if placement.worker_of(t) == src_worker {
                self.local.push(t);
            } else {
                self.remote.push(t);
            }
        }
        // Instance-oriented sends serialize once per destination, local
        // ones included; worker-oriented sends serialize once.
        self.serializations = match mode {
            CommMode::InstanceOriented => dsts.len() as u32,
            CommMode::WorkerOriented => 1,
        };
        // The sort is stable, so tasks keep their routed order within a
        // frame (and a one-task plan never reaches the allocating path).
        let key = |t: TaskId| (placement.worker_of(t), t.0 % shards);
        match mode {
            CommMode::InstanceOriented => self.remote.sort_by_key(|&t| placement.worker_of(t)),
            CommMode::WorkerOriented => self.remote.sort_by_key(|&t| key(t)),
        }
        let mut start = 0;
        for (i, &t) in self.remote.iter().enumerate() {
            let last_of_frame = mode == CommMode::InstanceOriented
                || self
                    .remote
                    .get(i + 1)
                    .is_none_or(|&next| key(next) != key(t));
            if last_of_frame {
                let (worker, shard) = key(t);
                self.frames.push(PlannedFrame {
                    worker,
                    shard,
                    start,
                    end: i as u32 + 1,
                });
                start = i as u32 + 1;
            }
        }
    }

    /// Destination tasks on the source's own worker (no fabric hop).
    pub fn local(&self) -> &[TaskId] {
        &self.local
    }

    /// Destination tasks on other workers, frame by frame.
    pub fn remote(&self) -> &[TaskId] {
        &self.remote
    }

    /// The wire frames: `(worker, shard, tasks)` per destination pipeline.
    pub fn frames(&self) -> impl Iterator<Item = (WorkerId, u32, &[TaskId])> + '_ {
        self.frames.iter().map(|f| {
            (
                f.worker,
                f.shard,
                &self.remote[f.start as usize..f.end as usize],
            )
        })
    }

    /// True when nothing crosses the fabric.
    pub fn is_all_local(&self) -> bool {
        self.frames.is_empty()
    }

    /// Serializations of the data item this plan charges.
    pub fn serializations(&self) -> u32 {
        self.serializations
    }
}

/// One source task's router for one downstream edge: the grouping plus
/// its [`RoutePlan`]. An all-grouped edge's plan does not depend on the
/// tuple, so it is computed once, here; keyed and shuffled edges route
/// into reusable scratch and refill the plan in place. Either way,
/// routing a tuple in steady state allocates nothing.
#[derive(Clone, Debug)]
pub struct EdgeRouter {
    grouping: GroupingExec,
    mode: CommMode,
    src: TaskId,
    shards: u32,
    plan: RoutePlan,
    dsts: Vec<TaskId>,
}

impl EdgeRouter {
    /// A router for `src`'s emissions over `grouping`, sending in `mode`
    /// to workers split into `shards` pipelines each.
    pub fn new(
        grouping: GroupingExec,
        mode: CommMode,
        src: TaskId,
        placement: &Placement,
        shards: u32,
    ) -> Self {
        let mut plan = RoutePlan::default();
        if *grouping.grouping() == Grouping::All {
            plan.fill(mode, src, grouping.targets(), placement, shards);
        }
        EdgeRouter {
            grouping,
            mode,
            src,
            shards,
            plan,
            dsts: Vec::new(),
        }
    }

    /// The edge's grouping.
    pub fn grouping(&self) -> &Grouping {
        self.grouping.grouping()
    }

    /// The plan for one tuple. `placement` must be the one the router was
    /// built with.
    ///
    /// # Panics
    ///
    /// On a `Direct` edge, which needs an explicit destination.
    pub fn route(
        &mut self,
        tuple: &Tuple,
        placement: &Placement,
    ) -> Result<&RoutePlan, RouteError> {
        if *self.grouping.grouping() != Grouping::All {
            self.grouping.route_into(tuple, None, &mut self.dsts)?;
            self.plan
                .fill(self.mode, self.src, &self.dsts, placement, self.shards);
        }
        Ok(&self.plan)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::{Grouping, TopologyBuilder};
    use crate::tuple::Schema;
    use whale_net::ClusterSpec;

    /// 1 spout task + `bolt_p` bolt tasks on `machines` machines.
    fn setup(bolt_p: u32, machines: u32) -> (Placement, TaskId, Vec<TaskId>) {
        let mut b = TopologyBuilder::new();
        b.spout("src", 1, Schema::new(vec!["k"]))
            .bolt("match", bolt_p, Schema::new(vec!["k"]))
            .connect("src", "match", Grouping::All);
        let t = b.build().unwrap();
        let c = ClusterSpec::new(machines, 1, 16);
        let p = Placement::even(&t, &c);
        let src = t.tasks_of("src")[0];
        let dsts = t.tasks_of("match");
        (p, src, dsts)
    }

    #[test]
    fn instance_oriented_one_message_per_remote_task() {
        let (p, src, dsts) = setup(12, 4);
        let plan = plan(CommMode::InstanceOriented, src, 100, &dsts, &p);
        // 12 tasks over 4 workers: 3 local (worker 0), 9 remote.
        assert_eq!(plan.local_tasks.len(), 3);
        assert_eq!(plan.remote_count(), 9);
        assert_eq!(plan.serializations, 12);
        assert_eq!(plan.total_wire_bytes, 9 * (8 + 100));
        assert_eq!(plan.fanout(), 12);
    }

    #[test]
    fn worker_oriented_one_message_per_remote_worker() {
        let (p, src, dsts) = setup(12, 4);
        let plan = plan(CommMode::WorkerOriented, src, 100, &dsts, &p);
        assert_eq!(plan.local_tasks.len(), 3);
        assert_eq!(plan.remote_count(), 3, "one message per remote worker");
        assert_eq!(plan.serializations, 1);
        // Each remote worker hosts 3 tasks: 8 + 4*3 + 100 bytes.
        assert_eq!(plan.total_wire_bytes, 3 * (8 + 12 + 100));
        assert_eq!(plan.fanout(), 12);
    }

    #[test]
    fn traffic_ratio_matches_fig27_shape() {
        // At parallelism 480 on 30 machines, Whale should cut traffic ~90%.
        let (p, src, dsts) = setup(480, 30);
        let io = plan(CommMode::InstanceOriented, src, 150, &dsts, &p);
        let wo = plan(CommMode::WorkerOriented, src, 150, &dsts, &p);
        let reduction = 1.0 - wo.total_wire_bytes as f64 / io.total_wire_bytes as f64;
        assert!(reduction > 0.85, "reduction={reduction}");
    }

    #[test]
    fn serialization_cpu_scales() {
        let (p, src, dsts) = setup(480, 30);
        let cost = CostModel::default();
        let io = plan(CommMode::InstanceOriented, src, 150, &dsts, &p);
        let wo = plan(CommMode::WorkerOriented, src, 150, &dsts, &p);
        let io_cpu = io.serialization_cpu(150, &cost);
        let wo_cpu = wo.serialization_cpu(150, &cost);
        assert!(
            io_cpu.as_nanos() > 100 * wo_cpu.as_nanos(),
            "io={io_cpu} wo={wo_cpu}"
        );
    }

    #[test]
    fn all_local_when_single_machine() {
        let (p, src, dsts) = setup(8, 1);
        for mode in [CommMode::InstanceOriented, CommMode::WorkerOriented] {
            let plan = plan(mode, src, 100, &dsts, &p);
            assert_eq!(plan.remote_count(), 0);
            assert_eq!(plan.local_tasks.len(), 8);
            assert_eq!(plan.total_wire_bytes, 0);
        }
    }

    #[test]
    fn envelopes_ordered_by_worker() {
        let (p, src, dsts) = setup(30, 10);
        let plan = plan(CommMode::WorkerOriented, src, 64, &dsts, &p);
        let workers: Vec<u32> = plan.remote.iter().map(|e| e.dst_worker.0).collect();
        let mut sorted = workers.clone();
        sorted.sort_unstable();
        assert_eq!(workers, sorted);
    }

    #[test]
    fn single_destination_equivalence() {
        // With one remote destination the two modes differ only by header.
        let (p, src, dsts) = setup(2, 2);
        let remote_dst: Vec<TaskId> = dsts
            .iter()
            .copied()
            .filter(|&t| p.worker_of(t) != p.worker_of(src))
            .take(1)
            .collect();
        let io = plan(CommMode::InstanceOriented, src, 100, &remote_dst, &p);
        let wo = plan(CommMode::WorkerOriented, src, 100, &remote_dst, &p);
        assert_eq!(io.remote_count(), 1);
        assert_eq!(wo.remote_count(), 1);
        assert_eq!(io.total_wire_bytes, 108);
        assert_eq!(wo.total_wire_bytes, 112); // 8 + 4*1 + 100
    }
}
