//! Property test for the live runtime's route plans: for any cluster
//! shape, parallelism, shard count, grouping and communication mode, the
//! plan an [`EdgeRouter`] hands the send path — precomputed once for
//! `All`, refilled in place for `Fields` and `Shuffle` — must yield
//! exactly the local deliveries, serialization count and wire frames that
//! `messaging::plan` yields once each envelope is split across the
//! destination worker's pipelines by the stable map `task % shards`.

use proptest::prelude::*;
use whale_dsps::{
    plan, CommMode, EdgeRouter, Grouping, GroupingExec, Placement, Schema, TaskId, TopologyBuilder,
    Tuple, Value, WorkerId,
};
use whale_net::ClusterSpec;

/// Tuples routed per source task and case.
const TUPLES: u64 = 12;

type Frame = (WorkerId, u32, Vec<TaskId>);

/// The reference: `plan`'s envelopes, each split into one frame per
/// destination pipeline that owns any of its tasks (ascending shard,
/// routed order within a frame).
fn reference_frames(envelopes: &[whale_dsps::Envelope], shards: u32) -> Vec<Frame> {
    envelopes
        .iter()
        .flat_map(|env| {
            (0..shards).filter_map(move |shard| {
                let tasks: Vec<TaskId> = env
                    .dst_tasks
                    .iter()
                    .copied()
                    .filter(|t| t.0 % shards == shard)
                    .collect();
                (!tasks.is_empty()).then_some((env.dst_worker, shard, tasks))
            })
        })
        .collect()
}

fn key_of(seed: u64, i: u64) -> i64 {
    let mut z = seed ^ i.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 31)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    (z ^ (z >> 29)) as i64
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn route_plans_match_plan_plus_shard_split(
        machines in 1u32..=8,
        parallelism in 1u32..=16,
        shards in 1u32..=4,
        grouping_pick in 0usize..3,
        spouts in 1u32..=3,
        worker_oriented in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let grouping = [Grouping::All, Grouping::Fields(0), Grouping::Shuffle][grouping_pick].clone();
        let mode = if worker_oriented {
            CommMode::WorkerOriented
        } else {
            CommMode::InstanceOriented
        };
        let topology = TopologyBuilder::new()
            .spout("src", spouts, Schema::new(vec!["k"]))
            .bolt("dst", parallelism, Schema::new(vec!["k"]))
            .connect("src", "dst", grouping.clone())
            .build()
            .unwrap();
        let placement = Placement::even(&topology, &ClusterSpec::new(machines, 1, 16));
        let targets = topology.tasks_of("dst");
        for src in topology.tasks_of("src") {
            let exec = GroupingExec::with_rr_seed(grouping.clone(), targets.clone(), seed);
            let mut mirror = exec.clone();
            let mut router = EdgeRouter::new(exec, mode, src, &placement, shards);
            for i in 0..TUPLES {
                let tuple = Tuple::with_id(i, vec![Value::I64(key_of(seed, i))]);
                let dsts = mirror.route(&tuple, None).unwrap();
                let expected = plan(mode, src, tuple.payload_bytes(), &dsts, &placement);
                let got = router.route(&tuple, &placement).unwrap();
                prop_assert_eq!(got.local(), &expected.local_tasks[..]);
                prop_assert_eq!(got.serializations(), expected.serializations);
                let frames: Vec<Frame> =
                    got.frames().map(|(w, s, t)| (w, s, t.to_vec())).collect();
                prop_assert_eq!(frames, reference_frames(&expected.remote, shards));
                prop_assert_eq!(got.is_all_local(), expected.remote.is_empty());
            }
        }
    }
}
