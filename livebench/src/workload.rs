//! The three measured workloads: their live configurations, topologies
//! and seeded inputs.
//!
//! Every workload runs one spout instance feeding [`SINKS`] sink
//! instances on [`MACHINES`] workers — the smallest layout in which a
//! d* = 2 relay tree has an interior relay.

use crate::ops::SinkKind;
use std::time::Duration;
use whale_dsps::{
    AckConfig, CommMode, FabricKind, Grouping, LiveConfig, LogConfig, RingConfig, Schema, Topology,
    TopologyBuilder, Tuple, Value,
};
use whale_net::OneSidedConfig;
use whale_workloads::{DidiConfig, DidiGenerator, NasdaqConfig, NasdaqGenerator};

/// Workers (one per simulated machine).
pub const MACHINES: u32 = 4;
/// Sink instances.
pub const SINKS: u32 = 8;
/// Component names.
pub const SOURCE: &str = "source";
pub const SINK: &str = "sink";

/// One measured workload.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    /// Didi orders, all-grouped, direct worker-oriented sends over the
    /// `per_send` fabric, 1 shard, untracked, lazy key-touch sinks.
    BcastDirect,
    /// The same stream through a d* = 2 relay tree over the `ring`
    /// fabric (MMS/WTL batching + flusher thread).
    BcastTreeRing,
    /// NASDAQ orders fields-grouped by symbol to eager (materializing)
    /// sinks over the `one_sided` fabric, 2 shards, acker + partition log.
    KeyedAckedLog,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::BcastDirect,
        Workload::BcastTreeRing,
        Workload::KeyedAckedLog,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::BcastDirect => "bcast_direct",
            Workload::BcastTreeRing => "bcast_tree_ring",
            Workload::KeyedAckedLog => "keyed_acked_log",
        }
    }

    /// Parse a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// True for the point-to-point (fields-grouped) workload.
    pub fn keyed(self) -> bool {
        self == Workload::KeyedAckedLog
    }

    /// How much of each tuple the sinks read.
    pub fn sink_kind(self) -> SinkKind {
        if self.keyed() {
            SinkKind::Eager
        } else {
            SinkKind::LazyKeyTouch
        }
    }

    /// The source → sink grouping.
    pub fn grouping(self) -> Grouping {
        if self.keyed() {
            Grouping::Fields(0)
        } else {
            Grouping::All
        }
    }

    /// The live transport.
    pub fn fabric(self) -> FabricKind {
        match self {
            Workload::BcastDirect => FabricKind::PerSend,
            Workload::BcastTreeRing => FabricKind::Ring(RingConfig::default()),
            Workload::KeyedAckedLog => FabricKind::OneSided(OneSidedConfig::default()),
        }
    }

    /// The fabric's name, as the docs and the provenance line spell it.
    pub fn fabric_name(self) -> &'static str {
        match self {
            Workload::BcastDirect => "per_send",
            Workload::BcastTreeRing => "ring",
            Workload::KeyedAckedLog => "one_sided",
        }
    }

    /// The runtime configuration.
    pub fn config(self) -> LiveConfig {
        let base = LiveConfig {
            machines: MACHINES,
            comm_mode: CommMode::WorkerOriented,
            zero_copy: true,
            fabric: self.fabric(),
            // Liveness backstop only: a lost EOS degrades (and fails) the
            // phase instead of hanging the benchmark.
            run_deadline: Some(Duration::from_secs(60)),
            ..LiveConfig::default()
        };
        match self {
            Workload::BcastDirect => base,
            Workload::BcastTreeRing => LiveConfig {
                multicast_d_star: Some(2),
                ..base
            },
            Workload::KeyedAckedLog => LiveConfig {
                shards: 2,
                // Storm's default message timeout (30 s) rather than the
                // runtime's 250 ms test default: the benchmark measures
                // the steady acked path, and a stall of the shared host
                // must not turn into timeout replays or failed tuples.
                ack: Some(AckConfig {
                    timeout: Duration::from_secs(30),
                    ..AckConfig::default()
                }),
                log: Some(LogConfig::default()),
                ..base
            },
        }
    }

    /// Index of the field carrying each tuple's due time (ns since the
    /// benchmark's epoch): the last field.
    pub fn due_field(self) -> usize {
        if self.keyed() {
            6
        } else {
            4
        }
    }

    fn schema(self) -> Schema {
        let base = if self.keyed() {
            whale_workloads::nasdaq::stock_schema()
        } else {
            whale_workloads::didi::order_schema()
        };
        let mut fields = base.fields().to_vec();
        fields.push("due_ns".to_string());
        Schema::new(fields)
    }

    /// The one-spout, one-sink topology.
    pub fn topology(self) -> Topology {
        TopologyBuilder::new()
            .spout(SOURCE, 1, self.schema())
            .bolt(SINK, SINKS, self.schema())
            .connect(SOURCE, SINK, self.grouping())
            .build()
            .expect("the benchmark topology is valid")
    }

    /// `n` input tuples from the seeded generator, ids `0..n`, with a
    /// zero due-time placeholder the spout overwrites at pull time.
    pub fn generate(self, seed: u64, n: usize) -> Vec<Tuple> {
        let mut out = Vec::with_capacity(n);
        if self.keyed() {
            let mut g = NasdaqGenerator::new(seed, NasdaqConfig::default());
            for id in 0..n as u64 {
                out.push(g.next_record().to_tuple(id));
            }
        } else {
            let mut g = DidiGenerator::new(seed, DidiConfig::default());
            for id in 0..n as u64 {
                out.push(g.next_order().to_tuple(id));
            }
        }
        for t in &mut out {
            t.values.push(Value::I64(0));
            debug_assert_eq!(t.values.len(), self.due_field() + 1);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip_and_inputs_are_seeded() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
            let a = w.generate(7, 50);
            assert_eq!(a, w.generate(7, 50));
            assert_ne!(a, w.generate(8, 50));
            assert!(a.iter().enumerate().all(|(i, t)| t.id == i as u64));
            assert_eq!(w.topology().tasks_of(SINK).len(), SINKS as usize);
        }
        assert_eq!(Workload::parse("nope"), None);
    }
}
