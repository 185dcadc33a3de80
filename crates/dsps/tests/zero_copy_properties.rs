//! Property tests for the zero-copy fan-out path: encoding a frame once
//! into a pooled buffer and sharing it by reference must deliver bytes
//! identical to a fresh per-destination encode, for every tuple arity
//! and fan-out.

use proptest::prelude::*;
use std::sync::Arc;
use whale_dsps::codec;
use whale_dsps::{BufferPool, InstanceMessage, TaskId, Tuple, Value, WorkerMessage};
use whale_net::{EndpointId, FabricPath, LiveFabric};

/// Build a deterministic tuple of `arity` values from a generated seed.
/// Cycles through every `Value` variant so the codec's full tag range is
/// exercised.
fn tuple_from(arity: usize, seed: u64) -> Tuple {
    let values = (0..arity)
        .map(|i| {
            let x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(i as u64);
            match i % 5 {
                0 => Value::I64(x as i64),
                1 => Value::F64((x % 1_000) as f64 / 7.0),
                2 => Value::Str(Arc::from(format!("v{x}").as_str())),
                3 => Value::Bytes(Arc::from(x.to_le_bytes().as_slice())),
                _ => Value::Bool(x.is_multiple_of(2)),
            }
        })
        .collect();
    Tuple::new(values)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn shared_worker_frame_matches_per_destination_encode(
        arity in 0usize..8,
        fanout in 1u32..33,
        seed in 0u64..u64::MAX,
    ) {
        let tuple = tuple_from(arity, seed);
        let src = TaskId(7);
        let dst_ids: Vec<TaskId> = (0..fanout).map(TaskId).collect();

        // Shared path: serialize the data item once into a pooled
        // scratch buffer, then build the frame from the shared item.
        let pool = BufferPool::default();
        let mut item = pool.acquire();
        codec::encode_tuple_into(&mut item, &tuple);
        let mut framed = pool.acquire();
        WorkerMessage::encode_with_item_into(src, &dst_ids, &item, &mut framed);
        let wire = framed.share();

        // Per-destination path: a fresh clone-and-encode of the message.
        let fresh = WorkerMessage { src, dst_ids: dst_ids.clone(), tuple: tuple.clone() }.encode();
        prop_assert_eq!(&wire[..], &fresh[..], "arity {} fanout {}", arity, fanout);

        // Fan the one shared buffer out over a live fabric: every
        // destination must receive exactly those bytes.
        let fabric = LiveFabric::new();
        let receivers: Vec<_> = (0..fanout)
            .map(|d| fabric.register(EndpointId(d)).unwrap())
            .collect();
        for d in 0..fanout {
            fabric
                .send_shared(EndpointId(100), EndpointId(d), Arc::clone(&wire))
                .unwrap();
        }
        for rx in &receivers {
            let msg = rx.try_recv().unwrap();
            prop_assert_eq!(msg.payload.bytes(), &fresh[..]);
        }
    }

    #[test]
    fn instance_parts_encode_matches_owned_encode(
        arity in 0usize..8,
        seed in 0u64..u64::MAX,
    ) {
        let tuple = tuple_from(arity, seed);
        let pool = BufferPool::default();
        let mut buf = pool.acquire();
        InstanceMessage::encode_parts_into(TaskId(1), TaskId(2), &tuple, &mut buf);
        let owned = InstanceMessage { src: TaskId(1), dst: TaskId(2), tuple }.encode();
        prop_assert_eq!(&buf[..], &owned[..]);
    }

    #[test]
    fn pooled_reencode_is_stable_across_reuse(
        arity in 0usize..8,
        seed in 0u64..u64::MAX,
    ) {
        // Encoding through a recycled pool buffer must never leak bytes
        // from a previous frame.
        let tuple = tuple_from(arity, seed);
        let pool = BufferPool::default();
        let first = {
            let mut b = pool.acquire();
            codec::encode_tuple_into(&mut b, &tuple);
            b.share()
        };
        let second = {
            let mut b = pool.acquire();
            codec::encode_tuple_into(&mut b, &tuple);
            b.share()
        };
        prop_assert_eq!(&first[..], &second[..]);
        prop_assert!(pool.hits() >= 1, "second acquire must reuse the buffer");
    }
}
