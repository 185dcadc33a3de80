//! Criterion microbenchmarks of the zero-copy live path: buffer-pool
//! acquire/release vs fresh allocation, pooled encode + share, and the
//! sharded ring drain.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::sync::Arc;
use whale_dsps::{BufferPool, PoolConfig};
use whale_net::{BatchConfig, EndpointId, FabricPath, RingConfig, RingFabric};
use whale_sim::{SimDuration, SimTime};

use bytes::BufMut;

fn bench_pool(c: &mut Criterion) {
    c.bench_function("pool_acquire_release", |b| {
        let pool = BufferPool::new(PoolConfig::default());
        drop(pool.acquire()); // warm: steady state is all hits
        b.iter(|| {
            let mut buf = pool.acquire();
            buf.put_slice(black_box(b"steady-state frame payload"));
            black_box(buf.len())
        })
    });

    c.bench_function("fresh_alloc_baseline", |b| {
        b.iter(|| {
            let mut buf = Vec::with_capacity(1024);
            buf.put_slice(black_box(b"steady-state frame payload"));
            black_box(buf.len())
        })
    });

    c.bench_function("pool_encode_share_150B", |b| {
        let pool = BufferPool::new(PoolConfig::default());
        let payload = [0u8; 150];
        b.iter(|| {
            let mut buf = pool.acquire();
            buf.put_slice(black_box(&payload));
            black_box(buf.share())
        })
    });
}

fn sharded_ring(shards: usize) -> RingFabric {
    RingFabric::new(RingConfig {
        ring_capacity: 64 * 1024,
        batch: BatchConfig {
            mms: 4 * 1024,
            wtl: SimDuration::from_millis(1),
        },
        flusher_shards: shards,
    })
}

fn bench_sharded_flush(c: &mut Criterion) {
    for shards in [1usize, 4] {
        c.bench_function(&format!("ring_fanout8_flush_{shards}shard"), |b| {
            let fabric = sharded_ring(shards);
            let receivers: Vec<_> = (0..8)
                .map(|d| fabric.register(EndpointId(d + 1)).unwrap())
                .collect();
            let buf: Arc<[u8]> = Arc::from(&[0u8; 150][..]);
            let mut i = 0u64;
            b.iter(|| {
                i += 1;
                for d in 0..8u32 {
                    fabric
                        .send_shared(EndpointId(0), EndpointId(d + 1), buf.clone())
                        .unwrap();
                }
                let now = SimTime::from_nanos(i);
                for s in 0..fabric.config().shard_count() {
                    fabric.flush_shard_at(s, now);
                }
                for rx in &receivers {
                    black_box(rx.try_recv().unwrap());
                }
            })
        });
    }
}

criterion_group!(benches, bench_pool, bench_sharded_flush);
criterion_main!(benches);
