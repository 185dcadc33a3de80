//! `RingFabric`: a bounded ring-buffer live transport with verbs-style
//! doorbell semantics.
//!
//! Sends *post a descriptor* into a fixed-capacity per-endpoint ring —
//! they never touch the destination inbox directly. A flusher (a
//! background thread in live mode, or the caller via [`RingFabric::pump`]
//! in deterministic mode) drains each ring into the stream-slicing
//! [`Batcher`] and delivers whole MMS/WTL batches, so the live path
//! exercises the same batching policy the simulator models (§4,
//! Figs 11–12):
//!
//! - a post that would exceed the ring capacity fails with
//!   [`SendError::Full`] — the bounded transfer queue of the paper's M/D/1
//!   model, surfaced as backpressure instead of a deadlock;
//! - batches flush when buffered bytes reach MMS or the oldest descriptor
//!   has waited WTL (the flusher's monitor tick drives
//!   [`Batcher::deadline`]);
//! - per-sender FIFO order is preserved end to end: posts enter the ring
//!   in order, batches drain in order, deliveries retry in order when the
//!   destination inbox is bounded and momentarily full.
//!
//! A post rings its flusher shard's doorbell only when it makes work due:
//! when it turns an idle endpoint busy (the pump must take that first
//! descriptor to start the batch's WTL clock), or when it brings the
//! endpoint's buffered bytes (ring plus batcher) to MMS (a size flush is
//! due). Every other post joins a batch whose WTL deadline the flusher
//! already sleeps towards, so the flusher wakes per batch, not per
//! descriptor, and drains everything that accumulated in one pass.
//!
//! Delivery counting, link attribution and the settling of frames
//! stranded by a deregistration belong to the endpoint table every
//! transport shares (see [`crate::fabric`]): a post charges its link, and
//! a frame counts once the flusher hands it to the inbox.

use crate::batch::{BatchConfig, Batcher};
use crate::fabric::{
    EndpointId, EndpointTable, FabricPath, Handoff, LiveFabric, LiveMessage, Payload,
    RegisterError, SendError,
};
use crate::topology::LinkTracker;
use crossbeam::channel::{Receiver, Sender};
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex as StdMutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use whale_sim::{MetricsRegistry, SimTime};

/// Configuration of the ring transport.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RingConfig {
    /// Per-endpoint descriptor-ring capacity: the maximum number of posted
    /// but not yet delivered descriptors. Posts beyond it fail with
    /// [`SendError::Full`].
    pub ring_capacity: usize,
    /// The MMS/WTL stream-slicing policy the flusher applies.
    pub batch: BatchConfig,
    /// Live drain workers. Endpoints map to shards by
    /// `EndpointId % flusher_shards`, so an endpoint's ring is always
    /// drained by the same worker and per-endpoint FIFO order holds.
    /// Deterministic [`RingFabric::pump`]/[`RingFabric::flush_at`] ignore
    /// sharding and stay single-threaded. `0` is treated as `1`.
    pub flusher_shards: usize,
}

/// Idle heartbeat of a flusher shard or the fetcher: how long a drain
/// worker with nothing due sleeps before it re-checks unprompted. Posts
/// wake it themselves, so this only bounds how long a lost doorbell
/// wakeup could stall a fully idle fabric.
pub(crate) const IDLE_HEARTBEAT: Duration = Duration::from_millis(5);

/// Backoff of a drain worker while a bounded inbox stays full and a pass
/// makes no delivery progress.
pub(crate) const STALL_BACKOFF: Duration = Duration::from_micros(100);

impl Default for RingConfig {
    fn default() -> Self {
        RingConfig {
            ring_capacity: 64 * 1024,
            batch: BatchConfig::default(),
            flusher_shards: 1,
        }
    }
}

impl RingConfig {
    /// Effective shard count (`flusher_shards`, minimum 1).
    pub fn shard_count(&self) -> usize {
        self.flusher_shards.max(1)
    }

    /// Stable endpoint→shard assignment.
    pub fn shard_of(&self, id: EndpointId) -> usize {
        id.0 as usize % self.shard_count()
    }
}

/// One endpoint's send state: the descriptor ring, the transfer buffer,
/// and the inbox it drains into.
struct EndpointRing {
    /// The destination endpoint this ring feeds (for link attribution).
    id: EndpointId,
    /// Posted, not yet drained descriptors (the send ring proper).
    ring: VecDeque<LiveMessage>,
    /// Payload bytes in `ring`: with the batcher's buffered bytes, what
    /// the next pump offers toward MMS.
    ring_bytes: usize,
    /// The MMS/WTL transfer buffer the flusher drains the ring into.
    batcher: Batcher<LiveMessage>,
    /// Destination inbox.
    tx: Sender<LiveMessage>,
    /// Batch items a bounded inbox could not yet accept; retried first on
    /// the next pump so FIFO order holds.
    undelivered: VecDeque<LiveMessage>,
}

impl EndpointRing {
    /// Descriptors posted but not yet handed to the inbox.
    fn pending(&self) -> usize {
        self.ring.len() + self.batcher.len() + self.undelivered.len()
    }
}

/// Doorbell: posts set a pending flag and wake the flusher; the flusher
/// clears the flag before sleeping so a post between pump and wait can
/// never be missed. Shared with the one-sided fabric, whose fetcher waits
/// on the same post-side wakeup.
pub(crate) struct Doorbell {
    pending: StdMutex<bool>,
    bell: Condvar,
}

impl Doorbell {
    pub(crate) fn new() -> Self {
        Doorbell {
            pending: StdMutex::new(false),
            bell: Condvar::new(),
        }
    }

    // Doorbell locks tolerate poison: a panicking flusher shard must
    // degrade the run, not cascade panics into every sender that rings
    // the bell afterwards. The flag is a plain bool, so the inner value
    // is valid even if a holder died mid-critical-section.
    pub(crate) fn ring(&self) {
        *self
            .pending
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner) = true;
        self.bell.notify_all();
    }

    /// Sleep until rung or `timeout`, consuming the pending flag.
    pub(crate) fn wait(&self, timeout: Duration) {
        let guard = self
            .pending
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let (mut guard, _) = self
            .bell
            .wait_timeout_while(guard, timeout, |pending| !*pending)
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        *guard = false;
    }
}

/// The batched ring-buffer transport. See the module docs for semantics.
pub struct RingFabric {
    config: RingConfig,
    table: EndpointTable<Arc<Mutex<EndpointRing>>>,
    /// One doorbell per flusher shard; posts ring only their endpoint's
    /// shard so drain workers never wake for another shard's traffic.
    doorbells: Vec<Doorbell>,
    /// Descriptors accepted into rings.
    posted: AtomicU64,
    flushed_batches: AtomicU64,
    flushed_items: AtomicU64,
    /// Live-mode clock origin for mapping wall time onto [`SimTime`].
    epoch: Instant,
    stopping: AtomicBool,
}

impl Default for RingFabric {
    fn default() -> Self {
        Self::new(RingConfig::default())
    }
}

impl RingFabric {
    /// New ring fabric with no endpoints. Pair with [`spawn_flusher`] for
    /// live use, or drive [`RingFabric::pump`] manually with a virtual
    /// clock for deterministic benchmarks.
    pub fn new(config: RingConfig) -> Self {
        assert!(config.ring_capacity > 0, "ring capacity must be positive");
        RingFabric {
            config,
            table: EndpointTable::new(),
            doorbells: (0..config.shard_count()).map(|_| Doorbell::new()).collect(),
            posted: AtomicU64::new(0),
            flushed_batches: AtomicU64::new(0),
            flushed_items: AtomicU64::new(0),
            epoch: Instant::now(),
            stopping: AtomicBool::new(false),
        }
    }

    /// The active configuration.
    pub fn config(&self) -> RingConfig {
        self.config
    }

    /// Wall time since this fabric was created, as a [`SimTime`] (live
    /// flusher mode only; deterministic callers pass their own clock).
    pub fn wall_now(&self) -> SimTime {
        SimTime::from_nanos(self.epoch.elapsed().as_nanos() as u64)
    }

    /// A fresh, empty ring draining into `tx`.
    fn endpoint(&self, id: EndpointId, tx: Sender<LiveMessage>) -> Arc<Mutex<EndpointRing>> {
        Arc::new(Mutex::new(EndpointRing {
            id,
            ring: VecDeque::new(),
            ring_bytes: 0,
            batcher: Batcher::new(self.config.batch),
            tx,
            undelivered: VecDeque::new(),
        }))
    }

    /// Snapshot endpoint slots in id order, so deterministic pumps visit
    /// rings in a stable order. `shard = None` selects every endpoint;
    /// `Some(s)` only those assigned to shard `s`.
    fn slots(&self, shard: Option<usize>) -> Vec<Arc<Mutex<EndpointRing>>> {
        let map = self.table.endpoints();
        let mut ids: Vec<(EndpointId, Arc<Mutex<EndpointRing>>)> = map
            .iter()
            .filter(|(id, _)| shard.is_none_or(|s| self.config.shard_of(**id) == s))
            .map(|(id, s)| (*id, Arc::clone(s)))
            .collect();
        ids.sort_by_key(|(id, _)| *id);
        ids.into_iter().map(|(_, s)| s).collect()
    }

    fn note_batch(&self, n_items: usize) {
        self.flushed_batches.fetch_add(1, Ordering::Relaxed);
        self.flushed_items.fetch_add(n_items as u64, Ordering::Relaxed);
    }

    /// Hand parked batch items to the inbox, preserving order. Stops at a
    /// full bounded inbox (retried next pump); a dead receiver's frames
    /// are settled as send errors.
    fn drain_undelivered(&self, ep: &mut EndpointRing) -> u64 {
        let mut delivered = 0;
        while let Some(msg) = ep.undelivered.pop_front() {
            match self.table.deliver(&ep.tx, ep.id, msg) {
                Handoff::Delivered => delivered += 1,
                Handoff::Full(msg) => {
                    ep.undelivered.push_front(msg);
                    break;
                }
                Handoff::Dropped => {}
            }
        }
        delivered
    }

    /// One flusher pass at time `now`: drain every ring into its batcher
    /// (size-triggered batches flush immediately), fire expired WTL timers,
    /// and deliver flushed items. Returns the number delivered.
    ///
    /// Deterministic mode: single-threaded, visits every endpoint in id
    /// order regardless of `flusher_shards`, so virtual-clock delivery
    /// traces are identical across shard counts.
    pub fn pump(&self, now: SimTime) -> u64 {
        self.pump_slots(&self.slots(None), now)
    }

    /// [`RingFabric::pump`] restricted to the endpoints of one flusher
    /// shard — the live drain workers call this so two shards never
    /// contend on the same endpoint ring.
    pub fn pump_shard(&self, shard: usize, now: SimTime) -> u64 {
        self.pump_slots(&self.slots(Some(shard)), now)
    }

    fn pump_slots(&self, slots: &[Arc<Mutex<EndpointRing>>], now: SimTime) -> u64 {
        let mut delivered = 0;
        for slot in slots {
            let mut ep = slot.lock();
            while let Some(msg) = ep.ring.pop_front() {
                let bytes = msg.payload.len();
                ep.ring_bytes -= bytes;
                if let Some(batch) = ep.batcher.offer(now, msg, bytes) {
                    self.note_batch(batch.items.len());
                    ep.undelivered.extend(batch.items);
                }
            }
            if let Some(batch) = ep.batcher.on_timer(now) {
                self.note_batch(batch.items.len());
                ep.undelivered.extend(batch.items);
            }
            delivered += self.drain_undelivered(&mut ep);
        }
        delivered
    }

    /// Force everything out at time `now`: pump, then force-flush every
    /// batcher regardless of MMS/WTL and deliver (shutdown / end of a
    /// deterministic run). Returns the number delivered.
    pub fn flush_at(&self, now: SimTime) -> u64 {
        self.flush_slots_at(None, now)
    }

    /// [`RingFabric::flush_at`] restricted to one flusher shard's
    /// endpoints (live shard shutdown).
    pub fn flush_shard_at(&self, shard: usize, now: SimTime) -> u64 {
        self.flush_slots_at(Some(shard), now)
    }

    fn flush_slots_at(&self, shard: Option<usize>, now: SimTime) -> u64 {
        let slots = self.slots(shard);
        let mut delivered = self.pump_slots(&slots, now);
        for slot in &slots {
            let mut ep = slot.lock();
            if let Some(batch) = ep.batcher.flush() {
                self.note_batch(batch.items.len());
                ep.undelivered.extend(batch.items);
            }
            delivered += self.drain_undelivered(&mut ep);
        }
        delivered
    }

    /// Earliest WTL deadline across endpoints; `SimTime::ZERO` if any ring
    /// or retry queue already holds work. `None` when fully idle.
    pub fn next_deadline(&self) -> Option<SimTime> {
        self.next_deadline_for(None)
    }

    /// [`RingFabric::next_deadline`] restricted to one flusher shard's
    /// endpoints.
    pub fn next_deadline_shard(&self, shard: usize) -> Option<SimTime> {
        self.next_deadline_for(Some(shard))
    }

    fn next_deadline_for(&self, shard: Option<usize>) -> Option<SimTime> {
        let map = self.table.endpoints();
        map.iter()
            .filter(|(id, _)| shard.is_none_or(|s| self.config.shard_of(**id) == s))
            .filter_map(|(_, slot)| {
                let ep = slot.lock();
                if !ep.ring.is_empty() || !ep.undelivered.is_empty() {
                    Some(SimTime::ZERO)
                } else {
                    ep.batcher.deadline()
                }
            })
            .min()
    }

    /// Descriptors accepted into rings so far.
    pub fn posted(&self) -> u64 {
        self.posted.load(Ordering::Relaxed)
    }

    /// Mean items per flushed batch (0 if none flushed yet).
    pub fn mean_batch_size(&self) -> f64 {
        let batches = self.flushed_batches();
        if batches == 0 {
            0.0
        } else {
            self.flushed_items() as f64 / batches as f64
        }
    }
}

impl FabricPath for RingFabric {
    fn register(&self, id: EndpointId) -> Result<Receiver<LiveMessage>, RegisterError> {
        self.table.register(id, None, |tx| self.endpoint(id, tx))
    }

    /// Full bounded inboxes park flushed batches for later retry rather
    /// than dropping them.
    fn register_bounded(
        &self,
        id: EndpointId,
        capacity: usize,
    ) -> Result<Receiver<LiveMessage>, RegisterError> {
        self.table
            .register(id, Some(capacity), |tx| self.endpoint(id, tx))
    }

    /// Pending descriptors (retry queue, batcher, ring) are settled as
    /// send errors. Flush first if they must arrive.
    fn deregister(&self, id: EndpointId) {
        self.table.deregister(id, |slot| {
            let mut ep = slot.lock();
            let ep = &mut *ep;
            let buffered = ep.batcher.flush().map(|b| b.items).unwrap_or_default();
            let stranded = ep
                .undelivered
                .drain(..)
                .chain(buffered)
                .chain(ep.ring.drain(..));
            self.table.settle(id, stranded);
        });
    }

    /// Post a descriptor to `to`'s ring (a copied payload paid its copy
    /// per destination already), ringing the doorbell only when the post
    /// makes work due (see the module docs). Counted on delivery.
    fn send(&self, from: EndpointId, to: EndpointId, payload: Payload) -> Result<(), SendError> {
        let bytes = payload.len();
        let (pending, buffered) = self.table.post(to, |slot| {
            let mut ep = slot.lock();
            let pending = ep.pending();
            if pending >= self.config.ring_capacity {
                return Err(self.table.fail(SendError::Full));
            }
            // Accepted into the ring: the frame now occupies its link's
            // queue until the flusher delivers (or drops) it.
            self.table.accept(from, to, bytes);
            let buffered = ep.ring_bytes + ep.batcher.buffered_bytes();
            ep.ring_bytes += bytes;
            ep.ring.push_back(LiveMessage { from, payload });
            Ok((pending, buffered))
        })?;
        self.posted.fetch_add(1, Ordering::Relaxed);
        // Due now: an idle endpoint's first descriptor (the pump must
        // stamp its WTL clock) or the one that brings the buffered bytes
        // to MMS (a size flush). Any other post joins a batch whose
        // deadline the flusher already sleeps towards.
        let mms = self.config.batch.mms;
        if pending == 0 || (buffered < mms && buffered + bytes >= mms) {
            self.doorbells[self.config.shard_of(to)].ring();
        }
        Ok(())
    }

    fn flush(&self) {
        self.flush_at(self.wall_now());
    }

    fn messages(&self) -> u64 {
        self.table.messages()
    }

    fn copied_bytes(&self) -> u64 {
        self.table.copied_bytes()
    }

    fn shared_bytes(&self) -> u64 {
        self.table.shared_bytes()
    }

    fn send_errors(&self) -> u64 {
        self.table.send_errors()
    }

    fn flushed_batches(&self) -> u64 {
        self.flushed_batches.load(Ordering::Relaxed)
    }

    fn flushed_items(&self) -> u64 {
        self.flushed_items.load(Ordering::Relaxed)
    }

    /// Descriptors posted but not yet handed to an inbox (ring, batcher
    /// and retry queue) — the live transfer-queue length across every
    /// endpoint.
    fn queue_depth(&self) -> u64 {
        let map = self.table.endpoints();
        map.values().map(|slot| slot.lock().pending() as u64).sum()
    }

    fn endpoint_count(&self) -> usize {
        self.table.len()
    }

    fn install_link_tracker(&self, tracker: Arc<LinkTracker>) {
        self.table.install_link_tracker(tracker);
    }

    fn export_metrics(&self, reg: &mut MetricsRegistry, prefix: &str) {
        self.table.export_metrics(reg, prefix);
        reg.set_counter(&format!("{prefix}.posted"), self.posted());
        reg.set_counter(&format!("{prefix}.flushed_batches"), self.flushed_batches());
        reg.set_counter(&format!("{prefix}.flushed_items"), self.flushed_items());
        reg.set_gauge(&format!("{prefix}.mean_batch_size"), self.mean_batch_size());
        reg.set_gauge(
            &format!("{prefix}.flusher_shards"),
            self.config.shard_count() as f64,
        );
    }
}

/// Handle to the background flusher shards. Stop it (or drop it) to force
/// a final flush and join every drain worker.
pub struct RingFlusher {
    fabric: Arc<RingFabric>,
    handles: Vec<JoinHandle<()>>,
}

impl RingFlusher {
    /// Signal every flusher shard to drain everything and exit, then join
    /// them all.
    pub fn stop(mut self) {
        self.shutdown();
    }

    /// Number of drain workers this flusher runs.
    pub fn shard_count(&self) -> usize {
        self.handles.len().max(1)
    }

    fn shutdown(&mut self) {
        self.fabric.stopping.store(true, Ordering::SeqCst);
        for bell in &self.fabric.doorbells {
            bell.ring();
        }
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for RingFlusher {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Spawn the background flusher: one drain worker per
/// [`RingConfig::flusher_shards`], each sleeping until its shard's
/// doorbell (a post made work due), the earliest WTL deadline, the stall
/// backoff or the idle heartbeat, then pumping its shard's rings in one
/// pass, and force-flushing its shard on stop. An endpoint is always
/// drained by the same shard, so per-endpoint FIFO order holds.
pub fn spawn_flusher(fabric: Arc<RingFabric>) -> RingFlusher {
    let handles = (0..fabric.config.shard_count())
        .map(|shard| {
            let worker = Arc::clone(&fabric);
            std::thread::Builder::new()
                .name(format!("ring-flusher-{shard}"))
                .spawn(move || flusher_loop(&worker, shard))
                .expect("spawn ring flusher shard")
        })
        .collect();
    RingFlusher { fabric, handles }
}

fn flusher_loop(fabric: &RingFabric, shard: usize) {
    loop {
        let delivered = fabric.pump_shard(shard, fabric.wall_now());
        if fabric.stopping.load(Ordering::SeqCst) {
            fabric.flush_shard_at(shard, fabric.wall_now());
            return;
        }
        let wait = match fabric.next_deadline_shard(shard) {
            Some(deadline) => {
                let now = fabric.wall_now();
                if deadline <= now {
                    if delivered == 0 {
                        STALL_BACKOFF
                    } else {
                        // More work is already due; pump again immediately.
                        continue;
                    }
                } else {
                    Duration::from_nanos(deadline.as_nanos() - now.as_nanos())
                }
            }
            None => IDLE_HEARTBEAT,
        };
        fabric.doorbells[shard].wait(wait);
    }
}

/// Which live transport a runtime should instantiate.
#[derive(Clone, Copy, Debug, Default)]
pub enum FabricKind {
    /// The synchronous per-send channel map ([`LiveFabric`]).
    #[default]
    PerSend,
    /// The batched ring-buffer path ([`RingFabric`]) with a background
    /// flusher.
    Ring(RingConfig),
    /// The remote-fetch path ([`crate::OneSidedFabric`]) with a background
    /// fetcher: senders publish into per-link ring regions, receivers pull
    /// via modeled `RDMA READ`s.
    OneSided(crate::OneSidedConfig),
}

/// A built live transport plus, on the buffered paths, the background
/// drain thread (ring flusher or one-sided fetcher).
pub struct FabricInstance {
    /// The shared transport handle.
    pub fabric: Arc<dyn FabricPath>,
    flusher: Option<RingFlusher>,
    fetcher: Option<crate::OneSidedFetcher>,
}

impl FabricKind {
    /// Instantiate the transport (and its drain thread, for the buffered
    /// paths).
    pub fn build(self) -> FabricInstance {
        match self {
            FabricKind::PerSend => FabricInstance {
                fabric: Arc::new(LiveFabric::new()),
                flusher: None,
                fetcher: None,
            },
            FabricKind::Ring(config) => {
                let ring = Arc::new(RingFabric::new(config));
                let flusher = spawn_flusher(Arc::clone(&ring));
                FabricInstance {
                    fabric: ring,
                    flusher: Some(flusher),
                    fetcher: None,
                }
            }
            FabricKind::OneSided(config) => {
                let one_sided = Arc::new(crate::OneSidedFabric::new(config));
                let fetcher = crate::spawn_fetcher(Arc::clone(&one_sided));
                FabricInstance {
                    fabric: one_sided,
                    flusher: None,
                    fetcher: Some(fetcher),
                }
            }
        }
    }
}

impl FabricInstance {
    /// Flush buffered sends and stop the drain thread (if any). Call after
    /// all senders have finished but before deregistering receivers.
    pub fn shutdown(&mut self) {
        self.fabric.flush();
        if let Some(flusher) = self.flusher.take() {
            flusher.stop();
        }
        if let Some(fetcher) = self.fetcher.take() {
            fetcher.stop();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use whale_sim::SimDuration;

    fn cfg(ring_capacity: usize, mms: usize, wtl_ms: u64) -> RingConfig {
        RingConfig {
            ring_capacity,
            batch: BatchConfig {
                mms,
                wtl: SimDuration::from_millis(wtl_ms),
            },
            ..RingConfig::default()
        }
    }

    #[test]
    fn posts_sit_in_ring_until_pumped() {
        let fabric = RingFabric::new(cfg(16, 1_000_000, 1));
        let rx = fabric.register(EndpointId(1)).unwrap();
        fabric
            .send_copied(EndpointId(0), EndpointId(1), b"hello")
            .unwrap();
        assert!(rx.try_recv().is_err(), "nothing delivered before a flush");
        assert_eq!(fabric.posted(), 1);
        assert_eq!(fabric.messages(), 0);
        assert_eq!(fabric.copied_bytes(), 0, "bytes count on delivery only");

        // Under MMS and before WTL: still buffered after a pump.
        fabric.pump(SimTime::ZERO);
        assert!(rx.try_recv().is_err());

        // Past WTL: the timer flushes the batch.
        let delivered = fabric.pump(SimTime::from_millis(1));
        assert_eq!(delivered, 1);
        assert_eq!(rx.recv().unwrap().payload.bytes(), b"hello");
        assert_eq!(fabric.copied_bytes(), 5);
        assert_eq!(fabric.flushed_batches(), 1);
    }

    #[test]
    fn mms_triggers_size_batches() {
        let fabric = RingFabric::new(cfg(1024, 100, 1_000));
        let rx = fabric.register(EndpointId(1)).unwrap();
        for _ in 0..10 {
            fabric
                .send_copied(EndpointId(0), EndpointId(1), &[0u8; 25])
                .unwrap();
        }
        // 10 × 25 B versus MMS 100 B: pumps flush by size alone, no WTL.
        let delivered = fabric.pump(SimTime::ZERO);
        assert_eq!(delivered, 8, "two full batches of four 25 B items");
        assert_eq!(fabric.flushed_batches(), 2);
        assert!((fabric.mean_batch_size() - 4.0).abs() < 1e-12);
        // The remainder needs a forced flush (or a WTL tick).
        assert_eq!(fabric.flush_at(SimTime::ZERO), 2);
        assert_eq!(std::iter::from_fn(|| rx.try_recv().ok()).count(), 10);
    }

    #[test]
    fn full_ring_backpressures_without_deadlock() {
        let fabric = RingFabric::new(cfg(2, 1_000_000, 1));
        let _rx = fabric.register(EndpointId(1)).unwrap();
        fabric
            .send_copied(EndpointId(0), EndpointId(1), b"a")
            .unwrap();
        fabric
            .send_copied(EndpointId(0), EndpointId(1), b"b")
            .unwrap();
        let err = fabric
            .send_copied(EndpointId(0), EndpointId(1), b"c")
            .unwrap_err();
        assert_eq!(err, SendError::Full);
        assert_eq!(fabric.send_errors(), 1);
        // Draining the ring frees capacity.
        fabric.flush_at(SimTime::ZERO);
        fabric
            .send_copied(EndpointId(0), EndpointId(1), b"c")
            .unwrap();
    }

    #[test]
    fn unknown_endpoint_and_disconnected_count_errors_not_bytes() {
        let fabric = RingFabric::new(cfg(16, 1_000_000, 1));
        assert_eq!(
            fabric
                .send_copied(EndpointId(0), EndpointId(9), b"x")
                .unwrap_err(),
            SendError::UnknownEndpoint
        );
        let rx = fabric.register(EndpointId(1)).unwrap();
        drop(rx);
        fabric
            .send_copied(EndpointId(0), EndpointId(1), b"xx")
            .unwrap();
        fabric.flush_at(SimTime::ZERO);
        assert_eq!(fabric.send_errors(), 2);
        assert_eq!(fabric.copied_bytes(), 0);
        assert_eq!(fabric.messages(), 0);
    }

    #[test]
    fn bounded_inbox_parks_and_retries_in_order() {
        let fabric = RingFabric::new(cfg(16, 1_000_000, 1));
        let rx = fabric.register_bounded(EndpointId(1), 2).unwrap();
        for b in [b"a", b"b", b"c", b"d"] {
            fabric.send_copied(EndpointId(0), EndpointId(1), b).unwrap();
        }
        // Only two fit the inbox; the rest park, nothing is lost.
        assert_eq!(fabric.flush_at(SimTime::ZERO), 2);
        assert_eq!(rx.try_recv().unwrap().payload.bytes(), b"a");
        assert_eq!(rx.try_recv().unwrap().payload.bytes(), b"b");
        assert_eq!(fabric.pump(SimTime::ZERO), 2);
        assert_eq!(rx.try_recv().unwrap().payload.bytes(), b"c");
        assert_eq!(rx.try_recv().unwrap().payload.bytes(), b"d");
        assert_eq!(fabric.send_errors(), 0);
    }

    #[test]
    fn next_deadline_reflects_pending_work() {
        let fabric = RingFabric::new(cfg(16, 1_000_000, 2));
        let _rx = fabric.register(EndpointId(1)).unwrap();
        assert_eq!(fabric.next_deadline(), None, "idle fabric has no deadline");
        fabric
            .send_copied(EndpointId(0), EndpointId(1), b"x")
            .unwrap();
        assert_eq!(
            fabric.next_deadline(),
            Some(SimTime::ZERO),
            "undrained ring is immediately due"
        );
        fabric.pump(SimTime::from_millis(1));
        assert_eq!(
            fabric.next_deadline(),
            Some(SimTime::from_millis(3)),
            "buffered item is due at offer time + WTL"
        );
        fabric.pump(SimTime::from_millis(3));
        assert_eq!(fabric.next_deadline(), None);
    }

    #[test]
    fn live_flusher_delivers_without_manual_pumps() {
        let fabric = Arc::new(RingFabric::new(cfg(1024, 1_000_000, 1)));
        let flusher = spawn_flusher(Arc::clone(&fabric));
        let rx = fabric.register(EndpointId(1)).unwrap();
        for i in 0..50u8 {
            fabric
                .send_copied(EndpointId(0), EndpointId(1), &[i])
                .unwrap();
        }
        // WTL is 1 ms; the flusher must deliver well within the timeout.
        let got: Vec<u8> = (0..50)
            .map(|_| {
                rx.recv_timeout(Duration::from_secs(5))
                    .expect("flusher delivers")
                    .payload
                    .bytes()[0]
            })
            .collect();
        assert_eq!(got, (0..50).collect::<Vec<u8>>());
        flusher.stop();
    }

    /// Post the first frame of a burst and wait until the flusher has
    /// taken it into the batcher and gone back to sleep on its WTL
    /// deadline, so the rest of the burst must wake it by itself.
    fn arm_wtl_timer(fabric: &RingFabric, from: EndpointId, to: EndpointId, frame: &[u8]) {
        fabric.send_copied(from, to, frame).unwrap();
        let armed = Instant::now();
        while fabric.next_deadline() == Some(SimTime::ZERO) {
            assert!(armed.elapsed() < Duration::from_secs(5), "flusher pumps");
            std::thread::yield_now();
        }
        std::thread::sleep(Duration::from_millis(50));
    }

    #[test]
    fn live_flusher_wakes_when_a_post_brings_the_batch_to_mms() {
        // WTL 10 s: only the post that reaches MMS (8 × 8 B = 64 B) can
        // make the batch due within the timeout.
        let fabric = Arc::new(RingFabric::new(cfg(1024, 64, 10_000)));
        let flusher = spawn_flusher(Arc::clone(&fabric));
        let rx = fabric.register(EndpointId(1)).unwrap();
        arm_wtl_timer(&fabric, EndpointId(0), EndpointId(1), &[0; 8]);
        for i in 1..8u8 {
            fabric
                .send_copied(EndpointId(0), EndpointId(1), &[i; 8])
                .unwrap();
        }
        let got: Vec<u8> = (0..8)
            .map(|_| {
                rx.recv_timeout(Duration::from_secs(5))
                    .expect("the MMS post wakes the flusher")
                    .payload
                    .bytes()[0]
            })
            .collect();
        assert_eq!(got, (0..8).collect::<Vec<u8>>());
        assert_eq!(fabric.flushed_batches(), 1);
        flusher.stop();
    }

    #[test]
    fn live_posts_join_the_batch_whose_timer_is_running() {
        let fabric = Arc::new(RingFabric::new(cfg(1024, 1_000_000, 200)));
        let flusher = spawn_flusher(Arc::clone(&fabric));
        let rx = fabric.register(EndpointId(1)).unwrap();
        arm_wtl_timer(&fabric, EndpointId(0), EndpointId(1), &[0]);
        for i in 1..50u8 {
            fabric
                .send_copied(EndpointId(0), EndpointId(1), &[i])
                .unwrap();
        }
        let got: Vec<u8> = (0..50)
            .map(|_| {
                rx.recv_timeout(Duration::from_secs(5))
                    .expect("the WTL deadline flushes the batch")
                    .payload
                    .bytes()[0]
            })
            .collect();
        assert_eq!(got, (0..50).collect::<Vec<u8>>());
        assert_eq!(fabric.flushed_batches(), 1, "one WTL batch of all 50");
        flusher.stop();
    }

    #[test]
    fn deregister_settles_stranded_frames() {
        use crate::topology::{ClusterSpec, MachineId};
        let tracker = Arc::new(LinkTracker::new(ClusterSpec::with_rack_map(
            4,
            2,
            1,
            vec![0, 0, 1, 1],
        )));
        for m in 0..4u32 {
            tracker.map_endpoint(EndpointId(m), MachineId(m));
        }
        let fabric = RingFabric::new(cfg(16, 1_000_000, 1));
        fabric.install_link_tracker(Arc::clone(&tracker));
        let _rx = fabric.register(EndpointId(2)).unwrap();
        // One frame in the batcher, two still in the ring: both stages
        // must be settled.
        fabric
            .send_copied(EndpointId(0), EndpointId(2), b"a")
            .unwrap();
        fabric.pump(SimTime::ZERO);
        for b in [b"bb", b"cc"] {
            fabric.send_copied(EndpointId(0), EndpointId(2), b).unwrap();
        }
        assert_eq!(tracker.max_uplink_queue(), 3, "uplink r0 holds the frames");
        fabric.deregister(EndpointId(2));
        assert_eq!(fabric.send_errors(), 3);
        assert_eq!(fabric.messages(), 0);
        assert_eq!(fabric.queue_depth(), 0);
        assert_eq!(tracker.max_uplink_queue(), 0);
        assert!(tracker
            .snapshot()
            .iter()
            .all(|l| l.queued_frames == 0 && l.queued_bytes == 0));
    }

    #[test]
    fn flusher_stop_flushes_stragglers() {
        let fabric = Arc::new(RingFabric::new(cfg(1024, 1_000_000, 10_000)));
        let flusher = spawn_flusher(Arc::clone(&fabric));
        let rx = fabric.register(EndpointId(1)).unwrap();
        // WTL is 10 s: nothing would flush on its own within the test.
        fabric
            .send_copied(EndpointId(0), EndpointId(1), b"tail")
            .unwrap();
        flusher.stop();
        assert_eq!(rx.try_recv().unwrap().payload.bytes(), b"tail");
    }

    #[test]
    fn multi_producer_stress_keeps_per_sender_order() {
        const SENDERS: u32 = 8;
        const PER_SENDER: u32 = 2_000;
        let fabric = Arc::new(RingFabric::new(cfg(
            (SENDERS * PER_SENDER) as usize,
            4 * 1024,
            1,
        )));
        let flusher = spawn_flusher(Arc::clone(&fabric));
        let rx = fabric.register(EndpointId(0)).unwrap();

        let producers: Vec<_> = (1..=SENDERS)
            .map(|s| {
                let f = Arc::clone(&fabric);
                std::thread::spawn(move || {
                    for seq in 0..PER_SENDER {
                        let frame = [s.to_le_bytes(), seq.to_le_bytes()].concat();
                        // The ring is sized to hold everything, so Full
                        // can only mean lost capacity accounting.
                        f.send_copied(EndpointId(s), EndpointId(0), &frame)
                            .unwrap();
                    }
                })
            })
            .collect();
        for p in producers {
            p.join().unwrap();
        }

        let mut next_seq = vec![0u32; SENDERS as usize + 1];
        for _ in 0..SENDERS * PER_SENDER {
            let msg = rx
                .recv_timeout(Duration::from_secs(10))
                .expect("no descriptor lost");
            let bytes = msg.payload.bytes();
            let s = u32::from_le_bytes(bytes[0..4].try_into().unwrap());
            let seq = u32::from_le_bytes(bytes[4..8].try_into().unwrap());
            assert_eq!(msg.from, EndpointId(s));
            assert_eq!(seq, next_seq[s as usize], "per-sender FIFO order");
            next_seq[s as usize] = seq + 1;
        }
        assert!(rx.try_recv().is_err(), "no duplicated descriptors");
        assert_eq!(fabric.messages(), (SENDERS * PER_SENDER) as u64);
        assert_eq!(fabric.send_errors(), 0);
        assert!(fabric.mean_batch_size() >= 1.0);
        flusher.stop();
    }

    #[test]
    fn stress_with_tiny_ring_backpressures_cleanly() {
        const SENDERS: u32 = 4;
        const PER_SENDER: u32 = 500;
        let fabric = Arc::new(RingFabric::new(cfg(8, 64, 1)));
        let flusher = spawn_flusher(Arc::clone(&fabric));
        let rx = fabric.register(EndpointId(0)).unwrap();

        let producers: Vec<_> = (1..=SENDERS)
            .map(|s| {
                let f = Arc::clone(&fabric);
                std::thread::spawn(move || {
                    let mut retries = 0u64;
                    for seq in 0..PER_SENDER {
                        let frame = [s.to_le_bytes(), seq.to_le_bytes()].concat();
                        // Backpressure shows up as Full, never a deadlock:
                        // retry until the flusher frees ring capacity.
                        loop {
                            match f.send_copied(EndpointId(s), EndpointId(0), &frame) {
                                Ok(()) => break,
                                Err(SendError::Full) => {
                                    retries += 1;
                                    std::thread::yield_now();
                                }
                                Err(e) => panic!("unexpected send error: {e}"),
                            }
                        }
                    }
                    retries
                })
            })
            .collect();
        let _retries: u64 = producers.into_iter().map(|p| p.join().unwrap()).sum();

        let mut next_seq = vec![0u32; SENDERS as usize + 1];
        for _ in 0..SENDERS * PER_SENDER {
            let msg = rx
                .recv_timeout(Duration::from_secs(10))
                .expect("every accepted post is delivered");
            let bytes = msg.payload.bytes();
            let s = u32::from_le_bytes(bytes[0..4].try_into().unwrap());
            let seq = u32::from_le_bytes(bytes[4..8].try_into().unwrap());
            assert_eq!(seq, next_seq[s as usize], "per-sender FIFO order");
            next_seq[s as usize] = seq + 1;
        }
        assert!(rx.try_recv().is_err());
        assert_eq!(fabric.messages(), (SENDERS * PER_SENDER) as u64);
        flusher.stop();
    }

    /// The rules every transport takes from the shared endpoint table,
    /// checked on each [`FabricKind`] through the object-safe surface,
    /// with the live drain thread running.
    #[test]
    fn fabric_kind_builds_interchangeable_paths() {
        use crate::topology::{ClusterSpec, MachineId};
        for kind in [
            FabricKind::PerSend,
            FabricKind::Ring(RingConfig::default()),
            FabricKind::OneSided(crate::OneSidedConfig::default()),
        ] {
            let mut instance = kind.build();
            let fabric = Arc::clone(&instance.fabric);
            let tracker = Arc::new(LinkTracker::new(ClusterSpec::with_rack_map(
                4,
                2,
                1,
                vec![0, 0, 1, 1],
            )));
            for m in 0..4u32 {
                tracker.map_endpoint(EndpointId(m), MachineId(m));
            }
            fabric.install_link_tracker(Arc::clone(&tracker));

            // Copied and shared bytes count apart, once delivered.
            let rx = fabric.register(EndpointId(1)).unwrap();
            fabric
                .send_copied(EndpointId(0), EndpointId(1), b"hi")
                .unwrap();
            fabric
                .send_shared(EndpointId(2), EndpointId(1), Arc::from(&b"abc"[..]))
                .unwrap();
            fabric.flush();
            let mut got: Vec<Vec<u8>> = (0..2)
                .map(|_| {
                    rx.recv_timeout(Duration::from_secs(5))
                        .unwrap()
                        .payload
                        .bytes()
                        .to_vec()
                })
                .collect();
            got.sort();
            assert_eq!(got, [b"abc".to_vec(), b"hi".to_vec()]);
            assert_eq!(fabric.messages(), 2);
            assert_eq!(fabric.copied_bytes(), 2);
            assert_eq!(fabric.shared_bytes(), 3);

            // An unknown endpoint is a send error, never bytes.
            assert_eq!(
                fabric.send_copied(EndpointId(0), EndpointId(9), b"x"),
                Err(SendError::UnknownEndpoint)
            );
            assert_eq!(fabric.send_errors(), 1);

            // A live inbox cannot be displaced.
            assert_eq!(
                fabric.register(EndpointId(1)).unwrap_err(),
                RegisterError::AlreadyRegistered(EndpointId(1))
            );
            assert_eq!(
                fabric.register_bounded(EndpointId(1), 4).unwrap_err(),
                RegisterError::AlreadyRegistered(EndpointId(1))
            );

            // A dropped receiver: the send or its later hand-off is one
            // send error, and its bytes never count.
            drop(fabric.register(EndpointId(3)).unwrap());
            let _ = fabric.send_copied(EndpointId(0), EndpointId(3), b"lost");
            fabric.flush();
            assert_eq!(fabric.send_errors(), 2);
            assert_eq!(fabric.messages(), 2);
            assert_eq!(fabric.copied_bytes(), 2);

            // A one-frame inbox strands the rest of a burst until the
            // deregistration settles it: every frame is delivered or
            // counted as an error, and no link stays queued.
            let _rx2 = fabric.register_bounded(EndpointId(2), 1).unwrap();
            for frame in [b"a", b"b", b"c"] {
                let _ = fabric.send_copied(EndpointId(0), EndpointId(2), frame);
            }
            fabric.deregister(EndpointId(2));
            let delivered = fabric.messages() - 2;
            assert!(delivered <= 1, "the inbox holds one frame");
            assert_eq!(delivered + fabric.send_errors() - 2, 3);
            assert_eq!(fabric.queue_depth(), 0);
            assert!(tracker
                .snapshot()
                .iter()
                .all(|l| l.queued_frames == 0 && l.queued_bytes == 0));
            // Deregistration frees the id for reuse.
            assert!(fabric.register(EndpointId(2)).is_ok());

            // Per-link bytes tile the delivered wire total.
            let link_bytes: u64 = tracker.snapshot().iter().map(|l| l.bytes).sum();
            assert_eq!(link_bytes, fabric.copied_bytes() + fabric.shared_bytes());
            assert_eq!(tracker.total_bytes(), link_bytes);
            assert!(tracker.uplink_bytes() >= 3, "rack 1 → rack 0 crossed an uplink");
            instance.shutdown();
        }
    }

    #[test]
    fn config_round_trips_flusher_fields_with_current_defaults() {
        assert_eq!(RingConfig::default().flusher_shards, 1);
        assert_eq!(IDLE_HEARTBEAT, Duration::from_millis(5));
        assert_eq!(STALL_BACKOFF, Duration::from_micros(100));

        let custom = RingConfig {
            flusher_shards: 4,
            ..RingConfig::default()
        };
        // The config must survive the fabric and the flusher unchanged.
        let fabric = Arc::new(RingFabric::new(custom));
        assert_eq!(fabric.config(), custom);
        let flusher = spawn_flusher(Arc::clone(&fabric));
        assert_eq!(flusher.shard_count(), 4);
        flusher.stop();
        // Zero shards degrades to one worker, never zero.
        assert_eq!(
            RingConfig {
                flusher_shards: 0,
                ..RingConfig::default()
            }
            .shard_count(),
            1
        );
    }

    #[test]
    fn shard_assignment_is_stable_and_covers_all_shards() {
        let c = RingConfig {
            flusher_shards: 4,
            ..RingConfig::default()
        };
        for id in 0..64u32 {
            let shard = c.shard_of(EndpointId(id));
            assert!(shard < 4);
            assert_eq!(shard, c.shard_of(EndpointId(id)), "assignment is stable");
        }
        let hit: std::collections::HashSet<usize> =
            (0..8u32).map(|id| c.shard_of(EndpointId(id))).collect();
        assert_eq!(hit.len(), 4, "8 consecutive ids cover all 4 shards");
    }

    /// Deterministic-mode regression: the virtual-clock delivery trace
    /// must be identical before and after sharding, because `pump` /
    /// `flush_at` stay single-threaded over every endpoint.
    #[test]
    fn pump_trace_is_identical_across_shard_counts() {
        fn trace(shards: usize) -> Vec<Vec<(u32, u8)>> {
            let fabric = RingFabric::new(RingConfig {
                flusher_shards: shards,
                ring_capacity: 1024,
                batch: BatchConfig {
                    mms: 64,
                    wtl: SimDuration::from_millis(1),
                },
            });
            let rxs: Vec<_> = (0..5u32)
                .map(|d| fabric.register(EndpointId(d)).unwrap())
                .collect();
            let mut now = SimTime::ZERO;
            for seq in 0..40u8 {
                for d in 0..5u32 {
                    fabric
                        .send_copied(EndpointId(100), EndpointId(d), &[seq; 20])
                        .unwrap();
                }
                fabric.pump(now);
                now += SimDuration::from_micros(100);
            }
            fabric.flush_at(now);
            rxs.iter()
                .map(|rx| {
                    std::iter::from_fn(|| rx.try_recv().ok())
                        .map(|m| (m.from.0, m.payload.bytes()[0]))
                        .collect()
                })
                .collect()
        }
        let unsharded = trace(1);
        assert_eq!(unsharded, trace(2));
        assert_eq!(unsharded, trace(4));
        assert!(unsharded.iter().all(|per_ep| per_ep.len() == 40));
    }

    #[test]
    fn multi_shard_stress_keeps_per_endpoint_fifo() {
        const SENDERS: u32 = 4;
        const ENDPOINTS: u32 = 6;
        const PER_PAIR: u32 = 500;
        let fabric = Arc::new(RingFabric::new(RingConfig {
            ring_capacity: (SENDERS * PER_PAIR) as usize,
            batch: BatchConfig {
                mms: 2 * 1024,
                wtl: SimDuration::from_millis(1),
            },
            flusher_shards: 4,
        }));
        let flusher = spawn_flusher(Arc::clone(&fabric));
        assert_eq!(flusher.shard_count(), 4);
        let rxs: Vec<_> = (0..ENDPOINTS)
            .map(|d| fabric.register(EndpointId(d)).unwrap())
            .collect();

        let producers: Vec<_> = (1..=SENDERS)
            .map(|s| {
                let f = Arc::clone(&fabric);
                std::thread::spawn(move || {
                    for seq in 0..PER_PAIR {
                        for d in 0..ENDPOINTS {
                            let frame = [(100 + s).to_le_bytes(), seq.to_le_bytes()].concat();
                            loop {
                                match f.send_copied(EndpointId(100 + s), EndpointId(d), &frame) {
                                    Ok(()) => break,
                                    Err(SendError::Full) => std::thread::yield_now(),
                                    Err(e) => panic!("unexpected send error: {e}"),
                                }
                            }
                        }
                    }
                })
            })
            .collect();
        for p in producers {
            p.join().unwrap();
        }

        for rx in &rxs {
            let mut next_seq = vec![0u32; SENDERS as usize + 1];
            for _ in 0..SENDERS * PER_PAIR {
                let msg = rx
                    .recv_timeout(Duration::from_secs(10))
                    .expect("every accepted post is delivered");
                let bytes = msg.payload.bytes();
                let s = u32::from_le_bytes(bytes[0..4].try_into().unwrap()) - 100;
                let seq = u32::from_le_bytes(bytes[4..8].try_into().unwrap());
                assert_eq!(
                    seq, next_seq[s as usize],
                    "per-(sender, endpoint) FIFO order under 4 shards"
                );
                next_seq[s as usize] = seq + 1;
            }
            assert!(rx.try_recv().is_err(), "no duplicated descriptors");
        }
        assert_eq!(
            fabric.messages(),
            (SENDERS * ENDPOINTS * PER_PAIR) as u64,
            "lossless across shards"
        );
        flusher.stop();
    }

    #[test]
    fn export_metrics_snapshot() {
        let fabric = RingFabric::new(cfg(16, 64, 1));
        let rx = fabric.register(EndpointId(1)).unwrap();
        for _ in 0..4 {
            fabric
                .send_copied(EndpointId(0), EndpointId(1), &[0u8; 32])
                .unwrap();
        }
        fabric.flush_at(SimTime::ZERO);
        drop(rx);
        let mut reg = MetricsRegistry::new();
        fabric.export_metrics(&mut reg, "ring");
        assert_eq!(reg.counter("ring.posted"), Some(4));
        assert_eq!(reg.counter("ring.messages"), Some(4));
        assert_eq!(reg.counter("ring.copied_bytes"), Some(128));
        assert_eq!(reg.counter("ring.flushed_batches"), Some(2));
        assert!(reg.gauge("ring.mean_batch_size").unwrap() > 1.0);
    }
}
