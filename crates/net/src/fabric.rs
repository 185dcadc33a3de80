//! The live in-process fabric: real threads, real bytes.
//!
//! The discrete-event simulator reproduces the *cluster-scale* numbers;
//! this fabric lets the examples and the live runtime actually move data
//! between worker threads on one host, preserving the semantic difference
//! the paper exploits:
//!
//! - the **TCP path** copies serialized bytes into every message (one copy
//!   per destination — the instance-oriented tax), and
//! - the **RDMA path** shares one immutable buffer by reference
//!   (`Arc<[u8]>`), the in-process analogue of zero-copy: `n` destinations
//!   cost one serialization and `n` pointer bumps.
//!
//! Three transports implement the common [`FabricPath`] trait:
//! [`LiveFabric`] (synchronous per-send delivery),
//! [`crate::RingFabric`] (descriptors posted to per-endpoint rings,
//! drained in MMS/WTL batches by a flusher — the paper's stream slicing
//! on the live path) and [`crate::OneSidedFabric`] (frames published
//! into per-link outboxes and fetched by modeled `RDMA READ`s). They
//! differ only in how a frame travels: registration, the delivery
//! counters and the rule that moves them, link attribution and the
//! settling of stranded frames live once, in the crate-private
//! `EndpointTable`.

use crate::topology::LinkTracker;
use crossbeam::channel::{bounded, unbounded, Receiver, Sender, TrySendError};
use parking_lot::{RwLock, RwLockReadGuard};
use std::collections::HashMap;
use std::convert::identity;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// Identifier of a fabric endpoint (a worker process in the live runtime).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct EndpointId(pub u32);

/// Message payload: copied (TCP semantics) or shared (RDMA semantics).
#[derive(Clone, Debug)]
pub enum Payload {
    /// An owned copy of the serialized bytes (each destination pays a copy).
    Copied(Vec<u8>),
    /// A shared reference to one serialized buffer (zero-copy fan-out).
    Shared(Arc<[u8]>),
}

impl Payload {
    /// Access the bytes regardless of representation.
    pub fn bytes(&self) -> &[u8] {
        match self {
            Payload::Copied(v) => v,
            Payload::Shared(a) => a,
        }
    }

    /// Payload length in bytes.
    pub fn len(&self) -> usize {
        self.bytes().len()
    }

    /// True if empty.
    pub fn is_empty(&self) -> bool {
        self.bytes().is_empty()
    }
}

/// A message delivered through the live fabric.
#[derive(Clone, Debug)]
pub struct LiveMessage {
    /// Sending endpoint.
    pub from: EndpointId,
    /// Bytes, copied or shared.
    pub payload: Payload,
}

/// Errors from live sends.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SendError {
    /// Destination endpoint is not registered.
    UnknownEndpoint,
    /// Destination queue is full (bounded endpoint or full ring,
    /// backpressure).
    Full,
    /// Destination was dropped.
    Disconnected,
}

impl std::fmt::Display for SendError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SendError::UnknownEndpoint => write!(f, "destination endpoint is not registered"),
            SendError::Full => write!(f, "destination queue is full"),
            SendError::Disconnected => write!(f, "destination was dropped"),
        }
    }
}

impl std::error::Error for SendError {}

/// Errors from endpoint registration.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RegisterError {
    /// The id already has a live inbox; replacing it would orphan any
    /// queued messages. Call `deregister` first to reuse an id.
    AlreadyRegistered(EndpointId),
}

impl std::fmt::Display for RegisterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RegisterError::AlreadyRegistered(id) => {
                write!(f, "endpoint {} is already registered", id.0)
            }
        }
    }
}

impl std::error::Error for RegisterError {}

/// Common interface of the live transports, so callers can swap the
/// synchronous per-send path, the batched ring path and the remote-fetch
/// path freely. Each keeps its endpoints and counters in an
/// `EndpointTable` (see the module docs), so all of them count by the
/// same rule.
pub trait FabricPath: Send + Sync {
    /// Register an endpoint with an unbounded inbox; returns its receiver.
    fn register(&self, id: EndpointId) -> Result<Receiver<LiveMessage>, RegisterError>;

    /// Register an endpoint with a bounded inbox of `capacity` (models the
    /// destination's transfer queue): a synchronous send into a full inbox
    /// fails with [`SendError::Full`]; buffered transports hold the frame
    /// and retry it in order.
    fn register_bounded(
        &self,
        id: EndpointId,
        capacity: usize,
    ) -> Result<Receiver<LiveMessage>, RegisterError>;

    /// Remove an endpoint; subsequent sends fail, and frames still
    /// buffered for it are settled as send errors.
    fn deregister(&self, id: EndpointId);

    /// Send one frame. Its bytes count toward [`FabricPath::copied_bytes`]
    /// or [`FabricPath::shared_bytes`], by payload, once it reaches the
    /// destination inbox.
    fn send(&self, from: EndpointId, to: EndpointId, payload: Payload) -> Result<(), SendError>;

    /// TCP-semantics send: the bytes are copied into the message.
    fn send_copied(&self, from: EndpointId, to: EndpointId, bytes: &[u8]) -> Result<(), SendError> {
        self.send(from, to, Payload::Copied(bytes.to_vec()))
    }

    /// RDMA-semantics send: the shared buffer is passed by reference.
    fn send_shared(
        &self,
        from: EndpointId,
        to: EndpointId,
        buf: Arc<[u8]>,
    ) -> Result<(), SendError> {
        self.send(from, to, Payload::Shared(buf))
    }

    /// Force out anything the transport has buffered (no-op when the
    /// transport delivers synchronously).
    fn flush(&self);

    /// Messages delivered so far.
    fn messages(&self) -> u64;

    /// Bytes delivered through the TCP (copied) path so far.
    fn copied_bytes(&self) -> u64;

    /// Bytes delivered through the RDMA (shared) path so far.
    fn shared_bytes(&self) -> u64;

    /// Sends that failed (unknown endpoint, backpressure, or a dropped
    /// receiver). Failed sends never count toward the byte totals.
    fn send_errors(&self) -> u64;

    /// Batches flushed so far (0 for unbatched transports).
    fn flushed_batches(&self) -> u64 {
        0
    }

    /// Messages delivered through flushed batches (0 for unbatched
    /// transports).
    fn flushed_items(&self) -> u64 {
        0
    }

    /// Frames accepted but not yet delivered to (or drained from) a
    /// destination inbox — the transfer-queue length of the paper's M/D/1
    /// model, sampled live by the adaptive multicast controller. Every
    /// transport must report a real estimate; a silent 0 here starves the
    /// controller's λ-pressure signal and understates d*.
    fn queue_depth(&self) -> u64;

    /// Registered endpoint count.
    fn endpoint_count(&self) -> usize;

    /// Install a [`LinkTracker`] so sends are attributed to physical
    /// links via the cluster placement map; the first tracker installed
    /// stays. Install on the *outermost* fabric only — a decorator that
    /// both tracked itself and delegated to a tracked inner transport
    /// would double-count every frame.
    fn install_link_tracker(&self, tracker: Arc<LinkTracker>);

    /// Export delivery counters into `reg` under `prefix.*`.
    fn export_metrics(&self, reg: &mut whale_sim::MetricsRegistry, prefix: &str);
}

/// The bookkeeping every live transport shares, written once: the
/// endpoint registry, the delivery counters and the rule that moves
/// them, per-link attribution, and the settling of frames a
/// deregistration strands. `E` is the transport's per-endpoint state
/// (the inbox sender itself, or a ring around it); each transport adds
/// only how a frame travels — post, publish, pump or fetch.
///
/// **The counting rule.** A frame counts toward `messages` and toward
/// `copied_bytes` or `shared_bytes` (by payload) only once it is in the
/// destination inbox. [`EndpointTable::deliver`] bumps the counters
/// *before* the hand-off — the channel's send→recv synchronization then
/// guarantees that a receiver which has seen a message also sees it
/// counted — and undoes them when the hand-off fails. A send that fails,
/// whether rejected up front or accepted and dropped later, counts only
/// as one `send_error`.
///
/// **Link attribution.** With a [`LinkTracker`] installed, a frame the
/// transport accepts raises its link's queue gauge
/// ([`EndpointTable::accept`]); delivery settles the gauge and counts
/// the bytes; a drop ([`EndpointTable::settle`]) only settles the gauge.
pub(crate) struct EndpointTable<E> {
    endpoints: RwLock<HashMap<EndpointId, E>>,
    messages: AtomicU64,
    copied_bytes: AtomicU64,
    shared_bytes: AtomicU64,
    send_errors: AtomicU64,
    tracker: OnceLock<Arc<LinkTracker>>,
}

/// Outcome of one inbox hand-off ([`EndpointTable::deliver`]).
pub(crate) enum Handoff {
    /// In the inbox and counted.
    Delivered,
    /// The bounded inbox is full: nothing counted, and the frame comes
    /// back for the transport to retry or to fail.
    Full(LiveMessage),
    /// The receiver is gone: the frame was settled as a send error.
    Dropped,
}

impl<E> EndpointTable<E> {
    pub(crate) fn new() -> Self {
        EndpointTable {
            endpoints: RwLock::new(HashMap::new()),
            messages: AtomicU64::new(0),
            copied_bytes: AtomicU64::new(0),
            shared_bytes: AtomicU64::new(0),
            send_errors: AtomicU64::new(0),
            tracker: OnceLock::new(),
        }
    }

    /// Register `id` with an unbounded (`capacity: None`) or bounded
    /// inbox; `entry` wraps the inbox sender into the transport's
    /// endpoint state. An id that is still registered is rejected, so a
    /// live inbox and whatever is queued for it are never orphaned.
    pub(crate) fn register(
        &self,
        id: EndpointId,
        capacity: Option<usize>,
        entry: impl FnOnce(Sender<LiveMessage>) -> E,
    ) -> Result<Receiver<LiveMessage>, RegisterError> {
        let mut map = self.endpoints.write();
        if map.contains_key(&id) {
            return Err(RegisterError::AlreadyRegistered(id));
        }
        let (tx, rx) = match capacity {
            Some(capacity) => bounded(capacity),
            None => unbounded(),
        };
        map.insert(id, entry(tx));
        Ok(rx)
    }

    /// Remove `id` and hand its state to `settle` under the registry's
    /// write lock, so no send can slip a frame past the settle and a
    /// re-registration of `id` waits until it is done.
    pub(crate) fn deregister(&self, id: EndpointId, settle: impl FnOnce(E)) {
        let mut map = self.endpoints.write();
        if let Some(entry) = map.remove(&id) {
            settle(entry);
        }
    }

    /// The registered endpoints, read-locked.
    pub(crate) fn endpoints(&self) -> RwLockReadGuard<'_, HashMap<EndpointId, E>> {
        self.endpoints.read()
    }

    /// Run `post` against `to`'s endpoint under the registry's read
    /// guard, so a concurrent deregistration either settles what `post`
    /// queued or rejects the send. An unknown endpoint counts one send
    /// error; `post` counts its own rejections through
    /// [`EndpointTable::fail`].
    pub(crate) fn post<R>(
        &self,
        to: EndpointId,
        post: impl FnOnce(&E) -> Result<R, SendError>,
    ) -> Result<R, SendError> {
        match self.endpoints.read().get(&to) {
            Some(entry) => post(entry),
            None => Err(self.fail(SendError::UnknownEndpoint)),
        }
    }

    /// Count one failed send and pass its error on.
    pub(crate) fn fail(&self, e: SendError) -> SendError {
        self.send_errors.fetch_add(1, Ordering::Relaxed);
        e
    }

    /// The transport accepted a `bytes`-byte frame on `from → to`: it
    /// occupies its link's queue until delivered or settled.
    pub(crate) fn accept(&self, from: EndpointId, to: EndpointId, bytes: usize) {
        if let Some(tracker) = self.tracker.get() {
            tracker.on_send(from, to, bytes);
        }
    }

    /// Hand an accepted frame to `to`'s inbox under the counting rule.
    pub(crate) fn deliver(
        &self,
        inbox: &Sender<LiveMessage>,
        to: EndpointId,
        msg: LiveMessage,
    ) -> Handoff {
        let (from, len) = (msg.from, msg.payload.len());
        let bytes = match msg.payload {
            Payload::Copied(_) => &self.copied_bytes,
            Payload::Shared(_) => &self.shared_bytes,
        };
        self.messages.fetch_add(1, Ordering::Relaxed);
        bytes.fetch_add(len as u64, Ordering::Relaxed);
        let err = match inbox.try_send(msg) {
            Ok(()) => {
                if let Some(tracker) = self.tracker.get() {
                    tracker.on_delivered(from, to, len);
                }
                return Handoff::Delivered;
            }
            Err(err) => err,
        };
        self.messages.fetch_sub(1, Ordering::Relaxed);
        bytes.fetch_sub(len as u64, Ordering::Relaxed);
        match err {
            TrySendError::Full(msg) => Handoff::Full(msg),
            TrySendError::Disconnected(msg) => {
                self.settle(to, [msg]);
                Handoff::Dropped
            }
        }
    }

    /// Accept and deliver a frame in one step (synchronous delivery): a
    /// full inbox fails the send instead of holding the frame.
    pub(crate) fn deliver_now(
        &self,
        inbox: &Sender<LiveMessage>,
        to: EndpointId,
        msg: LiveMessage,
    ) -> Result<(), SendError> {
        self.accept(msg.from, to, msg.payload.len());
        match self.deliver(inbox, to, msg) {
            Handoff::Delivered => Ok(()),
            Handoff::Full(msg) => {
                self.settle(to, [msg]);
                Err(SendError::Full)
            }
            Handoff::Dropped => Err(SendError::Disconnected),
        }
    }

    /// Settle accepted frames for `to` that will never arrive (a dead
    /// receiver, a deregistered destination): each counts one send error
    /// and leaves its link's queue.
    pub(crate) fn settle(&self, to: EndpointId, stranded: impl IntoIterator<Item = LiveMessage>) {
        for msg in stranded {
            self.send_errors.fetch_add(1, Ordering::Relaxed);
            if let Some(tracker) = self.tracker.get() {
                tracker.on_dropped(msg.from, to, msg.payload.len());
            }
        }
    }

    /// Attribute frames to physical links through `tracker` from now on;
    /// the first tracker installed stays.
    pub(crate) fn install_link_tracker(&self, tracker: Arc<LinkTracker>) {
        let _ = self.tracker.set(tracker);
    }

    /// Messages delivered so far.
    pub(crate) fn messages(&self) -> u64 {
        self.messages.load(Ordering::Relaxed)
    }

    /// Bytes delivered through the copied (TCP) path so far.
    pub(crate) fn copied_bytes(&self) -> u64 {
        self.copied_bytes.load(Ordering::Relaxed)
    }

    /// Bytes delivered through the shared (RDMA) path so far.
    pub(crate) fn shared_bytes(&self) -> u64 {
        self.shared_bytes.load(Ordering::Relaxed)
    }

    /// Failed sends so far.
    pub(crate) fn send_errors(&self) -> u64 {
        self.send_errors.load(Ordering::Relaxed)
    }

    /// Registered endpoint count.
    pub(crate) fn len(&self) -> usize {
        self.endpoints.read().len()
    }

    /// Export the shared counters (`messages`, `copied_bytes`,
    /// `shared_bytes`, `send_errors`) and the `endpoints` gauge into
    /// `reg` under `prefix.*`.
    pub(crate) fn export_metrics(&self, reg: &mut whale_sim::MetricsRegistry, prefix: &str) {
        reg.set_counter(&format!("{prefix}.messages"), self.messages());
        reg.set_counter(&format!("{prefix}.copied_bytes"), self.copied_bytes());
        reg.set_counter(&format!("{prefix}.shared_bytes"), self.shared_bytes());
        reg.set_counter(&format!("{prefix}.send_errors"), self.send_errors());
        reg.set_gauge(&format!("{prefix}.endpoints"), self.len() as f64);
    }
}

/// An in-process message fabric connecting registered endpoints, with
/// synchronous per-send delivery: a send hands its frame straight to the
/// destination inbox.
pub struct LiveFabric {
    table: EndpointTable<Sender<LiveMessage>>,
}

impl Default for LiveFabric {
    fn default() -> Self {
        Self::new()
    }
}

impl LiveFabric {
    /// New fabric with no endpoints.
    pub fn new() -> Self {
        LiveFabric {
            table: EndpointTable::new(),
        }
    }
}

impl FabricPath for LiveFabric {
    fn register(&self, id: EndpointId) -> Result<Receiver<LiveMessage>, RegisterError> {
        self.table.register(id, None, identity)
    }

    fn register_bounded(
        &self,
        id: EndpointId,
        capacity: usize,
    ) -> Result<Receiver<LiveMessage>, RegisterError> {
        self.table.register(id, Some(capacity), identity)
    }

    fn deregister(&self, id: EndpointId) {
        self.table.deregister(id, drop);
    }

    fn send(&self, from: EndpointId, to: EndpointId, payload: Payload) -> Result<(), SendError> {
        let msg = LiveMessage { from, payload };
        self.table
            .post(to, |inbox| self.table.deliver_now(inbox, to, msg))
    }

    fn flush(&self) {}

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

    /// Messages accepted into endpoint inboxes but not yet received by
    /// their workers. The per-send path delivers synchronously into the
    /// destination channel, so the channel lengths *are* the transfer
    /// queue the adaptive controller samples.
    fn queue_depth(&self) -> u64 {
        self.table
            .endpoints()
            .values()
            .map(|tx| tx.len() as u64)
            .sum()
    }

    fn endpoint_count(&self) -> usize {
        self.table.len()
    }

    fn install_link_tracker(&self, tracker: Arc<LinkTracker>) {
        self.table.install_link_tracker(tracker);
    }

    fn export_metrics(&self, reg: &mut whale_sim::MetricsRegistry, prefix: &str) {
        self.table.export_metrics(reg, prefix);
        reg.set_gauge(&format!("{prefix}.queue_depth"), self.queue_depth() as f64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn copied_send_roundtrip() {
        let fabric = LiveFabric::new();
        let rx = fabric.register(EndpointId(1)).unwrap();
        fabric
            .send_copied(EndpointId(0), EndpointId(1), b"hello")
            .unwrap();
        let msg = rx.recv().unwrap();
        assert_eq!(msg.from, EndpointId(0));
        assert_eq!(msg.payload.bytes(), b"hello");
        assert_eq!(fabric.copied_bytes(), 5);
    }

    #[test]
    fn shared_send_is_zero_copy() {
        let fabric = LiveFabric::new();
        let rx1 = fabric.register(EndpointId(1)).unwrap();
        let rx2 = fabric.register(EndpointId(2)).unwrap();
        let buf: Arc<[u8]> = Arc::from(&b"payload"[..]);
        fabric
            .send_shared(EndpointId(0), EndpointId(1), buf.clone())
            .unwrap();
        fabric
            .send_shared(EndpointId(0), EndpointId(2), buf.clone())
            .unwrap();
        let m1 = rx1.recv().unwrap();
        let m2 = rx2.recv().unwrap();
        // Both receivers observe the same physical buffer.
        match (&m1.payload, &m2.payload) {
            (Payload::Shared(a), Payload::Shared(b)) => {
                assert!(Arc::ptr_eq(a, b));
            }
            _ => panic!("expected shared payloads"),
        }
        assert_eq!(fabric.messages(), 2);
    }

    #[test]
    fn unknown_endpoint_errors() {
        let fabric = LiveFabric::new();
        let err = fabric
            .send_copied(EndpointId(0), EndpointId(9), b"x")
            .unwrap_err();
        assert_eq!(err, SendError::UnknownEndpoint);
    }

    #[test]
    fn bounded_endpoint_backpressures() {
        let fabric = LiveFabric::new();
        let _rx = fabric.register_bounded(EndpointId(1), 2).unwrap();
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
    }

    #[test]
    fn deregister_disconnects() {
        let fabric = LiveFabric::new();
        let _rx = fabric.register(EndpointId(1)).unwrap();
        fabric.deregister(EndpointId(1));
        let err = fabric
            .send_copied(EndpointId(0), EndpointId(1), b"x")
            .unwrap_err();
        assert_eq!(err, SendError::UnknownEndpoint);
        assert_eq!(fabric.endpoint_count(), 0);
    }

    #[test]
    fn dropped_receiver_reports_disconnected() {
        let fabric = LiveFabric::new();
        let rx = fabric.register(EndpointId(1)).unwrap();
        drop(rx);
        let err = fabric
            .send_copied(EndpointId(0), EndpointId(1), b"x")
            .unwrap_err();
        assert_eq!(err, SendError::Disconnected);
    }

    #[test]
    fn failed_sends_do_not_count_bytes() {
        let fabric = LiveFabric::new();

        // Unknown endpoint.
        assert!(fabric
            .send_copied(EndpointId(0), EndpointId(9), b"xxxx")
            .is_err());
        let buf: Arc<[u8]> = Arc::from(&b"yyyy"[..]);
        assert!(fabric
            .send_shared(EndpointId(0), EndpointId(9), buf.clone())
            .is_err());

        // Backpressured bounded endpoint.
        let _rx = fabric.register_bounded(EndpointId(1), 1).unwrap();
        fabric
            .send_copied(EndpointId(0), EndpointId(1), b"a")
            .unwrap();
        assert_eq!(
            fabric
                .send_copied(EndpointId(0), EndpointId(1), b"bb")
                .unwrap_err(),
            SendError::Full
        );

        // Dropped receiver.
        let rx2 = fabric.register(EndpointId(2)).unwrap();
        drop(rx2);
        assert_eq!(
            fabric
                .send_shared(EndpointId(0), EndpointId(2), buf)
                .unwrap_err(),
            SendError::Disconnected
        );

        // Only the one successful 1-byte copied send counted.
        assert_eq!(fabric.copied_bytes(), 1);
        assert_eq!(fabric.shared_bytes(), 0);
        assert_eq!(fabric.messages(), 1);
        assert_eq!(fabric.send_errors(), 4);
    }

    #[test]
    fn reregister_errors_and_preserves_original_inbox() {
        let fabric = LiveFabric::new();
        let rx = fabric.register(EndpointId(1)).unwrap();
        fabric
            .send_copied(EndpointId(0), EndpointId(1), b"queued")
            .unwrap();

        // Re-registration must not displace the live inbox.
        assert_eq!(
            fabric.register(EndpointId(1)).unwrap_err(),
            RegisterError::AlreadyRegistered(EndpointId(1))
        );
        assert_eq!(
            fabric.register_bounded(EndpointId(1), 4).unwrap_err(),
            RegisterError::AlreadyRegistered(EndpointId(1))
        );

        // The queued message is still there and new sends still land.
        fabric
            .send_copied(EndpointId(0), EndpointId(1), b"after")
            .unwrap();
        assert_eq!(rx.recv().unwrap().payload.bytes(), b"queued");
        assert_eq!(rx.recv().unwrap().payload.bytes(), b"after");

        // Deregister frees the id for reuse.
        fabric.deregister(EndpointId(1));
        let _rx2 = fabric.register(EndpointId(1)).unwrap();
    }

    #[test]
    fn queue_depth_tracks_undrained_inboxes() {
        let fabric = LiveFabric::new();
        let rx1 = fabric.register(EndpointId(1)).unwrap();
        let _rx2 = fabric.register(EndpointId(2)).unwrap();
        assert_eq!(FabricPath::queue_depth(&fabric), 0);
        fabric
            .send_copied(EndpointId(0), EndpointId(1), b"a")
            .unwrap();
        fabric
            .send_copied(EndpointId(0), EndpointId(1), b"b")
            .unwrap();
        fabric
            .send_copied(EndpointId(0), EndpointId(2), b"c")
            .unwrap();
        assert_eq!(FabricPath::queue_depth(&fabric), 3);
        rx1.recv().unwrap();
        assert_eq!(FabricPath::queue_depth(&fabric), 2);
        rx1.recv().unwrap();
        assert_eq!(FabricPath::queue_depth(&fabric), 1);
    }

    #[test]
    fn export_metrics_includes_send_errors() {
        let fabric = LiveFabric::new();
        let _ = fabric.send_copied(EndpointId(0), EndpointId(9), b"x");
        let mut reg = whale_sim::MetricsRegistry::new();
        fabric.export_metrics(&mut reg, "fabric");
        assert_eq!(reg.counter("fabric.send_errors"), Some(1));
        assert_eq!(reg.counter("fabric.messages"), Some(0));
    }

    #[test]
    fn link_tracker_attributes_per_send_traffic() {
        use crate::topology::{ClusterSpec, MachineId};
        let fabric = LiveFabric::new();
        let tracker = Arc::new(LinkTracker::new(ClusterSpec::with_rack_map(
            4,
            2,
            1,
            vec![0, 0, 1, 1],
        )));
        for m in 0..4u32 {
            tracker.map_endpoint(EndpointId(m), MachineId(m));
        }
        FabricPath::install_link_tracker(&fabric, tracker.clone());
        let _rx1 = fabric.register(EndpointId(1)).unwrap();
        let _rx2 = fabric.register(EndpointId(2)).unwrap();
        fabric
            .send_copied(EndpointId(0), EndpointId(1), b"aaaa") // intra r0
            .unwrap();
        fabric
            .send_copied(EndpointId(0), EndpointId(2), b"bbbbbb") // uplink r0
            .unwrap();
        // Failed sends never reach a link.
        let _ = fabric.send_copied(EndpointId(0), EndpointId(9), b"cc");
        assert_eq!(tracker.total_bytes(), 10);
        assert_eq!(tracker.uplink_bytes(), 6);
        assert_eq!(tracker.total_bytes(), fabric.copied_bytes());
    }

    #[test]
    fn cross_thread_delivery() {
        let fabric = Arc::new(LiveFabric::new());
        let rx = fabric.register(EndpointId(1)).unwrap();
        let f2 = fabric.clone();
        let handle = std::thread::spawn(move || {
            for i in 0..100u8 {
                f2.send_copied(EndpointId(0), EndpointId(1), &[i]).unwrap();
            }
        });
        handle.join().unwrap();
        let got: Vec<u8> = (0..100)
            .map(|_| rx.recv().unwrap().payload.bytes()[0])
            .collect();
        assert_eq!(got, (0..100).collect::<Vec<u8>>());
    }
}
