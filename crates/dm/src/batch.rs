//! Synchronous doorbell batches: a thin wrapper that builds a
//! [`RingMode::WaitAll`] or [`RingMode::Sequential`] [`WorkQueue`].
//!
//! The data path of this crate is one posted-work path with three ring
//! modes (see [`crate::wqe`]).  [`BatchBuilder`] queues up to
//! [`MAX_BATCH`] verbs into a work queue and then
//!
//! * [`BatchBuilder::execute`] rings it in [`RingMode::WaitAll`]: post all,
//!   ring once, wait for all — `fanout × doorbell_latency_ns + n ×
//!   verb_issue_ns + max(per-verb transfer latency)` charged in one step,
//!   where `fanout` is the number of **distinct memory nodes** touched (one
//!   doorbell per node; the transfers overlap across the NICs);
//! * [`BatchBuilder::execute_sequential`] rings it in
//!   [`RingMode::Sequential`]: one signalled round trip at a time, charging
//!   the sum — the ablation that quantifies what batching buys.
//!
//! Either way every verb still consumes one RNIC message on the target
//! memory node: doorbell batching saves *latency*, not message rate.
//!
//! Unlike the auto-ringing [`WorkQueue`], a full batch reports a typed
//! [`DmError::BatchFull`] from its queueing methods, letting callers flush
//! and continue instead of aborting.

use crate::addr::RemoteAddr;
use crate::client::DmClient;
use crate::error::{DmError, DmResult};
use crate::wqe::{Outcome, RingMode, WorkQueue, MAX_WQES};

/// Maximum verbs per doorbell batch (same bound as [`MAX_WQES`]).
pub const MAX_BATCH: usize = MAX_WQES;

/// A doorbell batch of independent verbs (see the module docs).
///
/// Obtained from [`DmClient::batch`]; dropped without executing, it issues
/// nothing.
pub struct BatchBuilder<'client, 'buf>(WorkQueue<'client, 'buf>);

impl<'client, 'buf> BatchBuilder<'client, 'buf> {
    pub(crate) fn new(client: &'client DmClient) -> Self {
        BatchBuilder(WorkQueue::new(client, RingMode::WaitAll))
    }

    /// The queue, or [`DmError::BatchFull`] when it already holds
    /// [`MAX_BATCH`] verbs.
    fn room(&mut self) -> DmResult<&mut WorkQueue<'client, 'buf>> {
        if self.0.len() >= MAX_BATCH {
            return Err(DmError::BatchFull { max: MAX_BATCH });
        }
        Ok(&mut self.0)
    }

    /// Number of verbs queued so far.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether the batch is empty.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Queues a one-sided `RDMA_READ` of `buf.len()` bytes into `buf`.
    ///
    /// # Errors
    ///
    /// Returns [`DmError::BatchFull`] when the batch already holds
    /// [`MAX_BATCH`] verbs; execute what is queued and start a new batch.
    pub fn read_into(&mut self, addr: RemoteAddr, buf: &'buf mut [u8]) -> DmResult<&mut Self> {
        self.room()?.post_read(addr, buf, true);
        Ok(self)
    }

    /// Queues a one-sided `RDMA_WRITE` of `data`.
    ///
    /// # Errors
    ///
    /// Returns [`DmError::BatchFull`] when the batch is full.
    pub fn write(&mut self, addr: RemoteAddr, data: &'buf [u8]) -> DmResult<&mut Self> {
        self.room()?.post_write(addr, data, true);
        Ok(self)
    }

    /// Queues an `RDMA_FAA` of `delta` (the old value is discarded; use
    /// [`DmClient::faa`] when the result matters).
    ///
    /// # Errors
    ///
    /// Returns [`DmError::BatchFull`] when the batch is full.
    pub fn faa(&mut self, addr: RemoteAddr, delta: u64) -> DmResult<&mut Self> {
        self.room()?.post_faa(addr, delta, true);
        Ok(self)
    }

    /// Number of distinct memory nodes this batch fans out to (one doorbell
    /// is charged per distinct node).
    pub fn fanout(&self) -> usize {
        self.0.nodes().1
    }

    fn transfers(&self) -> impl Iterator<Item = u64> + '_ {
        let cfg = self.0.client().config();
        self.0.ops().map(|op| op.transfer_ns(cfg))
    }

    /// Latency this batch will charge when executed as one doorbell batch.
    pub fn batched_latency_ns(&self) -> u64 {
        let max_transfer = self.transfers().max().unwrap_or(0);
        self.0
            .client()
            .config()
            .fanout_batch_latency_ns(self.len(), self.fanout(), max_transfer)
    }

    /// Latency this batch will charge when executed verb-by-verb.
    pub fn sequential_latency_ns(&self) -> u64 {
        self.transfers().sum()
    }

    /// Rings the batch in `mode`; returns the latency charged, or the
    /// **first** fault in posting order after the whole batch has been
    /// charged and the healthy members have executed (independent verbs,
    /// independent fates).
    fn run(mut self, mode: RingMode) -> DmResult<u64> {
        self.0.set_mode(mode);
        let mut rung = [Outcome::default(); MAX_WQES];
        let charged = self.0.ring_into(&mut rung);
        rung.iter().try_for_each(|o| o.status.check())?;
        Ok(charged)
    }

    /// Executes the batch as one doorbell batch, surfacing injected faults
    /// ([`RingMode::WaitAll`]): a timed-out member additionally stretches
    /// the batch by the retransmission window, and faulted members do not
    /// execute while the remaining members still do.
    pub fn try_execute(self) -> DmResult<u64> {
        self.run(RingMode::WaitAll)
    }

    /// Executes the same verbs one signalled round trip at a time
    /// ([`RingMode::Sequential`]), surfacing injected faults: every member
    /// is issued, and the first fault in issue order is returned at the end.
    pub fn try_execute_sequential(self) -> DmResult<u64> {
        self.run(RingMode::Sequential)
    }

    /// Executes the batch as one doorbell batch (see
    /// [`BatchBuilder::try_execute`]).  Returns the latency charged.
    ///
    /// # Panics
    ///
    /// Panics if a fault is injected into any member — fault-aware callers
    /// use [`BatchBuilder::try_execute`].
    pub fn execute(self) -> u64 {
        self.try_execute()
            .unwrap_or_else(|e| panic!("doorbell batch failed: {e}"))
    }

    /// Executes the same verbs one signalled round trip at a time (see
    /// [`BatchBuilder::try_execute_sequential`]).
    ///
    /// # Panics
    ///
    /// Panics if a fault is injected into any member.
    pub fn execute_sequential(self) -> u64 {
        self.try_execute_sequential()
            .unwrap_or_else(|e| panic!("sequential batch failed: {e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DmConfig;
    use crate::pool::MemoryPool;

    fn pool() -> MemoryPool {
        MemoryPool::new(DmConfig::small())
    }

    #[test]
    fn empty_batch_is_free() {
        let pool = pool();
        let client = pool.connect();
        let charged = client.batch().execute();
        assert_eq!(charged, 0);
        assert_eq!(client.now_ns(), 0);
        assert_eq!(pool.stats().doorbells(), 0);
    }

    #[test]
    fn batched_reads_charge_doorbell_plus_max() {
        let pool = pool();
        let client = pool.connect();
        let a = pool.reserve(4096).unwrap();
        client.write(a, &[7u8; 4096]);
        let t0 = client.now_ns();
        let cfg = client.config().clone();

        let mut small = [0u8; 64];
        let mut large = [0u8; 4096];
        let mut batch = client.batch();
        batch.read_into(a, &mut small).unwrap();
        batch.read_into(a, &mut large).unwrap();
        let charged = batch.execute();

        let expected = cfg.doorbell_latency_ns
            + 2 * cfg.verb_issue_ns
            + cfg.transfer_latency_ns(cfg.read_latency_ns, 4096);
        assert_eq!(charged, expected);
        assert_eq!(client.now_ns() - t0, expected);
        assert_eq!(small, [7u8; 64]);
        assert_eq!(&large[..], &[7u8; 4096][..]);
        // Both verbs still consumed RNIC messages; one doorbell was rung.
        assert_eq!(pool.stats().doorbells(), 1);
        assert_eq!(pool.stats().batched_verbs(), 2);
        assert_eq!(pool.stats().largest_batch(), 2);
        assert_eq!(pool.stats().node_snapshots()[0].reads, 2);
        // A synchronous batch signals only its last WQE.
        assert_eq!(pool.stats().signalled_wqes(), 1);
        assert_eq!(pool.stats().unsignalled_wqes(), 1);
    }

    #[test]
    fn sequential_execution_charges_the_sum() {
        let pool = pool();
        let client = pool.connect();
        let a = pool.reserve(256).unwrap();
        let cfg = client.config().clone();

        let mut b1 = [0u8; 64];
        let mut b2 = [0u8; 64];
        let mut batch = client.batch();
        batch.read_into(a, &mut b1).unwrap();
        batch.read_into(a.add(64), &mut b2).unwrap();
        let charged = batch.execute_sequential();

        assert_eq!(
            charged,
            2 * cfg.transfer_latency_ns(cfg.read_latency_ns, 64)
        );
        assert_eq!(
            pool.stats().doorbells(),
            0,
            "sequential mode rings no doorbell"
        );
        assert_eq!(pool.stats().node_snapshots()[0].reads, 2);
    }

    #[test]
    fn batch_is_cheaper_than_sequential_for_independent_verbs() {
        let pool = pool();
        let client = pool.connect();
        let a = pool.reserve(1024).unwrap();
        let mut bufs = [[0u8; 64]; 5];
        let mut batch = client.batch();
        for (i, buf) in bufs.iter_mut().enumerate() {
            batch.read_into(a.add(i as u64 * 64), buf).unwrap();
        }
        let batched = batch.batched_latency_ns();
        let sequential = batch.sequential_latency_ns();
        assert!(
            batched * 2 < sequential,
            "5-verb batch should be >2x cheaper: {batched} vs {sequential}"
        );
        batch.execute();
    }

    #[test]
    fn mixed_batch_performs_writes_and_faa() {
        let pool = pool();
        let client = pool.connect();
        let obj = pool.reserve(128).unwrap();
        let counter = pool.reserve(8).unwrap();
        let mut readback = [0u8; 8];
        client.write(counter, &0u64.to_le_bytes());

        let mut batch = client.batch();
        batch
            .write(obj, b"payload!")
            .unwrap()
            .faa(counter, 5)
            .unwrap()
            .read_into(obj.add(64), &mut readback)
            .unwrap();
        let n = batch.len();
        assert_eq!(n, 3);
        batch.execute();

        assert_eq!(client.read(obj, 8), b"payload!");
        assert_eq!(client.read_u64(counter), 5);
        let snap = &pool.stats().node_snapshots()[0];
        assert_eq!(snap.writes, 2); // setup write + batched write
        assert_eq!(snap.faa, 1);
    }

    #[test]
    fn multi_node_batch_charges_one_doorbell_per_node() {
        let pool = MemoryPool::new(DmConfig::small().with_memory_nodes(2));
        let client = pool.connect();
        let a = pool.reserve_on(0, 64).unwrap();
        let b = pool.reserve_on(1, 64).unwrap();
        let cfg = client.config().clone();
        let (mut x, mut y) = ([0u8; 64], [0u8; 64]);
        let mut batch = client.batch();
        batch.read_into(a, &mut x).unwrap();
        batch.read_into(b, &mut y).unwrap();
        batch.read_into(a.add(0), &mut []).unwrap();
        assert_eq!(batch.len(), 3);
        assert_eq!(batch.fanout(), 2, "three verbs over two distinct nodes");
        let charged = batch.execute();
        let expected = 2 * cfg.doorbell_latency_ns
            + 3 * cfg.verb_issue_ns
            + cfg.transfer_latency_ns(cfg.read_latency_ns, 64);
        assert_eq!(charged, expected);
        // One doorbell was rung at each node's RNIC.
        assert_eq!(pool.stats().doorbells(), 2);
        assert_eq!(pool.stats().largest_fanout(), 2);
        let snaps = pool.stats().node_snapshots();
        assert_eq!(snaps[0].doorbells, 1);
        assert_eq!(snaps[1].doorbells, 1);
        assert_eq!(snaps[0].reads, 2);
        assert_eq!(snaps[1].reads, 1);
    }

    #[test]
    fn fanout_batch_still_beats_sequential_round_trips() {
        let pool = MemoryPool::new(DmConfig::small().with_memory_nodes(4));
        let client = pool.connect();
        let addrs: Vec<_> = (0..4u16)
            .map(|mn| pool.reserve_on(mn, 64).unwrap())
            .collect();
        let mut bufs = [[0u8; 64]; 4];
        let mut batch = client.batch();
        for (buf, addr) in bufs.iter_mut().zip(&addrs) {
            batch.read_into(*addr, buf).unwrap();
        }
        assert_eq!(batch.fanout(), 4);
        let batched = batch.batched_latency_ns();
        let sequential = batch.sequential_latency_ns();
        assert!(
            batched * 2 < sequential,
            "4-node fan-out should still be >2x cheaper: {batched} vs {sequential}"
        );
        batch.execute();
    }

    #[test]
    fn overflowing_the_batch_yields_a_typed_error() {
        let pool = pool();
        let client = pool.connect();
        let a = pool.reserve(8).unwrap();
        let mut batch = client.batch();
        for _ in 0..MAX_BATCH {
            batch.faa(a, 1).unwrap();
        }
        assert!(matches!(
            batch.faa(a, 1),
            Err(DmError::BatchFull { max: MAX_BATCH })
        ));
        // The batch is still intact and executable after the rejection.
        assert_eq!(batch.len(), MAX_BATCH);
        batch.execute();
        assert_eq!(client.read_u64(a), MAX_BATCH as u64);
    }

    #[test]
    fn faulted_batch_members_surface_without_executing() {
        use crate::fault::FaultPlan;
        // Every verb fails: the batch charges its full latency, consumes its
        // messages, executes nothing, and surfaces a typed error.
        let cfg = DmConfig::small()
            .with_fault_plan(FaultPlan::seeded(7).with_verb_fail_ppm(crate::fault::PPM as u32));
        let pool = MemoryPool::new(cfg);
        let client = pool.connect();
        let a = pool.reserve(16).unwrap();

        let mut batch = client.batch();
        batch.faa(a, 1).unwrap();
        batch.faa(a.add(8), 1).unwrap();
        let err = batch.try_execute().unwrap_err();
        assert!(matches!(err, DmError::VerbFailed { mn_id: 0 }));

        // NAK'd verbs never reach the arena, but their requests went on the
        // wire: messages and latency are still charged and the faults are
        // attributed to the node.
        let node = pool.node(0).unwrap();
        assert_eq!(node.read(a.offset, 16).unwrap(), vec![0u8; 16]);
        assert!(client.now_ns() > 0);
        assert_eq!(pool.stats().faults().verb_failures, 2);
        assert_eq!(pool.stats().verb_faults_on(0), 2);
    }

    #[test]
    fn timed_out_batch_stretches_by_the_retransmission_window() {
        use crate::fault::FaultPlan;
        let timeout_ns = 50_000;
        let cfg = DmConfig::small().with_fault_plan(
            FaultPlan::seeded(7).with_verb_timeouts(crate::fault::PPM as u32, timeout_ns),
        );
        let pool = MemoryPool::new(cfg);
        let client = pool.connect();
        let a = pool.reserve(16).unwrap();

        let mut batch = client.batch();
        batch.faa(a, 1).unwrap();
        let clean = batch.batched_latency_ns();
        let err = batch.try_execute().unwrap_err();
        assert!(matches!(err, DmError::VerbTimeout { mn_id: 0 }));
        assert_eq!(client.now_ns(), clean + timeout_ns);
        assert_eq!(pool.stats().faults().verb_timeouts, 1);
    }

    #[test]
    fn fault_free_try_execute_matches_the_infallible_path() {
        let pool = pool();
        let client = pool.connect();
        let a = pool.reserve(16).unwrap();
        let mut batch = client.batch();
        batch.faa(a, 1).unwrap();
        batch.faa(a.add(8), 2).unwrap();
        let expected = batch.batched_latency_ns();
        let charged = batch.try_execute().unwrap();
        assert_eq!(charged, expected);
        assert_eq!(client.read_u64(a), 1);
        assert_eq!(client.read_u64(a.add(8)), 2);
        assert_eq!(pool.stats().faults().faulted_verbs(), 0);
    }
}
