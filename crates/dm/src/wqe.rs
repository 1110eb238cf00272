//! Posted work-queue entries (WQEs): the RNIC send-queue model, and the one
//! data path every client round runs on.
//!
//! Real RDMA clients do not "execute a batch and wait": they **post**
//! work-queue entries to a send queue, ring the doorbell once, and get on
//! with useful CPU work while the NIC carries the verbs out.  Each WQE is
//! posted either *signalled* — its completion will surface as a CQE on the
//! client's [`crate::cq::CompletionQueue`] — or *unsignalled* — fire and
//! forget, no completion is generated and the client never waits for it.
//! Sherman, FUSEE and Ditto (§4.2) all lean on this discipline to hide
//! dependent round trips on disaggregated memory.
//!
//! [`WorkQueue`] is the simulator's send queue.  [`WorkQueue::post_read`] /
//! [`post_write`](WorkQueue::post_write) / [`post_faa`](WorkQueue::post_faa)
//! / [`post_cas`](WorkQueue::post_cas) queue up to [`MAX_WQES`] verbs
//! without heap allocation (the queue is an inline array), and
//! [`WorkQueue::ring`] hands them to the simulated NIC.  There is **one
//! path and three ring modes**; the mode decides only how the round is
//! charged and how its outcomes are learned:
//!
//! * [`RingMode::Pipelined`] (the default) charges the **posting cost**
//!   `fanout × doorbell_latency_ns + n × verb_issue_ns` immediately (one
//!   doorbell per distinct target node) and assigns every WQE a
//!   **completion time**: the ring-end clock plus the per-node *prefix
//!   maximum* of transfer latencies — WQEs on one node travel over one
//!   queue pair and complete **in order**, so a small verb posted after a
//!   large one completes no earlier than the large one.  A completion entry
//!   is pushed for every *signalled* WQE; its latency is only charged when
//!   the client later **polls** it, as *time since post* — CPU work done
//!   between `ring` and `poll_cq` genuinely overlaps the in-flight
//!   transfers.
//! * [`RingMode::WaitAll`] is the synchronous doorbell batch: one charge of
//!   `fanout × doorbell + n × issue + max(transfer)` (stretched by the
//!   retransmission window when a member timed out), only the last WQE
//!   signalled, and nothing left to poll.
//! * [`RingMode::Sequential`] issues the WQEs as one signalled round trip
//!   each and charges the sum, with no doorbell accounting — the ablation
//!   that quantifies what doorbell batching buys.
//!
//! In every mode the verbs execute against the arena at ring time
//! (simulation state), the fault injector is consulted per WQE, and each
//! WQE's own status is recorded.  [`WorkQueue::submit`] rings and returns
//! the [`Round`], whose [`Round::wait`] returns one WQE's status — polling
//! the completion queue in the pipelined mode, for free in the synchronous
//! ones — and whose iterator yields the WQEs in arrival order.  A round of
//! one WQE is submitted as the plain verb, so a one-verb round costs
//! exactly what the matching [`DmClient`] verb costs.
//!
//! Posting to a full queue automatically rings the doorbell for the queued
//! prefix and keeps going, so an oversized posting burst degrades to an
//! extra doorbell instead of failing (a real send queue blocks the poster
//! the same way).
//!
//! Every WQE — signalled or not — still consumes one RNIC message on its
//! target node: pipelining and batching save *latency*, never message rate.

use crate::addr::RemoteAddr;
use crate::client::DmClient;
use crate::config::DmConfig;
use crate::cq::{Completion, CompletionStatus};
use crate::error::{DmError, DmResult};
use crate::obs::Phase;
use crate::stats::VerbKind;

/// Maximum WQEs per posting round (and per doorbell batch).
///
/// Sized for the largest burst the cache issues (an eviction sample of up to
/// 32 slots plus a couple of metadata verbs); a real RNIC send queue is far
/// deeper, but a fixed bound keeps the queue allocation-free.  Posting past
/// the bound auto-rings the doorbell instead of failing.
pub const MAX_WQES: usize = 40;

/// How [`WorkQueue::ring`] charges a round and how its outcomes are learned
/// (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RingMode {
    /// Posting cost now, per-node in-order completions charged when polled.
    #[default]
    Pipelined,
    /// One synchronous doorbell batch: post all, wait for all.
    WaitAll,
    /// One signalled round trip per WQE, charged the sum.
    Sequential,
}

/// The one-sided operation a WQE carries.
pub(crate) enum WqeOp<'buf> {
    /// One-sided `RDMA_READ` into a caller-provided buffer.
    Read {
        addr: RemoteAddr,
        buf: &'buf mut [u8],
    },
    /// One-sided `RDMA_WRITE` of borrowed bytes.
    Write { addr: RemoteAddr, data: &'buf [u8] },
    /// `RDMA_FAA`; the old value is discarded (a fetched result would have
    /// to be awaited and could not ride a pipeline anyway).
    Faa { addr: RemoteAddr, delta: u64 },
    /// `RDMA_CAS`; the observed old value lands in `out` when the verb
    /// executes at ring time (awaiting the completion before reading `out`
    /// is the caller's contract, as for a READ buffer).
    Cas {
        addr: RemoteAddr,
        expected: u64,
        new: u64,
        out: &'buf mut u64,
    },
}

impl WqeOp<'_> {
    pub(crate) fn kind(&self) -> VerbKind {
        match self {
            WqeOp::Read { .. } => VerbKind::Read,
            WqeOp::Write { .. } => VerbKind::Write,
            WqeOp::Faa { .. } => VerbKind::Faa,
            WqeOp::Cas { .. } => VerbKind::Cas,
        }
    }

    pub(crate) fn payload_len(&self) -> usize {
        match self {
            WqeOp::Read { buf, .. } => buf.len(),
            WqeOp::Write { data, .. } => data.len(),
            WqeOp::Faa { .. } | WqeOp::Cas { .. } => 8,
        }
    }

    pub(crate) fn mn_id(&self) -> u16 {
        match self {
            WqeOp::Read { addr, .. }
            | WqeOp::Write { addr, .. }
            | WqeOp::Faa { addr, .. }
            | WqeOp::Cas { addr, .. } => addr.mn_id,
        }
    }

    /// Round-trip transfer latency of this verb under `cfg`.
    pub(crate) fn transfer_ns(&self, cfg: &DmConfig) -> u64 {
        let base = match self.kind() {
            VerbKind::Read => cfg.read_latency_ns,
            VerbKind::Write => cfg.write_latency_ns,
            VerbKind::Faa => cfg.faa_latency_ns,
            VerbKind::Cas => cfg.cas_latency_ns,
            VerbKind::Rpc => cfg.rpc_latency_ns,
        };
        cfg.transfer_latency_ns(base, self.payload_len())
    }

    /// Issues the verb: consults the fault injector, books the verb (and
    /// its fault) in the pool statistics and executes it against the target
    /// node's arena unless it faulted — a faulted verb still consumes its
    /// message and its transfer time.  Returns its status, its transfer
    /// latency and, for a timed-out verb, the retransmission window it
    /// waited.
    pub(crate) fn fire(self, client: &DmClient) -> (CompletionStatus, u64, u64) {
        let stats = client.pool().stats();
        let mn = self.mn_id();
        let (factor_pct, err) = client.inject(mn);
        let transfer = self.transfer_ns(client.config()) * factor_pct / 100;
        let (status, timeout) = match err {
            None => (CompletionStatus::Success, 0),
            Some(DmError::VerbTimeout { .. }) => {
                stats.record_verb_timeout(mn);
                let timeout = client.pool().fault_injector().timeout_ns();
                (CompletionStatus::TimedOut { mn_id: mn }, timeout)
            }
            Some(_) => {
                stats.record_verb_failure(mn);
                (CompletionStatus::Failed { mn_id: mn }, 0)
            }
        };
        stats.record_verb(mn, self.kind(), self.payload_len());
        if !status.is_ok() {
            return (status, transfer, timeout);
        }
        let node = client.node_ref(mn);
        let done = match self {
            WqeOp::Read { addr, buf } => node.read_into(addr.offset, buf),
            WqeOp::Write { addr, data } => node.write(addr.offset, data),
            WqeOp::Faa { addr, delta } => node.faa(addr.offset, delta).map(drop),
            WqeOp::Cas {
                addr,
                expected,
                new,
                out,
            } => node.cas(addr.offset, expected, new).map(|old| *out = old),
        };
        done.unwrap_or_else(|e| panic!("posted verb failed: {e}"));
        (status, transfer, timeout)
    }
}

struct Wqe<'buf> {
    op: WqeOp<'buf>,
    signalled: bool,
    wr_id: u64,
}

/// What one rung WQE did: its status, and whether a completion for it is
/// still queued on the client's CQ (pipelined mode only).
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Outcome {
    wr_id: u64,
    pub(crate) status: CompletionStatus,
    pending: bool,
}

/// A send queue of posted-but-not-yet-rung WQEs (see the module docs).
///
/// Obtained from [`DmClient::work_queue`] (pipelined) or
/// [`DmClient::work_queue_in`]; dropped without ringing, the queued WQEs
/// issue nothing.
pub struct WorkQueue<'client, 'buf> {
    client: &'client DmClient,
    mode: RingMode,
    wqes: [Option<Wqe<'buf>>; MAX_WQES],
    len: usize,
}

impl<'client, 'buf> WorkQueue<'client, 'buf> {
    #[inline]
    pub(crate) fn new(client: &'client DmClient, mode: RingMode) -> Self {
        WorkQueue {
            client,
            mode,
            wqes: std::array::from_fn(|_| None),
            len: 0,
        }
    }

    /// Number of WQEs posted since the last doorbell.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no WQE is pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    pub(crate) fn set_mode(&mut self, mode: RingMode) {
        self.mode = mode;
    }

    pub(crate) fn client(&self) -> &'client DmClient {
        self.client
    }

    /// The queued operations, in posting order.
    pub(crate) fn ops(&self) -> impl Iterator<Item = &WqeOp<'buf>> {
        self.wqes[..self.len].iter().flatten().map(|wqe| &wqe.op)
    }

    /// The distinct memory nodes the queued WQEs target, in
    /// first-appearance order (allocation-free).
    pub(crate) fn nodes(&self) -> ([u16; MAX_WQES], usize) {
        let mut nodes = [0u16; MAX_WQES];
        let mut fanout = 0;
        for op in self.ops() {
            let mn = op.mn_id();
            if !nodes[..fanout].contains(&mn) {
                nodes[fanout] = mn;
                fanout += 1;
            }
        }
        (nodes, fanout)
    }

    fn post(&mut self, op: WqeOp<'buf>, signalled: bool) -> u64 {
        if self.len == MAX_WQES {
            // A full send queue blocks the poster on real hardware; the
            // simulator rings the doorbell for the queued prefix instead of
            // failing, so oversized bursts cost an extra doorbell, not a
            // client abort.
            self.ring();
        }
        let wr_id = self.client.alloc_wr_id();
        self.wqes[self.len] = Some(Wqe {
            op,
            signalled,
            wr_id,
        });
        self.len += 1;
        wr_id
    }

    /// Posts a one-sided `RDMA_READ` of `buf.len()` bytes into `buf`.
    /// Returns the work-request id its completion will carry.
    pub fn post_read(&mut self, addr: RemoteAddr, buf: &'buf mut [u8], signalled: bool) -> u64 {
        self.post(WqeOp::Read { addr, buf }, signalled)
    }

    /// Posts a one-sided `RDMA_WRITE` of `data`.
    pub fn post_write(&mut self, addr: RemoteAddr, data: &'buf [u8], signalled: bool) -> u64 {
        self.post(WqeOp::Write { addr, data }, signalled)
    }

    /// Posts an `RDMA_FAA` of `delta` (old value discarded).
    pub fn post_faa(&mut self, addr: RemoteAddr, delta: u64, signalled: bool) -> u64 {
        self.post(WqeOp::Faa { addr, delta }, signalled)
    }

    /// Posts an `RDMA_CAS`; the observed old value lands in `out`.  As with
    /// a READ buffer, `out` must not be inspected before the WQE's
    /// completion is polled (the migration reconcile sweep posts a whole
    /// chunk's CASes in one doorbell batch and drains them together).
    pub fn post_cas(
        &mut self,
        addr: RemoteAddr,
        expected: u64,
        new: u64,
        out: &'buf mut u64,
        signalled: bool,
    ) -> u64 {
        self.post(
            WqeOp::Cas {
                addr,
                expected,
                new,
                out,
            },
            signalled,
        )
    }

    /// Rings the doorbell in this queue's [`RingMode`]: executes the verbs,
    /// consulting the fault injector per WQE, and clears the send queue.
    /// The WQEs' statuses surface only through the completion queue; use
    /// [`WorkQueue::submit`] to learn each one in every mode.
    ///
    /// Returns the latency charged to the client clock by the ring itself
    /// (0 for an empty queue).  In the pipelined mode that is only the
    /// posting cost `fanout × doorbell_latency_ns + n × verb_issue_ns`; the
    /// transfer latencies are charged by [`DmClient::poll_cq`] as time since
    /// post.
    pub fn ring(&mut self) -> u64 {
        self.ring_into(&mut [Outcome::default(); MAX_WQES])
    }

    /// Rings the WQEs posted since the last ring and returns the [`Round`]
    /// of their outcomes.  A lone WQE is issued as the plain verb — no
    /// doorbell, no WQE, no poll — so a one-verb round costs exactly what
    /// the matching [`DmClient`] verb costs, in every mode.  The round does
    /// not borrow the queue; the posted buffers are readable once the
    /// queue is dropped.
    pub fn submit(&mut self) -> Round<'client> {
        let mut round = Round {
            client: self.client,
            rung: [Outcome::default(); MAX_WQES],
            len: self.len,
            yielded: 0,
        };
        if self.len == 1 {
            self.len = 0;
            let wqe = self.wqes[0].take().expect("one WQE is posted");
            let (status, transfer, timeout) = wqe.op.fire(self.client);
            self.client.advance_ns(transfer + timeout);
            round.rung[0] = Outcome {
                wr_id: wqe.wr_id,
                status,
                pending: false,
            };
        } else {
            self.ring_into(&mut round.rung);
        }
        round
    }

    /// Rings the queue in its mode, recording every WQE's outcome into
    /// `rung` in posting order; returns the latency charged by the ring.
    pub(crate) fn ring_into(&mut self, rung: &mut [Outcome; MAX_WQES]) -> u64 {
        if self.len == 0 {
            return 0;
        }
        let client = self.client;
        let stats = client.pool().stats();
        let (nodes, fanout) = self.nodes();
        let n = self.len;
        self.len = 0;
        let post_cost = client.config().fanout_batch_latency_ns(n, fanout, 0);
        if self.mode != RingMode::Sequential {
            stats.record_batch(n, fanout);
            for &mn in &nodes[..fanout] {
                stats.record_node_doorbell(mn);
            }
        }
        let ring_end = if self.mode == RingMode::Pipelined {
            let ring_start = client.now_ns();
            client.advance_ns(post_cost);
            client.record_span(Phase::Post, ring_start, client.now_ns(), n as u32);
            client.now_ns()
        } else {
            0
        };
        // In the pipelined mode a faulted verb holds its place in its
        // node's queue-pair ordering (a timed-out verb's retransmission
        // window delays everything behind it on the same node), and its
        // error completion is pushed even when the WQE was posted
        // *unsignalled* — real NICs always surface error CQEs.
        let mut node_floor = [0u64; MAX_WQES];
        let (mut max_transfer, mut stretch, mut sequential) = (0, 0, 0);
        for (i, wqe) in self.wqes[..n].iter_mut().map(Option::take).enumerate() {
            let Some(wqe) = wqe else { continue };
            let mn = wqe.op.mn_id();
            let (status, transfer, timeout) = wqe.op.fire(client);
            let mut pending = false;
            match self.mode {
                RingMode::Pipelined => {
                    stats.record_wqe(wqe.signalled);
                    let slot = nodes[..fanout].iter().position(|&m| m == mn).unwrap_or(0);
                    node_floor[slot] = node_floor[slot].max(transfer + timeout);
                    let completed_at_ns = ring_end + node_floor[slot];
                    // Every WQE in one ring leaves at ring-end, so a
                    // multi-WQE ring shows its flight spans overlapping.
                    client.record_span(Phase::Flight, ring_end, completed_at_ns, wqe.wr_id as u32);
                    pending = wqe.signalled || !status.is_ok();
                    if pending {
                        client.push_completion(Completion {
                            wr_id: wqe.wr_id,
                            completed_at_ns,
                            status,
                        });
                    }
                }
                // Only the last WQE of a synchronous batch carries a signal;
                // the poster spins on it until the NIC gives up on any
                // timed-out member.
                RingMode::WaitAll => {
                    stats.record_wqe(i + 1 == n);
                    max_transfer = max_transfer.max(transfer);
                    stretch = stretch.max(timeout);
                }
                RingMode::Sequential => {
                    stats.record_wqe(true);
                    sequential += transfer + timeout;
                }
            }
            rung[i] = Outcome {
                wr_id: wqe.wr_id,
                status,
                pending,
            };
        }
        let charged = match self.mode {
            RingMode::Pipelined => return post_cost,
            RingMode::WaitAll => post_cost + max_transfer + stretch,
            RingMode::Sequential => sequential,
        };
        client.advance_ns(charged);
        charged
    }
}

impl Drop for WorkQueue<'_, '_> {
    fn drop(&mut self) {
        // Dropped without ringing: like an un-rung doorbell batch, the
        // queued WQEs never reach the NIC.
    }
}

/// The outcomes of one rung [`WorkQueue`], returned by
/// [`WorkQueue::submit`].
///
/// [`Round::wait`] returns one WQE's own status; iterating yields every WQE
/// once as `(posting index, status)` in arrival order — outcomes already
/// known first (the synchronous modes, unsignalled successes), then the
/// pipelined completions in the order the completion queue surfaces them.
/// Dropping a round reaps its completions that are still in flight, so a
/// round is always over when it goes out of scope.
pub struct Round<'client> {
    client: &'client DmClient,
    rung: [Outcome; MAX_WQES],
    len: usize,
    /// Bit `i` is set once WQE `i` was yielded by the iterator.
    yielded: u64,
}

impl Round<'_> {
    /// Waits for WQE `wr_id` of this round and returns its status.  In the
    /// pipelined mode this polls the completion queue until the WQE's
    /// completion surfaces (completions of this round's other WQEs polled
    /// on the way are remembered); otherwise the status was recorded at
    /// ring time and waiting is free.
    ///
    /// # Panics
    ///
    /// Panics if `wr_id` was not rung in this round.
    pub fn wait(&mut self, wr_id: u64) -> DmResult<()> {
        let i = self.rung[..self.len]
            .iter()
            .position(|o| o.wr_id == wr_id)
            .expect("wr_id belongs to this round");
        while self.rung[i].pending && self.reap_next().is_some() {}
        self.rung[i].status.check()
    }

    /// Polls one completion, marking it reaped if it belongs to this
    /// round; `None` when the completion queue is empty.
    fn reap_next(&mut self) -> Option<()> {
        let completion = self.client.poll_cq()?;
        if let Some(o) = self.rung[..self.len]
            .iter_mut()
            .find(|o| o.wr_id == completion.wr_id)
        {
            o.pending = false;
        }
        Some(())
    }
}

impl Iterator for Round<'_> {
    type Item = (usize, DmResult<()>);

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            let mut in_flight = false;
            for i in (0..self.len).filter(|i| self.yielded & (1 << i) == 0) {
                if !self.rung[i].pending {
                    self.yielded |= 1 << i;
                    return Some((i, self.rung[i].status.check()));
                }
                in_flight = true;
            }
            if !in_flight {
                return None;
            }
            self.reap_next()?;
        }
    }
}

impl Drop for Round<'_> {
    fn drop(&mut self) {
        while self.rung[..self.len].iter().any(|o| o.pending) && self.reap_next().is_some() {}
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
    fn ring_charges_posting_cost_and_poll_charges_time_since_post() {
        let pool = pool();
        let client = pool.connect();
        let cfg = client.config().clone();
        let addr = pool.reserve(4096).unwrap();
        client.write(addr, &[9u8; 4096]);
        let t0 = client.now_ns();

        let mut buf = [0u8; 64];
        let mut wq = client.work_queue();
        let wr = wq.post_read(addr, &mut buf, true);
        let post_cost = wq.ring();
        assert_eq!(post_cost, cfg.doorbell_latency_ns + cfg.verb_issue_ns);
        assert_eq!(
            client.now_ns() - t0,
            post_cost,
            "ring charges only the posting cost"
        );
        drop(wq);
        assert_eq!(buf, [9u8; 64], "the verb executed at ring time");

        let completion = client.poll_cq().expect("signalled WQE must complete");
        assert_eq!(completion.wr_id, wr);
        let transfer = cfg.transfer_latency_ns(cfg.read_latency_ns, 64);
        assert_eq!(
            client.now_ns() - t0,
            post_cost + transfer + cfg.cq_poll_ns,
            "poll charges the remaining flight time plus the poll cost"
        );
    }

    #[test]
    fn cpu_work_between_ring_and_poll_overlaps_the_flight() {
        let pool = pool();
        let client = pool.connect();
        let cfg = client.config().clone();
        let addr = pool.reserve(64).unwrap();
        let transfer = cfg.transfer_latency_ns(cfg.read_latency_ns, 64);

        let mut buf = [0u8; 64];
        let mut wq = client.work_queue();
        wq.post_read(addr, &mut buf, true);
        wq.ring();
        drop(wq);
        let ring_end = client.now_ns();
        // CPU work longer than the flight: the poll finds the completion
        // already in the past and charges only the poll cost.
        client.advance_ns(transfer + 500);
        client.poll_cq().unwrap();
        assert_eq!(client.now_ns(), ring_end + transfer + 500 + cfg.cq_poll_ns);
    }

    #[test]
    fn unsignalled_wqes_produce_no_completion_but_consume_messages() {
        let pool = pool();
        let client = pool.connect();
        let addr = pool.reserve(64).unwrap();
        let mut wq = client.work_queue();
        wq.post_write(addr, b"fire-and-forget", false);
        wq.post_faa(addr.add(32), 1, false);
        wq.ring();
        drop(wq);
        assert_eq!(client.poll_cq(), None, "unsignalled WQEs surface no CQE");
        let snap = &pool.stats().node_snapshots()[0];
        assert_eq!(snap.messages, 2, "unsignalled WQEs still consume messages");
        assert_eq!(pool.stats().unsignalled_wqes(), 2);
        assert_eq!(pool.stats().signalled_wqes(), 0);
    }

    #[test]
    fn same_node_wqes_complete_in_posting_order() {
        let pool = pool();
        let client = pool.connect();
        let cfg = client.config().clone();
        let addr = pool.reserve(8192).unwrap();
        let (mut large, mut small) = ([0u8; 8192], [0u8; 8]);
        let mut wq = client.work_queue();
        let wr_large = wq.post_read(addr, &mut large, true);
        let wr_small = wq.post_read(addr, &mut small, true);
        wq.ring();
        drop(wq);
        let ring_end = client.now_ns();
        let t_large = cfg.transfer_latency_ns(cfg.read_latency_ns, 8192);
        // The small READ is queued behind the large one on the same queue
        // pair, so both complete at the large READ's time.
        let first = client.poll_cq().unwrap();
        assert_eq!(first.wr_id, wr_large);
        assert_eq!(first.completed_at_ns, ring_end + t_large);
        let second = client.poll_cq().unwrap();
        assert_eq!(second.wr_id, wr_small);
        assert_eq!(second.completed_at_ns, ring_end + t_large);
    }

    #[test]
    fn cross_node_wqes_overlap_and_complete_independently() {
        let pool = MemoryPool::new(DmConfig::small().with_memory_nodes(2));
        let client = pool.connect();
        let cfg = client.config().clone();
        let a = pool.reserve_on(0, 8192).unwrap();
        let b = pool.reserve_on(1, 64).unwrap();
        let (mut large, mut small) = ([0u8; 8192], [0u8; 64]);
        let mut wq = client.work_queue();
        let wr_large = wq.post_read(a, &mut large, true);
        let wr_small = wq.post_read(b, &mut small, true);
        wq.ring();
        drop(wq);
        let ring_end = client.now_ns();
        // Different nodes, different queue pairs: the small READ is not
        // delayed by the large one and its completion surfaces first.
        let first = client.poll_cq().unwrap();
        assert_eq!(first.wr_id, wr_small);
        assert_eq!(
            first.completed_at_ns,
            ring_end + cfg.transfer_latency_ns(cfg.read_latency_ns, 64)
        );
        let second = client.poll_cq().unwrap();
        assert_eq!(second.wr_id, wr_large);
        assert_eq!(pool.stats().doorbells(), 2, "one doorbell per node");
    }

    #[test]
    fn posting_past_the_queue_bound_auto_rings() {
        let pool = pool();
        let client = pool.connect();
        let addr = pool.reserve(8).unwrap();
        let mut wq = client.work_queue();
        for _ in 0..=MAX_WQES {
            wq.post_faa(addr, 1, false);
        }
        assert_eq!(wq.len(), 1, "the overflowing WQE starts a fresh round");
        wq.ring();
        drop(wq);
        assert_eq!(
            pool.stats().doorbells(),
            2,
            "overflow rang an extra doorbell"
        );
        assert_eq!(client.read_u64(addr), MAX_WQES as u64 + 1);
    }

    #[test]
    fn injected_faults_surface_as_error_completions_even_unsignalled() {
        use crate::fault::FaultPlan;
        let plan = FaultPlan::seeded(7).with_verb_fail_ppm(1_000_000); // every verb fails
        let pool = MemoryPool::new(DmConfig::small().with_fault_plan(plan));
        let client = pool.connect();
        let addr = pool.reserve(64).unwrap();
        let mut wq = client.work_queue();
        wq.post_write(addr, b"doomed", false); // unsignalled on purpose
        wq.ring();
        drop(wq);
        let completion = client
            .poll_cq()
            .expect("error CQE surfaces even for unsignalled WQEs");
        assert_eq!(completion.status, CompletionStatus::Failed { mn_id: 0 });
        assert!(completion.status.check().is_err());
        // The faulted WRITE was NAK'd: the arena was never touched.
        assert_eq!(
            pool.node(0).unwrap().read(addr.offset, 6).unwrap(),
            vec![0u8; 6]
        );
        // The message was still consumed and the fault attributed to node 0.
        assert_eq!(pool.stats().node_snapshots()[0].writes, 1);
        assert_eq!(pool.stats().verb_faults_on(0), 1);
        assert_eq!(pool.stats().faults().verb_failures, 1);
    }

    #[test]
    fn timed_out_wqes_delay_everything_behind_them_on_the_same_node() {
        use crate::fault::FaultPlan;
        let plan = FaultPlan::seeded(3).with_verb_timeouts(1_000_000, 50_000);
        let pool = MemoryPool::new(DmConfig::small().with_fault_plan(plan));
        let client = pool.connect();
        let cfg = client.config().clone();
        let addr = pool.reserve(64).unwrap();
        let mut buf = [0u8; 8];
        let mut wq = client.work_queue();
        let wr_a = wq.post_write(addr, b"a", true);
        let wr_b = wq.post_read(addr.add(32), &mut buf, true);
        wq.ring();
        drop(wq);
        let ring_end = client.now_ns();
        let first = client.poll_cq().unwrap();
        assert_eq!(first.wr_id, wr_a);
        assert_eq!(first.status, CompletionStatus::TimedOut { mn_id: 0 });
        let t_first = cfg.transfer_latency_ns(cfg.write_latency_ns, 1) + 50_000;
        assert_eq!(first.completed_at_ns, ring_end + t_first);
        // The second WQE shares the queue pair: it completes no earlier
        // than the timed-out verb ahead of it.
        let second = client.poll_cq().unwrap();
        assert_eq!(second.wr_id, wr_b);
        assert!(second.completed_at_ns >= first.completed_at_ns);
        assert_eq!(pool.stats().faults().verb_timeouts, 2);
    }

    #[test]
    fn dropped_work_queue_issues_nothing() {
        let pool = pool();
        let client = pool.connect();
        let addr = pool.reserve(8).unwrap();
        client.write_u64(addr, 0);
        pool.reset_stats();
        {
            let mut wq = client.work_queue();
            wq.post_faa(addr, 5, true);
        }
        assert_eq!(client.poll_cq(), None);
        assert_eq!(client.read_u64(addr), 0, "un-rung WQEs never execute");
    }

    #[test]
    fn a_submitted_lone_wqe_costs_exactly_the_plain_verb() {
        for mode in [RingMode::Pipelined, RingMode::WaitAll, RingMode::Sequential] {
            let pool = pool();
            let client = pool.connect();
            let addr = pool.reserve(256).unwrap();
            let mut buf = [0u8; 256];
            let t0 = client.now_ns();
            client.try_read_into(addr, &mut buf).unwrap();
            let plain = client.now_ns() - t0;
            pool.reset_stats();
            let t1 = client.now_ns();
            let mut wq = client.work_queue_in(mode);
            let wr = wq.post_read(addr, &mut buf, true);
            let mut round = wq.submit();
            drop(wq);
            assert_eq!(round.wait(wr), Ok(()));
            assert_eq!(client.now_ns() - t1, plain, "{mode:?}");
            let stats = pool.stats();
            assert_eq!(stats.node_snapshots()[0].reads, 1, "{mode:?}");
            assert_eq!(
                (stats.doorbells(), stats.signalled_wqes(), stats.cq_polls()),
                (0, 0, 0),
                "{mode:?}: a plain verb rings no doorbell and posts no WQE"
            );
        }
    }

    #[test]
    fn synchronous_rounds_report_each_wqe_status_for_free() {
        use crate::fault::FaultPlan;
        for mode in [RingMode::WaitAll, RingMode::Sequential] {
            let plan = FaultPlan::seeded(11).with_verb_fail_ppm(500_000);
            let pool = MemoryPool::new(DmConfig::small().with_fault_plan(plan));
            let client = pool.connect();
            let addr = pool.reserve(64).unwrap();
            let mut wq = client.work_queue_in(mode);
            let wrs: Vec<u64> = (0..8)
                .map(|i| wq.post_faa(addr.add(i * 8), 1, false))
                .collect();
            let mut round = wq.submit();
            drop(wq);
            let t = client.now_ns();
            let failed = wrs.iter().filter(|&&wr| round.wait(wr).is_err()).count();
            assert_eq!(client.now_ns(), t, "{mode:?}: waiting is free");
            assert_eq!(
                failed as u64,
                pool.stats().faults().verb_failures,
                "{mode:?}"
            );
            assert!(failed > 0 && failed < wrs.len(), "{mode:?}: mixed fates");
            // Only the healthy FAAs executed.
            pool.fault_injector().set_armed(false);
            let applied: u64 = (0..8).map(|i| client.read_u64(addr.add(i * 8))).sum();
            assert_eq!(applied, (wrs.len() - failed) as u64, "{mode:?}");
        }
    }

    #[test]
    fn pipelined_waits_poll_and_remember_out_of_order_completions() {
        let pool = MemoryPool::new(DmConfig::small().with_memory_nodes(2));
        let client = pool.connect();
        let a = pool.reserve_on(0, 8192).unwrap();
        let b = pool.reserve_on(1, 64).unwrap();
        let (mut large, mut small) = ([0u8; 8192], [0u8; 64]);
        let mut wq = client.work_queue();
        let wr_large = wq.post_read(a, &mut large, true);
        let wr_small = wq.post_read(b, &mut small, true);
        let mut round = wq.submit();
        drop(wq);
        // Waiting for the large READ first polls the small one on the way.
        assert_eq!(round.wait(wr_large), Ok(()));
        assert_eq!(pool.stats().cq_polls(), 2);
        let t = client.now_ns();
        assert_eq!(round.wait(wr_small), Ok(()));
        assert_eq!(client.now_ns(), t, "an already polled WQE is free");
        assert_eq!(pool.stats().cq_polls(), 2);
        assert_eq!(client.poll_cq(), None);
    }

    #[test]
    fn rounds_yield_wqes_in_arrival_order_and_reap_on_drop() {
        let arrival = |mode| {
            let pool = MemoryPool::new(DmConfig::small().with_memory_nodes(2));
            let client = pool.connect();
            let a = pool.reserve_on(0, 8192).unwrap();
            let b = pool.reserve_on(1, 64).unwrap();
            let (mut large, mut small) = ([0u8; 8192], [0u8; 64]);
            let mut wq = client.work_queue_in(mode);
            wq.post_read(a, &mut large, true);
            wq.post_read(b, &mut small, true);
            let round = wq.submit();
            drop(wq);
            round
                .map(|(i, status)| {
                    assert_eq!(status, Ok(()));
                    i
                })
                .collect::<Vec<_>>()
        };
        // The small READ on the idle node overtakes the large one.
        assert_eq!(arrival(RingMode::Pipelined), vec![1, 0]);
        assert_eq!(arrival(RingMode::WaitAll), vec![0, 1]);

        let pool = pool();
        let client = pool.connect();
        let addr = pool.reserve(128).unwrap();
        let (mut x, mut y) = ([0u8; 64], [0u8; 64]);
        let mut wq = client.work_queue();
        wq.post_read(addr, &mut x, true);
        wq.post_read(addr.add(64), &mut y, true);
        drop(wq.submit());
        assert_eq!(
            client.poll_cq(),
            None,
            "a dropped round reaps its completions"
        );
    }
}
