//! One round: build a fresh cache, load it, replay the trace once with the
//! logical clients stepped round-robin on this thread, check every value.
//!
//! Rounds of one seed replay the same inputs on the same fresh state, so
//! their simulated results are identical; only the host clock varies.
//! Every layer is timed from outside, around calls to public functions,
//! and every count is a delta of the program's public counters.

use crate::trace::{Name, Tracer, NO_OP, NO_SPAN};
use crate::workload::{Op, Plan, Scale, Workload, UNWRITTEN, VALUE_LEN};
use ditto_core::{CacheStatsSnapshot, DittoCache, DittoClient, DittoConfig};
use ditto_dm::stats::NodeSnapshot;
use ditto_dm::{DmConfig, LatencyHistogram, RemoteAddr, RunReport};
use std::time::Instant;

/// elastic-tier: the client that issued every 256th op pumps the migration.
pub const PUMP_EVERY: usize = 256;
/// elastic-tier: stripe moves per pump call.
pub const PUMP_STRIPES: usize = 2;
/// elastic-tier: the original memory node drained at 2/3 of the run.
pub const DRAINED_NODE: u16 = 1;
/// Local-tier objects per client (elastic-tier).
pub const TIER_CAPACITY: usize = 2048;
/// Local-tier lease, simulated ns (elastic-tier).
pub const TIER_LEASE_NS: u64 = 50_000;
/// Bytes reserved per round for the verb calibration.
const CALIB_BYTES: u64 = 4096;
/// Calls per timed batch of one calibration verb.
const CALIB_BATCH: usize = 256;
/// Timed batches per calibration verb.
const CALIB_BATCHES: usize = 101;
/// `evict_once` calls the calibration times.
const CALIB_EVICTIONS: usize = 1001;
/// Trace requests per host-time window of the measured loop.
pub const OP_WINDOW: usize = 4096;

/// Outcome class of an op, from the `CacheStats` deltas around its call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    GetRemoteHit,
    GetLocalHit,
    GetMiss,
    SetPlain,
    SetEvicting,
}

impl Class {
    pub const COUNT: usize = 5;
}

/// Per-op latencies of one population, in both clocks.
#[derive(Debug, Clone, Default)]
pub struct Pop {
    pub host_ns: Vec<u32>,
    pub sim_ns: Vec<u32>,
}

impl Pop {
    fn with_capacity(n: usize) -> Pop {
        Pop {
            host_ns: Vec::with_capacity(n),
            sim_ns: Vec::with_capacity(n),
        }
    }

    fn push(&mut self, t0: Instant, t1: Instant, sim0: u64, sim1: u64) {
        let host_ns = t1.saturating_duration_since(t0).as_nanos();
        self.host_ns.push(host_ns.min(u32::MAX as u128) as u32);
        self.sim_ns
            .push((sim1 - sim0).min(u64::from(u32::MAX)) as u32);
    }

    pub fn len(&self) -> usize {
        self.host_ns.len()
    }

    pub fn is_empty(&self) -> bool {
        self.host_ns.is_empty()
    }
}

/// Simulated throughput of one stretch of the run (elastic-tier phases).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Phase {
    pub ops: u64,
    pub sim_ops_per_s: f64,
    /// Share of the stretch's READ verbs that went to the drained node.
    pub drained_read_frac: f64,
}

/// Host-clock costs of single verbs and of one eviction, measured on the
/// round's own pool after the measured phase.
#[derive(Debug, Clone, Copy, Default)]
pub struct Calibration {
    pub read8_ns: f64,
    pub read256_ns: f64,
    pub write256_ns: f64,
    pub cas_ns: f64,
    pub faa_ns: f64,
    pub wq_read2_ns: f64,
    pub evict_once_p50_ns: f64,
}

/// What the caller wants from a round beyond the end-to-end measurement.
#[derive(Debug, Clone, Copy, Default)]
pub struct RoundOptions {
    /// Record spans and classify every op by outcome.
    pub traced: bool,
    /// Time single verbs and `evict_once` after the measured phase.
    pub calibrate: bool,
    /// Replace the adaptive cache by this single expert (churn-evict).
    pub single_algorithm: Option<&'static str>,
}

/// Everything one round measured.
pub struct Round {
    /// Host seconds: generation + cache build + load.
    pub setup_s: f64,
    /// Host seconds inside the `ditto_workloads` generator.
    pub gen_s: f64,
    pub requests: u64,
    /// Host seconds building the cache and its clients.
    pub build_s: f64,
    /// Host seconds of the load phase and the Sets it issued.
    pub load_s: f64,
    pub load_sets: u64,
    /// Host seconds of the measured loop, flushes and final pumps included.
    pub loop_s: f64,
    /// `loop_s` split into consecutive parts, in ns: one per [`OP_WINDOW`]
    /// trace requests (pumps included), then the flushes, then the final
    /// pumps.  Rounds of one seed split identical work identically.
    pub loop_parts_ns: Vec<u64>,
    pub gets: Pop,
    /// The run's Sets; read-remote's run has none, so it keeps its load's.
    pub sets: Pop,
    /// Traced rounds only: ops split by [`Class`].
    pub classes: Vec<Pop>,
    /// Trace ops executed as Gets or Sets (fills included).
    pub ops: u64,
    /// Cache counters over the measured phase (lifetime `local_*`
    /// counters as deltas too).
    pub cache: CacheStatsSnapshot,
    /// Per-node verb counters over the measured phase.
    pub nodes: Vec<NodeSnapshot>,
    pub doorbells: u64,
    pub cq_polls: u64,
    pub signalled_wqes: u64,
    pub unsignalled_wqes: u64,
    pub mean_batch_size: f64,
    pub migrated_bytes: u64,
    pub migrated_objects: u64,
    pub stripe_cutovers: u64,
    /// Ops over the stretched simulated elapsed time of the whole phase.
    pub sim_ops_per_s: f64,
    /// elastic-tier: steady, grow, shrink, after.
    pub phases: Vec<Phase>,
    /// Host ns of the pump calls that moved something.
    pub pump_ns: Vec<u32>,
    /// Host ns of all end-of-run flushes.
    pub flush_ns: u64,
    pub used_bytes: u64,
    pub resident_bytes: u64,
    /// Get hits whose bytes differ from the last completed write.
    pub wrong: u64,
    /// `try_set` calls that returned an error.
    pub failed: u64,
    /// elastic-tier: object bytes left on the drained node after the final
    /// pump.
    pub residue_bytes: u64,
    pub tracer: Option<Tracer>,
    /// The tracer's spans of the measured loop, flushes and final pumps.
    pub loop_spans: std::ops::Range<usize>,
    pub calibration: Option<Calibration>,
    /// FNV-1a over every simulated result of the round.
    pub sim_fingerprint: u64,
}

impl Round {
    pub fn hit_rate(&self) -> f64 {
        self.cache.hit_rate()
    }

    pub fn messages(&self) -> u64 {
        self.nodes.iter().map(|n| n.messages).sum()
    }
}

fn configs(workload: Workload, scale: Scale, single: Option<&str>) -> (DittoConfig, DmConfig) {
    match workload {
        Workload::ReadRemote => (
            DittoConfig::with_capacity(2 * scale.keys),
            DmConfig::default(),
        ),
        Workload::ChurnEvict => {
            let capacity = scale.keys / 10;
            let config = match single {
                Some(alg) => DittoConfig::single_algorithm(capacity, alg),
                None => DittoConfig::with_capacity(capacity),
            };
            (config, DmConfig::default())
        }
        Workload::ElasticTier => (
            DittoConfig::with_capacity(2 * scale.keys)
                .with_local_tier(TIER_CAPACITY, TIER_LEASE_NS),
            DmConfig::default().with_memory_nodes(2),
        ),
    }
}

/// Cumulative state at a phase boundary of elastic-tier.
struct Mark {
    op: usize,
    clocks: Vec<u64>,
    nodes: Vec<NodeSnapshot>,
}

fn mark(op: usize, cache: &DittoCache, clients: &[DittoClient]) -> Mark {
    Mark {
        op,
        clocks: clients.iter().map(|c| c.dm().now_ns()).collect(),
        nodes: cache.pool().stats().node_snapshots(),
    }
}

/// Simulated throughput between two marks, stretched to the most saturated
/// resource exactly as [`RunReport`] does it.
fn phase_between(dm: &DmConfig, a: &Mark, b: &Mark) -> Phase {
    let ops = (b.op - a.op) as u64;
    if ops == 0 {
        return Phase::default();
    }
    let elapsed = a
        .clocks
        .iter()
        .zip(&b.clocks)
        .map(|(x, y)| y - x)
        .max()
        .unwrap_or(0);
    let mut before = a.nodes.clone();
    before.resize(b.nodes.len(), NodeSnapshot::default());
    let report = RunReport::from_measurement(
        dm,
        &before,
        &b.nodes,
        ops,
        elapsed,
        &LatencyHistogram::new(),
        a.clocks.len(),
    );
    let reads: Vec<u64> = b
        .nodes
        .iter()
        .zip(&before)
        .map(|(y, x)| y.reads - x.reads)
        .collect();
    let total: u64 = reads.iter().sum();
    Phase {
        ops,
        sim_ops_per_s: ops as f64 / report.simulated_seconds,
        drained_read_frac: if total == 0 {
            0.0
        } else {
            reads.get(DRAINED_NODE as usize).copied().unwrap_or(0) as f64 / total as f64
        },
    }
}

fn delta(after: &CacheStatsSnapshot, before: &CacheStatsSnapshot) -> CacheStatsSnapshot {
    CacheStatsSnapshot {
        hits: after.hits - before.hits,
        misses: after.misses - before.misses,
        sets: after.sets - before.sets,
        evictions: after.evictions - before.evictions,
        bucket_evictions: after.bucket_evictions - before.bucket_evictions,
        history_inserts: after.history_inserts - before.history_inserts,
        regrets: after.regrets - before.regrets,
        weight_syncs: after.weight_syncs - before.weight_syncs,
        fc_flushes: after.fc_flushes - before.fc_flushes,
        local_hits: after.local_hits - before.local_hits,
        local_revalidations: after.local_revalidations - before.local_revalidations,
        local_invalidations: after.local_invalidations - before.local_invalidations,
        local_stale_rejects: after.local_stale_rejects - before.local_stale_rejects,
        expert_victories: after
            .expert_victories
            .iter()
            .zip(&before.expert_victories)
            .map(|(a, b)| a - b)
            .collect(),
    }
}

fn classify_get(before: &CacheStatsSnapshot, after: &CacheStatsSnapshot) -> Class {
    if after.local_hits > before.local_hits {
        Class::GetLocalHit
    } else if after.hits > before.hits {
        Class::GetRemoteHit
    } else {
        Class::GetMiss
    }
}

fn classify_set(before: &CacheStatsSnapshot, after: &CacheStatsSnapshot) -> Class {
    let evictions = |s: &CacheStatsSnapshot| s.evictions + s.bucket_evictions;
    if evictions(after) > evictions(before) {
        Class::SetEvicting
    } else {
        Class::SetPlain
    }
}

struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
}

/// Runs one round of `workload` on the inputs of `seed`.
pub fn run_round(workload: Workload, seed: u64, scale: Scale, opts: RoundOptions) -> Round {
    let t_setup = Instant::now();
    let plan = Plan::build(workload, seed, scale);
    let total = plan.ops.len();
    let n = workload.clients();
    // Room for every span the round can record: setup, load, loop,
    // flushes and calibration.
    let spans = 3
        + plan.load.len()
        + total * (2 + usize::from(workload.fills_on_miss()))
        + total / PUMP_EVERY
        + 2 * n
        + 6 * CALIB_BATCHES
        + CALIB_EVICTIONS
        + 64;
    let mut tracer = opts.traced.then(|| Tracer::new(spans, t_setup));
    if let Some(t) = tracer.as_mut() {
        t.record(Name::Generate, NO_OP, NO_SPAN, plan.gen.0, plan.gen.1);
    }

    let t_build = Instant::now();
    let (config, dm_config) = configs(workload, scale, opts.single_algorithm);
    let cache = DittoCache::with_dedicated_pool(config, dm_config.clone())
        .expect("benchmark cache configuration is valid");
    let calib_addr = cache
        .pool()
        .reserve(CALIB_BYTES)
        .expect("fresh pool has room for the calibration page");
    let mut clients: Vec<DittoClient> = (0..n).map(|_| cache.client()).collect();
    let t_built = Instant::now();
    let build_s = t_built.saturating_duration_since(t_build).as_secs_f64();
    if let Some(t) = tracer.as_mut() {
        t.record(Name::Build, NO_OP, NO_SPAN, t_build, t_built);
    }

    // Load: every record once, dealt round-robin, each Set timed so a run
    // without Sets still reports its Set latencies.
    let t_load = Instant::now();
    let load_span = match tracer.as_mut() {
        Some(t) => t.open(Name::Load, NO_OP, NO_SPAN, t_load),
        None => NO_SPAN,
    };
    let mut expect = vec![UNWRITTEN; scale.keys as usize];
    let mut load_sets = Pop::with_capacity(plan.load.len());
    let mut failed = 0u64;
    for (i, &k) in plan.load.iter().enumerate() {
        let client = &mut clients[i % n];
        let s0 = client.dm().now_ns();
        let t0 = Instant::now();
        let res = client.try_set(plan.key(k), plan.value(k));
        let t1 = Instant::now();
        load_sets.push(t0, t1, s0, client.dm().now_ns());
        if let Some(t) = tracer.as_mut() {
            // Load ops are numbered after the trace's.
            t.record(Name::Set, (total + i) as u32, load_span, t0, t1);
        }
        match res {
            Ok(()) => expect[k as usize] = k,
            Err(_) => failed += 1,
        }
    }
    let t_loaded = Instant::now();
    if let Some(t) = tracer.as_mut() {
        t.close(load_span, t_loaded);
    }
    let load_s = t_loaded.saturating_duration_since(t_load).as_secs_f64();
    let setup_s = t_loaded.saturating_duration_since(t_setup).as_secs_f64();

    // Measurement baseline: clocks continue from the load's high-water
    // mark so stored timestamps stay in the past.
    for c in &clients {
        c.dm().publish_clock();
    }
    cache.pool().reset_stats();
    cache.stats().reset();
    for c in &clients {
        c.dm().reset_clock();
    }
    let stats_before = cache.stats().snapshot();
    let mut marks = vec![mark(0, &cache, &clients)];

    let elastic = workload == Workload::ElasticTier;
    let (grow_at, shrink_at) = (total / 3, 2 * total / 3);
    let mut gets = Pop::with_capacity(total);
    let mut sets = Pop::with_capacity(if workload.fills_on_miss() {
        total
    } else {
        total / 16
    });
    let mut classes: Vec<Pop> = if opts.traced {
        (0..Class::COUNT).map(|_| Pop::default()).collect()
    } else {
        Vec::new()
    };
    let mut loop_parts_ns = Vec::with_capacity(total / OP_WINDOW + 3);
    let mut pump_ns = Vec::new();
    let mut settled = false;
    let mut wrong = 0u64;
    let mut buf = Vec::with_capacity(VALUE_LEN);

    let loop_start = tracer.as_ref().map_or(0, Tracer::mark);
    let t_loop = Instant::now();
    let mut t_window = t_loop;
    for (i, op) in plan.ops.iter().enumerate() {
        let c = i % n;
        let span = match tracer.as_mut() {
            Some(t) => t.open(Name::Op, i as u32, NO_SPAN, Instant::now()),
            None => NO_SPAN,
        };
        if elastic && (i == grow_at || i == shrink_at) {
            marks.push(mark(i, &cache, &clients));
            let t0 = Instant::now();
            let (name, res) = if i == grow_at {
                (Name::AddNode, cache.pool().add_node().map(|_| ()))
            } else {
                (Name::DrainNode, cache.pool().drain_node(DRAINED_NODE))
            };
            res.expect("the pool resizes between ops");
            if let Some(t) = tracer.as_mut() {
                t.record(name, i as u32, span, t0, Instant::now());
            }
        }
        let mut set_request = None;
        match *op {
            Op::Get { key } => {
                let client = &mut clients[c];
                let before = opts.traced.then(|| cache.stats().snapshot());
                let s0 = client.dm().now_ns();
                let t0 = Instant::now();
                let hit = client.get_into(plan.key(key), &mut buf);
                let t1 = Instant::now();
                let s1 = client.dm().now_ns();
                gets.push(t0, t1, s0, s1);
                if let Some(before) = before {
                    let class = classify_get(&before, &cache.stats().snapshot());
                    classes[class as usize].push(t0, t1, s0, s1);
                    if let Some(t) = tracer.as_mut() {
                        t.record(Name::Get, i as u32, span, t0, t1);
                    }
                }
                let want = expect[key as usize];
                if hit {
                    if want == UNWRITTEN || buf != plan.value(want) {
                        wrong += 1;
                    }
                } else if workload.fills_on_miss() {
                    set_request = Some((key, key));
                }
            }
            Op::Set { key, value } => set_request = Some((key, value)),
        }
        if let Some((key, value)) = set_request {
            let client = &mut clients[c];
            let before = opts.traced.then(|| cache.stats().snapshot());
            let s0 = client.dm().now_ns();
            let t0 = Instant::now();
            let res = client.try_set(plan.key(key), plan.value(value));
            let t1 = Instant::now();
            let s1 = client.dm().now_ns();
            sets.push(t0, t1, s0, s1);
            if let Some(before) = before {
                let class = classify_set(&before, &cache.stats().snapshot());
                classes[class as usize].push(t0, t1, s0, s1);
                if let Some(t) = tracer.as_mut() {
                    t.record(Name::Set, i as u32, span, t0, t1);
                }
            }
            match res {
                Ok(()) => expect[key as usize] = value,
                Err(_) => failed += 1,
            }
        }
        if elastic && i >= grow_at && (i + 1) % PUMP_EVERY == 0 {
            let t0 = Instant::now();
            let progress = clients[c].pump_migration(PUMP_STRIPES);
            let t1 = Instant::now();
            if progress.stripes_moved + progress.objects_relocated > 0 {
                pump_ns.push(t1.saturating_duration_since(t0).as_nanos() as u32);
            }
            if let Some(t) = tracer.as_mut() {
                t.record(Name::Pump, i as u32, span, t0, t1);
            }
            if !settled
                && i >= shrink_at
                && progress.jobs_remaining == 0
                && cache.pool().resident_object_bytes(DRAINED_NODE) == 0
            {
                settled = true;
                marks.push(mark(i + 1, &cache, &clients));
            }
        }
        if let Some(t) = tracer.as_mut() {
            t.close(span, Instant::now());
        }
        if (i + 1) % OP_WINDOW == 0 || i + 1 == total {
            let t_end = Instant::now();
            loop_parts_ns.push(t_end.saturating_duration_since(t_window).as_nanos() as u64);
            t_window = t_end;
        }
    }
    if elastic {
        if !settled {
            marks.push(mark(total, &cache, &clients));
        }
        marks.push(mark(total, &cache, &clients));
    }

    let t_flush = Instant::now();
    for client in clients.iter_mut() {
        let t0 = Instant::now();
        client.flush();
        if let Some(t) = tracer.as_mut() {
            t.record(Name::Flush, NO_OP, NO_SPAN, t0, Instant::now());
        }
    }
    let flush_ns = t_flush.elapsed().as_nanos() as u64;
    loop_parts_ns.push(flush_ns);
    let mut residue_bytes = 0;
    if elastic {
        let t_pump = Instant::now();
        // Finish whatever the in-run pumps left, then the drained node must
        // hold no object bytes.
        loop {
            let t0 = Instant::now();
            let p = clients[0].pump_migration(usize::MAX);
            if let Some(t) = tracer.as_mut() {
                t.record(Name::Pump, NO_OP, NO_SPAN, t0, Instant::now());
            }
            if p.stripes_moved + p.objects_relocated == 0 {
                break;
            }
        }
        residue_bytes = cache.pool().resident_object_bytes(DRAINED_NODE);
        loop_parts_ns.push(t_pump.elapsed().as_nanos() as u64);
    }
    let loop_s = t_loop.elapsed().as_secs_f64();
    let loop_spans = loop_start..tracer.as_ref().map_or(0, Tracer::mark);

    let pool = cache.pool();
    let stats = pool.stats();
    let nodes = stats.node_snapshots();
    let ops = (gets.len() + sets.len()) as u64;
    let elapsed = clients
        .iter()
        .map(|c| c.dm().now_ns() - stats.clock_baseline_ns())
        .max()
        .unwrap_or(0);
    let report = RunReport::from_measurement(
        &dm_config,
        &vec![NodeSnapshot::default(); nodes.len()],
        &nodes,
        ops,
        elapsed,
        &LatencyHistogram::new(),
        n,
    );
    let phases = if elastic {
        marks
            .windows(2)
            .map(|w| phase_between(&dm_config, &w[0], &w[1]))
            .collect()
    } else {
        Vec::new()
    };
    let cache_delta = delta(&cache.stats().snapshot(), &stats_before);

    let mut fnv = Fnv::new();
    for pop in [&gets, &sets] {
        fnv.u64(pop.sim_ns.len() as u64);
        for &s in &pop.sim_ns {
            fnv.u64(u64::from(s));
        }
    }
    for node in &nodes {
        for v in [
            node.messages,
            node.reads,
            node.writes,
            node.cas,
            node.faa,
            node.rpcs,
            node.bytes,
        ] {
            fnv.u64(v);
        }
    }
    for v in [
        elapsed,
        cache_delta.hits,
        cache_delta.misses,
        cache_delta.evictions,
    ] {
        fnv.u64(v);
    }
    for p in &phases {
        fnv.u64(p.ops);
        fnv.u64(p.sim_ops_per_s.to_bits());
    }

    let used_bytes = pool.used_bytes();
    let resident_bytes = stats.resident_bytes().iter().sum();
    let calibration = opts
        .calibrate
        .then(|| calibrate(&cache, &mut clients[0], calib_addr, &mut tracer));

    Round {
        setup_s,
        gen_s: plan
            .gen
            .1
            .saturating_duration_since(plan.gen.0)
            .as_secs_f64(),
        requests: plan.ops.len() as u64,
        build_s,
        load_s,
        load_sets: plan.load.len() as u64,
        loop_s,
        loop_parts_ns,
        sets: if sets.is_empty() { load_sets } else { sets },
        gets,
        classes,
        ops,
        cache: cache_delta,
        doorbells: stats.doorbells(),
        cq_polls: stats.cq_polls(),
        signalled_wqes: stats.signalled_wqes(),
        unsignalled_wqes: stats.unsignalled_wqes(),
        mean_batch_size: stats.mean_batch_size(),
        migrated_bytes: stats.migrated_bytes() + stats.migrated_object_bytes(),
        migrated_objects: stats.migrated_objects(),
        stripe_cutovers: stats.stripe_cutovers(),
        nodes,
        sim_ops_per_s: ops as f64 / report.simulated_seconds,
        phases,
        pump_ns,
        flush_ns,
        used_bytes,
        resident_bytes,
        wrong,
        failed,
        residue_bytes,
        tracer,
        loop_spans,
        calibration,
        sim_fingerprint: fnv.0,
    }
}

/// Host ns per call of `f`, as the median over batches of calls; each
/// batch is one `name` span.
fn per_call_ns(name: Name, tracer: &mut Option<Tracer>, mut f: impl FnMut()) -> f64 {
    let mut per_batch: Vec<f64> = (0..CALIB_BATCHES)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..CALIB_BATCH {
                f();
            }
            let t1 = Instant::now();
            if let Some(t) = tracer.as_mut() {
                t.record(name, NO_OP, NO_SPAN, t0, t1);
            }
            t1.saturating_duration_since(t0).as_nanos() as f64 / CALIB_BATCH as f64
        })
        .collect();
    per_batch.sort_by(f64::total_cmp);
    per_batch[CALIB_BATCHES / 2]
}

/// Times single `DmClient` verbs against the round's calibration page and
/// `evict_once` on the round's (now measured) cache.
fn calibrate(
    cache: &DittoCache,
    client: &mut DittoClient,
    page: RemoteAddr,
    tracer: &mut Option<Tracer>,
) -> Calibration {
    let dm = cache.pool().connect();
    let mut b8 = [0u8; 8];
    let mut b256 = [0u8; 256];
    let mut b256b = [0u8; 256];
    let data = [0x5au8; 256];
    let mut word = 0u64;
    let mut calib = Calibration {
        read8_ns: per_call_ns(Name::Read8, tracer, || {
            dm.read_into(page, std::hint::black_box(&mut b8))
        }),
        read256_ns: per_call_ns(Name::Read256, tracer, || {
            dm.read_into(page, std::hint::black_box(&mut b256))
        }),
        write256_ns: per_call_ns(Name::Write256, tracer, || {
            dm.write(page, std::hint::black_box(&data))
        }),
        cas_ns: per_call_ns(Name::Cas, tracer, || {
            let seen = dm.cas(page, word, word + 1);
            word = if seen == word { word + 1 } else { seen };
        }),
        faa_ns: per_call_ns(Name::Faa, tracer, || {
            std::hint::black_box(dm.faa(page.add(8), 1));
        }),
        wq_read2_ns: per_call_ns(Name::WqRead2, tracer, || {
            let mut wq = dm.work_queue();
            wq.post_read(page, &mut b256, true);
            wq.post_read(page.add(512), &mut b256b, true);
            wq.ring();
            drop(wq);
            dm.poll_cq();
            dm.poll_cq();
        }),
        evict_once_p50_ns: 0.0,
    };
    let mut evict_ns: Vec<u64> = (0..CALIB_EVICTIONS)
        .map(|_| {
            let t0 = Instant::now();
            std::hint::black_box(client.evict_once());
            let t1 = Instant::now();
            if let Some(t) = tracer.as_mut() {
                t.record(Name::EvictOnce, NO_OP, NO_SPAN, t0, t1);
            }
            t1.saturating_duration_since(t0).as_nanos() as u64
        })
        .collect();
    evict_ns.sort_unstable();
    calib.evict_once_p50_ns = evict_ns[CALIB_EVICTIONS / 2] as f64;
    calib
}
