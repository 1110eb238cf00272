//! Metric values of one round, and their aggregation over a run's rounds.
//!
//! Simulated values repeat exactly across the rounds of one seed, so a
//! run reports them once.  Host values move with the load other tenants
//! put on a shared machine, in stretches of a second or more.  Because
//! every round of a seed repeats identical work, the end-to-end host
//! metrics are split into windows of consecutive ops; each window keeps
//! its fastest round, which discards the stretches a neighbour slowed,
//! and the run reports the mean (latency) or the sum (loop time) of the
//! windows.  The mean, not the median, of the window latencies: where the
//! hit/miss mix changes along the trace, window medians form two clusters
//! and a median over them jumps between the clusters.  Per-layer host
//! values are per-round medians.

use crate::round::{Class, Pop, Round};
use crate::trace::Name;
use ditto_core::DittoConfig;

/// Gets per window of the end-to-end Get latency.
pub const GET_WINDOW: usize = 4096;
/// Sets per window of the end-to-end Set latency.
pub const SET_WINDOW: usize = 1024;

/// How a metric's per-round values combine into the run's value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Combine {
    /// Simulated value or count, identical in every round: the first.
    Sim,
    /// Host scalar: the median over rounds.
    Median,
    /// Host value per window: each window's minimum over rounds, then the
    /// mean over windows.
    WindowMinMean,
    /// Host value per window: each window's minimum over rounds, summed.
    WindowMinSum,
}

/// One named value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    pub combine: Combine,
    /// Per-window values of the `WindowMin*` combines.
    pub parts: Vec<f64>,
    /// Sample counts behind the value, for the human-readable report.
    pub note: String,
}

impl Metric {
    /// A metric with a single per-round value.
    pub fn new(
        name: impl Into<String>,
        value: f64,
        unit: &'static str,
        combine: Combine,
    ) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit,
            combine,
            parts: Vec::new(),
            note: String::new(),
        }
    }

    /// Whether the value is simulated (identical across rounds of a seed).
    pub fn is_sim(&self) -> bool {
        self.combine == Combine::Sim
    }
}

fn windowed(name: &str, unit: &'static str, combine: Combine, parts: Vec<f64>) -> Metric {
    Metric {
        parts,
        ..Metric::new(name, 0.0, unit, combine)
    }
}

/// The nearest-rank median of each consecutive `window` samples.
fn window_medians(samples: &[u32], window: usize) -> Vec<f64> {
    samples.chunks(window).map(|w| quantile(w, 0.5)).collect()
}

/// The `p`-quantile of `samples` by nearest rank (0 for no samples).
pub fn quantile(samples: &[u32], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    f64::from(sorted[rank - 1])
}

/// The median of `values` (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

fn host_p(pop: &Pop, p: f64) -> f64 {
    quantile(&pop.host_ns, p)
}

fn sim_p_us(pop: &Pop, p: f64) -> f64 {
    quantile(&pop.sim_ns, p) / 1e3
}

/// The end-to-end metrics of one round (peak RSS is added per run).
pub fn end_to_end(r: &Round) -> Vec<Metric> {
    use Combine::{Median, Sim, WindowMinMean, WindowMinSum};
    let per_op: Vec<f64> = r
        .loop_parts_ns
        .iter()
        .map(|&ns| ns as f64 / r.ops as f64)
        .collect();
    let mut out = vec![
        Metric::new("sim_ops_per_s", r.sim_ops_per_s, "1/sim_s", Sim),
        Metric::new("sim_get_p50_us", sim_p_us(&r.gets, 0.50), "sim_us", Sim),
        Metric::new("sim_get_p99_us", sim_p_us(&r.gets, 0.99), "sim_us", Sim),
        Metric::new("sim_set_p50_us", sim_p_us(&r.sets, 0.50), "sim_us", Sim),
        Metric::new("sim_set_p99_us", sim_p_us(&r.sets, 0.99), "sim_us", Sim),
        Metric::new("hit_rate", r.hit_rate(), "fraction", Sim),
        Metric::new("msgs_per_op", ratio(r.messages(), r.ops), "msgs/op", Sim),
        windowed("host_ns_per_op", "ns", WindowMinSum, per_op),
        windowed(
            "host_get_p50_ns",
            "ns",
            WindowMinMean,
            window_medians(&r.gets.host_ns, GET_WINDOW),
        ),
        windowed(
            "host_set_p50_ns",
            "ns",
            WindowMinMean,
            window_medians(&r.sets.host_ns, SET_WINDOW),
        ),
        Metric::new("setup_s", r.setup_s, "s", Median),
    ];
    for m in &mut out {
        m.note = if m.name.contains("_get_") {
            format!("gets={}", r.gets.len())
        } else if m.name.contains("_set_") {
            format!("sets={}", r.sets.len())
        } else if m.name == "host_ns_per_op" {
            format!("ops={}", r.ops)
        } else {
            String::new()
        };
    }
    out
}

/// The per-layer metrics one traced round yields by itself; calibration,
/// overhead and replays are added per run.
pub fn per_layer(r: &Round) -> Vec<Metric> {
    use Combine::{Median as Host, Sim};
    let c = &r.cache;
    let gets = r.gets.len() as u64;
    let sets = c.sets;
    let evictions = c.evictions + c.bucket_evictions;
    let kops = r.ops as f64 / 1e3;
    let class = |k: Class| &r.classes[k as usize];
    let sum = |f: fn(&ditto_dm::stats::NodeSnapshot) -> u64| r.nodes.iter().map(f).sum::<u64>();
    let mut out = vec![
        Metric::new(
            "workloads.gen_ns_per_req",
            r.gen_s * 1e9 / r.requests as f64,
            "ns",
            Host,
        ),
        Metric::new("core.cache.build_ms", r.build_s * 1e3, "ms", Host),
        Metric::new(
            "core.load.host_ns_per_set",
            if r.load_sets == 0 {
                0.0
            } else {
                r.load_s * 1e9 / r.load_sets as f64
            },
            "ns",
            Host,
        ),
    ];
    for (name, k, p) in [
        ("core.get.remote_hit.host_p50_ns", Class::GetRemoteHit, 0.50),
        ("core.get.remote_hit.host_p99_ns", Class::GetRemoteHit, 0.99),
        ("core.get.miss.host_p50_ns", Class::GetMiss, 0.50),
        ("core.get.local_hit.host_p50_ns", Class::GetLocalHit, 0.50),
        ("core.set.evicting.host_p50_ns", Class::SetEvicting, 0.50),
        ("core.set.evicting.host_p99_ns", Class::SetEvicting, 0.99),
        ("core.set.plain.host_p50_ns", Class::SetPlain, 0.50),
    ] {
        let mut m = Metric::new(name, host_p(class(k), p), "ns", Host);
        m.note = format!("n={}", class(k).len());
        out.push(m);
    }
    for (name, k) in [
        ("core.set.evicting.sim_p50_us", Class::SetEvicting),
        ("core.set.plain.sim_p50_us", Class::SetPlain),
    ] {
        let mut m = Metric::new(name, sim_p_us(class(k), 0.50), "sim_us", Sim);
        m.note = format!("n={}", class(k).len());
        out.push(m);
    }
    out.extend([
        Metric::new("core.flush.host_us", r.flush_ns as f64 / 1e3, "us", Host),
        Metric::new("core.evict.per_set", ratio(evictions, sets), "1/set", Sim),
        Metric::new(
            "core.evict.bucket_frac",
            ratio(c.bucket_evictions, evictions),
            "fraction",
            Sim,
        ),
        Metric::new(
            "core.adaptive.regrets_per_eviction",
            ratio(c.regrets, evictions),
            "1/eviction",
            Sim,
        ),
        Metric::new(
            "core.history.inserts_per_eviction",
            ratio(c.history_inserts, evictions),
            "1/eviction",
            Sim,
        ),
        Metric::new(
            "core.adaptive.weight_syncs_per_kop",
            c.weight_syncs as f64 / kops,
            "1/kop",
            Sim,
        ),
    ]);
    let victories: u64 = c.expert_victories.iter().sum();
    for (i, expert) in DittoConfig::default().experts.iter().enumerate() {
        let won = c.expert_victories.get(i).copied().unwrap_or(0);
        out.push(Metric::new(
            format!("core.adaptive.victory_share.{expert}"),
            ratio(won, victories),
            "fraction",
            Sim,
        ));
    }
    out.extend([
        Metric::new(
            "core.fc.flushes_per_kop",
            c.fc_flushes as f64 / kops,
            "1/kop",
            Sim,
        ),
        Metric::new(
            "core.tier.local_hit_frac",
            ratio(c.local_hits, gets),
            "fraction",
            Sim,
        ),
        Metric::new(
            "core.tier.revalidations_per_get",
            ratio(c.local_revalidations, gets),
            "1/get",
            Sim,
        ),
        Metric::new(
            "core.tier.invalidations_per_set",
            ratio(c.local_invalidations, sets),
            "1/set",
            Sim,
        ),
        Metric::new(
            "core.tier.stale_rejects_per_kop",
            c.local_stale_rejects as f64 / kops,
            "1/kop",
            Sim,
        ),
        Metric::new(
            "dm.reads_per_op",
            ratio(sum(|n| n.reads), r.ops),
            "1/op",
            Sim,
        ),
        Metric::new(
            "dm.writes_per_op",
            ratio(sum(|n| n.writes), r.ops),
            "1/op",
            Sim,
        ),
        Metric::new("dm.cas_per_op", ratio(sum(|n| n.cas), r.ops), "1/op", Sim),
        Metric::new("dm.faa_per_op", ratio(sum(|n| n.faa), r.ops), "1/op", Sim),
        Metric::new("dm.rpcs_per_op", ratio(sum(|n| n.rpcs), r.ops), "1/op", Sim),
        Metric::new(
            "dm.bytes_per_op",
            ratio(sum(|n| n.bytes), r.ops),
            "B/op",
            Sim,
        ),
        Metric::new(
            "dm.doorbells_per_op",
            ratio(r.doorbells, r.ops),
            "1/op",
            Sim,
        ),
        Metric::new("dm.cq_polls_per_op", ratio(r.cq_polls, r.ops), "1/op", Sim),
        Metric::new("dm.mean_batch_size", r.mean_batch_size, "verbs", Sim),
        Metric::new(
            "dm.unsignalled_wqe_frac",
            ratio(r.unsignalled_wqes, r.signalled_wqes + r.unsignalled_wqes),
            "fraction",
            Sim,
        ),
        Metric::new(
            "dm.migration.stripe_cutovers",
            r.stripe_cutovers as f64,
            "count",
            Sim,
        ),
        Metric::new(
            "dm.migration.objects_relocated",
            r.migrated_objects as f64,
            "count",
            Sim,
        ),
        Metric::new(
            "dm.migration.bytes_per_op",
            ratio(r.migrated_bytes, r.ops),
            "B/op",
            Sim,
        ),
    ]);
    let mut pump = Metric::new(
        "dm.migration.pump.host_p50_us",
        quantile(&r.pump_ns, 0.5) / 1e3,
        "us",
        Host,
    );
    pump.note = format!("n={}", r.pump_ns.len());
    out.push(pump);
    for (i, phase) in ["steady", "grow", "shrink", "after"].iter().enumerate() {
        let p = r.phases.get(i).copied().unwrap_or_default();
        let mut m = Metric::new(
            format!("dm.migration.sim_ops_per_s.{phase}"),
            p.sim_ops_per_s,
            "1/sim_s",
            Sim,
        );
        m.note = format!("ops={}", p.ops);
        out.push(m);
    }
    out.push(Metric::new(
        "dm.migration.drained_read_frac_after",
        r.phases.get(3).map_or(0.0, |p| p.drained_read_frac),
        "fraction",
        Sim,
    ));
    out.push(Metric::new(
        "dm.pool.used_bytes_per_live_byte",
        ratio(r.used_bytes, r.resident_bytes),
        "ratio",
        Sim,
    ));
    if let Some(tracer) = &r.tracer {
        let self_ns = tracer.self_ns(r.loop_spans.clone());
        let traced_ops = self_ns[Name::Op as usize].1.max(1);
        for name in Name::LOOP {
            let mut m = Metric::new(
                format!("trace.self_ns_per_op.{}", name.label()),
                self_ns[name as usize].0 as f64 / traced_ops as f64,
                "ns",
                Host,
            );
            m.note = format!("ops={traced_ops} dropped_spans={}", tracer.dropped());
            out.push(m);
        }
    }
    out
}

/// Combines per-round metric lists (same names in the same order) by each
/// metric's [`Combine`] rule.
pub fn aggregate(rounds: &[Vec<Metric>]) -> Vec<Metric> {
    let Some(first) = rounds.first() else {
        return Vec::new();
    };
    first
        .iter()
        .enumerate()
        .map(|(i, m)| {
            let mut out = m.clone();
            out.parts = Vec::new();
            let window_mins = || -> Vec<f64> {
                let windows = rounds.iter().map(|r| r[i].parts.len()).min().unwrap_or(0);
                (0..windows)
                    .map(|w| {
                        rounds
                            .iter()
                            .map(|r| r[i].parts[w])
                            .fold(f64::INFINITY, f64::min)
                    })
                    .collect()
            };
            out.value = match m.combine {
                Combine::Sim => return out,
                Combine::Median => median(&rounds.iter().map(|r| r[i].value).collect::<Vec<_>>()),
                Combine::WindowMinMean => {
                    let mins = window_mins();
                    mins.iter().sum::<f64>() / mins.len().max(1) as f64
                }
                Combine::WindowMinSum => window_mins().iter().sum(),
            };
            let rounds_note = format!("rounds={}", rounds.len());
            out.note = if out.note.is_empty() {
                rounds_note
            } else {
                format!("{} {rounds_note}", out.note)
            };
            out
        })
        .collect()
}
