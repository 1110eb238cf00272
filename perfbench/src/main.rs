//! Command-line entry point: `ditto-perfbench --workload <name> --seed <n>
//! --seconds <s> --trace <0|1>`.
//!
//! Repeats fresh rounds of the workload until `--seconds` of host time are
//! spent, prints every metric with its unit and sample counts, and ends
//! with one JSON line: `{"correct", "attempted", "failed", "metrics"}`.
//! `--trace 0` reports the end-to-end metrics; `--trace 1` alternates
//! untraced and traced rounds and reports the per-layer metrics.  Exits
//! non-zero when a Get returned bytes other than the last completed write,
//! when the drained node keeps object bytes, or when rounds of one seed
//! disagree on a simulated result.

use ditto_perfbench::metrics::{aggregate, end_to_end, per_layer, quantile, Combine, Metric};
use ditto_perfbench::round::{run_round, RoundOptions};
use ditto_perfbench::trace::Tracer;
use ditto_perfbench::workload::{Scale, Workload};
use std::process::ExitCode;
use std::time::{Duration, Instant};

const USAGE: &str =
    "usage: ditto-perfbench --workload <read-remote|churn-evict|elastic-tier> --seed <n> --seconds <s> --trace <0|1>";

/// Directory (relative to the working directory) the span file goes to.
const TRACE_DIR: &str = ".perfbench";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(bad)?),
            "--seconds" => seconds = Some(value.parse::<u64>().map_err(bad)?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad value {value:?} for --trace")),
                })
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?.max(1),
        trace: trace.unwrap_or(false),
    })
}

/// Peak resident set of this process in MB (`VmHWM`), 0 where unknown.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn find(metrics: &[Metric], name: &str) -> f64 {
    metrics
        .iter()
        .find(|m| m.name == name)
        .map_or(0.0, |m| m.value)
}

fn host(name: &str, value: f64, unit: &'static str, note: String) -> Metric {
    Metric {
        note,
        ..Metric::new(name, value, unit, Combine::Median)
    }
}

fn json_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let w = args.workload;
    let scale = Scale::full(w);
    let budget = Duration::from_secs(args.seconds);
    let start = Instant::now();

    let mut e2e = Vec::new();
    let mut traced_e2e = Vec::new();
    let mut layers = Vec::new();
    let mut fingerprints = Vec::new();
    let (mut attempted, mut failed, mut wrong, mut residue) = (0u64, 0u64, 0u64, 0u64);
    let mut tracer: Option<Tracer> = None;
    let mut calibration = None;
    let mut rounds = 0u32;
    loop {
        let traced = args.trace && rounds % 2 == 1;
        let opts = RoundOptions {
            traced,
            calibrate: traced && calibration.is_none(),
            single_algorithm: None,
        };
        let mut r = run_round(w, args.seed, scale, opts);
        rounds += 1;
        attempted += r.ops;
        failed += r.failed;
        wrong += r.wrong;
        residue = residue.max(r.residue_bytes);
        fingerprints.push(r.sim_fingerprint);
        eprintln!(
            "round {rounds}{}: setup {:.3}s, loop {:.3}s, {} ops, host Get p50 {} ns",
            if traced { " (traced)" } else { "" },
            r.setup_s,
            r.loop_s,
            r.ops,
            quantile(&r.gets.host_ns, 0.5),
        );
        if traced {
            traced_e2e.push(end_to_end(&r));
            layers.push(per_layer(&r));
            if tracer.is_none() {
                tracer = r.tracer.take();
            }
            if calibration.is_none() {
                calibration = r.calibration;
            }
        } else {
            e2e.push(end_to_end(&r));
        }
        let min_rounds = if args.trace { 4 } else { 3 };
        let per_round = start.elapsed() / rounds;
        if rounds >= min_rounds && start.elapsed() + per_round > budget {
            break;
        }
    }
    let deterministic = fingerprints.iter().all(|&f| f == fingerprints[0]);

    let untraced = aggregate(&e2e);
    let metrics = if args.trace {
        let mut m = aggregate(&layers);
        let traced = aggregate(&traced_e2e);
        let (base, with) = (
            find(&untraced, "host_ns_per_op"),
            find(&traced, "host_ns_per_op"),
        );
        m.push(host(
            "trace.overhead_pct",
            (with / base - 1.0) * 100.0,
            "%",
            format!("untraced={base:.1}ns traced={with:.1}ns"),
        ));
        let c = calibration.unwrap_or_default();
        for (name, value) in [
            ("dm.read8.host_ns", c.read8_ns),
            ("dm.read256.host_ns", c.read256_ns),
            ("dm.write256.host_ns", c.write256_ns),
            ("dm.cas.host_ns", c.cas_ns),
            ("dm.faa.host_ns", c.faa_ns),
            ("dm.wq_read2.host_ns", c.wq_read2_ns),
            ("core.evict_once.host_p50_ns", c.evict_once_p50_ns),
        ] {
            m.push(host(name, value, "ns", String::new()));
        }
        let verb_ns = find(&m, "dm.reads_per_op") * c.read256_ns
            + find(&m, "dm.writes_per_op") * c.write256_ns
            + find(&m, "dm.cas_per_op") * c.cas_ns
            + find(&m, "dm.faa_per_op") * c.faa_ns;
        let get_ns = find(&untraced, "host_get_p50_ns");
        m.push(host(
            "dm.verb_share_of_get_pct",
            if get_ns > 0.0 {
                verb_ns / get_ns * 100.0
            } else {
                0.0
            },
            "%",
            format!("verb_ns_per_op={verb_ns:.1} host_get_p50_ns={get_ns:.1}"),
        ));
        // Adaptive usefulness: the same trace under each expert alone.
        let mut vs_best = Metric {
            note: "not measured on this workload".to_string(),
            ..Metric::new(
                "core.adaptive.hit_rate_vs_best_expert",
                0.0,
                "ratio",
                Combine::Sim,
            )
        };
        if w == Workload::ChurnEvict {
            let hit_rate = find(&untraced, "hit_rate");
            let mut single = |alg| {
                let opts = RoundOptions {
                    single_algorithm: Some(alg),
                    ..RoundOptions::default()
                };
                let r = run_round(w, args.seed, scale, opts);
                attempted += r.ops;
                failed += r.failed;
                wrong += r.wrong;
                r.hit_rate()
            };
            let (lru, lfu) = (single("lru"), single("lfu"));
            vs_best.value = hit_rate / lru.max(lfu);
            vs_best.note = format!("adaptive={hit_rate:.4} lru={lru:.4} lfu={lfu:.4}");
        }
        m.push(vs_best);
        m
    } else {
        let mut m = untraced;
        let rss = peak_rss_mb();
        m.push(host("peak_rss_mb", rss, "MB", String::new()));
        m
    };
    if let Some(t) = &tracer {
        let path = std::path::Path::new(TRACE_DIR).join(format!("{}.spans.csv", w.name()));
        match t.write_csv(&path) {
            Ok(()) => eprintln!("wrote {} spans to {}", t.spans().len(), path.display()),
            Err(e) => eprintln!("could not write {}: {e}", path.display()),
        }
    }

    println!(
        "{} seed={} rounds={rounds} trace={}",
        w.name(),
        args.seed,
        u8::from(args.trace)
    );
    for m in &metrics {
        let clock = if m.is_sim() { "sim" } else { "host" };
        println!(
            "  {:<44} {:>16.4} {:<9} {clock:<4} {}",
            m.name, m.value, m.unit, m.note
        );
    }
    let errors = wrong + failed;
    println!(
        "  error_rate {} (wrong={wrong} failed={failed} of {attempted}); drained-node residue {residue} B; simulated results {} across rounds",
        errors as f64 / attempted.max(1) as f64,
        if deterministic { "identical" } else { "DIFFER" },
    );
    let correct = wrong == 0 && residue == 0 && deterministic;
    println!("{}", json_line(correct, attempted, errors, &metrics));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
