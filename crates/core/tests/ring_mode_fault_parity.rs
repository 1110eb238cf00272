//! Injected verb faults must not make the three ring modes disagree.
//!
//! Every client round is written once over `ditto_dm::WorkQueue`, and every
//! WQE's own status is visible in every ring mode.  So with a seeded plan of
//! plain verb failures (no timeouts, no fail-stop, no slow NIC) the
//! pipelined, synchronous-batch and sequential clients replaying the same
//! Get trace must return identical values and evolve the cache identically.
//! A low `fc_threshold` makes hits flush their frequency counters, so the
//! object READ of a hit often carries an unsignalled FAA: only the READ's
//! own status may decide the hit — a faulted FAA merely loses one counter
//! increment.

use ditto_core::stats::CacheStatsSnapshot;
use ditto_core::{DittoCache, DittoConfig};
use ditto_dm::{DmConfig, FaultPlan};
use ditto_workloads::{YcsbSpec, YcsbWorkload};

/// Replays a seeded YCSB-C trace with cache-aside fills under verb faults;
/// returns every observed value, the cache statistics and the number of
/// faults injected.
fn run(
    batching: bool,
    async_completion: bool,
    seed: u64,
) -> (Vec<Option<Vec<u8>>>, CacheStatsSnapshot, u64) {
    let spec = YcsbSpec {
        record_count: 2_000,
        request_count: 8_000,
        ..YcsbSpec::default()
    }
    .with_seed(seed);
    let mut config = DittoConfig::with_capacity(500)
        .with_doorbell_batching(batching)
        .with_async_completion(async_completion);
    config.fc_threshold = 2;
    let plan = FaultPlan::seeded(seed).with_verb_fail_ppm(40_000);
    let cache =
        DittoCache::with_dedicated_pool(config, DmConfig::default().with_fault_plan(plan)).unwrap();
    let mut client = cache.client();

    let mut observed = Vec::new();
    let mut value_buf = Vec::new();
    for request in spec.run_requests(YcsbWorkload::C) {
        let key = request.key_bytes();
        if client.get_into(&key, &mut value_buf) {
            observed.push(Some(value_buf.clone()));
        } else {
            observed.push(None);
            let _ = client.try_set(&key, &vec![request.key as u8; request.value_size as usize]);
        }
    }
    let faults = cache.pool().stats().faults().verb_failures;
    (observed, cache.stats().snapshot(), faults)
}

#[test]
fn ring_modes_agree_under_injected_verb_faults() {
    for seed in [3, 17] {
        let (pipelined, p_stats, p_faults) = run(true, true, seed);
        assert!(p_faults > 0, "seed {seed}: the plan must inject faults");
        assert!(
            p_stats.hits > 0 && p_stats.evictions > 0,
            "seed {seed}: {p_stats:?}"
        );
        for (name, batching, async_completion) in
            [("wait-all", true, false), ("sequential", false, false)]
        {
            let (values, stats, faults) = run(batching, async_completion, seed);
            for (i, (a, b)) in pipelined.iter().zip(&values).enumerate() {
                assert_eq!(
                    a, b,
                    "seed {seed}: request {i} diverged between pipelined and {name}"
                );
            }
            assert_eq!(
                faults, p_faults,
                "seed {seed}: {name} drew different faults"
            );
            assert_eq!(
                (
                    stats.hits,
                    stats.misses,
                    stats.evictions,
                    stats.bucket_evictions
                ),
                (
                    p_stats.hits,
                    p_stats.misses,
                    p_stats.evictions,
                    p_stats.bucket_evictions
                ),
                "seed {seed}: hit/miss/eviction counts diverged between pipelined and {name}"
            );
        }
    }
}
