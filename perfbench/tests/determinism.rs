//! The benchmark's simulated results must replay exactly from the seed,
//! and the seed must actually reach the generated inputs.

use ditto_perfbench::metrics::end_to_end;
use ditto_perfbench::round::{run_round, RoundOptions};
use ditto_perfbench::workload::{Plan, Scale, Workload};

const SMALL: Scale = Scale {
    keys: 2_000,
    requests: 6_000,
};

#[test]
fn same_seed_gives_identical_simulated_results() {
    for w in Workload::ALL {
        let a = run_round(w, 7, SMALL, RoundOptions::default());
        let b = run_round(w, 7, SMALL, RoundOptions::default());
        assert_eq!(a.sim_fingerprint, b.sim_fingerprint, "{}", w.name());
        let sim = |r| {
            end_to_end(r)
                .into_iter()
                .filter(|m| m.is_sim())
                .map(|m| (m.name, m.value.to_bits()))
                .collect::<Vec<_>>()
        };
        let (sa, sb) = (sim(&a), sim(&b));
        assert!(sa.iter().any(|(n, _)| n == "hit_rate"));
        assert!(sa.iter().any(|(n, _)| n == "msgs_per_op"));
        assert_eq!(sa, sb, "{}", w.name());
        assert_eq!(a.wrong + a.failed + a.residue_bytes, 0, "{}", w.name());
    }
}

#[test]
fn traced_round_replays_the_untraced_one() {
    let opts = RoundOptions {
        traced: true,
        calibrate: true,
        single_algorithm: None,
    };
    for w in Workload::ALL {
        let plain = run_round(w, 3, SMALL, RoundOptions::default());
        let traced = run_round(w, 3, SMALL, opts);
        assert_eq!(
            plain.sim_fingerprint,
            traced.sim_fingerprint,
            "{}",
            w.name()
        );
        let tracer = traced
            .tracer
            .as_ref()
            .expect("traced round keeps its spans");
        assert_eq!(tracer.dropped(), 0, "{}", w.name());
    }
}

#[test]
fn another_seed_changes_the_trace() {
    for w in Workload::ALL {
        let a = Plan::build(w, 1, SMALL);
        let b = Plan::build(w, 2, SMALL);
        assert_ne!(a.ops, b.ops, "{}", w.name());
        assert_ne!(a.values, b.values, "{}", w.name());
    }
}
