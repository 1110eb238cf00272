//! A two-clock benchmark of the Ditto reproduction.
//!
//! One process and one OS thread replay a seeded workload against the
//! library's public API and report what a user of the cache sees (end to
//! end, tracing off) or what each layer costs (a traced run).  Every
//! number names its clock: *simulated* values are the modelled RDMA cost
//! and repeat exactly for a seed; *host* values are what the Rust code
//! costs on this CPU.  See `BENCHMARK.json` at the repository root for the
//! workloads and for which end-to-end metric each per-layer metric should
//! move.

pub mod metrics;
pub mod round;
pub mod trace;
pub mod workload;
