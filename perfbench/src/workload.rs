//! The three benchmark workloads and their pre-built inputs.
//!
//! A [`Plan`] holds everything a round replays — the trace, every key and
//! every value it will write — generated from the seed before any timing
//! starts.  Values carry `(key, version, seed)` in their first bytes and a
//! seeded pattern after them, so a `Get` can be checked byte for byte
//! against the last write the benchmark completed for its key.

use ditto_workloads::traces::TraceSpec;
use ditto_workloads::{changing_workload, Op as ReqOp, Request, YcsbSpec, YcsbWorkload};
use std::time::Instant;

/// Bytes of every key (`Request::key_to_bytes` yields `user` + 16 digits).
pub const KEY_LEN: usize = 20;
/// Bytes of every value (the paper's 256-byte objects).
pub const VALUE_LEN: usize = 256;
/// Marks a key the benchmark has not written yet.
pub const UNWRITTEN: u32 = u32::MAX;

/// One of the benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// YCSB-C (θ = 0.99) on a cache twice the record count, one client, one
    /// memory node, no tier: every op is a remote Get hit.
    ReadRemote,
    /// The phase-changing LRU/LFU trace with cache-aside fills into a cache
    /// of 10 % of the footprint, four logical clients: mostly evicting Sets.
    ChurnEvict,
    /// YCSB-B (θ = 0.99), four logical clients with local tiers, a memory
    /// node added at 1/3 of the run and an original one drained at 2/3.
    ElasticTier,
}

impl Workload {
    /// Every workload, in the order the benchmark documents them.
    pub const ALL: [Workload; 3] = [
        Workload::ReadRemote,
        Workload::ChurnEvict,
        Workload::ElasticTier,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ReadRemote => "read-remote",
            Workload::ChurnEvict => "churn-evict",
            Workload::ElasticTier => "elastic-tier",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Logical clients sharing the one OS thread.
    pub fn clients(self) -> usize {
        match self {
            Workload::ReadRemote => 1,
            Workload::ChurnEvict | Workload::ElasticTier => 4,
        }
    }

    /// Whether a Get miss is followed by a cache-aside fill.
    pub fn fills_on_miss(self) -> bool {
        self == Workload::ChurnEvict
    }
}

/// Key-space size and request count of one round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scale {
    /// Records (YCSB) or distinct keys (churn-evict).
    pub keys: u64,
    /// Requests replayed in one round.
    pub requests: u64,
}

impl Scale {
    /// The scale the benchmark measures at.
    pub fn full(workload: Workload) -> Scale {
        match workload {
            Workload::ReadRemote => Scale {
                keys: 100_000,
                requests: 500_000,
            },
            Workload::ChurnEvict => Scale {
                keys: 200_000,
                requests: 300_000,
            },
            Workload::ElasticTier => Scale {
                keys: 100_000,
                requests: 300_000,
            },
        }
    }
}

/// One request of a round's trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Look `key` up (and fill it on a miss when the workload fills).
    Get { key: u32 },
    /// Write value number `value` under `key`.
    Set { key: u32, value: u32 },
}

/// A round's pre-built inputs.
pub struct Plan {
    /// Flat key arena: key `k` is `keys[k * KEY_LEN..][..KEY_LEN]`.
    pub keys: Vec<u8>,
    /// Flat value arena; value `v` is `values[v * VALUE_LEN..][..VALUE_LEN]`.
    /// Values `0..scale.keys` are version 0 of each key (load and fills);
    /// later ones belong to the trace's updates, in trace order.
    pub values: Vec<u8>,
    /// Keys written before the measured phase (value number = key).
    pub load: Vec<u32>,
    /// The measured trace.
    pub ops: Vec<Op>,
    /// When the `ditto_workloads` generator call started and ended.
    pub gen: (Instant, Instant),
}

impl Plan {
    /// Generates the inputs of `workload` at `scale` from `seed`.
    pub fn build(workload: Workload, seed: u64, scale: Scale) -> Plan {
        let t0 = Instant::now();
        let requests: Vec<Request> = match workload {
            Workload::ReadRemote | Workload::ElasticTier => {
                let spec = YcsbSpec {
                    record_count: scale.keys,
                    request_count: scale.requests,
                    value_size: VALUE_LEN as u32,
                    theta: 0.99,
                    seed,
                };
                let mix = if workload == Workload::ReadRemote {
                    YcsbWorkload::C
                } else {
                    YcsbWorkload::B
                };
                spec.run_requests(mix)
            }
            Workload::ChurnEvict => {
                let spec = TraceSpec::new(scale.keys, scale.requests)
                    .with_seed(seed)
                    .with_value_size(VALUE_LEN as u32);
                changing_workload(&spec, 4)
            }
        };
        let gen = (t0, Instant::now());

        let mut keys = Vec::with_capacity(scale.keys as usize * KEY_LEN);
        for k in 0..scale.keys {
            let bytes = Request::key_to_bytes(k);
            assert_eq!(bytes.len(), KEY_LEN, "key {k} does not fit the key arena");
            keys.extend_from_slice(&bytes);
        }
        let updates = requests.iter().filter(|r| r.op != ReqOp::Get).count();
        let mut values = vec![0u8; (scale.keys as usize + updates) * VALUE_LEN];
        for k in 0..scale.keys {
            fill_value(value_slot(&mut values, k as usize), seed, k, 0);
        }
        let mut versions = vec![0u32; scale.keys as usize];
        let mut next_value = scale.keys as u32;
        let ops = requests
            .iter()
            .map(|r| {
                let key = u32::try_from(r.key).expect("key ids fit in u32");
                match r.op {
                    ReqOp::Get => Op::Get { key },
                    ReqOp::Update | ReqOp::Insert => {
                        versions[key as usize] += 1;
                        let value = next_value;
                        next_value += 1;
                        fill_value(
                            value_slot(&mut values, value as usize),
                            seed,
                            r.key,
                            versions[key as usize],
                        );
                        Op::Set { key, value }
                    }
                }
            })
            .collect();
        let load = if workload.fills_on_miss() {
            Vec::new()
        } else {
            (0..scale.keys as u32).collect()
        };
        Plan {
            keys,
            values,
            load,
            ops,
            gen,
        }
    }

    /// Key `k`'s bytes.
    pub fn key(&self, k: u32) -> &[u8] {
        &self.keys[k as usize * KEY_LEN..][..KEY_LEN]
    }

    /// Value number `v`'s bytes.
    pub fn value(&self, v: u32) -> &[u8] {
        &self.values[v as usize * VALUE_LEN..][..VALUE_LEN]
    }
}

fn value_slot(values: &mut [u8], v: usize) -> &mut [u8] {
    &mut values[v * VALUE_LEN..][..VALUE_LEN]
}

/// Writes the value of `key` at `version`: an identifying header, then a
/// seeded splitmix64 stream so two versions differ in every word.
fn fill_value(out: &mut [u8], seed: u64, key: u64, version: u32) {
    out[..8].copy_from_slice(&key.to_le_bytes());
    out[8..12].copy_from_slice(&version.to_le_bytes());
    out[12..20].copy_from_slice(&seed.to_le_bytes());
    let mut state = seed ^ key.rotate_left(20) ^ u64::from(version).rotate_left(44);
    for chunk in out[20..].chunks_mut(8) {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        chunk.copy_from_slice(&z.to_le_bytes()[..chunk.len()]);
    }
}
