//! The benchmark's workloads and the constants every run records.
//!
//! Rates are fixed constants, a third to a half of the capacity measured
//! on a 2-vCPU x86-64 VM (see `NOTES.md`). They are never derived from the run
//! itself, so a faster fabric meets the same offered load.

use rdb_consensus::config::ProtocolKind;
use rdb_workload::ycsb::OpMix;
use resilientdb::TransportMode;
use std::time::Duration;

/// Records preloaded into every replica's table.
pub const RECORDS: u64 = 100_000;
/// Zipf skew of the key distribution.
pub const THETA: f64 = 0.99;
/// Deployment seed (replica and client keys). The workload seed is the
/// run's `--seed`; keys stay fixed so signatures are comparable.
pub const DEPLOY_SEED: u64 = 42;
/// Batches in flight per session in the saturation phase.
pub const WINDOW: usize = 4;
/// A ticket unresolved this long after it was due counts as failed.
pub const DEADLINE: Duration = Duration::from_secs(2);
/// Untimed closed-loop warm-up before the open-loop phase.
pub const WARMUP: Duration = Duration::from_secs(1);
/// Fabrics booted per run to time set-up; the median is reported and
/// the last one serves the run.
pub const SETUPS: usize = 3;

/// One workload: a deployment shape plus its offered load.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub kind: ProtocolKind,
    /// Clusters; one session per cluster.
    pub clusters: usize,
    /// Replicas per cluster.
    pub replicas: usize,
    pub transport: TransportMode,
    pub durable: bool,
    pub mix: OpMix,
    pub batch: usize,
    /// Offered open-loop rate, batches per second over all sessions.
    pub open_rate: f64,
    /// Whether the run has a warm-up and a saturation phase. The overload
    /// workload is open loop only, and its window is the open-loop phase.
    pub saturate: bool,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "pbft-mem",
        kind: ProtocolKind::Pbft,
        clusters: 1,
        replicas: 4,
        transport: TransportMode::InProcess,
        durable: false,
        mix: OpMix::WRITE_ONLY,
        batch: 100,
        open_rate: 450.0,
        saturate: true,
    },
    Workload {
        name: "geobft-tcp",
        kind: ProtocolKind::GeoBft,
        clusters: 2,
        replicas: 4,
        transport: TransportMode::Tcp,
        durable: false,
        mix: OpMix::YCSB_A,
        batch: 10,
        open_rate: 400.0,
        saturate: true,
    },
    Workload {
        name: "pbft-durable",
        kind: ProtocolKind::Pbft,
        clusters: 1,
        replicas: 4,
        transport: TransportMode::InProcess,
        durable: true,
        mix: OpMix::WRITE_ONLY,
        batch: 100,
        open_rate: 70.0,
        saturate: true,
    },
    Workload {
        name: "pbft-overload",
        kind: ProtocolKind::Pbft,
        clusters: 1,
        replicas: 4,
        transport: TransportMode::InProcess,
        durable: false,
        mix: OpMix::WRITE_ONLY,
        batch: 10,
        open_rate: 6000.0,
        saturate: false,
    },
];

pub fn workload(name: &str) -> Option<Workload> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

/// The timed phases of a run of `seconds` seconds: the open-loop phase
/// and the saturation phase split the time evenly; the overload workload
/// spends all of it open loop.
pub fn phase_lengths(w: &Workload, seconds: u64) -> (Duration, Duration) {
    let total = Duration::from_secs(seconds);
    if w.saturate {
        (total / 2, total / 2)
    } else {
        (total, Duration::ZERO)
    }
}
