//! End-to-end and per-layer benchmark of a live ResilientDB fabric.
//!
//! ```sh
//! cargo run --release --offline --manifest-path fabricbench/Cargo.toml -- \
//!     --workload pbft-mem --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Boots the workload's deployment with `DeploymentBuilder::start`, drives
//! it through `Fabric::session` / `ClientSession::submit` /
//! `Ticket::wait_timeout` only, checks the committed outputs, and prints
//! one JSON line: the end-to-end metrics with `--trace 0`, the per-layer
//! metrics with `--trace 1`. Definitions are in `BENCHMARK.json` and
//! `fabricbench/NOTES.md`.

mod host;
mod load;
mod replay;
mod spec;
mod stats;
mod trace;

use rdb_common::ids::ClusterId;
use rdb_consensus::config::ProtocolConfig;
use rdb_consensus::registry;
use rdb_consensus::stage::Stage;
use resilientdb::{DeploymentBuilder, DeploymentReport, Fabric, StorageMode};
use spec::{Workload, DEADLINE, DEPLOY_SEED, RECORDS, SETUPS, THETA, WARMUP, WINDOW};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// A run must end within 180 s; one still going at this point is stopped
/// without a result.
const WATCHDOG: Duration = Duration::from_secs(170);

/// The latency limit of `on_time_ratio`: an open-loop batch is on time if
/// it committed within this many ms of its due time.
const ON_TIME_MS: f64 = 20.0;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(spec::workload(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| "bad --seed")?),
            "--seconds" => seconds = Some(value.parse().map_err(|_| "bad --seconds")?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace is 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(20).max(1),
        trace: trace.unwrap_or(false),
    })
}

/// A directory removed when the run ends, failed runs included.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Metrics in print order: name → (value, unit).
type Metrics = Vec<(String, f64, &'static str)>;

fn builder(w: &Workload, dir: Option<PathBuf>) -> DeploymentBuilder {
    DeploymentBuilder::new(w.kind, w.clusters, w.replicas)
        .batch_size(w.batch)
        .records(RECORDS)
        .seed(DEPLOY_SEED)
        .transport_mode(w.transport)
        .storage(dir.map_or(StorageMode::Memory, StorageMode::Durable))
}

struct RunResult {
    /// Hypervisor steal time during the run, kept with the record.
    steal_s: f64,
    correct: Result<(), String>,
    attempted: usize,
    failed: usize,
    /// Failed tickets of the warm-up, open-loop and saturation phases.
    failed_by_phase: [usize; 3],
    end_to_end: Metrics,
    per_layer: Metrics,
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("fabricbench: {e}");
            eprintln!("usage: --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            std::process::exit(2);
        }
    };
    let out = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let scratch = Scratch(out.join(format!("tmp-{}", std::process::id())));
    if let Err(e) = std::fs::create_dir_all(&scratch.0) {
        eprintln!("fabricbench: create {}: {e}", scratch.0.display());
        std::process::exit(2);
    }
    let doomed = scratch.0.clone();
    std::thread::spawn(move || {
        std::thread::sleep(WATCHDOG);
        eprintln!("fabricbench: run exceeded {WATCHDOG:?}; stopping");
        let _ = std::fs::remove_dir_all(&doomed);
        std::process::exit(3);
    });

    let outcome = run(&args, &scratch.0);
    let code = finish(&args, &out, outcome);
    drop(scratch);
    std::process::exit(code);
}

fn run(args: &Args, scratch: &Path) -> RunResult {
    let w = &args.workload;
    let epoch = Instant::now();
    let steal = host::steal();

    // Set-up, timed several times: every boot but the last is shut down
    // again. The first also measures the storage activity of set-up alone,
    // which is subtracted from the run's storage counters.
    let mut setups = Vec::new();
    let mut setup_storage = None;
    let mut booted = None;
    for i in 0..SETUPS {
        let dir = w.durable.then(|| scratch.join(format!("data-{i}")));
        let t0 = Instant::now();
        let fabric = builder(w, dir.clone()).start();
        let sessions: Vec<_> = (0..w.clusters)
            .map(|c| fabric.session(ClusterId(c as u16)))
            .collect();
        setups.push(t0.elapsed().as_secs_f64());
        if i + 1 < SETUPS {
            drop(sessions);
            let report = fabric.shutdown();
            setup_storage.get_or_insert(report.storage.stats);
            if let Some(dir) = dir {
                let _ = std::fs::remove_dir_all(dir);
            }
        } else {
            booted = Some((fabric, sessions, dir));
        }
    }
    let (fabric, sessions, data_dir) = booted.expect("at least one set-up");
    let ids: Vec<_> = sessions.iter().map(|s| s.id()).collect();

    let load = load::drive(
        w,
        &sessions,
        args.seed,
        spec::phase_lengths(w, args.seconds),
        args.trace,
        epoch,
    );
    drop(sessions);
    let report = fabric.shutdown();
    let peak_rss_mb = host::peak_rss_mb();

    let attempted = load.submitted();
    let failed = load.failed();
    let mut outcome = RunResult {
        steal_s: host::steal().saturating_sub(steal).as_secs_f64(),
        correct: Ok(()),
        attempted,
        failed,
        failed_by_phase: [
            load::Phase::Warmup,
            load::Phase::Open,
            load::Phase::Saturation,
        ]
        .map(|p| {
            load.outcomes
                .iter()
                .filter(|o| o.phase == p && !o.ok)
                .count()
        }),
        end_to_end: Vec::new(),
        per_layer: Vec::new(),
    };
    let checked = check(
        w,
        &report,
        &load,
        &ids,
        data_dir.as_deref(),
        scratch,
        args.trace,
        epoch,
    );
    let replay = match checked {
        Ok(r) => r,
        Err(e) => {
            outcome.correct = Err(e);
            return outcome;
        }
    };

    let (from, to) = load.window;
    let window_s = (to - from).as_secs_f64();
    let window_txns = load.window_txns();
    let txn_s = window_txns as f64 / window_s;
    let lat = load.open_latencies_ms();
    let committed = attempted - failed;
    let e2e = &mut outcome.end_to_end;
    e2e.push(("setup_s".into(), stats::median(&setups), "s"));
    e2e.push(("txn_s".into(), txn_s, "1/s"));
    let on_time = lat.iter().filter(|&&ms| ms <= ON_TIME_MS).count();
    e2e.push((
        "on_time_ratio".into(),
        stats::per(on_time as f64, lat.len() as u64),
        "ratio",
    ));
    e2e.push((
        "commit_ratio".into(),
        stats::per(committed as f64, attempted as u64),
        "ratio",
    ));
    e2e.push(("peak_rss_mb".into(), peak_rss_mb, "MiB"));

    let decided = report.decided;
    let txns_total: u64 = load
        .outcomes
        .iter()
        .filter(|o| o.ok)
        .map(|o| o.txns as u64)
        .sum();
    let layer = &mut outcome.per_layer;
    for stage in [
        Stage::Input,
        Stage::Verify,
        Stage::Order,
        Stage::Execute,
        Stage::Output,
    ] {
        let row = report.stages.row(stage);
        let l = stage.label();
        layer.push((
            format!("{l}.busy_us_per_dec"),
            stats::us_per(row.busy, decided),
            "us",
        ));
        layer.push((
            format!("{l}.blocked_us_per_dec"),
            stats::us_per(row.blocked, decided),
            "us",
        ));
        layer.push((
            format!("{l}.items_per_dec"),
            stats::per(row.processed as f64, decided),
            "count",
        ));
        layer.push((format!("{l}.shed"), row.shed as f64, "count"));
        layer.push((format!("{l}.dropped"), row.dropped as f64, "count"));
    }
    layer.push(("order.occupancy".into(), report.worker_occupancy(), "ratio"));
    layer.push(("decided".into(), decided as f64, "count"));
    layer.push(("committed_txns".into(), txns_total as f64, "count"));
    layer.push((
        "proc.cpu_us_per_txn".into(),
        stats::us_per(load.window_cpu, window_txns as u64),
        "us",
    ));
    let net = &report.net;
    layer.push((
        "net.bytes_per_txn".into(),
        stats::per(net.total_bytes_out() as f64, txns_total),
        "B",
    ));
    layer.push((
        "net.frames_per_dec".into(),
        stats::per(net.total_frames_out() as f64, decided),
        "count",
    ));
    layer.push((
        "net.reconnects".into(),
        net.total_reconnects() as f64,
        "count",
    ));
    layer.push((
        "msgs_per_dec".into(),
        stats::per(report.messages_sent as f64, decided),
        "count",
    ));
    let st = report.storage.stats;
    let base = setup_storage.unwrap_or_default();
    let run_only = |total: u64, setup: u64| total.saturating_sub(setup) as f64;
    layer.push((
        "wal.bytes_per_dec".into(),
        stats::per(run_only(st.wal_bytes, base.wal_bytes), decided),
        "B",
    ));
    layer.push((
        "wal.records_per_dec".into(),
        stats::per(run_only(st.wal_records, base.wal_records), decided),
        "count",
    ));
    layer.push((
        "storage.run_bytes_per_dec".into(),
        stats::per(run_only(st.run_bytes, base.run_bytes), decided),
        "B",
    ));
    layer.push((
        "storage.flushes".into(),
        run_only(st.flushes, base.flushes),
        "count",
    ));
    layer.push((
        "storage.compactions".into(),
        run_only(st.compactions, base.compactions),
        "count",
    ));
    layer.push((
        "service.submit_us.p50".into(),
        stats::median(&load.submit_us),
        "us",
    ));
    layer.push((
        "service.submit_us.p99".into(),
        stats::percentile(&load.submit_us, 0.99),
        "us",
    ));
    layer.push((
        "gen.late_ms.p99".into(),
        stats::percentile(&load.late_ms, 0.99),
        "ms",
    ));
    layer.push((
        "gen.late_ms.max".into(),
        stats::percentile(&load.late_ms, 1.0),
        "ms",
    ));
    // Open-loop latency is per-layer, not end-to-end: see NOTES.md.
    layer.push(("lat_p50_ms".into(), stats::median(&lat), "ms"));
    layer.push(("lat_p99_ms".into(), stats::percentile(&lat, 0.99), "ms"));
    layer.push(("lat.samples".into(), lat.len() as f64, "count"));
    for call in replay::CALLS {
        let us = replay.calls.get(call).map_or(&[][..], |v| &v[..]);
        layer.push((format!("{call}_us"), stats::median(us), "us"));
        layer.push((format!("{call}_calls"), us.len() as f64, "count"));
    }
    layer.push(("trace.txn_s".into(), txn_s, "1/s"));

    // Spans exist only in a traced run.
    let mut spans = load.spans;
    spans.link("client.submit", "client.commit");
    spans.link("client.submit", "client.failed");
    spans.extend(replay.spans);
    layer.push(("trace.spans".into(), spans.spans.len() as f64, "count"));
    if args.trace {
        let out = scratch.parent().expect("scratch under out/");
        let table = span_table(&spans);
        eprint!("{table}");
        let written = spans
            .write_jsonl(&out.join(format!("{}.spans.jsonl", w.name)))
            .and_then(|_| std::fs::write(out.join(format!("{}.spans.txt", w.name)), table));
        if let Err(e) = written {
            outcome.correct = Err(format!("write spans: {e}"));
        }
    }
    outcome
}

/// The correctness gate. Any failure means the run reports no numbers.
#[allow(clippy::too_many_arguments)]
fn check(
    w: &Workload,
    report: &DeploymentReport,
    load: &load::LoadResult,
    ids: &[rdb_common::ids::ClientId],
    data_dir: Option<&Path>,
    scratch: &Path,
    trace: bool,
    epoch: Instant,
) -> Result<replay::Replay, String> {
    report
        .audit_ledgers()
        .map_err(|e| format!("ledger audit: {e}"))?;
    report
        .audit_execution_stage()
        .map_err(|e| format!("execution-stage audit: {e}"))?;
    let quorum = registry::reply_quorum(w.kind, &ProtocolConfig::new(report.system.clone()));
    if let Some((c, b, p)) = load
        .proofs
        .iter()
        .find(|(_, _, p)| p.quorum_size() < quorum)
    {
        return Err(format!(
            "proof of {c} batch {b} has {} attestations, quorum is {quorum}",
            p.quorum_size()
        ));
    }
    let longest = report
        .ledgers
        .values()
        .max_by_key(|l| l.head_height())
        .ok_or("no ledgers")?;
    let wal_dir = data_dir.map(|_| scratch.join("replay-wal"));
    let replay = replay::replay(longest, &load.proofs, ids, wal_dir.as_deref(), trace, epoch)?;
    if let Some(dir) = data_dir {
        let restarted = Fabric::restart_from(dir)
            .map_err(|e| format!("restart from {}: {e}", dir.display()))?
            .shutdown();
        for (rid, before) in &report.ledgers {
            let after = restarted
                .ledgers
                .get(rid)
                .ok_or(format!("replica {rid} missing after restart"))?;
            let same = after
                .block(before.head_height())
                .is_some_and(|b| b.hash() == before.head_hash());
            if !same {
                return Err(format!(
                    "replica {rid}: restart did not read back head {}",
                    before.head_height()
                ));
            }
        }
    }
    Ok(replay)
}

/// Self time per span name, from the spans.
fn span_table(spans: &trace::Spans) -> String {
    let mut t = String::from("span                   count  self_p50_us   self_total_ms\n");
    for (name, (count, p50, total)) in spans.self_times() {
        let _ = writeln!(t, "{name:<22} {count:>6} {p50:>12.3} {:>15.3}", total / 1e3);
    }
    t
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if c.is_control() => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Print the per-layer table and the result line, write the run record,
/// and return the exit code.
fn finish(args: &Args, out: &Path, outcome: RunResult) -> i32 {
    let w = &args.workload;
    let metrics = if args.trace {
        &outcome.per_layer
    } else {
        &outcome.end_to_end
    };
    let finite = metrics.iter().all(|(_, v, _)| v.is_finite());
    let correct = match (&outcome.correct, finite) {
        (Ok(()), true) => Ok(()),
        (Ok(()), false) => Err("a metric is not a finite number".to_owned()),
        (Err(e), _) => Err(e.clone()),
    };
    let mut table = String::new();
    for (name, value, unit) in outcome.end_to_end.iter().chain(&outcome.per_layer) {
        let _ = writeln!(table, "{name:<28} {value:>16.4} {unit}");
    }
    eprint!("{table}");
    let fields = |m: &Metrics| {
        m.iter()
            .map(|(n, v, u)| {
                format!(
                    "{}: {{\"value\": {v}, \"unit\": {}}}",
                    json_str(n),
                    json_str(u)
                )
            })
            .collect::<Vec<_>>()
            .join(", ")
    };
    let shown = if correct.is_ok() {
        fields(metrics)
    } else {
        String::new()
    };
    let line = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{shown}}}}}",
        correct.is_ok(),
        outcome.attempted.max(1),
        outcome.failed
    );
    let flags = host::cpu_flags();
    let record = format!(
        "{{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"git_rev\": {}, \
         \"nproc\": {}, \"steal_s\": {}, \"sha_ni\": {}, \"cpu_flags\": {}, \"constants\": {{\"kind\": {}, \
         \"clusters\": {}, \"replicas\": {}, \"transport\": {}, \"durable\": {}, \"mix\": {}, \
         \"batch\": {}, \"open_rate_batches_s\": {}, \"saturate\": {}, \"records\": {RECORDS}, \
         \"theta\": {THETA}, \"deploy_seed\": {DEPLOY_SEED}, \"window\": {WINDOW}, \
         \"deadline_s\": {}, \"warmup_s\": {}, \"setups\": {SETUPS}}}, \"error\": {}, \"failed_by_phase\": {:?}, \
         \"end_to_end\": {{{}}}, \"per_layer\": {{{}}}}}",
        json_str(w.name),
        args.seed,
        args.seconds,
        args.trace,
        json_str(&host::git_rev()),
        host::nproc(),
        outcome.steal_s,
        flags.iter().any(|f| f == "sha_ni"),
        json_str(&flags.join(" ")),
        json_str(w.kind.name()),
        w.clusters,
        w.replicas,
        json_str(&format!("{:?}", w.transport)),
        w.durable,
        json_str(&format!("{:?}", w.mix)),
        w.batch,
        w.open_rate,
        w.saturate,
        DEADLINE.as_secs_f64(),
        WARMUP.as_secs_f64(),
        correct.as_ref().err().map_or("null".to_owned(), |e| json_str(e)),
        outcome.failed_by_phase,
        fields(&outcome.end_to_end),
        fields(&outcome.per_layer),
    );
    let path = out.join(format!(
        "{}-seed{}-trace{}.json",
        w.name,
        args.seed,
        u8::from(args.trace)
    ));
    if let Err(e) = std::fs::write(&path, record + "\n") {
        eprintln!("fabricbench: write {}: {e}", path.display());
    }
    match &correct {
        Ok(()) => {
            println!("{line}");
            0
        }
        Err(e) => {
            eprintln!("fabricbench: correctness check failed: {e}");
            println!("{line}");
            1
        }
    }
}
