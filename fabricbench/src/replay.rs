//! The layer replay: calls each substrate's public functions on the run's
//! own committed inputs, in commit order, timing every call. It doubles
//! as the correctness gate for what clients were told: each ticket's
//! `CommitProof::results` must equal the replayed execution of its batch,
//! and the replayed table must end at the ledger head's state digest.

use crate::spec::{DEPLOY_SEED, RECORDS};
use crate::trace::Spans;
use rdb_common::ids::{ClientId, NodeId, ReplicaId};
use rdb_consensus::codec::{decode_frame_body, encode_frame_into};
use rdb_consensus::messages::Message;
use rdb_crypto::sign::KeyStore;
use rdb_ledger::Ledger;
use rdb_storage::{Keyspace, LogBackend, LogConfig, StorageBackend, WriteBatch};
use rdb_store::{KvStore, Operation, TxnEffect};
use resilientdb::CommitProof;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::path::Path;
use std::time::Instant;

/// The substrate calls the replay times, in call order per block.
pub const CALLS: [&str; 8] = [
    "crypto.batch_digest",
    "crypto.sign",
    "crypto.verify",
    "codec.encode",
    "codec.decode",
    "store.execute_batch",
    "ledger.append",
    "storage.apply",
];

pub struct Replay {
    /// Per call name, µs of every call.
    pub calls: BTreeMap<&'static str, Vec<f64>>,
    pub spans: Spans,
}

/// Replay `ledger` (the longest committed chain of the run) and check
/// every proof against it. `ids` are the sessions' identities; `wal_dir`
/// is given for durable runs and receives the replayed WAL.
pub fn replay(
    ledger: &Ledger,
    proofs: &[(ClientId, u64, CommitProof)],
    ids: &[ClientId],
    wal_dir: Option<&Path>,
    trace: bool,
    epoch: Instant,
) -> Result<Replay, String> {
    let keys = KeyStore::new(DEPLOY_SEED);
    let signers: HashMap<ClientId, _> = ids
        .iter()
        .map(|&id| (id, keys.register(id.into())))
        .collect();
    let verifier = keys.verifier();
    let mut store = KvStore::with_ycsb_records(RECORDS);
    let mut chain = Ledger::new();
    let mut wal = match wal_dir {
        Some(dir) => Some(
            LogBackend::open(dir, LogConfig::default())
                .map_err(|e| format!("open replay WAL {}: {e}", dir.display()))?,
        ),
        None => None,
    };
    let mut calls: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut spans = Spans::new(epoch);
    let mut effects: HashMap<(ClientId, u64), (u64, TxnEffect)> = HashMap::new();
    let from = NodeId::Client(ClientId::new(0, 0));
    let to = NodeId::Replica(ReplicaId::new(0, 0));
    let mut frame = Vec::new();

    for block in ledger.blocks().iter().filter(|b| b.height > 0) {
        let signed = &block.batch;
        let client = signed.batch.client;
        let req = (client, signed.batch.batch_seq);
        let ops: Vec<Operation> = signed.batch.txns.iter().map(|t| t.op.clone()).collect();
        let msg = Message::Request(signed.clone());
        let (batch, cert) = (signed.clone(), block.certificate.clone());
        let block_start = Instant::now();
        let mut log = Vec::with_capacity(CALLS.len());

        let digest = timed(&mut log, "crypto.batch_digest", || signed.batch.digest());
        if let Some(signer) = signers.get(&client) {
            timed(&mut log, "crypto.sign", || signer.sign(digest.as_bytes()));
            let ok = timed(&mut log, "crypto.verify", || {
                verifier.verify(&signed.pubkey, digest.as_bytes(), &signed.sig)
            });
            if !ok {
                return Err(format!(
                    "block {}: client signature does not verify",
                    block.height
                ));
            }
        }
        frame.clear();
        timed(&mut log, "codec.encode", || {
            encode_frame_into(&mut frame, from, to, &msg)
        });
        match timed(&mut log, "codec.decode", || decode_frame_body(&frame[4..])) {
            Ok((_, _, Message::Request(back))) if back == *signed => {}
            _ => {
                return Err(format!(
                    "block {}: request frame does not round-trip",
                    block.height
                ))
            }
        }
        let effect = timed(&mut log, "store.execute_batch", || {
            store.execute_batch(&ops)
        });
        effects.entry(req).or_insert((block.height, effect));
        timed(&mut log, "ledger.append", || {
            chain.append(batch, cert, block.state_digest);
        });
        if let Some(wal) = wal.as_mut() {
            let mut wb = WriteBatch::new();
            let image = serde_json::to_string(block).map_err(|e| e.to_string())?;
            wb.put(
                Keyspace::Blocks,
                block.height.to_be_bytes(),
                image.into_bytes(),
            );
            let written: BTreeSet<u64> = ops
                .iter()
                .filter(|op| !matches!(op, Operation::Read { .. }))
                .filter_map(Operation::primary_key)
                .collect();
            for key in written {
                let value = store.get(key).unwrap_or_default();
                let mut record = value.0.to_vec();
                record.extend_from_slice(&store.version(key).unwrap_or(0).to_le_bytes());
                wb.put(Keyspace::Table, key.to_be_bytes(), record);
            }
            wb.put(Keyspace::Meta, *b"applied", block.height.to_le_bytes());
            timed(&mut log, "storage.apply", || wal.apply(wb))
                .map_err(|e| format!("replay WAL apply: {e}"))?;
        }

        for &(name, t0, t1) in &log {
            calls
                .entry(name)
                .or_default()
                .push((t1 - t0).as_secs_f64() * 1e6);
        }
        if trace {
            let parent = spans.push("replay.block", block_start, Instant::now(), None, Some(req));
            for (name, t0, t1) in log {
                spans.push(name, t0, t1, Some(parent), Some(req));
            }
        }
    }

    let head = ledger
        .block(ledger.head_height())
        .ok_or("ledger has no head block")?;
    if ledger.head_height() > 0 && store.state_digest() != head.state_digest {
        return Err(format!(
            "replayed state {:?} != ledger head state {:?} at height {}",
            store.state_digest(),
            head.state_digest,
            ledger.head_height()
        ));
    }
    if chain.head_hash() != ledger.head_hash() {
        return Err("replayed chain head differs from the committed head".into());
    }
    for (client, batch_seq, proof) in proofs {
        let Some((height, effect)) = effects.get(&(*client, *batch_seq)) else {
            return Err(format!(
                "proof of {client} batch {batch_seq} has no committed block"
            ));
        };
        if *height != proof.block_height {
            return Err(format!(
                "proof of {client} claims height {}, committed at {height}",
                proof.block_height
            ));
        }
        if *effect != proof.results {
            return Err(format!(
                "proof of {client} at height {height}: results differ from replayed execution"
            ));
        }
    }
    Ok(Replay { calls, spans })
}

/// Run `f`, logging its name and start and end times.
fn timed<T>(
    log: &mut Vec<(&'static str, Instant, Instant)>,
    name: &'static str,
    f: impl FnOnce() -> T,
) -> T {
    let t0 = Instant::now();
    let out = std::hint::black_box(f());
    log.push((name, t0, Instant::now()));
    out
}
