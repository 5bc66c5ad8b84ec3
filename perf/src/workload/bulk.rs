//! `rpc_bulk` and `disk_bulk`: whole-BLOB 4 MiB writes and reads over
//! loopback RPC, on RAM-hosted or disk-hosted stores.
//!
//! Each client keeps a ring of live BLOBs: a write creates a fresh BLOB,
//! the oldest is deleted (untimed) once the ring is full, so the working
//! set is bounded and the steady state includes reclamation. The read
//! phase cycles the ring with whole-BLOB reads; the cache is off, so every
//! byte crosses the wire.

use super::{
    drive, drive_rounds, gauges, timed_setups, ClientPhase, Outcome, RunArgs, RunResult, Stop,
};
use crate::err_str;
use crate::payload::{in_full_sample, stream_id, Stamper};
use crate::rig::{config, rpc_client, rpc_rig, Client, ScratchDir, PROVIDERS};
use crate::trace::Kind;
use blobseer_core::BlobClient;
use blobseer_rpc::LoopbackCluster;
use blobseer_types::{BlobId, NodeId};
use std::collections::VecDeque;
use std::time::Instant;

const BLOCK: usize = 64 << 10;

struct BulkClient {
    no: usize,
    handle: Client,
    blobs: BlobClient,
    /// Live BLOBs, oldest first, with the stream number each was stamped
    /// with.
    ring: VecDeque<(BlobId, u64)>,
    next_index: u64,
    reads: u64,
    buf: Vec<u8>,
}

struct BulkRig {
    clients: Vec<BulkClient>,
    // Declared after the clients: their connections close before the
    // servers stop, and the servers stop before the directory goes.
    cluster: LoopbackCluster,
    dir: Option<ScratchDir>,
}

struct Shape<'a> {
    stamper: &'a Stamper,
    blob_len: usize,
    ring: usize,
}

/// Writes fresh BLOBs until `stop`. `timed` ops go through the client's
/// op timer (and so into the trace); the warm-up fill does not.
fn write_loop(c: &mut BulkClient, shape: &Shape<'_>, stop: Stop, timed: bool) -> ClientPhase {
    let mut done = ClientPhase::default();
    while !stop.reached(done.ops) {
        let index = c.next_index;
        c.next_index += 1;
        let stream = stream_id(c.no, index);
        shape.stamper.stamp(&mut c.buf, BLOCK, stream, 0);
        let (written, ns) = c.handle.timer.time(Kind::Write, timed, || {
            c.blobs
                .try_create()
                .and_then(|blob| c.blobs.write(blob, 0, &c.buf).map(|_| blob))
        });
        done.ops += 1;
        match written {
            Ok(blob) => {
                done.ok(shape.blob_len as u64, ns);
                c.ring.push_back((blob, index));
            }
            Err(_) => done.failed += 1,
        }
        if c.ring.len() > shape.ring {
            let (old, old_index) = c.ring.pop_front().expect("ring is not empty");
            // A write is only as good as what reads back: the sampled
            // BLOBs are read in full before they go.
            if in_full_sample(old_index) {
                let back = c.blobs.read(old, None, 0, shape.blob_len as u64);
                let intact = back.is_ok_and(|bytes| {
                    shape.stamper.check(
                        &bytes,
                        shape.blob_len,
                        BLOCK,
                        stream_id(c.no, old_index),
                        0,
                        true,
                    )
                });
                done.failed += u64::from(!intact);
            }
            done.failed += u64::from(c.blobs.delete_blob(old).is_err());
        }
    }
    done
}

/// Reads whole BLOBs round the ring until `stop`.
fn read_loop(c: &mut BulkClient, shape: &Shape<'_>, stop: Stop) -> ClientPhase {
    let mut done = ClientPhase::default();
    while !stop.reached(done.ops) {
        let (blob, index) = c.ring[(c.reads % c.ring.len() as u64) as usize];
        let (got, ns) = c.handle.timer.time(Kind::Read, true, || {
            c.blobs.read(blob, None, 0, shape.blob_len as u64)
        });
        done.ops += 1;
        let intact = got.is_ok_and(|bytes| {
            shape.stamper.check(
                &bytes,
                shape.blob_len,
                BLOCK,
                stream_id(c.no, index),
                0,
                in_full_sample(c.reads),
            )
        });
        c.reads += 1;
        if intact {
            done.ok(shape.blob_len as u64, ns);
        } else {
            done.failed += 1;
        }
    }
    done
}

pub fn run(args: &RunArgs, on_disk: bool) -> RunResult {
    let sizes = &args.sizes;
    let blob_len = sizes.bulk_blob_blocks * BLOCK;
    let stamper = Stamper::new(args.seed, blob_len);
    let shape = Shape {
        stamper: &stamper,
        blob_len,
        ring: sizes.bulk_ring,
    };
    let label = if on_disk { "disk_bulk" } else { "rpc_bulk" };

    // Set-up: boot, deploy, fill each client's ring (the warm-up writes).
    let (mut rig, setup_s) = timed_setups(sizes.setup_reps, || {
        let dir = on_disk
            .then(|| ScratchDir::new(label))
            .transpose()
            .map_err(err_str)?;
        let mut cfg = config(BLOCK as u64);
        if let Some(dir) = &dir {
            cfg = cfg.with_data_dir(dir.path());
        }
        let rpc = rpc_rig(cfg, args.trace.as_ref()).map_err(err_str)?;
        let mut clients: Vec<BulkClient> = rpc
            .clients
            .into_iter()
            .enumerate()
            .map(|(no, handle)| BulkClient {
                no,
                blobs: handle.sys.client(NodeId::new(100 + no as u64)),
                handle,
                ring: VecDeque::new(),
                next_index: 0,
                reads: 0,
                buf: stamper.buffer(blob_len),
            })
            .collect();
        let fill = drive(
            &mut clients,
            || Stop::After(sizes.bulk_ring as u64),
            |c, stop| write_loop(c, &shape, stop, false),
        );
        if fill.failed > 0 {
            return Err(format!("{} warm-up writes failed", fill.failed));
        }
        Ok(BulkRig {
            clients,
            cluster: rpc.cluster,
            dir,
        })
    })?;

    if args.corrupt {
        stamper.corrupt_next_check();
    }
    let mut out = Outcome {
        setup_s,
        ..Outcome::default()
    };
    // On disk the write phase is the shorter one. The page cache takes
    // writes at memory speed only while the dirty pages of the run (the
    // fill included) stay under the kernel's background-writeback limit —
    // about 1.1 GiB on the box this was sized on; past it the writers drop
    // to the speed of the sandbox's virtual disk. A phase that crosses the
    // limit measures two regimes at once, and the one worth a ruler is
    // `blobseer-disk`'s own cost: 15 % of the run keeps the 0.5 GiB fill
    // plus the phase near 1 GiB.
    let write_share = if on_disk { 0.15 } else { 0.5 };
    let frames_before = rig.cluster.frames_served();
    out.write = drive_rounds(&mut rig.clients, args.seconds * write_share, |c, stop| {
        write_loop(c, &shape, stop, true)
    });
    out.read = drive_rounds(
        &mut rig.clients,
        args.seconds * (1.0 - write_share),
        |c, stop| read_loop(c, &shape, stop),
    );
    out.notes.push(format!(
        "{} frames served by the cluster over both phases (timed ops and untimed ring upkeep)",
        rig.cluster.frames_served() - frames_before
    ));

    gauges(
        &mut out,
        Some(&rig.cluster),
        rig.clients.iter().map(|c| &c.handle),
    );
    if on_disk {
        reopen(&mut out, rig, &shape)?;
    }
    Ok(out)
}

/// `disk_bulk` only: disk footprint, clean shutdown, a timed boot on the
/// populated directory, and a full check of one BLOB per client after it.
fn reopen(out: &mut Outcome, rig: BulkRig, shape: &Shape<'_>) -> Result<(), String> {
    let BulkRig {
        clients,
        cluster,
        dir,
    } = rig;
    let dir = dir.expect("disk_bulk runs on a data directory");
    let live_bytes: usize = clients.iter().map(|c| c.ring.len() * shape.blob_len).sum();
    let on_disk = dir.bytes_on_disk();
    out.layer.insert(
        "disk.bytes_on_disk_per_live_byte",
        on_disk as f64 / live_bytes.max(1) as f64,
    );
    let survivors: Vec<(usize, BlobId, u64)> = clients
        .iter()
        .filter_map(|c| c.ring.back().map(|&(blob, index)| (c.no, blob, index)))
        .collect();
    let cfg = cluster.config().clone();
    drop(clients);
    drop(cluster);

    let clock = Instant::now();
    let cluster = LoopbackCluster::boot(cfg, PROVIDERS).map_err(err_str)?;
    let reopen_s = clock.elapsed().as_secs_f64();
    out.layer.insert("disk.reopen_s", reopen_s);
    out.notes.push(format!(
        "flush policy: no fsync (the shipped default); {:.1} MiB on disk for {:.1} MiB live, replayed in {reopen_s:.3} s",
        on_disk as f64 / (1 << 20) as f64,
        live_bytes as f64 / (1 << 20) as f64,
    ));
    let reader = rpc_client(&cluster, None).map_err(err_str)?;
    let blobs = reader.sys.client(NodeId::new(200));
    for (no, blob, index) in survivors {
        out.extra_attempted += 1;
        let intact = blobs
            .read(blob, None, 0, shape.blob_len as u64)
            .is_ok_and(|bytes| {
                shape
                    .stamper
                    .check(&bytes, shape.blob_len, BLOCK, stream_id(no, index), 0, true)
            });
        out.extra_failed += u64::from(!intact);
    }
    drop(reader);
    drop(cluster);
    drop(dir);
    Ok(())
}
