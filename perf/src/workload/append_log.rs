//! `rpc_append_log`: both clients append single 4 KiB blocks to one shared
//! BLOB over loopback RPC, then read random blocks of it at `latest`.
//!
//! The payload is negligible, so version assignment, the log chain shipped
//! with every ticket, the per-level tree publish and descent, and per-frame
//! transport overhead decide everything. Set-up appends until the BLOB
//! holds `log_history` versions (8192), so the timed appends and reads run
//! against a long history — the regime the paper's versioning claim is
//! about. That fill is thousands of ops, long enough to be steady measured
//! once; it is not repeated.

use super::{
    drive, drive_rounds, gauges, timed_setups, ClientPhase, Outcome, RunArgs, RunResult, Stop,
};
use crate::err_str;
use crate::payload::{in_full_sample, stream_id, SplitMix, Stamper};
use crate::rig::{config, rpc_rig, Client, RpcRig, CLIENTS};
use crate::trace::Kind;
use blobseer_core::BlobClient;
use blobseer_types::{BlobId, NodeId};

const BLOCK: usize = 4 << 10;

struct LogClient {
    no: usize,
    handle: Client,
    blobs: BlobClient,
    appends: u64,
    /// `(block index, stream)` of every append this client landed.
    landed: Vec<(u64, u64)>,
    rng: SplitMix,
    reads: u64,
    buf: Vec<u8>,
}

fn append_loop(
    c: &mut LogClient,
    stamper: &Stamper,
    blob: BlobId,
    stop: Stop,
    timed: bool,
) -> ClientPhase {
    let mut done = ClientPhase::default();
    while !stop.reached(done.ops) {
        let stream = stream_id(c.no, c.appends);
        c.appends += 1;
        stamper.stamp(&mut c.buf, BLOCK, stream, 0);
        let (appended, ns) = c
            .handle
            .timer
            .time(Kind::Write, timed, || c.blobs.append(blob, &c.buf));
        done.ops += 1;
        match appended {
            Ok((offset, _)) if offset % BLOCK as u64 == 0 => {
                done.ok(BLOCK as u64, ns);
                c.landed.push((offset / BLOCK as u64, stream));
            }
            _ => done.failed += 1,
        }
    }
    done
}

/// Random block-aligned reads at `latest`; `placed[b]` is the stream whose
/// append landed at block `b`.
fn read_loop(
    c: &mut LogClient,
    stamper: &Stamper,
    blob: BlobId,
    placed: &[u64],
    stop: Stop,
) -> ClientPhase {
    let mut done = ClientPhase::default();
    while !stop.reached(done.ops) {
        let block = c.rng.below(placed.len() as u64);
        let (got, ns) = c.handle.timer.time(Kind::Read, true, || {
            c.blobs.read(blob, None, block * BLOCK as u64, BLOCK as u64)
        });
        done.ops += 1;
        let intact = got.is_ok_and(|bytes| {
            stamper.check(
                &bytes,
                BLOCK,
                BLOCK,
                placed[block as usize],
                0,
                in_full_sample(c.reads),
            )
        });
        c.reads += 1;
        if intact {
            done.ok(BLOCK as u64, ns);
        } else {
            done.failed += 1;
        }
    }
    done
}

pub fn run(args: &RunArgs) -> RunResult {
    let stamper = Stamper::new(args.seed, BLOCK);
    let history = args.sizes.log_history;

    let ((rig, mut clients, blob), setup_s) = timed_setups(1, || {
        let RpcRig { clients, cluster } =
            rpc_rig(config(BLOCK as u64), args.trace.as_ref()).map_err(err_str)?;
        let mut clients: Vec<LogClient> = clients
            .into_iter()
            .enumerate()
            .map(|(no, handle)| LogClient {
                no,
                blobs: handle.sys.client(NodeId::new(100 + no as u64)),
                handle,
                appends: 0,
                landed: Vec::new(),
                rng: SplitMix::new(args.seed.wrapping_mul(CLIENTS as u64 + 1) + no as u64),
                reads: 0,
                buf: stamper.buffer(BLOCK),
            })
            .collect();
        let blob = clients[0].blobs.try_create().map_err(err_str)?;
        let fill = drive(
            &mut clients,
            || Stop::After(history / CLIENTS as u64),
            |c, stop| append_loop(c, &stamper, blob, stop, false),
        );
        if fill.failed > 0 {
            return Err(format!("{} history-fill appends failed", fill.failed));
        }
        Ok((cluster, clients, blob))
    })?;

    if args.corrupt {
        stamper.corrupt_next_check();
    }
    let mut out = Outcome {
        setup_s,
        ..Outcome::default()
    };
    out.write = drive_rounds(&mut clients, args.seconds / 2.0, |c, stop| {
        append_loop(c, &stamper, blob, stop, true)
    });

    // Every append landed on a block of its own; together they tile the
    // BLOB from block 0.
    let total: usize = clients.iter().map(|c| c.landed.len()).sum();
    let mut placed = vec![u64::MAX; total];
    let mut misplaced = 0;
    for c in &clients {
        for &(block, stream) in &c.landed {
            match placed.get_mut(block as usize) {
                Some(slot) if *slot == u64::MAX => *slot = stream,
                _ => misplaced += 1,
            }
        }
    }
    out.write.failed += misplaced;
    out.notes.push(format!(
        "history: {history} versions before the timed appends, {total} after"
    ));

    out.read = drive_rounds(&mut clients, args.seconds / 2.0, |c, stop| {
        read_loop(c, &stamper, blob, &placed, stop)
    });
    gauges(&mut out, Some(&rig), clients.iter().map(|c| &c.handle));
    drop(clients);
    drop(rig);
    Ok(out)
}
