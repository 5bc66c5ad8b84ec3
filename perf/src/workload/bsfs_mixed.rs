//! `mem_bsfs_mixed`: how Hadoop drives the system (§IV) — one thread
//! streams new 16 MiB files through BSFS in 4 KiB records (write-behind
//! turns them into 64 KiB block appends) while the other streams files
//! that are already closed in 4 KiB `read_exact` records (each block is
//! fetched once and served from the stream's cache). An op is one whole
//! file.
//!
//! The deployment is the in-process in-memory one, so `blobseer-rpc` and
//! `blobseer-disk` are bypassed, and the writer and the reader share its
//! stores: a core change that buys writes at the cost of reads shows as one
//! metric up and the other down.

use super::{gauges, timed_setups, ClientPhase, Outcome, Phase, RunArgs, RunResult, Stop};
use crate::payload::{in_full_sample, stream_id, Stamper};
use crate::rig::{config, mem_client, Client};
use crate::trace::Kind;
use blobseer_types::{NodeId, Result};
use bsfs::{Bsfs, BsfsCluster};
use dfs::FileSystem;
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

const BLOCK: u64 = 64 << 10;
const RECORD: usize = 4 << 10;

/// Closed files, oldest first, by file number; `busy` is the one the
/// reader has open, which the writer must not delete under it.
#[derive(Default)]
struct Ring {
    files: VecDeque<u64>,
    busy: Option<u64>,
}

struct Rig {
    handle: Client,
    writer: Bsfs,
    reader: Bsfs,
    ring: Mutex<Ring>,
    cluster: Arc<BsfsCluster>,
}

fn path(file: u64) -> String {
    format!("/bench/f{file}")
}

fn write_file(fs: &Bsfs, file: u64, buf: &[u8]) -> Result<()> {
    let mut out = fs.create(&path(file), false)?;
    for record in buf.chunks(RECORD) {
        out.write(record)?;
    }
    out.close()
}

fn read_file(fs: &Bsfs, file: u64, dst: &mut Vec<u8>, expect_len: usize) -> Result<()> {
    let mut input = fs.open(&path(file))?;
    // A file of the wrong length fails the length check, not the loop.
    dst.resize((input.len() as usize).min(2 * expect_len), 0);
    for record in dst.chunks_mut(RECORD) {
        input.read_exact(record)?;
    }
    Ok(())
}

struct Shape<'a> {
    stamper: &'a Stamper,
    file_bytes: usize,
    ring: usize,
}

/// Streams new files until `stop`, keeping the ring bounded.
fn writer_loop(
    rig: &Rig,
    next_file: &mut u64,
    shape: &Shape<'_>,
    stop: Stop,
    timed: bool,
) -> ClientPhase {
    let mut done = ClientPhase::default();
    let mut buf = shape.stamper.buffer(shape.file_bytes);
    while !stop.reached(done.ops) {
        let file = *next_file;
        *next_file += 1;
        shape.stamper.stamp(&mut buf, RECORD, stream_id(0, file), 0);
        let (written, ns) = rig
            .handle
            .timer
            .time(Kind::Write, timed, || write_file(&rig.writer, file, &buf));
        done.ops += 1;
        match written {
            Ok(()) => done.ok(shape.file_bytes as u64, ns),
            Err(_) => {
                done.failed += 1;
                continue;
            }
        }
        let evicted = {
            let mut ring = rig.ring.lock();
            ring.files.push_back(file);
            let busy = ring.busy;
            (ring.files.len() > shape.ring)
                .then(|| ring.files.iter().position(|&f| Some(f) != busy))
                .flatten()
                .and_then(|at| ring.files.remove(at))
        };
        if let Some(old) = evicted {
            done.failed += u64::from(rig.writer.delete(&path(old), false).is_err());
        }
    }
    done
}

/// Streams closed files round the ring until the writer is done.
fn reader_loop(rig: &Rig, shape: &Shape<'_>, writer_done: &AtomicBool) -> ClientPhase {
    let mut done = ClientPhase::default();
    let mut dst = Vec::with_capacity(shape.file_bytes);
    let mut cursor = 0usize;
    while done.ops == 0 || !writer_done.load(Ordering::Acquire) {
        let file = {
            let mut ring = rig.ring.lock();
            let file = ring.files[cursor % ring.files.len()];
            ring.busy = Some(file);
            file
        };
        cursor += 1;
        let (read, ns) = rig.handle.timer.time(Kind::Read, true, || {
            read_file(&rig.reader, file, &mut dst, shape.file_bytes)
        });
        rig.ring.lock().busy = None;
        done.ops += 1;
        let intact = read.is_ok()
            && shape.stamper.check(
                &dst,
                shape.file_bytes,
                RECORD,
                stream_id(0, file),
                0,
                in_full_sample(done.ops),
            );
        if intact {
            done.ok(shape.file_bytes as u64, ns);
        } else {
            done.failed += 1;
        }
    }
    done
}

pub fn run(args: &RunArgs) -> RunResult {
    let sizes = &args.sizes;
    let stamper = Stamper::new(args.seed, sizes.file_bytes);
    let shape = Shape {
        stamper: &stamper,
        file_bytes: sizes.file_bytes,
        ring: sizes.file_ring,
    };

    // Set-up: deploy, mount twice, fill the ring with closed files.
    let ((rig, mut next_file), setup_s) = timed_setups(sizes.setup_reps, || {
        let handle = mem_client(config(BLOCK), args.trace.as_ref());
        let cluster = BsfsCluster::new(Arc::clone(&handle.sys));
        let rig = Rig {
            writer: cluster.mount(NodeId::new(0)),
            reader: cluster.mount(NodeId::new(1)),
            handle,
            ring: Mutex::new(Ring::default()),
            cluster,
        };
        let mut next_file = 0;
        let fill = writer_loop(
            &rig,
            &mut next_file,
            &shape,
            Stop::After(sizes.file_ring as u64),
            false,
        );
        if fill.failed > 0 {
            return Err(format!("{} warm-up files failed", fill.failed));
        }
        Ok((rig, next_file))
    })?;

    if args.corrupt {
        stamper.corrupt_next_check();
    }
    let mut out = Outcome {
        setup_s,
        ..Outcome::default()
    };
    // Writer and reader run side by side for the whole of `--seconds`,
    // round by round.
    let rounds = Phase::round_count(args.seconds);
    for _ in 0..rounds {
        let writer_done = AtomicBool::new(false);
        let barrier = std::sync::Barrier::new(3);
        let (start, wrote, read) = std::thread::scope(|scope| {
            let (rig, shape, barrier, writer_done) = (&rig, &shape, &barrier, &writer_done);
            let next_file = &mut next_file;
            let writer = scope.spawn(move || {
                barrier.wait();
                let stop = Stop::in_seconds(args.seconds / rounds as f64);
                let mut done = writer_loop(rig, next_file, shape, stop, true);
                done.end = Some(Instant::now());
                writer_done.store(true, Ordering::Release);
                done
            });
            let reader = scope.spawn(move || {
                barrier.wait();
                let mut done = reader_loop(rig, shape, writer_done);
                done.end = Some(Instant::now());
                done
            });
            barrier.wait();
            let start = Instant::now();
            (
                start,
                writer.join().expect("writer thread panicked"),
                reader.join().expect("reader thread panicked"),
            )
        });
        out.write.push_round(Phase::gather(start, vec![wrote]));
        out.read.push_round(Phase::gather(start, vec![read]));
    }
    let op_ns: u64 = out.write.lat_ns.iter().chain(&out.read.lat_ns).sum();
    let records = (out.write.bytes + out.read.bytes) / RECORD as u64;
    out.layer
        .insert("bsfs.record_ns", op_ns as f64 / records.max(1) as f64);
    gauges(&mut out, None, [&rig.handle].into_iter());
    out.notes.push(format!(
        "{} files written, {} read; namespace ops {}",
        out.write.ops,
        out.read.ops,
        rig.cluster.namespace().op_count()
    ));
    Ok(out)
}
