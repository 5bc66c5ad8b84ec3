//! The Map/Reduce execution engine: jobtracker + tasktrackers (§II-B).
//!
//! "The framework consists of a single master jobtracker, and multiple
//! slave tasktrackers, one per node. The jobtracker is responsible for
//! scheduling the jobs' component tasks on the slaves."
//!
//! The scheduler is locality-aware (§V-E): a free tasktracker slot prefers
//! a map task whose input block lives on its own node (a *local map*);
//! otherwise it takes any pending task (a *remote map*). The distinction —
//! driven entirely by the storage layer's block-location call — is what
//! couples job completion time to the placement quality of the underlying
//! file system, the effect measured in Fig. 6(b).

use crate::job::{InputSpec, InputSplit, JobReport, JobSpec, Mapper, Reducer};

/// One reducer's shuffle bucket: intermediate `(key, value)` records.
type ShuffleBucket = Vec<(Vec<u8>, Vec<u8>)>;
use blobseer_types::{Error, NodeId, Result};
use dfs::api::FileSystem;
use dfs::util::LineReader;
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// One tasktracker: a node with map/reduce slots and its own FileSystem
/// mount (co-deployed with a datanode/provider in the paper's setup, §V-G).
pub struct TaskTracker {
    /// The node this tracker runs on.
    pub node: NodeId,
    /// Concurrent task slots (Hadoop default: 2).
    pub slots: usize,
    /// The tracker's storage mount.
    pub fs: Box<dyn FileSystem>,
}

impl TaskTracker {
    /// A tracker with the Hadoop-default two slots.
    pub fn new(node: NodeId, fs: Box<dyn FileSystem>) -> Self {
        Self { node, slots: 2, fs }
    }
}

/// The jobtracker: schedules and runs jobs over a set of tasktrackers.
pub struct JobTracker {
    trackers: Vec<TaskTracker>,
}

struct MapTask {
    split: InputSplit,
    taken: bool,
}

/// Work shared by all tasktracker threads during the map phase.
struct MapPhase<'j> {
    job: &'j JobSpec,
    mapper: &'j dyn Mapper,
    /// Optional map-side combiner applied to each task's buckets.
    combiner: Option<&'j dyn Reducer>,
    /// Nodes that host a tasktracker (for delay scheduling).
    tracker_nodes: Vec<NodeId>,
    tasks: Mutex<Vec<MapTask>>,
    /// Intermediate data: per-reducer buckets of (key, value).
    shuffle: Vec<Mutex<ShuffleBucket>>,
    local_maps: AtomicUsize,
    remote_maps: AtomicUsize,
    input_records: AtomicU64,
    output_records: AtomicU64,
    /// Records that actually entered the shuffle (== map outputs unless a
    /// combiner compacted them).
    shuffle_records: AtomicU64,
    errors: Mutex<Vec<Error>>,
}

impl JobTracker {
    /// A jobtracker over the given tasktrackers.
    pub fn new(trackers: Vec<TaskTracker>) -> Self {
        assert!(!trackers.is_empty(), "need at least one tasktracker");
        Self { trackers }
    }

    /// Runs a map-only job.
    pub fn run_map_only(&self, job: &JobSpec, mapper: &dyn Mapper) -> Result<JobReport> {
        assert_eq!(job.reducers, 0, "map-only jobs take 0 reducers");
        self.run(job, mapper, None)
    }

    /// Runs a full map/reduce job.
    pub fn run_job(
        &self,
        job: &JobSpec,
        mapper: &dyn Mapper,
        reducer: &dyn Reducer,
    ) -> Result<JobReport> {
        assert!(
            job.reducers > 0,
            "map/reduce jobs need at least one reducer"
        );
        self.run_with(job, mapper, Some(reducer), None)
    }

    /// Runs a map/reduce job with a map-side *combiner*: each map task
    /// pre-aggregates its per-reducer buckets with `combiner` before they
    /// enter the shuffle, cutting intermediate data volume (Hadoop's
    /// classic optimization; the reduce output is unchanged for
    /// associative+commutative reducers like sums).
    pub fn run_job_with_combiner(
        &self,
        job: &JobSpec,
        mapper: &dyn Mapper,
        reducer: &dyn Reducer,
        combiner: &dyn Reducer,
    ) -> Result<JobReport> {
        assert!(
            job.reducers > 0,
            "map/reduce jobs need at least one reducer"
        );
        self.run_with(job, mapper, Some(reducer), Some(combiner))
    }

    fn run(
        &self,
        job: &JobSpec,
        mapper: &dyn Mapper,
        reducer: Option<&dyn Reducer>,
    ) -> Result<JobReport> {
        self.run_with(job, mapper, reducer, None)
    }

    fn run_with(
        &self,
        job: &JobSpec,
        mapper: &dyn Mapper,
        reducer: Option<&dyn Reducer>,
        combiner: Option<&dyn Reducer>,
    ) -> Result<JobReport> {
        let started = std::time::Instant::now();
        let driver_fs = &*self.trackers[0].fs;
        driver_fs.mkdirs(&job.output_dir)?;
        let splits = self.compute_splits(job, driver_fs)?;
        let map_tasks = splits.len();

        let phase = MapPhase {
            job,
            mapper,
            combiner,
            tracker_nodes: self.trackers.iter().map(|t| t.node).collect(),
            tasks: Mutex::named(
                splits
                    .into_iter()
                    .map(|split| MapTask {
                        split,
                        taken: false,
                    })
                    .collect(),
                "mr.tasks",
            ),
            shuffle: (0..job.reducers.max(1))
                .map(|i| Mutex::ranked(Vec::new(), "mr.shuffle", i as u32))
                .collect(),
            local_maps: AtomicUsize::new(0),
            remote_maps: AtomicUsize::new(0),
            input_records: AtomicU64::new(0),
            output_records: AtomicU64::new(0),
            shuffle_records: AtomicU64::new(0),
            errors: Mutex::named(Vec::new(), "mr.errors"),
        };

        // --- map phase: every slot of every tracker pulls tasks ---------
        std::thread::scope(|s| {
            for tracker in &self.trackers {
                for slot in 0..tracker.slots {
                    let phase = &phase;
                    s.spawn(move || map_worker(tracker, slot, phase, reducer.is_some()));
                }
            }
        });
        if let Some(e) = phase.errors.lock().pop() {
            return Err(e);
        }

        // --- reduce phase -------------------------------------------------
        let mut output_files = Vec::new();
        let output_records = AtomicU64::new(0);
        if reducer.is_some() {
            let reduce_errors: Mutex<Vec<Error>> = Mutex::named(Vec::new(), "mr.reduce_errors");
            let next_reduce = AtomicUsize::new(0);
            std::thread::scope(|s| {
                for tracker in &self.trackers {
                    for _ in 0..tracker.slots {
                        let phase = &phase;
                        let next = &next_reduce;
                        let errs = &reduce_errors;
                        let out_recs = &output_records;
                        let reducer = reducer.expect("checked");
                        s.spawn(move || loop {
                            let r = next.fetch_add(1, Ordering::Relaxed);
                            if r >= phase.job.reducers {
                                return;
                            }
                            if let Err(e) =
                                run_reduce(tracker, phase.job, reducer, phase, r, out_recs)
                            {
                                errs.lock().push(e);
                            }
                        });
                    }
                }
            });
            if let Some(e) = reduce_errors.lock().pop() {
                return Err(e);
            }
            for r in 0..job.reducers {
                output_files.push(part_path(&job.output_dir, "part-r", r));
            }
        } else {
            for m in 0..map_tasks {
                output_files.push(part_path(&job.output_dir, "part-m", m));
            }
            output_records.store(
                phase.output_records.load(Ordering::Relaxed),
                Ordering::Relaxed,
            );
        }

        Ok(JobReport {
            name: job.name.clone(),
            backend: driver_fs.backend_name().to_string(),
            map_tasks,
            local_maps: phase.local_maps.load(Ordering::Relaxed),
            remote_maps: phase.remote_maps.load(Ordering::Relaxed),
            reduce_tasks: job.reducers,
            map_input_records: phase.input_records.load(Ordering::Relaxed),
            map_output_records: phase.output_records.load(Ordering::Relaxed),
            shuffle_records: phase.shuffle_records.load(Ordering::Relaxed),
            output_records: output_records.load(Ordering::Relaxed),
            duration_micros: started.elapsed().as_micros(),
            output_files,
        })
    }

    /// One split per storage block, with the block's hosts as affinity
    /// hints (§V-G: a 64 MB data block per mapper).
    fn compute_splits(&self, job: &JobSpec, fs: &dyn FileSystem) -> Result<Vec<InputSplit>> {
        let mut splits = Vec::new();
        match &job.input {
            InputSpec::Generated { splits: n } => {
                for i in 0..*n {
                    splits.push(InputSplit {
                        id: i,
                        file: None,
                        offset: i as u64,
                        len: 0,
                        hosts: Vec::new(),
                    });
                }
            }
            InputSpec::Files(files) => {
                for file in files {
                    let len = fs.status(file)?.len;
                    if len == 0 {
                        continue;
                    }
                    for loc in fs.block_locations(file, 0, len)? {
                        splits.push(InputSplit {
                            id: splits.len(),
                            file: Some(file.clone()),
                            offset: loc.offset,
                            len: loc.length,
                            hosts: loc.hosts,
                        });
                    }
                }
            }
        }
        Ok(splits)
    }
}

fn part_path(dir: &str, prefix: &str, i: usize) -> String {
    format!("{dir}/{prefix}-{i:05}")
}

/// How long a slot without local work waits before stealing a task that is
/// local to another tracker — *delay scheduling* (Zaharia et al., the
/// paper's reference [17]). Bounded so busy nodes cannot stall the job.
const STEAL_DELAY_ROUNDS: u32 = 40;
const STEAL_DELAY_STEP: std::time::Duration = std::time::Duration::from_micros(250);

/// A tasktracker slot's map loop: prefer node-local tasks, then tasks local
/// to nobody, and only after a bounded delay steal another node's local
/// work.
fn map_worker(tracker: &TaskTracker, slot: usize, phase: &MapPhase<'_>, has_reduce: bool) {
    let mut patience = STEAL_DELAY_ROUNDS;
    loop {
        enum Pick {
            Run(InputSplit, bool),
            Wait,
            Done,
        }
        let picked = {
            let mut tasks = phase.tasks.lock();
            // 1. A task whose block lives on this node.
            let local = tasks
                .iter()
                .position(|t| !t.taken && t.split.hosts.contains(&tracker.node));
            // 2. A task that is local to no tracker (nothing is lost).
            let unclaimed = local.or_else(|| {
                tasks.iter().position(|t| {
                    !t.taken
                        && !t
                            .split
                            .hosts
                            .iter()
                            .any(|h| phase.tracker_nodes.contains(h))
                })
            });
            // 3. Steal another node's local task, after the delay budget.
            let any = tasks.iter().position(|t| !t.taken);
            match (unclaimed, any) {
                (Some(i), _) => {
                    tasks[i].taken = true;
                    Pick::Run(tasks[i].split.clone(), local.is_some())
                }
                (None, Some(i)) if patience == 0 => {
                    tasks[i].taken = true;
                    Pick::Run(tasks[i].split.clone(), false)
                }
                (None, Some(_)) => Pick::Wait,
                (None, None) => Pick::Done,
            }
        };
        let (split, is_local) = match picked {
            Pick::Done => return,
            Pick::Wait => {
                patience -= 1;
                std::thread::sleep(STEAL_DELAY_STEP);
                continue;
            }
            Pick::Run(split, is_local) => {
                patience = STEAL_DELAY_ROUNDS;
                (split, is_local)
            }
        };
        if split.file.is_some() {
            if is_local {
                phase.local_maps.fetch_add(1, Ordering::Relaxed);
            } else {
                phase.remote_maps.fetch_add(1, Ordering::Relaxed);
            }
        }
        let _ = slot;
        if let Err(e) = run_map(tracker, phase, &split, has_reduce) {
            phase.errors.lock().push(e);
            return;
        }
    }
}

/// Executes one map task: read records of the split, run the mapper,
/// partition output into the shuffle (or write part-m for map-only jobs).
fn run_map(
    tracker: &TaskTracker,
    phase: &MapPhase<'_>,
    split: &InputSplit,
    has_reduce: bool,
) -> Result<()> {
    let reducers = phase.job.reducers.max(1);
    // Local per-reducer buffers; merged into the shuffle at task end.
    let mut local_out: Vec<Vec<(Vec<u8>, Vec<u8>)>> = vec![Vec::new(); reducers];
    let mut map_output = 0u64;
    {
        let mut emit = |k: &[u8], v: &[u8]| {
            map_output += 1;
            let r = partition(k, reducers);
            local_out[r].push((k.to_vec(), v.to_vec()));
        };
        match &split.file {
            None => {
                // Generated split: one synthetic record.
                phase.input_records.fetch_add(1, Ordering::Relaxed);
                phase.mapper.map(split.offset, b"", &mut emit);
            }
            Some(file) => {
                let mut input = tracker.fs.open(file)?;
                // Hadoop's record-boundary convention: a line belongs to the
                // split containing its first byte. Seek to offset-1 and
                // discard one (possibly empty) line so we start at a line
                // boundary without losing aligned lines.
                let mut start = split.offset;
                let mut skip_first = false;
                if start > 0 {
                    start -= 1;
                    skip_first = true;
                }
                input.seek(start)?;
                let mut reader = LineReader::new(input);
                let mut line = Vec::new();
                if skip_first {
                    reader.read_line(&mut line)?;
                }
                let end = split.offset + split.len;
                loop {
                    let line_start = reader.next_offset();
                    if line_start >= end {
                        break;
                    }
                    if !reader.read_line(&mut line)? {
                        break;
                    }
                    phase.input_records.fetch_add(1, Ordering::Relaxed);
                    phase.mapper.map(line_start, &line, &mut emit);
                }
            }
        }
    }
    phase
        .output_records
        .fetch_add(map_output, Ordering::Relaxed);

    if has_reduce {
        for (r, bucket) in local_out.into_iter().enumerate() {
            if bucket.is_empty() {
                continue;
            }
            let mut bucket = match phase.combiner {
                None => bucket,
                Some(combiner) => combine_bucket(combiner, bucket),
            };
            phase
                .shuffle_records
                .fetch_add(bucket.len() as u64, Ordering::Relaxed);
            phase.shuffle[r].lock().append(&mut bucket);
        }
    } else {
        // Map-only: write this task's output as its own part file.
        let path = part_path(&phase.job.output_dir, "part-m", split.id);
        let mut out = tracker.fs.create(&path, true)?;
        for (k, v) in local_out.into_iter().flatten() {
            write_record(&mut *out, &k, &v)?;
        }
        out.close()?;
    }
    Ok(())
}

/// Map-side combine: group a bucket by key and collapse each group with
/// the combiner (sorted, like the reduce input contract).
fn combine_bucket(combiner: &dyn Reducer, bucket: ShuffleBucket) -> ShuffleBucket {
    let mut grouped: BTreeMap<Vec<u8>, Vec<Vec<u8>>> = BTreeMap::new();
    for (k, v) in bucket {
        grouped.entry(k).or_default().push(v);
    }
    let mut out = Vec::with_capacity(grouped.len());
    for (k, vs) in &grouped {
        combiner.reduce(k, vs, &mut |ck, cv| {
            out.push((ck.to_vec(), cv.to_vec()));
        });
    }
    out
}

/// Executes one reduce task: sort/group partition `r`, run the reducer,
/// write part-r.
fn run_reduce(
    tracker: &TaskTracker,
    job: &JobSpec,
    reducer: &dyn Reducer,
    phase: &MapPhase<'_>,
    r: usize,
    output_records: &AtomicU64,
) -> Result<()> {
    let pairs = std::mem::take(&mut *phase.shuffle[r].lock());
    let mut grouped: BTreeMap<Vec<u8>, Vec<Vec<u8>>> = BTreeMap::new();
    for (k, v) in pairs {
        grouped.entry(k).or_default().push(v);
    }
    let path = part_path(&job.output_dir, "part-r", r);
    let mut out = tracker.fs.create(&path, true)?;
    let mut written = 0u64;
    {
        let mut emit = |k: &[u8], v: &[u8]| {
            written += 1;
            // Buffered into the DfsOutput; errors surface at close.
            let _ = write_record(&mut *out, k, v);
        };
        for (k, vs) in &grouped {
            reducer.reduce(k, vs, &mut emit);
        }
    }
    out.close()?;
    output_records.fetch_add(written, Ordering::Relaxed);
    Ok(())
}

/// Hash partitioner (Hadoop's default).
fn partition(key: &[u8], reducers: usize) -> usize {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in key {
        h ^= b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    (h % reducers as u64) as usize
}

/// Text output format: `key<TAB>value\n`, or `key\n` when the value is
/// empty.
fn write_record(out: &mut dyn dfs::api::DfsOutput, k: &[u8], v: &[u8]) -> Result<()> {
    out.write(k)?;
    if !v.is_empty() {
        out.write(b"\t")?;
        out.write(v)?;
    }
    out.write(b"\n")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partitioner_is_stable_and_in_range() {
        for r in 1..8 {
            for key in [b"alpha".as_ref(), b"beta", b"", b"x"] {
                let p = partition(key, r);
                assert!(p < r);
                assert_eq!(p, partition(key, r));
            }
        }
    }

    #[test]
    fn partitioner_spreads_keys() {
        let mut counts = vec![0u32; 4];
        for i in 0..1000u32 {
            counts[partition(format!("key-{i}").as_bytes(), 4)] += 1;
        }
        assert!(
            counts.iter().all(|&c| c > 150),
            "skewed partitioner: {counts:?}"
        );
    }
}
