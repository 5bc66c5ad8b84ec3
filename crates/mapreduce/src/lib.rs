//! `mapreduce` — a Hadoop-style Map/Reduce engine over the shared
//! [`dfs::FileSystem`] API (§II-B).
//!
//! A single [`engine::JobTracker`] schedules map and reduce tasks onto
//! [`engine::TaskTracker`]s (one per node, two slots each, exactly like the
//! paper's deployment where tasktrackers are co-deployed with storage
//! nodes, §V-G). Scheduling is locality-aware: map tasks prefer the node
//! holding their input block, and the engine reports local vs remote map
//! counts — the quantity the storage layer's placement quality controls.
//! The rule that picks a slot's next map task is [`schedule::TaskBoard`],
//! clock-free so that the Fig. 6(b) model's heartbeat loop claims through
//! it too.
//!
//! Because the engine only sees `dyn FileSystem`, the same job binaries run
//! on BSFS and on the HDFS baseline, reproducing the paper's methodology
//! ("Hadoop Map/Reduce applications run out-of-the-box", §V-B).
//!
//! Shipping applications (§V-G): [`apps::RandomTextWriter`] (map-only,
//! massive parallel writes), [`apps::DistributedGrep`] (concurrent reads of
//! a shared file), and [`apps::WordCount`].
#![forbid(unsafe_code)]

pub mod apps;
pub mod engine;
pub mod job;
pub mod schedule;
pub mod textgen;

pub use engine::{JobTracker, TaskTracker};
pub use job::{Emit, InputSpec, InputSplit, JobReport, JobSpec, Mapper, Reducer};
pub use textgen::TextGen;
