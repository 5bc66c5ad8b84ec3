//! End-to-end Map/Reduce jobs on both storage backends — the live-scale
//! counterpart of the paper's §V-G experiments.

use blobseer_core::{BlobSeer, EnginePorts, FaultPlan, Faults, FaultyBlockStore, PutFault};
use blobseer_types::{BlobSeerConfig, Error, NodeId};
use bsfs::BsfsCluster;
use dfs::api::FileSystem;
use dfs::util::{read_fully, write_file};
use hdfs_sim::{HdfsCluster, HdfsConfig};
use mapreduce::apps::{DistributedGrep, RandomTextWriter, WordCount};
use mapreduce::{JobTracker, TaskTracker, TextGen};
use std::sync::Arc;

const BLOCK: u64 = 4096;
const NODES: usize = 6;

/// Tasktrackers co-deployed with BSFS providers on nodes 0..NODES (§V-G).
fn bsfs_trackers() -> (std::sync::Arc<BsfsCluster>, JobTracker) {
    let sys = BlobSeer::deploy(
        BlobSeerConfig::small_for_tests()
            .with_block_size(BLOCK)
            .with_metadata_providers(4),
        NODES,
    );
    let cluster = BsfsCluster::new(sys);
    let trackers = (0..NODES)
        .map(|i| {
            TaskTracker::new(
                NodeId::new(i as u64),
                Box::new(cluster.mount(NodeId::new(i as u64))),
            )
        })
        .collect();
    (cluster, JobTracker::new(trackers))
}

/// Tasktrackers co-deployed with HDFS datanodes.
fn hdfs_trackers() -> (std::sync::Arc<HdfsCluster>, JobTracker) {
    let cluster = HdfsCluster::new(HdfsConfig::small_for_tests().with_chunk_size(BLOCK), NODES);
    let trackers = (0..NODES)
        .map(|i| {
            TaskTracker::new(
                NodeId::new(i as u64),
                Box::new(cluster.mount(NodeId::new(i as u64))),
            )
        })
        .collect();
    (cluster, JobTracker::new(trackers))
}

fn grep_count(fs: &dyn FileSystem, output_dir: &str) -> u64 {
    let out = read_fully(fs, &format!("{output_dir}/part-r-00000")).unwrap();
    let text = String::from_utf8(out).unwrap();
    let line = text.lines().next().unwrap_or("\t0");
    line.split('\t').nth(1).unwrap().parse().unwrap()
}

/// Expected grep hits computed sequentially, for cross-checking.
fn reference_grep(data: &[u8], pattern: &str) -> u64 {
    data.split(|&b| b == b'\n')
        .filter(|l| !l.is_empty())
        .filter(|l| l.windows(pattern.len()).any(|w| w == pattern.as_bytes()))
        .count() as u64
}

#[test]
fn grep_on_bsfs_matches_reference() {
    let (cluster, jt) = bsfs_trackers();
    let fs = cluster.mount(NodeId::new(0));
    let data = TextGen::new(42).text(8 * BLOCK as usize);
    write_file(&fs, "/in/huge.txt", &data).unwrap();
    let job = DistributedGrep::job("/in/huge.txt", "/out/grep");
    let app = DistributedGrep::new("the"); // substring of many words
    let report = jt.run_job(&job, &app, &app).unwrap();
    assert_eq!(report.backend, "BSFS");
    assert_eq!(report.map_tasks, 9, "one mapper per block (8 full + tail)");
    assert_eq!(
        grep_count(&fs, "/out/grep"),
        reference_grep(&data, "the"),
        "distributed count must equal the sequential reference"
    );
    // With co-deployed trackers and round-robin placement, most maps are
    // data-local (§V-E).
    assert!(
        report.local_maps >= report.map_tasks - 2,
        "expected mostly local maps: {report:?}"
    );
}

#[test]
fn grep_on_hdfs_matches_reference_and_bsfs() {
    let (hdfs, hjt) = hdfs_trackers();
    let (bsfs_cl, bjt) = bsfs_trackers();
    let data = TextGen::new(43).text(6 * BLOCK as usize);
    let pattern = "uncombable";
    let expected = reference_grep(&data, pattern);

    let hfs = hdfs.mount(NodeId::new(0));
    write_file(&hfs, "/in/t.txt", &data).unwrap();
    let app = DistributedGrep::new(pattern);
    let hrep = hjt
        .run_job(&DistributedGrep::job("/in/t.txt", "/out/g"), &app, &app)
        .unwrap();
    assert_eq!(hrep.backend, "HDFS");
    assert_eq!(grep_count(&hfs, "/out/g"), expected);

    let bfs = bsfs_cl.mount(NodeId::new(0));
    write_file(&bfs, "/in/t.txt", &data).unwrap();
    let brep = bjt
        .run_job(&DistributedGrep::job("/in/t.txt", "/out/g"), &app, &app)
        .unwrap();
    assert_eq!(grep_count(&bfs, "/out/g"), expected, "backends agree");
    assert_eq!(brep.map_input_records, hrep.map_input_records);
}

#[test]
fn random_text_writer_writes_separate_files() {
    let (cluster, jt) = bsfs_trackers();
    let fs = cluster.mount(NodeId::new(0));
    let mappers = 8;
    let app = RandomTextWriter {
        bytes_per_mapper: 3 * BLOCK,
        seed: 7,
    };
    let job = RandomTextWriter::job(mappers, "/out/rtw");
    let report = jt.run_map_only(&job, &app).unwrap();
    assert_eq!(report.map_tasks, mappers);
    assert_eq!(report.reduce_tasks, 0);
    assert_eq!(report.output_files.len(), mappers);
    // Each mapper wrote its own part file of at least the target size.
    let listing = fs.list("/out/rtw").unwrap();
    assert_eq!(listing.len(), mappers);
    for st in listing {
        assert!(
            st.len >= 3 * BLOCK,
            "mapper output {} too small: {}",
            st.path,
            st.len
        );
    }
    // "no interaction among the tasks": outputs are pairwise distinct.
    let a = read_fully(&fs, "/out/rtw/part-m-00000").unwrap();
    let b = read_fully(&fs, "/out/rtw/part-m-00001").unwrap();
    assert_ne!(a, b);
}

#[test]
fn wordcount_totals_match_input() {
    let (cluster, jt) = bsfs_trackers();
    let fs = cluster.mount(NodeId::new(0));
    let data = TextGen::new(5).text(4 * BLOCK as usize);
    let total_words: u64 = data
        .split(|&b| b == b'\n')
        .map(|l| l.split(|&b| b == b' ').filter(|w| !w.is_empty()).count() as u64)
        .sum();
    write_file(&fs, "/in/wc.txt", &data).unwrap();
    let report = jt
        .run_job(
            &WordCount::job("/in/wc.txt", "/out/wc", 3),
            &WordCount,
            &WordCount,
        )
        .unwrap();
    assert_eq!(report.reduce_tasks, 3);
    // Sum counts across all reducer outputs.
    let mut sum = 0u64;
    let mut distinct = 0u64;
    for r in 0..3 {
        let out = read_fully(&fs, &format!("/out/wc/part-r-{r:05}")).unwrap();
        for line in String::from_utf8(out).unwrap().lines() {
            let mut it = line.split('\t');
            let _word = it.next().unwrap();
            sum += it.next().unwrap().parse::<u64>().unwrap();
            distinct += 1;
        }
    }
    assert_eq!(sum, total_words);
    assert_eq!(
        distinct, 50,
        "all 50 dictionary words appear in 16 KB of text"
    );
    assert_eq!(report.map_output_records, total_words);
}

#[test]
fn combiner_preserves_results_and_shrinks_shuffle() {
    let (cluster, jt) = bsfs_trackers();
    let fs = cluster.mount(NodeId::new(0));
    let data = TextGen::new(21).text(6 * BLOCK as usize);
    write_file(&fs, "/in/c.txt", &data).unwrap();

    let plain = jt
        .run_job(
            &WordCount::job("/in/c.txt", "/out/plain", 3),
            &WordCount,
            &WordCount,
        )
        .unwrap();
    let combined = jt
        .run_job_with_combiner(
            &WordCount::job("/in/c.txt", "/out/combined", 3),
            &WordCount,
            &WordCount,
            &WordCount,
        )
        .unwrap();

    // Identical final counts…
    let collect = |dir: &str| {
        let mut lines = Vec::new();
        for r in 0..3 {
            let out = read_fully(&fs, &format!("{dir}/part-r-{r:05}")).unwrap();
            lines.extend(String::from_utf8(out).unwrap().lines().map(str::to_string));
        }
        lines.sort();
        lines
    };
    assert_eq!(collect("/out/plain"), collect("/out/combined"));
    // …with a dramatically smaller shuffle: at most one record per
    // (task, reducer, distinct word), versus one per word occurrence.
    assert_eq!(plain.shuffle_records, plain.map_output_records);
    assert!(
        combined.shuffle_records < plain.shuffle_records / 5,
        "combiner should compact the shuffle: {} vs {}",
        combined.shuffle_records,
        plain.shuffle_records
    );
    assert_eq!(combined.map_output_records, plain.map_output_records);
}

#[test]
fn split_boundaries_lose_no_records() {
    // Adversarial line lengths around block boundaries: records must be
    // processed exactly once regardless of where splits fall.
    let (cluster, jt) = bsfs_trackers();
    let fs = cluster.mount(NodeId::new(0));
    let mut data = Vec::new();
    let mut expected_lines = 0u64;
    let mut i = 0u64;
    // Craft lines of varying lengths, including one that straddles every
    // block boundary and lines that end exactly on boundaries.
    while data.len() < 5 * BLOCK as usize {
        let len = (i % 97 + 1) as usize;
        data.extend(std::iter::repeat_n(b'a' + (i % 26) as u8, len));
        data.push(b'\n');
        expected_lines += 1;
        i += 1;
    }
    write_file(&fs, "/in/adv.txt", &data).unwrap();
    let app = DistributedGrep::new(""); // match everything: counts lines
    let report = jt
        .run_job(&DistributedGrep::job("/in/adv.txt", "/out/adv"), &app, &app)
        .unwrap();
    assert_eq!(
        report.map_input_records, expected_lines,
        "every line consumed exactly once across {} splits",
        report.map_tasks
    );
    assert_eq!(grep_count(&fs, "/out/adv"), expected_lines);
    assert!(report.map_tasks >= 5, "input spans several splits");
}

#[test]
fn hdfs_local_writer_concentrates_blocks_and_locality() {
    // The effect behind the paper's Fig. 4 discussion: a file written by a
    // co-located HDFS client lands entirely on one datanode (§V-D), so
    // only that node's tracker can run local maps; everyone else reads
    // remotely.
    let (hdfs, jt) = hdfs_trackers();
    let writer_fs = hdfs.mount(NodeId::new(3)); // co-located with datanode 3
    let data = TextGen::new(9).text(8 * BLOCK as usize);
    write_file(&writer_fs, "/in/skewed.txt", &data).unwrap();
    assert_eq!(
        hdfs.layout_vector()[3] as usize,
        hdfs.layout_vector().iter().sum::<u64>() as usize,
        "co-located writes all land on datanode 3 (§V-D)"
    );
    let app = DistributedGrep::new("a");
    let report = jt
        .run_job(
            &DistributedGrep::job("/in/skewed.txt", "/out/skew"),
            &app,
            &app,
        )
        .unwrap();
    assert_eq!(report.local_maps + report.remote_maps, report.map_tasks);
    assert_eq!(
        grep_count(&writer_fs, "/out/skew"),
        reference_grep(&data, "a")
    );
}

#[test]
fn trackers_off_the_storage_nodes_run_only_remote_maps() {
    // Deterministic remote-map accounting: trackers on nodes that host no
    // datanode can never be data-local.
    let cluster = HdfsCluster::new(HdfsConfig::small_for_tests().with_chunk_size(BLOCK), NODES);
    let trackers: Vec<TaskTracker> = (100..100 + NODES as u64)
        .map(|i| TaskTracker::new(NodeId::new(i), Box::new(cluster.mount(NodeId::new(i)))))
        .collect();
    let jt = JobTracker::new(trackers);
    let fs = cluster.mount(NodeId::new(0));
    let data = TextGen::new(10).text(6 * BLOCK as usize);
    write_file(&fs, "/in/f.txt", &data).unwrap();
    let app = DistributedGrep::new("a");
    let report = jt
        .run_job(&DistributedGrep::job("/in/f.txt", "/out/r"), &app, &app)
        .unwrap();
    assert_eq!(report.local_maps, 0);
    assert_eq!(report.remote_maps, report.map_tasks);
    assert!(report.map_tasks >= 6);
}

#[test]
fn chained_jobs_output_feeds_input() {
    // A two-stage workflow (§VI-A motivates versioning for such chains):
    // RandomTextWriter produces text, grep consumes it.
    let (cluster, jt) = bsfs_trackers();
    let fs = cluster.mount(NodeId::new(0));
    let app = RandomTextWriter {
        bytes_per_mapper: 2 * BLOCK,
        seed: 11,
    };
    jt.run_map_only(&RandomTextWriter::job(4, "/stage1"), &app)
        .unwrap();
    // Grep over all four outputs.
    let inputs: Vec<String> = (0..4).map(|i| format!("/stage1/part-m-{i:05}")).collect();
    let job = mapreduce::JobSpec::new(
        "grep-stage2",
        mapreduce::InputSpec::Files(inputs.clone()),
        "/stage2",
        1,
    );
    let g = DistributedGrep::new("hookworm");
    let report = jt.run_job(&job, &g, &g).unwrap();
    let mut expected = 0;
    for input in &inputs {
        expected += reference_grep(&read_fully(&fs, input).unwrap(), "hookworm");
    }
    assert_eq!(grep_count(&fs, "/stage2"), expected);
    assert!(report.map_tasks >= 4);
}

/// A reduce whose output stream loses one block commit, while the sink
/// accepts every later block, must fail the job: the part file has a hole
/// and the record count is wrong.
#[test]
fn a_lost_reduce_output_block_fails_the_job() {
    const SMALL: u64 = 256;
    let cfg = BlobSeerConfig::small_for_tests().with_block_size(SMALL);
    let base = EnginePorts::in_memory(&cfg, (0..NODES as u64).map(NodeId::new).collect(), 0);
    let plan = FaultPlan::new();
    let providers =
        FaultyBlockStore::new(Arc::clone(&base.providers), Faults::new(Arc::clone(&plan)));
    let ports = EnginePorts {
        providers: Arc::new(providers),
        ..base
    };
    let cluster = BsfsCluster::new(BlobSeer::deploy_ports(cfg, ports));
    let fs = cluster.mount(NodeId::new(0));
    write_file(&fs, "/in/w.txt", &TextGen::new(5).text(8 * SMALL as usize)).unwrap();
    let jt = JobTracker::new(vec![TaskTracker::new(
        NodeId::new(0),
        Box::new(cluster.mount(NodeId::new(0))),
    )]);
    let job = WordCount::job("/in/w.txt", "/out/wc", 1);
    let whole = jt.run_job(&job, &WordCount, &WordCount).unwrap();
    assert!(
        fs.status("/out/wc/part-r-00000").unwrap().len > 2 * SMALL,
        "the output spans blocks after the lost one"
    );

    // The first block put of the rerun's output fails; the rest land.
    plan.set(PutFault::FailOnce);
    let err = jt.run_job(&job, &WordCount, &WordCount).unwrap_err();
    assert!(
        matches!(err, Error::WriteAborted(_)),
        "{err:?} after {whole:?}"
    );
    assert_eq!(plan.counters().1, 1, "exactly one block put failed");
}
