//! The client transport runs no thread of its own: a caller reads its own
//! answer off the socket, so dialing a connection starts no reader
//! thread. Alone in its file so that the process's thread census holds
//! this test's threads and no other test's.

#![cfg(target_os = "linux")]

use blobseer_rpc::LoopbackCluster;
use blobseer_types::{BlobSeerConfig, NodeId};

/// The names of the process's threads.
fn thread_names() -> Vec<String> {
    std::fs::read_dir("/proc/self/task")
        .unwrap()
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .map(|comm| comm.trim_end().to_string())
        .collect()
}

/// The process's threads other than the servers' connection threads,
/// and those: one per connection a client dialed.
fn census() -> (usize, usize) {
    let names = thread_names();
    assert!(!names.iter().any(|name| name == "rpc-demux"), "{names:?}");
    let conns = names.iter().filter(|name| *name == "rpc-conn").count();
    (names.len() - conns, conns)
}

#[test]
fn dialing_connections_starts_no_client_thread() {
    let cfg = BlobSeerConfig::small_for_tests().with_block_size(64);
    let cluster = LoopbackCluster::boot(cfg, 4).unwrap();
    let sys = cluster.deploy().unwrap();
    let c = sys.client(NodeId::new(0));
    let blob = c.create();
    let data: Vec<u8> = (0..8 * 64).map(|i| i as u8).collect();
    let (others, conns) = census();

    // Calls take a pool's connection slots in turn, so sixteen rounds dial
    // every slot of every pool.
    for _ in 0..16 {
        c.write(blob, 0, &data).unwrap();
        let got = c.read(blob, None, 0, data.len() as u64).unwrap();
        assert_eq!(&got[..], &data[..]);
    }
    let (others_after, conns_after) = census();
    assert!(
        conns_after > conns,
        "the rounds dialed more connections ({conns} → {conns_after})"
    );
    assert_eq!(others_after, others, "threads besides the connections' own");
}
