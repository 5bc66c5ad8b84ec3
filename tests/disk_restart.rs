//! Restart durability of the disk-backed cluster.
//!
//! The acceptance scenario of the `blobseer-disk` backend: boot a
//! [`LoopbackCluster`] with `data_dir` set, run the unchanged client
//! protocol against it (BLOBs, versions, BSFS), stop every server, boot a
//! *new* cluster over the same directory and observe that nothing was
//! lost — every version of every BLOB reads back byte-identical, version
//! history is intact, the BSFS namespace reloads from its image BLOB, and
//! the rebooted cluster keeps allocating ids above everything the old one
//! handed out (blob ids from the replayed version log, block-id ranges
//! from the persisted deployment counter).

use blobseer_disk::testutil::TempDir;
use blobseer_rpc::LoopbackCluster;
use blobseer_types::{BlobSeerConfig, NodeId, Version};
use bsfs::BsfsCluster;
use dfs::api::FileSystem;
use dfs::util::{read_fully, write_file};
use mapreduce::TextGen;
use std::path::Path;
use std::time::Duration;

const BLOCK: u64 = 256;

fn disk_cfg(dir: &Path) -> BlobSeerConfig {
    BlobSeerConfig::small_for_tests()
        .with_block_size(BLOCK)
        .with_reveal_timeout(Duration::from_millis(200))
        .with_data_dir(dir)
}

#[test]
fn blobs_versions_and_namespace_survive_cluster_reboot() {
    let tmp = TempDir::new("disk-restart-full");
    let cfg = disk_cfg(tmp.path());

    // --- first life: write through the full stack -----------------------
    let data_v1: Vec<u8> = (0..(3 * BLOCK + 17)).map(|i| i as u8).collect();
    let overlay = vec![0xCDu8; BLOCK as usize];
    let fs_payload = TextGen::new(11).text(2 * BLOCK as usize + 9);
    let (blob, image_blob, image_len) = {
        let cluster = LoopbackCluster::boot(cfg.clone(), 3).unwrap();
        let sys = cluster.deploy().unwrap();
        let c = sys.client(NodeId::new(100));

        // Two versions of one BLOB: a base write plus a partial overlay,
        // so the rebooted cluster must reconstruct both snapshots from
        // the replayed metadata, not just the newest bytes.
        let blob = c.create();
        let v1 = c.write(blob, 0, &data_v1).unwrap();
        assert_eq!(v1, Version::new(1));
        let v2 = c.write(blob, BLOCK, &overlay).unwrap();
        assert_eq!(v2, Version::new(2));

        // A BSFS namespace over the same cluster. The namespace manager
        // is client-side state (§IV-A), so it persists the paper's way:
        // its image is stored in a well-known BLOB and reloaded after
        // reboot — the file *contents* live in ordinary BLOBs already.
        let fs_cluster = BsfsCluster::new(cluster.deploy().unwrap());
        let fs = fs_cluster.mount(NodeId::new(1));
        fs.mkdirs("/jobs/in").unwrap();
        write_file(&fs, "/jobs/in/part-0", &fs_payload).unwrap();
        let image = fs_cluster.namespace().export_image();
        let image_blob = c.create();
        c.write(image_blob, 0, &image).unwrap();

        (blob, image_blob, image.len() as u64)
        // Both deployments and the cluster drop here: servers shut down,
        // sockets close — the process-stop half of a restart.
    };

    // --- second life: same directory, fresh servers ----------------------
    let cluster = LoopbackCluster::boot(cfg, 3).unwrap();
    let sys = cluster.deploy().unwrap();
    let c = sys.client(NodeId::new(200));

    // Every version reads back byte-identical, and history is intact.
    let (latest, size) = c.latest(blob).unwrap();
    assert_eq!(latest, Version::new(2));
    assert_eq!(size, data_v1.len() as u64);
    assert_eq!(
        &c.read(blob, Some(Version::new(1)), 0, size).unwrap()[..],
        &data_v1[..]
    );
    let got = c.read(blob, None, 0, size).unwrap();
    assert_eq!(&got[..BLOCK as usize], &data_v1[..BLOCK as usize]);
    assert_eq!(&got[BLOCK as usize..2 * BLOCK as usize], &overlay[..]);
    assert_eq!(&got[2 * BLOCK as usize..], &data_v1[2 * BLOCK as usize..]);
    assert_eq!(c.history(blob).unwrap().len(), 2);

    // The BSFS namespace reloads from its image BLOB and resolves the
    // file's blocks on the rebooted providers.
    let fs_cluster = BsfsCluster::new(cluster.deploy().unwrap());
    let image = c.read(image_blob, None, 0, image_len).unwrap();
    fs_cluster.namespace().import_image(&image).unwrap();
    let fs = fs_cluster.mount(NodeId::new(2));
    assert_eq!(read_fully(&fs, "/jobs/in/part-0").unwrap(), fs_payload);

    // The replayed version manager allocates *above* the old ids, and the
    // cluster stays fully writable: new versions on old BLOBs, new files
    // in the reloaded namespace.
    let fresh = c.create();
    assert!(
        fresh.raw() > image_blob.raw(),
        "blob ids resume after reboot: {fresh:?} vs {image_blob:?}"
    );
    let v3 = c.write(blob, 0, &[0xEEu8; 8]).unwrap();
    assert_eq!(v3, Version::new(3));
    let head = c.read(blob, None, 0, 8).unwrap();
    assert!(head.iter().all(|&b| b == 0xEE));
    write_file(&fs, "/jobs/in/part-1", b"fresh after reboot").unwrap();
    assert_eq!(
        read_fully(&fs, "/jobs/in/part-1").unwrap(),
        b"fresh after reboot"
    );
}

#[test]
fn rebooted_cluster_hands_out_disjoint_block_id_ranges() {
    // Each deployment claims a disjoint block-id range; on disk, the
    // immutable-put check makes a collision fatal (a rebooted cluster
    // restarting the counter at zero would re-issue deployment 0's range
    // and trip it). The deployment counter therefore persists in
    // `deployments.log`, and this test reboots twice to prove the ranges
    // keep advancing.
    let tmp = TempDir::new("disk-restart-ranges");
    let cfg = disk_cfg(tmp.path());
    let payload = |seed: u64| TextGen::new(seed).text(2 * BLOCK as usize + 5);

    let mut blobs = Vec::new();
    for life in 0..3u64 {
        let cluster = LoopbackCluster::boot(cfg.clone(), 2).unwrap();
        // Two deployments per life, writing interleaved: six disjoint
        // block-id ranges across the three lives.
        for d in 0..2u64 {
            let sys = cluster.deploy().unwrap();
            let c = sys.client(NodeId::new(life * 10 + d));
            let blob = c.create();
            let body = payload(life * 10 + d);
            c.write(blob, 0, &body).unwrap();
            blobs.push((blob, body));
        }
        // Everything written by *any* past life is still readable.
        let sys = cluster.deploy().unwrap();
        let c = sys.client(NodeId::new(99));
        for (blob, body) in &blobs {
            assert_eq!(
                &c.read(*blob, None, 0, body.len() as u64).unwrap()[..],
                &body[..],
                "life {life}: blob {blob:?} must survive"
            );
        }
    }
}

#[test]
fn reboot_is_idempotent_for_an_idle_cluster() {
    // Booting and stopping without writing anything must not disturb the
    // stored state — recovery replays are read-only on clean logs.
    let tmp = TempDir::new("disk-restart-idle");
    let cfg = disk_cfg(tmp.path());
    let body = TextGen::new(3).text(BLOCK as usize * 2);
    let blob = {
        let cluster = LoopbackCluster::boot(cfg.clone(), 2).unwrap();
        let sys = cluster.deploy().unwrap();
        let c = sys.client(NodeId::new(0));
        let blob = c.create();
        c.write(blob, 0, &body).unwrap();
        blob
    };
    for _ in 0..3 {
        let cluster = LoopbackCluster::boot(cfg.clone(), 2).unwrap();
        drop(cluster);
    }
    let cluster = LoopbackCluster::boot(cfg, 2).unwrap();
    let sys = cluster.deploy().unwrap();
    let c = sys.client(NodeId::new(1));
    assert_eq!(
        &c.read(blob, None, 0, body.len() as u64).unwrap()[..],
        &body[..]
    );
}
