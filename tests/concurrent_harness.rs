//! The concurrent-client harness, exercised through its public API: many
//! real `BlobClient`s interleaved on the simulated clock must behave
//! exactly like the live engine under real threads — because they *are*
//! the live engine under real threads.

use blobseer_core::BlobClient;
use blobseer_types::NodeId;
use experiments::concurrent::{self, ClientTask, ConcurrentDeployment};
use experiments::Constants;
use std::sync::Mutex;

const BLOCK: u64 = 256;

fn deploy(n_providers: usize, n_clients: usize) -> ConcurrentDeployment {
    concurrent::deploy(
        &Constants::default(),
        n_providers,
        n_providers.max(n_clients),
        BLOCK,
    )
}

#[test]
fn sixteen_appenders_produce_sixteen_consecutive_versions() {
    let dep = deploy(8, 16);
    let boot = dep.sys.client(NodeId::new(0));
    let blob = boot.create();
    dep.set_charging(true);
    let tickets = Mutex::new(Vec::new());
    let clients: Vec<ClientTask<'_>> = (0..16u64)
        .map(|i| {
            let tickets = &tickets;
            (
                NodeId::new(i % 8),
                Box::new(move |cl: BlobClient| {
                    let (offset, v) = cl.append(blob, &[i as u8; BLOCK as usize]).unwrap();
                    tickets.lock().unwrap().push((v.raw(), offset, i));
                }) as Box<dyn FnOnce(BlobClient) + Send>,
            )
        })
        .collect();
    dep.run_clients(clients);

    let mut tickets = tickets.into_inner().unwrap();
    tickets.sort_unstable();
    // 16 distinct consecutive versions, offsets matching version rank.
    assert_eq!(
        tickets.iter().map(|&(v, _, _)| v).collect::<Vec<_>>(),
        (1..=16).collect::<Vec<_>>()
    );
    for &(v, offset, _) in &tickets {
        assert_eq!(offset, (v - 1) * BLOCK, "offset fixed at assignment");
    }
    // The final BLOB is readable and holds every append exactly once.
    let (latest, size) = boot.latest(blob).unwrap();
    assert_eq!((latest.raw(), size), (16, 16 * BLOCK));
    let data = boot.read(blob, None, 0, size).unwrap();
    let mut seen = std::collections::HashSet::new();
    for chunk in data.chunks(BLOCK as usize) {
        assert!(chunk.iter().all(|&b| b == chunk[0]), "torn append");
        assert!(seen.insert(chunk[0]), "duplicate append");
    }
    assert_eq!(seen.len(), 16);
}

#[test]
fn sixteen_readers_observe_one_consistent_snapshot() {
    let dep = deploy(8, 16);
    let boot = dep.sys.client(NodeId::new(0));
    let blob = boot.create();
    for i in 0..16u8 {
        boot.append(blob, &[i; BLOCK as usize]).unwrap();
    }
    dep.set_charging(true);
    let observed = Mutex::new(Vec::new());
    let clients: Vec<ClientTask<'_>> = (0..16u64)
        .map(|i| {
            let observed = &observed;
            (
                NodeId::new(i % 8),
                Box::new(move |cl: BlobClient| {
                    let (v, size) = cl.latest(blob).unwrap();
                    let data = cl.read(blob, Some(v), i * BLOCK, BLOCK).unwrap();
                    observed
                        .lock()
                        .unwrap()
                        .push((v.raw(), size, data[0] as u64, i));
                }) as Box<dyn FnOnce(BlobClient) + Send>,
            )
        })
        .collect();
    dep.run_clients(clients);
    let observed = observed.into_inner().unwrap();
    assert_eq!(observed.len(), 16);
    for &(v, size, byte, i) in &observed {
        assert_eq!(v, 16, "every reader sees the same revealed snapshot");
        assert_eq!(size, 16 * BLOCK);
        assert_eq!(byte, i, "reader {i} reads its own chunk's bytes");
    }
}

#[test]
fn runs_are_deterministic_per_seed() {
    let run = || {
        let dep = deploy(8, 16);
        let boot = dep.sys.client(NodeId::new(0));
        let blob = boot.create();
        dep.set_charging(true);
        let ends = Mutex::new(Vec::new());
        let clients: Vec<ClientTask<'_>> = (0..16u64)
            .map(|i| {
                let (ends, fabric) = (&ends, &dep.fabric);
                (
                    NodeId::new(i % 8),
                    Box::new(move |cl: BlobClient| {
                        cl.append(blob, &[i as u8; BLOCK as usize]).unwrap();
                        ends.lock()
                            .unwrap()
                            .push((i, fabric.gate().now().as_nanos()));
                    }) as Box<dyn FnOnce(BlobClient) + Send>,
                )
            })
            .collect();
        dep.run_clients(clients);
        (
            ends.into_inner().unwrap(),
            dep.now().as_nanos(),
            dep.sys.layout_vector(),
        )
    };
    assert_eq!(run(), run(), "same interleaving, same clocks");
}
