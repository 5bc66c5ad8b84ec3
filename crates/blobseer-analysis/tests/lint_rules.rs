//! End-to-end tests for the workspace lint: each rule must fire on its
//! fixture, every escape hatch must suppress, and — the acceptance
//! criterion of the tooling PR — the real tree must lint clean.

use blobseer_analysis::{
    lint_source, lint_workspace, workspace_root, RULE_NO_PANIC_DECODE, RULE_NO_REAL_TIME,
    RULE_NO_STAGING_COPY, RULE_NO_STD_SYNC, RULE_NO_UNSAFE, RULE_NO_UNWRAP, RULE_ONE_CODEC,
    RULE_VECTORED_ONLY,
};

fn fixture(name: &str) -> String {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("fixture {} unreadable: {e}", path.display()))
}

#[test]
fn unwrap_rule_fires_in_protocol_code() {
    let findings = lint_source(
        "crates/blobseer-core/src/fixture.rs",
        &fixture("unwrap_violation.rs"),
    );
    assert_eq!(findings.len(), 2, "unwrap + expect: {findings:?}");
    assert!(findings.iter().all(|f| f.rule == RULE_NO_UNWRAP));
}

#[test]
fn unwrap_rule_silent_outside_scope() {
    // Same source under a path the rule does not govern (bench code).
    let findings = lint_source(
        "crates/bench/src/fixture.rs",
        &fixture("unwrap_violation.rs"),
    );
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn std_sync_rule_fires_outside_shim() {
    let findings = lint_source(
        "crates/blobseer-core/src/fixture.rs",
        &fixture("std_sync_violation.rs"),
    );
    assert_eq!(findings.len(), 2, "use + static: {findings:?}");
    assert!(findings.iter().all(|f| f.rule == RULE_NO_STD_SYNC));
}

#[test]
fn std_sync_rule_exempts_shim_and_gate() {
    let src = fixture("std_sync_violation.rs");
    for rel in [
        "shims/parking_lot/src/fixture.rs",
        "crates/simnet/src/gate.rs",
    ] {
        let findings = lint_source(rel, &src);
        assert!(findings.is_empty(), "{rel}: {findings:?}");
    }
}

#[test]
fn real_time_rule_fires_in_simgate_crates() {
    let findings = lint_source(
        "crates/simnet/src/fixture.rs",
        &fixture("real_time_violation.rs"),
    );
    assert_eq!(findings.len(), 2, "sleep + Instant::now: {findings:?}");
    assert!(findings.iter().all(|f| f.rule == RULE_NO_REAL_TIME));
}

#[test]
fn panic_decode_rule_fires_in_wire_files() {
    let findings = lint_source(
        "crates/blobseer-rpc/src/wire.rs",
        &fixture("panic_decode_violation.rs"),
    );
    assert_eq!(findings.len(), 1, "{findings:?}");
    assert_eq!(findings[0].rule, RULE_NO_PANIC_DECODE);
}

#[test]
fn staging_copy_rule_fires_on_the_block_byte_path_only() {
    let src = fixture("staging_copy_violation.rs");
    for rel in [
        "crates/blobseer-rpc/src/server.rs",
        "crates/blobseer-rpc/src/client.rs",
        "crates/blobseer-disk/src/frame.rs",
        "crates/blobseer-disk/src/volume.rs",
    ] {
        let findings = lint_source(rel, &src);
        assert_eq!(
            findings.len(),
            2,
            "{rel}: copy_from_slice + to_vec: {findings:?}"
        );
        assert!(findings.iter().all(|f| f.rule == RULE_NO_STAGING_COPY));
    }
    // The same lines elsewhere — codecs, stores, the client — are not the
    // rule's business.
    for rel in [
        "crates/blobseer-rpc/src/wire.rs",
        "crates/blobseer-disk/src/record_log.rs",
        "crates/blobseer-core/src/client/append.rs",
    ] {
        assert!(lint_source(rel, &src).is_empty(), "{rel}");
    }
}

#[test]
fn vectored_only_rule_fires_on_single_item_bodies_in_store_impls() {
    let src = fixture("vectored_only_violation.rs");
    let findings = lint_source("crates/blobseer-rpc/src/fixture.rs", &src);
    assert_eq!(
        findings.len(),
        2,
        "BlockStore::put + MetaStore::delete: {findings:?}"
    );
    assert!(findings.iter().all(|f| f.rule == RULE_VECTORED_ONLY));
    assert!(findings[0].excerpt.starts_with("fn put("), "{findings:?}");
    assert!(
        findings[1].excerpt.starts_with("fn delete("),
        "{findings:?}"
    );
    // Same scope as `no-unwrap`: harness crates may decorate as they like.
    assert!(lint_source("crates/bench/src/fixture.rs", &src).is_empty());
}

#[test]
fn one_codec_rule_fires_on_hand_decoded_lists_and_ids_outside_the_codecs() {
    let src = fixture("one_codec_violation.rs");
    let findings = lint_source("crates/blobseer-rpc/src/client.rs", &src);
    assert_eq!(findings.len(), 2, "list count + id: {findings:?}");
    assert!(findings.iter().all(|f| f.rule == RULE_ONE_CODEC));
    assert!(findings[0].excerpt.contains("as usize"), "{findings:?}");
    assert!(findings[1].excerpt.contains("BlobId::new("), "{findings:?}");
    // Harness crates are in scope too: there is one codec, everywhere.
    assert_eq!(lint_source("crates/bench/src/fixture.rs", &src).len(), 2);
    // The two files the impls live in are where these lines belong.
    for rel in [
        "crates/types/src/wire.rs",
        "crates/blobseer-core/src/meta/codec.rs",
    ] {
        let hits = lint_source(rel, &src);
        assert!(hits.iter().all(|f| f.rule != RULE_ONE_CODEC), "{rel}");
    }
}

#[test]
fn unsafe_rule_fires_on_the_keyword_in_workspace_code_only() {
    let src = fixture("unsafe_violation.rs");
    for rel in [
        "crates/blobseer-core/src/fixture.rs",
        "shims/parking_lot/src/fixture.rs",
        "src/fixture.rs",
    ] {
        let findings = lint_source(rel, &src);
        assert_eq!(findings.len(), 2, "{rel}: block + fn: {findings:?}");
        assert!(findings.iter().all(|f| f.rule == RULE_NO_UNSAFE), "{rel}");
    }
    // The benchmark package is out of scope.
    assert!(lint_source("perf/src/fixture.rs", &src).is_empty());
}

#[test]
fn allows_tests_and_literals_suppress_everything() {
    let findings = lint_source(
        "crates/blobseer-core/src/fixture.rs",
        &fixture("allowed_clean.rs"),
    );
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn allow_without_reason_does_not_suppress() {
    let src =
        "fn f(v: &[u32]) -> u32 {\n    // lint:allow(no-unwrap):\n    *v.last().unwrap()\n}\n";
    let findings = lint_source("crates/blobseer-core/src/fixture.rs", src);
    assert_eq!(findings.len(), 1, "reason is mandatory: {findings:?}");
}

#[test]
fn allow_for_wrong_rule_does_not_suppress() {
    let src =
        "fn f(v: &[u32]) -> u32 {\n    *v.last().unwrap() // lint:allow(no-std-sync): wrong rule\n}\n";
    let findings = lint_source("crates/blobseer-core/src/fixture.rs", src);
    assert_eq!(findings.len(), 1, "{findings:?}");
}

#[test]
fn test_paths_are_skipped_entirely() {
    let src = fixture("unwrap_violation.rs");
    for rel in [
        "crates/blobseer-core/tests/fixture.rs",
        "crates/blobseer-core/benches/fixture.rs",
        "crates/blobseer-core/examples/fixture.rs",
    ] {
        assert!(lint_source(rel, &src).is_empty(), "{rel}");
    }
}

#[test]
fn multibyte_comments_do_not_break_scanning() {
    // Comment stripping walks chars, not bytes — a section sign or em
    // dash before a violation must neither panic nor mask it.
    let src =
        "fn f(v: &[u32]) -> u32 {\n    // §III — descriptor fan-out\n    *v.last().unwrap()\n}\n";
    let findings = lint_source("crates/blobseer-core/src/fixture.rs", src);
    assert_eq!(findings.len(), 1, "{findings:?}");
}

/// The acceptance criterion: the real tree is clean under every rule.
#[test]
fn real_tree_is_clean() {
    let root = workspace_root();
    let findings = lint_workspace(&root).expect("workspace scan");
    assert!(
        findings.is_empty(),
        "lint violations in the real tree:\n{}",
        findings
            .iter()
            .map(|f| f.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
}
