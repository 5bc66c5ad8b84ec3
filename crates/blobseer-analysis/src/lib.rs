//! Repo-specific static analysis for the BlobSeer reproduction.
//!
//! The build environment has no crates.io access, so the usual ecosystem
//! tooling (custom clippy lints, loom, sanitizers) is out of reach; this
//! crate implements the slice the repo actually needs as a dependency-free
//! line scanner. The rules encode invariants the codebase has converged
//! on over the PR stack (see `docs/ANALYSIS.md`):
//!
//! * [`no-unwrap`](RULE_NO_UNWRAP) — no `.unwrap()` / `.expect(` in
//!   non-test library code of the protocol crates (`types`,
//!   `blobseer-core`, `blobseer-rpc`, `blobseer-disk`, `bsfs`, the shims
//!   and the umbrella `src/`). Driver/harness crates (`experiments`,
//!   `bench`, `dfs`, `hdfs-sim`, `mapreduce`) are out of scope: panicking
//!   on bad figure configs is fine, losing a server worker to a poisoned
//!   unwrap is not.
//! * [`no-std-sync`](RULE_NO_STD_SYNC) — no `std::sync::{Mutex, RwLock,
//!   Condvar}` outside `shims/parking_lot` and `simnet::gate`: everything
//!   else must go through the instrumented shim or the lock-order checker
//!   is blind to it.
//! * [`no-real-time`](RULE_NO_REAL_TIME) — no `Instant::now()` /
//!   `thread::sleep` in the SimGate-charged crates (`simnet`,
//!   `experiments`, `hdfs-sim`): virtual-time models must not consult the
//!   wall clock.
//! * [`no-panic-decode`](RULE_NO_PANIC_DECODE) — no `panic!` family
//!   macros in the wire-decode paths: a malformed frame from a peer must
//!   surface as `Error::Codec`, never as a server-side panic.
//! * [`no-staging-copy`](RULE_NO_STAGING_COPY) — no
//!   `Bytes::copy_from_slice` / `.to_vec()` in the four files a block's
//!   bytes pass through between the socket and the volume file
//!   (`blobseer-rpc/src/{server,client}.rs`,
//!   `blobseer-disk/src/{frame,volume}.rs`): that path is single-pass —
//!   a payload is sliced out of the buffer it arrived in and written from
//!   there — and one innocent-looking copy per block undoes it.
//! * [`vectored-only`](RULE_VECTORED_ONLY) — in the `no-unwrap` crates, an
//!   `impl BlockStore for` / `impl MetaStore for` block that defines
//!   `fn put(`, `fn get(` or `fn delete(`: the batch forms are the port's
//!   required methods and the single-item forms are provided over them,
//!   so an adapter that writes its own is a second body of one operation.
//!
//! Escape hatch: a finding is suppressed by `// lint:allow(rule): reason`
//! on the same line or the immediately preceding one; the reason is
//! mandatory. Test code (`#[cfg(test)]` / `#[test]` blocks, `tests/` and
//! `benches/` trees) is skipped entirely.

#![forbid(unsafe_code)]

use std::fmt;
use std::path::{Path, PathBuf};

pub const RULE_NO_UNWRAP: &str = "no-unwrap";
pub const RULE_NO_STD_SYNC: &str = "no-std-sync";
pub const RULE_NO_REAL_TIME: &str = "no-real-time";
pub const RULE_NO_PANIC_DECODE: &str = "no-panic-decode";
pub const RULE_NO_STAGING_COPY: &str = "no-staging-copy";
pub const RULE_VECTORED_ONLY: &str = "vectored-only";

/// Every rule the lint knows, in reporting order.
pub const ALL_RULES: [&str; 6] = [
    RULE_NO_UNWRAP,
    RULE_NO_STD_SYNC,
    RULE_NO_REAL_TIME,
    RULE_NO_PANIC_DECODE,
    RULE_NO_STAGING_COPY,
    RULE_VECTORED_ONLY,
];

/// One lint violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Workspace-relative path, `/`-separated.
    pub path: String,
    /// 1-based line number.
    pub line: usize,
    pub rule: &'static str,
    /// The offending source line, trimmed.
    pub excerpt: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.path, self.line, self.rule, self.excerpt
        )
    }
}

// ---------------------------------------------------------------------------
// Rule scoping by workspace-relative path.
// ---------------------------------------------------------------------------

/// Crates whose library code must propagate errors instead of unwrapping:
/// everything on the client/server protocol paths. Also the scope of
/// `vectored-only`: these are the crates that ship store adapters.
const NO_UNWRAP_SCOPE: [&str; 8] = [
    "crates/types/",
    "crates/blobseer-core/",
    "crates/blobseer-control/",
    "crates/blobseer-rpc/",
    "crates/blobseer-disk/",
    "crates/bsfs/",
    "shims/",
    "src/",
];

/// Crates charged to `simnet::SimGate` virtual time.
const NO_REAL_TIME_SCOPE: [&str; 3] = ["crates/simnet/", "crates/experiments/", "crates/hdfs-sim/"];

/// Wire-decode files where a malformed peer frame must never panic.
const NO_PANIC_DECODE_SCOPE: [&str; 5] = [
    "crates/blobseer-rpc/src/wire.rs",
    "crates/types/src/wire.rs",
    "crates/blobseer-core/src/meta/codec.rs",
    "crates/blobseer-control/src/codec.rs",
    "crates/blobseer-control/src/replog.rs",
];

/// The block byte path: the files a payload crosses between the socket and
/// the volume file, where it must be sliced and borrowed, never copied.
const NO_STAGING_COPY_SCOPE: [&str; 4] = [
    "crates/blobseer-rpc/src/server.rs",
    "crates/blobseer-rpc/src/client.rs",
    "crates/blobseer-disk/src/frame.rs",
    "crates/blobseer-disk/src/volume.rs",
];

/// The two sanctioned `std::sync` lock users: the shim itself (it *is*
/// the instrumentation layer) and the SimGate scheduler (which must not
/// recurse into the checker it underpins).
const STD_SYNC_EXEMPT: [&str; 2] = ["shims/parking_lot/", "crates/simnet/src/gate.rs"];

fn in_scope(rel: &str, prefixes: &[&str]) -> bool {
    prefixes.iter().any(|p| rel.starts_with(p))
}

/// Paths that are test/bench harness by location rather than by
/// `#[cfg(test)]`: integration tests, benches, fixtures, examples.
fn is_test_path(rel: &str) -> bool {
    rel.starts_with("tests/")
        || rel.contains("/tests/")
        || rel.contains("/benches/")
        || rel.contains("/examples/")
}

// ---------------------------------------------------------------------------
// Line-level scanning.
// ---------------------------------------------------------------------------

/// Strips line comments, block comments and (naively) string literals,
/// tracking block-comment state across lines. Good enough for pattern
/// rules: the repo is rustfmt-formatted and the patterns are all
/// multi-token method calls or paths that never span lines.
fn clean_line(raw: &str, in_block_comment: &mut bool) -> String {
    let chars: Vec<char> = raw.chars().collect();
    let mut out = String::with_capacity(raw.len());
    let mut i = 0;
    let mut in_str = false;
    let mut in_char = false;
    while i < chars.len() {
        let c = chars[i];
        let next = chars.get(i + 1).copied();
        if *in_block_comment {
            if c == '*' && next == Some('/') {
                *in_block_comment = false;
                i += 2;
            } else {
                i += 1;
            }
            continue;
        }
        if in_str {
            match c {
                '\\' => i += 2,
                '"' => {
                    in_str = false;
                    i += 1;
                }
                _ => i += 1,
            }
            continue;
        }
        if in_char {
            match c {
                '\\' => i += 2,
                '\'' => {
                    in_char = false;
                    i += 1;
                }
                _ => i += 1,
            }
            continue;
        }
        match c {
            '/' if next == Some('/') => break, // line or doc comment
            '/' if next == Some('*') => {
                *in_block_comment = true;
                i += 2;
            }
            '"' => {
                in_str = true;
                out.push('"');
                i += 1;
            }
            // A lifetime (`'a`) is not a char literal; only treat a quote
            // as opening one when it closes within a couple of chars
            // (`'x'`, `b'x'`, `'\n'`, `'\''`).
            '\'' => {
                let closes = chars.get(i + 2) == Some(&'\'')
                    || (next == Some('\\') && chars.get(i + 3) == Some(&'\''));
                if closes {
                    in_char = true;
                }
                out.push('\'');
                i += 1;
            }
            _ => {
                out.push(c);
                i += 1;
            }
        }
    }
    out
}

/// Extracts `lint:allow(rule): reason` directives from a raw source line.
/// Returns the allowed rules; a directive without a non-empty reason after
/// the colon allows nothing (the reason is the point).
fn allowed_rules(raw: &str) -> Vec<String> {
    let mut rules = Vec::new();
    let mut rest = raw;
    while let Some(pos) = rest.find("lint:allow(") {
        let after = &rest[pos + "lint:allow(".len()..];
        let Some(close) = after.find(')') else { break };
        let rule = after[..close].trim().to_string();
        let tail = &after[close + 1..];
        let has_reason = tail
            .strip_prefix(':')
            .is_some_and(|reason| !reason.trim().is_empty());
        if has_reason && !rule.is_empty() {
            rules.push(rule);
        }
        rest = tail;
    }
    rules
}

/// Lints one file's source. `rel` is the workspace-relative path that
/// decides which rules apply.
pub fn lint_source(rel: &str, source: &str) -> Vec<Finding> {
    let rel = rel.replace('\\', "/");
    if is_test_path(&rel) {
        return Vec::new();
    }
    let unwrap_scope = in_scope(&rel, &NO_UNWRAP_SCOPE);
    let real_time_scope = in_scope(&rel, &NO_REAL_TIME_SCOPE);
    let decode_scope = NO_PANIC_DECODE_SCOPE.contains(&rel.as_str());
    let std_sync_scope = !in_scope(&rel, &STD_SYNC_EXEMPT);
    let staging_copy_scope = NO_STAGING_COPY_SCOPE.contains(&rel.as_str());

    let mut findings = Vec::new();
    let mut in_block_comment = false;
    // Depth of `{` nesting inside a region introduced by `#[cfg(test)]` /
    // `#[test]`; 0 = not in test code. `pending` bridges the attribute
    // line and the `{` that opens the item.
    let mut test_depth = 0usize;
    let mut pending_test_attr = false;
    let mut prev_allows: Vec<String> = Vec::new();
    // Depth of `{` nesting inside an `impl BlockStore for` / `impl
    // MetaStore for` block; 0 = outside one. `pending` bridges a header
    // whose `{` sits on a later line.
    let mut store_impl_depth = 0usize;
    let mut pending_store_impl = false;

    for (idx, raw) in source.lines().enumerate() {
        let line_no = idx + 1;
        let cleaned = clean_line(raw, &mut in_block_comment);
        let allows = allowed_rules(raw);

        let opens = cleaned.matches('{').count();
        let closes = cleaned.matches('}').count();

        if test_depth > 0 {
            test_depth = (test_depth + opens).saturating_sub(closes);
            prev_allows = allows;
            continue;
        }
        if cleaned.contains("#[cfg(test)]")
            || cleaned.contains("#[test]")
            || cleaned.contains("#[cfg(all(test")
        {
            pending_test_attr = true;
        }
        if pending_test_attr {
            if opens > 0 {
                pending_test_attr = false;
                test_depth = opens.saturating_sub(closes).max(1);
                if opens == closes {
                    // one-line test item, e.g. `#[test] fn t() {}`
                    test_depth = 0;
                }
            } else if cleaned.trim_end().ends_with(';') {
                // attribute applied to a braceless item (`#[cfg(test)] use …;`)
                pending_test_attr = false;
            }
            prev_allows = allows;
            continue;
        }

        let check = |rule: &'static str, hit: bool, findings: &mut Vec<Finding>| {
            if !hit {
                return;
            }
            let allowed = allows.iter().chain(prev_allows.iter()).any(|r| r == rule);
            if !allowed {
                findings.push(Finding {
                    path: rel.clone(),
                    line: line_no,
                    rule,
                    excerpt: raw.trim().to_string(),
                });
            }
        };

        if unwrap_scope {
            check(
                RULE_NO_UNWRAP,
                cleaned.contains(".unwrap()") || cleaned.contains(".expect("),
                &mut findings,
            );
        }
        if unwrap_scope {
            let header = cleaned.trim_start().starts_with("impl")
                && (cleaned.contains(" BlockStore for ") || cleaned.contains(" MetaStore for "));
            if store_impl_depth > 0 {
                let hit = ["fn put(", "fn get(", "fn delete("]
                    .iter()
                    .any(|t| cleaned.contains(t));
                check(RULE_VECTORED_ONLY, hit, &mut findings);
                store_impl_depth = (store_impl_depth + opens).saturating_sub(closes);
            } else if header || pending_store_impl {
                pending_store_impl = opens == 0;
                store_impl_depth = opens.saturating_sub(closes);
            }
        }
        if std_sync_scope {
            let hit = cleaned.contains("std::sync")
                && ["Mutex", "RwLock", "Condvar"]
                    .iter()
                    .any(|t| cleaned.contains(t));
            check(RULE_NO_STD_SYNC, hit, &mut findings);
        }
        if real_time_scope {
            check(
                RULE_NO_REAL_TIME,
                cleaned.contains("Instant::now()") || cleaned.contains("thread::sleep"),
                &mut findings,
            );
        }
        if decode_scope {
            let hit = ["panic!(", "unreachable!(", "todo!(", "unimplemented!("]
                .iter()
                .any(|t| cleaned.contains(t));
            check(RULE_NO_PANIC_DECODE, hit, &mut findings);
        }
        if staging_copy_scope {
            check(
                RULE_NO_STAGING_COPY,
                cleaned.contains("Bytes::copy_from_slice") || cleaned.contains(".to_vec()"),
                &mut findings,
            );
        }

        prev_allows = allows;
    }
    findings
}

// ---------------------------------------------------------------------------
// Workspace walking.
// ---------------------------------------------------------------------------

/// Directories never worth descending into.
const SKIP_DIRS: [&str; 4] = ["target", ".git", ".github", "fixtures"];

/// Recursively collects the workspace's `.rs` files, workspace-relative.
pub fn rust_sources(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        for entry in std::fs::read_dir(&dir)? {
            let entry = entry?;
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if path.is_dir() {
                if !SKIP_DIRS.contains(&name.as_ref()) && !name.starts_with('.') {
                    stack.push(path);
                }
            } else if name.ends_with(".rs") {
                out.push(path.strip_prefix(root).unwrap_or(&path).to_path_buf());
            }
        }
    }
    out.sort();
    Ok(out)
}

/// Lints every `.rs` file under `root`, returning all findings sorted by
/// path and line.
pub fn lint_workspace(root: &Path) -> std::io::Result<Vec<Finding>> {
    let mut findings = Vec::new();
    for rel in rust_sources(root)? {
        let source = std::fs::read_to_string(root.join(&rel))?;
        findings.extend(lint_source(&rel.to_string_lossy(), &source));
    }
    findings.sort_by(|a, b| (&a.path, a.line).cmp(&(&b.path, b.line)));
    Ok(findings)
}

/// Locates the workspace root from this crate's build-time manifest dir.
pub fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .map(Path::to_path_buf)
        .unwrap_or_else(|| PathBuf::from("."))
}
