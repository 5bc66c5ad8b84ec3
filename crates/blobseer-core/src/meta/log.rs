//! The per-BLOB write log and the "materializing version" computation.
//!
//! The version manager records, for every assigned version, which blocks the
//! write touched and how the tree capacity evolved. This log is the paper's
//! *hint* mechanism ("the version manager hints the client on such
//! dependencies … the client is able to predict the values corresponding to
//! the metadata that is being written by the concurrent writers", §III-D):
//! from it alone — without reading the DHT — one can compute, for any tree
//! position, the latest version that materialized a node there, and thus
//! weave references to subtrees of lower versions even when those are still
//! being written.
//!
//! # The materialization rule
//!
//! A write `v` with block range `R_v` and capacities `cap_before → cap_after`
//! materializes the node at position `P` iff `P` is a valid node of the
//! `cap_after` tree (`P.end() <= cap_after`) and either
//!
//! 1. `P` intersects `R_v` (the paths from every changed leaf to the root,
//!    §III-A.3: nodes "are created only if they do cover the range of the
//!    update"), or
//! 2. `P` is a *spine* node: `P.start == 0`, `P.len > cap_before > 0`.
//!    When an append grows the tree, the new levels above the old root must
//!    exist even where they do not overlap the appended range, otherwise
//!    old content would become unreachable from the new root.
//!
//! # The border of a write
//!
//! The tree a write publishes references older versions only at its
//! **border**: the non-materialized children of the nodes it materializes
//! ([`LogEntry::border_positions`] — the one definition the ticket codec
//! and [`super::tree::TreeStore`] both go by). A single-block append at
//! depth `d` has at most `d` border positions, whatever the length of the
//! history, so the hint a writer needs is O(log n) answers, not the log.
//!
//! # Two kinds of chain
//!
//! A [`LogChain`] is either **live** — the version manager's own segments,
//! shared by `Arc`, answering any position and any `before` through the
//! per-position index each [`WriteLog`] keeps — or **border-only**: the
//! [`Border`] answers one ticket carried over the wire. A border-only chain
//! knows nothing else; asking it another position or another `before` is
//! an [`Error::Internal`], never a hole — a missing answer woven as a hole
//! would silently drop live data.

use super::key::{BlockRange, Pos};
use super::node::NodeRef;
use blobseer_types::{BlobId, Error, Result, Version};
use parking_lot::RwLock;
use std::collections::HashMap;
use std::ops::Deref;
use std::sync::Arc;

/// One assigned write/append in a BLOB's history.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LogEntry {
    /// The assigned snapshot version.
    pub version: Version,
    /// Blocks covered by the (block-aligned) update.
    pub blocks: BlockRange,
    /// Tree capacity (in blocks, power of two; 0 for the empty BLOB) before
    /// this write.
    pub cap_before: u64,
    /// Tree capacity after this write.
    pub cap_after: u64,
    /// BLOB size in bytes after this write.
    pub size_after: u64,
}

impl LogEntry {
    /// Does this write materialize a node at `pos`? See the module docs for
    /// the rule.
    #[inline]
    pub fn materializes(&self, pos: Pos) -> bool {
        if !pos.valid_in(self.cap_after) {
            return false;
        }
        pos.intersects(&self.blocks)
            || (pos.start == 0 && self.cap_before > 0 && pos.len > self.cap_before)
    }

    /// Visits every position this write materializes, parents before
    /// children, left before right — O(nodes of the write's tree).
    fn for_each_materialized(&self, mut visit: impl FnMut(Pos)) {
        self.walk(Pos::root(self.cap_after), true, &mut |pos, materialized| {
            if materialized {
                visit(pos);
            }
        });
    }

    /// The write's **border**, in ascending position order: every
    /// non-materialized child of a node the write materializes. These are
    /// exactly the positions where the published tree references an older
    /// version (or a hole), so they are all a writer needs answered by
    /// [`LogChain::materializer_before`].
    ///
    /// Subtrees lying wholly inside the written range hold no border
    /// position (every node there is materialized) and are skipped, so the
    /// walk is bounded by the tree depth, not by the size of the write.
    pub fn border_positions(&self) -> Vec<Pos> {
        let mut border = Vec::new();
        self.walk(
            Pos::root(self.cap_after),
            false,
            &mut |pos, materialized| {
                if !materialized {
                    border.push(pos);
                }
            },
        );
        border
    }

    /// The walk behind both: depth-first from the materialized
    /// position `pos`, reporting each visited position and whether the
    /// write materializes it. Non-materialized positions are reported and
    /// not descended into; `into_covered` decides whether subtrees wholly
    /// inside the written range are.
    fn walk(&self, pos: Pos, into_covered: bool, visit: &mut impl FnMut(Pos, bool)) {
        debug_assert!(self.materializes(pos));
        visit(pos, true);
        let covered = self.blocks.start <= pos.start && pos.end() <= self.blocks.end;
        if pos.is_leaf() || (covered && !into_covered) {
            return;
        }
        for child in [pos.left(), pos.right()] {
            if self.materializes(child) {
                self.walk(child, into_covered, visit);
            } else {
                visit(child, false);
            }
        }
    }
}

/// One lineage's append-only write log, with the index that keeps
/// [`LogChain::materializer_before`] O(log n) however long the log grows.
///
/// The index holds, per tree position, the ascending versions whose writes
/// materialized it. [`Self::push`] maintains it: O(nodes the write
/// materializes) insertions per assignment (made under the per-BLOB lock
/// `assign` already holds) and one `u64` per materialized node of memory.
/// Read access is that of a `[LogEntry]` slice.
#[derive(Default)]
pub struct WriteLog {
    /// Sorted by version and dense: entry `k` has version `base + 1 + k`.
    entries: Vec<LogEntry>,
    index: HashMap<Pos, Vec<Version>>,
}

impl WriteLog {
    /// An empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends the entry of the next assigned version.
    pub fn push(&mut self, entry: LogEntry) {
        debug_assert!(self
            .entries
            .last()
            .is_none_or(|e| e.version < entry.version));
        let index = &mut self.index;
        entry.for_each_materialized(|pos| index.entry(pos).or_default().push(entry.version));
        self.entries.push(entry);
    }

    /// The latest version `<= hi` in this log that materialized `pos`.
    fn latest_at(&self, pos: Pos, hi: Version) -> Option<Version> {
        let versions = self.index.get(&pos)?;
        let upto = versions.partition_point(|v| *v <= hi);
        upto.checked_sub(1).map(|i| versions[i])
    }
}

impl Deref for WriteLog {
    type Target = [LogEntry];

    fn deref(&self) -> &[LogEntry] {
        &self.entries
    }
}

impl FromIterator<LogEntry> for WriteLog {
    fn from_iter<I: IntoIterator<Item = LogEntry>>(entries: I) -> Self {
        let mut log = Self::new();
        for entry in entries {
            log.push(entry);
        }
        log
    }
}

/// A shareable, append-only write log (one per blob lineage). A branch
/// child shares its parent's log — entries and index — through the `Arc`
/// and clamps its lookups to the branch point.
pub type SharedLog = Arc<RwLock<WriteLog>>;

/// One lineage segment of a blob's history: `entries` of `blob`, visible
/// for versions in `(lo, hi]`.
#[derive(Clone)]
pub struct LogSegment {
    /// The lineage that owns these versions.
    pub blob: BlobId,
    /// Entries, sorted by version; entry `k` has version `vec_base + 1 + k`.
    /// May extend beyond `hi` (the parent kept writing after the branch) —
    /// lookups clamp to `hi`.
    pub entries: SharedLog,
    /// Version of the (virtual) entry preceding `entries[0]` — the owning
    /// blob's base. Index arithmetic uses this.
    pub vec_base: Version,
    /// Visibility floor: snapshot lookups for versions `<= lo` fail (they
    /// were garbage-collected before a branch, or belong to an earlier
    /// segment). Metadata *weaving* still looks below `lo` — collected
    /// versions' surviving shared nodes remain valid reference targets.
    pub lo: Version,
    /// Versions `> hi` are outside this segment.
    pub hi: Version,
}

impl LogSegment {
    /// A segment whose full entry vector is visible.
    pub fn full(blob: BlobId, entries: SharedLog, base: Version, hi: Version) -> Self {
        Self {
            blob,
            entries,
            vec_base: base,
            lo: base,
            hi,
        }
    }

    /// Finds the entry for exactly `version`, if it is visible in this
    /// segment.
    pub fn entry(&self, version: Version) -> Option<LogEntry> {
        if version <= self.lo || version > self.hi {
            return None;
        }
        let entries = self.entries.read();
        debug_assert!(version > self.vec_base);
        let idx = (version.raw() - self.vec_base.raw() - 1) as usize;
        let e = entries.get(idx).copied();
        debug_assert!(
            e.map(|e| e.version == version).unwrap_or(true),
            "log must be dense"
        );
        e
    }
}

/// Identifies the write that materialized a node: lineage + version —
/// which is also exactly what a tree node stores to reference it.
pub type Materializer = NodeRef;

/// The answers to one write's border: for each position
/// [`LogEntry::border_positions`] visits, the latest materializer before
/// the write's version (`None` = a hole). This is what a ticket carries
/// over the wire instead of the log.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Border {
    before: Version,
    /// Ascending by position (border positions are disjoint).
    answers: Vec<(Pos, Option<Materializer>)>,
}

impl Border {
    /// Pairs `answers`, given in border order, with the positions of
    /// `entry`'s border — how a decoder rebuilds what
    /// [`LogChain::border`] computed on the other side of the wire
    /// without the positions being shipped. `None` unless there is exactly
    /// one answer per border position.
    pub fn of(entry: &LogEntry, answers: Vec<Option<Materializer>>) -> Option<Self> {
        let positions = entry.border_positions();
        (positions.len() == answers.len()).then(|| Self {
            before: entry.version,
            answers: positions.into_iter().zip(answers).collect(),
        })
    }

    /// `(position, answer)` pairs, ascending by position.
    pub fn answers(&self) -> &[(Pos, Option<Materializer>)] {
        &self.answers
    }

    /// The answer for `pos`: `None` when `pos` is not a border position,
    /// `Some(None)` when it is one and a hole.
    pub fn get(&self, pos: Pos) -> Option<Option<Materializer>> {
        let i = self
            .answers
            .binary_search_by_key(&pos.start, |(p, _)| p.start)
            .ok()?;
        let (found, answer) = self.answers[i];
        (found == pos).then_some(answer)
    }
}

/// A blob's history as a writer sees it: either the live segments — own
/// segment first, then ancestors (youngest → oldest; branching, §VI-A,
/// makes this a chain) — or only the [`Border`] answers a wire ticket
/// carried. See the module docs.
#[derive(Clone)]
pub struct LogChain(Repr);

#[derive(Clone)]
enum Repr {
    Live(Vec<LogSegment>),
    Border(Border),
}

impl LogChain {
    /// Builds a live chain from segments ordered youngest (own) to oldest.
    pub fn new(segments: Vec<LogSegment>) -> Self {
        debug_assert!(!segments.is_empty());
        Self(Repr::Live(segments))
    }

    /// A border-only chain: it answers exactly `border` and nothing else.
    pub fn from_border(border: Border) -> Self {
        Self(Repr::Border(border))
    }

    /// The segments, youngest first (none for a border-only chain).
    pub fn segments(&self) -> &[LogSegment] {
        match &self.0 {
            Repr::Live(segments) => segments,
            Repr::Border(_) => &[],
        }
    }

    /// The log entry of exactly `version`, if assigned (and if this chain
    /// holds entries at all — a border-only chain holds none).
    pub fn entry(&self, version: Version) -> Option<LogEntry> {
        self.segments().iter().find_map(|s| s.entry(version))
    }

    /// The latest version `< before` that materialized a node at `pos`,
    /// with the lineage that owns it. `None` means no such node exists:
    /// the position is a hole (reads as zeros).
    ///
    /// The lookup deliberately ignores the GC visibility floor (`lo`): a
    /// collected version's node can still be the correct weave target,
    /// because any node the latest surviving snapshot reaches stays alive
    /// through GC refcounts.
    ///
    /// # Panics
    /// On a border-only chain asked about a position or a `before` it
    /// holds no answer for — a bug in the caller; code that may hold a
    /// wire ticket's chain uses [`Self::try_materializer_before`].
    pub fn materializer_before(&self, pos: Pos, before: Version) -> Option<Materializer> {
        match self.try_materializer_before(pos, before) {
            Ok(answer) => answer,
            Err(e) => panic!("{e}"),
        }
    }

    /// [`Self::materializer_before`] for chains that may be border-only:
    /// a question the chain holds no answer for is [`Error::Internal`],
    /// never `Ok(None)`.
    pub fn try_materializer_before(
        &self,
        pos: Pos,
        before: Version,
    ) -> Result<Option<Materializer>> {
        let segments = match &self.0 {
            Repr::Live(segments) => segments,
            Repr::Border(border) => {
                let answer = (border.before == before).then(|| border.get(pos));
                return answer.flatten().ok_or_else(|| {
                    Error::Internal(format!(
                        "ticket chain holds the border answers before {}, \
                         asked for {pos:?} before {before}",
                        border.before
                    ))
                });
            }
        };
        for seg in segments {
            if seg.vec_base >= before {
                continue; // every entry here has version > vec_base >= before
            }
            let hi = if seg.hi < before {
                seg.hi
            } else {
                Version::new(before.raw() - 1)
            };
            if hi <= seg.vec_base {
                continue;
            }
            if let Some(version) = seg.entries.read().latest_at(pos, hi) {
                debug_assert!(version > seg.vec_base);
                return Ok(Some(Materializer {
                    blob: seg.blob,
                    version,
                }));
            }
        }
        Ok(None)
    }

    /// The answers to `entry`'s border — everything the tree build of
    /// `entry` needs from this chain. Fails with [`Error::Internal`] when a
    /// border-only chain was built for a different write.
    pub fn border(&self, entry: &LogEntry) -> Result<Border> {
        let answer = |pos| Ok((pos, self.try_materializer_before(pos, entry.version)?));
        Ok(Border {
            before: entry.version,
            answers: entry
                .border_positions()
                .into_iter()
                .map(answer)
                .collect::<Result<_>>()?,
        })
    }

    /// Size and capacity of snapshot `version` (0 both for the empty BLOB).
    pub fn snapshot_geometry(&self, version: Version) -> Option<(u64, u64)> {
        if version.is_zero() {
            return Some((0, 0));
        }
        self.entry(version).map(|e| (e.size_after, e.cap_after))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(
        v: u64,
        blocks: (u64, u64),
        cap_before: u64,
        cap_after: u64,
        size_after: u64,
    ) -> LogEntry {
        LogEntry {
            version: Version::new(v),
            blocks: BlockRange::new(blocks.0, blocks.1),
            cap_before,
            cap_after,
            size_after,
        }
    }

    fn chain_of(blob: u64, entries: Vec<LogEntry>) -> LogChain {
        LogChain::new(vec![LogSegment::full(
            BlobId::new(blob),
            Arc::new(RwLock::new(entries.into_iter().collect())),
            Version::ZERO,
            Version::new(u64::MAX),
        )])
    }

    #[test]
    fn materializes_paths_to_root() {
        // Paper Fig. 1(b): tree of capacity 4, overwrite of blocks [0, 2).
        let e = entry(2, (0, 2), 4, 4, 4 * 64);
        assert!(e.materializes(Pos::new(0, 1)));
        assert!(e.materializes(Pos::new(1, 1)));
        assert!(e.materializes(Pos::new(0, 2)));
        assert!(e.materializes(Pos::new(0, 4)), "root always on the path");
        assert!(!e.materializes(Pos::new(2, 1)));
        assert!(!e.materializes(Pos::new(2, 2)));
        assert!(!e.materializes(Pos::new(0, 8)), "beyond capacity");
    }

    #[test]
    fn growth_materializes_spine() {
        // Paper Fig. 1(c): capacity grows 4 → 8 on an append of one block.
        let e = entry(3, (4, 5), 4, 8, 5 * 64);
        assert!(e.materializes(Pos::new(4, 1)), "the new leaf");
        assert!(e.materializes(Pos::new(4, 2)));
        assert!(e.materializes(Pos::new(4, 4)));
        assert!(e.materializes(Pos::new(0, 8)), "new root");
        assert!(
            !e.materializes(Pos::new(0, 4)),
            "old root is shared, not rebuilt"
        );
        assert!(!e.materializes(Pos::new(5, 1)));
    }

    #[test]
    fn hole_write_still_builds_spine() {
        // A write far past the end: blocks [8, 9) while old capacity was 2.
        let e = entry(2, (8, 9), 2, 16, 9 * 64);
        // Spine nodes keep old content reachable even though they do not
        // intersect the written range.
        assert!(e.materializes(Pos::new(0, 4)), "spine over old root");
        assert!(e.materializes(Pos::new(0, 8)), "spine");
        assert!(e.materializes(Pos::new(0, 16)), "root (intersects)");
        assert!(!e.materializes(Pos::new(0, 2)), "old root untouched");
        assert!(!e.materializes(Pos::new(4, 4)), "hole subtree");
    }

    #[test]
    fn first_write_has_no_spine() {
        let e = entry(1, (2, 3), 0, 4, 3 * 64);
        assert!(e.materializes(Pos::new(0, 4)), "root intersects");
        assert!(
            !e.materializes(Pos::new(0, 2)),
            "hole, not spine (empty blob before)"
        );
        assert!(e.materializes(Pos::new(2, 2)));
    }

    #[test]
    fn materializer_before_scans_backwards() {
        // v1 writes [0,4), v2 overwrites [0,2), v3 appends [4,5) growing to 8.
        let chain = chain_of(
            7,
            vec![
                entry(1, (0, 4), 0, 4, 4 * 64),
                entry(2, (0, 2), 4, 4, 4 * 64),
                entry(3, (4, 5), 4, 8, 5 * 64),
            ],
        );
        let mv = |pos, before| chain.materializer_before(pos, Version::new(before));
        // Reading version 3's tree: left-of-root (0,4) was last touched by v2.
        assert_eq!(mv(Pos::new(0, 4), 4).unwrap().version, Version::new(2));
        // Leaf 2 was last written by v1 (v2 only covered blocks 0–1).
        assert_eq!(mv(Pos::new(2, 1), 4).unwrap().version, Version::new(1));
        assert_eq!(mv(Pos::new(0, 1), 4).unwrap().version, Version::new(2));
        // Before v2, leaf 0 came from v1.
        assert_eq!(mv(Pos::new(0, 1), 2).unwrap().version, Version::new(1));
        // Never-written position: hole.
        assert_eq!(mv(Pos::new(5, 1), 4), None);
        // Nothing exists before v1.
        assert_eq!(mv(Pos::new(0, 1), 1), None);
    }

    #[test]
    fn chain_resolves_across_branch_segments() {
        // Parent blob 1 wrote v1..v3; child blob 2 branched at v2 and wrote v3'.
        let parent_entries: SharedLog = Arc::new(RwLock::new(WriteLog::from_iter([
            entry(1, (0, 2), 0, 2, 2 * 64),
            entry(2, (0, 1), 2, 2, 2 * 64),
            entry(3, (1, 2), 2, 2, 2 * 64), // parent write after the branch point
        ])));
        let child_entries: SharedLog = Arc::new(RwLock::new(WriteLog::from_iter([entry(
            3,
            (0, 1),
            2,
            2,
            2 * 64,
        )])));
        let chain = LogChain::new(vec![
            LogSegment::full(
                BlobId::new(2),
                child_entries,
                Version::new(2),
                Version::new(u64::MAX),
            ),
            LogSegment::full(
                BlobId::new(1),
                parent_entries,
                Version::ZERO,
                Version::new(2), // branch point: parent's v3 is invisible
            ),
        ]);
        // Child's view of leaf 0 before its own v3: parent's v2.
        let m = chain
            .materializer_before(Pos::new(0, 1), Version::new(3))
            .unwrap();
        assert_eq!((m.blob, m.version), (BlobId::new(1), Version::new(2)));
        // Leaf 1: parent's v1 — the parent's v3 write is beyond the branch point.
        let m = chain
            .materializer_before(Pos::new(1, 1), Version::new(4))
            .unwrap();
        assert_eq!((m.blob, m.version), (BlobId::new(1), Version::new(1)));
        // Child's own v3 wins for leaf 0 at `before = 4`.
        let m = chain
            .materializer_before(Pos::new(0, 1), Version::new(4))
            .unwrap();
        assert_eq!((m.blob, m.version), (BlobId::new(2), Version::new(3)));
        // Exact-entry lookup respects segment clamping.
        assert_eq!(
            chain.entry(Version::new(3)).unwrap().blocks,
            BlockRange::new(0, 1)
        );
        assert_eq!(
            chain.entry(Version::new(1)).unwrap().blocks,
            BlockRange::new(0, 2)
        );
    }

    #[test]
    fn border_is_the_unmaterialized_children_of_materialized_nodes() {
        // One block appended at the far right of a full tree: the left
        // sibling of every node on its path.
        let e = entry(9, (7, 8), 8, 8, 8 * 64);
        assert_eq!(
            e.border_positions(),
            [Pos::new(0, 4), Pos::new(4, 2), Pos::new(6, 1)]
        );
        // Growth 4 → 8 on an append: the old root is woven, not rebuilt,
        // and the untouched right part of the new half is a hole position.
        let e = entry(3, (4, 5), 4, 8, 5 * 64);
        assert_eq!(
            e.border_positions(),
            [Pos::new(0, 4), Pos::new(5, 1), Pos::new(6, 2)]
        );
        // A write covering its whole tree weaves nothing.
        assert_eq!(entry(1, (0, 4), 0, 4, 4 * 64).border_positions(), []);
        // The definition, checked exhaustively on a ragged hole write: a
        // position is on the border iff the write does not materialize it
        // but materializes its parent.
        let e = entry(5, (9, 14), 2, 16, 14 * 64);
        let mut expect = Vec::new();
        let mut materialized = Vec::new();
        for len in [1u64, 2, 4, 8, 16] {
            for start in (0..16).step_by(len as usize) {
                let pos = Pos::new(start, len);
                let parent = Pos::new(start - start % (2 * len), 2 * len);
                if e.materializes(pos) {
                    materialized.push(pos);
                } else if len < 16 && e.materializes(parent) {
                    expect.push(pos);
                }
            }
        }
        expect.sort_by_key(|pos| pos.start);
        assert_eq!(e.border_positions(), expect);
        let mut walked = Vec::new();
        e.for_each_materialized(|pos| walked.push(pos));
        walked.sort_by_key(|pos| (pos.len, pos.start));
        assert_eq!(walked, materialized);
    }

    #[test]
    fn border_walk_is_bounded_by_depth_not_by_the_size_of_the_write() {
        // 2^40 blocks written in one go, all but the first: the walk must
        // not visit the 2^41 nodes below the covered subtrees.
        let cap = 1u64 << 40;
        let e = entry(2, (1, cap), cap, cap, cap * 64);
        assert_eq!(e.border_positions(), [Pos::new(0, 1)]);
    }

    #[test]
    fn border_only_chain_answers_its_border_and_nothing_else() {
        let live = chain_of(
            7,
            vec![
                entry(1, (0, 4), 0, 4, 4 * 64),
                entry(2, (0, 2), 4, 4, 4 * 64),
                entry(3, (3, 4), 4, 4, 4 * 64),
            ],
        );
        let e3 = live.entry(Version::new(3)).unwrap();
        let border = live.border(&e3).unwrap();
        let at = |v| {
            Some(Materializer {
                blob: BlobId::new(7),
                version: Version::new(v),
            })
        };
        assert_eq!(
            border.answers(),
            [(Pos::new(0, 2), at(2)), (Pos::new(2, 1), at(1))]
        );
        let answers = border.answers().iter().map(|(_, a)| *a).collect();
        assert_eq!(Border::of(&e3, answers), Some(border.clone()));
        assert_eq!(Border::of(&e3, vec![None]), None, "one answer short");

        let shipped = LogChain::from_border(border.clone());
        assert_eq!(shipped.border(&e3), Ok(border));
        assert_eq!(
            shipped.materializer_before(Pos::new(2, 1), Version::new(3)),
            at(1)
        );
        assert!(shipped.segments().is_empty());
        assert_eq!(shipped.entry(Version::new(1)), None);
        for (pos, before) in [
            (Pos::new(3, 1), 3), // inside the written range: repair's business
            (Pos::new(0, 4), 3), // materialized, not woven
            (Pos::new(2, 1), 2), // another version's question
        ] {
            let asked = shipped.try_materializer_before(pos, Version::new(before));
            assert!(
                matches!(asked, Err(Error::Internal(_))),
                "{pos:?}: {asked:?}"
            );
        }
        // Nor does it answer another write's border.
        let e2 = live.entry(Version::new(2)).unwrap();
        assert!(matches!(shipped.border(&e2), Err(Error::Internal(_))));
    }

    #[test]
    #[should_panic(expected = "ticket chain holds the border answers")]
    fn border_only_chain_panics_on_the_infallible_lookup() {
        let e = entry(1, (0, 1), 0, 2, 64);
        let shipped = LogChain::from_border(Border::of(&e, vec![None]).unwrap());
        shipped.materializer_before(Pos::new(0, 2), Version::new(1));
    }

    #[test]
    fn snapshot_geometry() {
        let chain = chain_of(1, vec![entry(1, (0, 3), 0, 4, 180)]);
        assert_eq!(chain.snapshot_geometry(Version::ZERO), Some((0, 0)));
        assert_eq!(chain.snapshot_geometry(Version::new(1)), Some((180, 4)));
        assert_eq!(chain.snapshot_geometry(Version::new(2)), None);
    }
}
