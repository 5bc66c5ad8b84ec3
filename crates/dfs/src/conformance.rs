//! A backend-agnostic conformance suite for [`FileSystem`] implementations.
//!
//! BSFS and the HDFS baseline must expose *identical* namespace and I/O
//! semantics — the paper's comparison is only meaningful because "Hadoop
//! Map/Reduce applications run out-of-the-box … just like in the original,
//! unmodified environment" (§V-B). Both keep their tree in
//! [`crate::Namespace`] and stream through [`crate::BlockReader`] /
//! [`crate::BlockWriter`]; these checks hold each backend's wiring of them
//! to the same answers, edge cases included (the root, self-nesting
//! renames, a file used as a directory and the reverse). Each backend's
//! test module calls these functions; a panic pinpoints the divergence.
//! Only `append` differs (HDFS 0.20 always refuses it), so append
//! behaviour is exercised in backend-specific tests instead.

use crate::api::FileSystem;
use crate::util::{read_fully, write_file};
use blobseer_types::Error;

/// Runs every conformance check.
pub fn run_all(fs: &dyn FileSystem) {
    namespace_tree(fs);
    create_read_roundtrip(fs);
    create_semantics(fs);
    delete_semantics(fs);
    rename_semantics(fs);
    streaming_io(fs);
    seek_and_partial_reads(fs);
    block_locations(fs);
    status_and_list(fs);
    edge_cases(fs);
}

/// mkdirs creates chains; files and dirs are distinguished.
pub fn namespace_tree(fs: &dyn FileSystem) {
    fs.mkdirs("/conf/a/b/c").unwrap();
    assert!(fs.exists("/conf/a/b/c").unwrap());
    assert!(fs.exists("/conf/a").unwrap());
    assert!(fs.status("/conf/a").unwrap().is_dir);
    // mkdirs is idempotent.
    fs.mkdirs("/conf/a/b").unwrap();
    // mkdirs through a file fails.
    write_file(fs, "/conf/a/file", b"x").unwrap();
    assert!(matches!(
        fs.mkdirs("/conf/a/file/sub"),
        Err(Error::NotADirectory(_)) | Err(Error::AlreadyExists(_))
    ));
    // Invalid paths are rejected.
    assert!(fs.mkdirs("relative/path").is_err());
    assert!(fs.open("/conf/does/not/exist").is_err());
}

/// Bytes written are bytes read, across block boundaries.
pub fn create_read_roundtrip(fs: &dyn FileSystem) {
    let bs = fs.block_size() as usize;
    // Spans several blocks, ends unaligned.
    let data: Vec<u8> = (0..bs * 3 + 123).map(|i| (i * 31 % 251) as u8).collect();
    write_file(fs, "/conf/roundtrip", &data).unwrap();
    assert_eq!(read_fully(fs, "/conf/roundtrip").unwrap(), data);
    assert_eq!(fs.status("/conf/roundtrip").unwrap().len, data.len() as u64);
}

/// create() honours `overwrite` and implicitly creates parents.
pub fn create_semantics(fs: &dyn FileSystem) {
    write_file(fs, "/conf/new/implicit/parents/f", b"1").unwrap();
    assert!(fs.status("/conf/new/implicit").unwrap().is_dir);
    // No overwrite → AlreadyExists.
    assert!(matches!(
        fs.create("/conf/new/implicit/parents/f", false),
        Err(Error::AlreadyExists(_))
    ));
    // Overwrite truncates.
    write_file(fs, "/conf/new/implicit/parents/f", b"22").unwrap();
    assert_eq!(
        read_fully(fs, "/conf/new/implicit/parents/f").unwrap(),
        b"22"
    );
    // Creating over a directory fails even with overwrite.
    fs.mkdirs("/conf/new/dir").unwrap();
    assert!(fs.create("/conf/new/dir", true).is_err());
}

/// delete() of files, empty dirs, recursive trees.
pub fn delete_semantics(fs: &dyn FileSystem) {
    write_file(fs, "/conf/del/x/f1", b"a").unwrap();
    write_file(fs, "/conf/del/x/f2", b"b").unwrap();
    // Non-recursive delete of a non-empty dir fails.
    assert!(matches!(
        fs.delete("/conf/del/x", false),
        Err(Error::DirectoryNotEmpty(_))
    ));
    fs.delete("/conf/del/x/f1", false).unwrap();
    assert!(!fs.exists("/conf/del/x/f1").unwrap());
    fs.delete("/conf/del", true).unwrap();
    assert!(!fs.exists("/conf/del").unwrap());
    assert!(matches!(
        fs.delete("/conf/del", true),
        Err(Error::NotFound(_))
    ));
}

/// rename() moves files and whole subtrees.
pub fn rename_semantics(fs: &dyn FileSystem) {
    write_file(fs, "/conf/mv/src/inner/f", b"payload").unwrap();
    fs.mkdirs("/conf/mv/dstparent").unwrap();
    fs.rename("/conf/mv/src", "/conf/mv/dstparent/dst").unwrap();
    assert!(!fs.exists("/conf/mv/src").unwrap());
    assert_eq!(
        read_fully(fs, "/conf/mv/dstparent/dst/inner/f").unwrap(),
        b"payload"
    );
    // Destination exists → error.
    write_file(fs, "/conf/mv/a", b"1").unwrap();
    write_file(fs, "/conf/mv/b", b"2").unwrap();
    assert!(matches!(
        fs.rename("/conf/mv/a", "/conf/mv/b"),
        Err(Error::AlreadyExists(_))
    ));
    // Source missing → error.
    assert!(matches!(
        fs.rename("/conf/mv/ghost", "/conf/mv/c"),
        Err(Error::NotFound(_))
    ));
}

/// Many small writes stream into correct content (write-behind cache), and
/// data is visible after close.
pub fn streaming_io(fs: &dyn FileSystem) {
    let mut out = fs.create("/conf/stream", true).unwrap();
    let mut expect = Vec::new();
    // 4 KB-ish records, the paper's record size, across block boundaries.
    for i in 0..200u32 {
        let rec = vec![(i % 251) as u8; 1000 + (i as usize % 17)];
        out.write(&rec).unwrap();
        expect.extend_from_slice(&rec);
    }
    assert_eq!(out.pos(), expect.len() as u64);
    out.close().unwrap();
    out.close().unwrap(); // idempotent
    assert_eq!(read_fully(fs, "/conf/stream").unwrap(), expect);
}

/// seek() repositions reads, including backwards and to EOF.
pub fn seek_and_partial_reads(fs: &dyn FileSystem) {
    let bs = fs.block_size() as usize;
    let data: Vec<u8> = (0..2 * bs + 77).map(|i| (i % 256) as u8).collect();
    write_file(fs, "/conf/seek", &data).unwrap();
    let mut input = fs.open("/conf/seek").unwrap();
    let mut buf = [0u8; 16];
    // Forward seek into the second block.
    input.seek(bs as u64 + 5).unwrap();
    input.read_exact(&mut buf).unwrap();
    assert_eq!(&buf[..], &data[bs + 5..bs + 21]);
    // Backward seek.
    input.seek(3).unwrap();
    input.read_exact(&mut buf).unwrap();
    assert_eq!(&buf[..], &data[3..19]);
    // Seek to EOF reads 0.
    input.seek(data.len() as u64).unwrap();
    assert_eq!(input.read(&mut buf).unwrap(), 0);
    // Seek past EOF is an error.
    assert!(input.seek(data.len() as u64 + 1).is_err());
}

/// Block locations tile the file and carry hosts.
pub fn block_locations(fs: &dyn FileSystem) {
    let bs = fs.block_size();
    let data = vec![7u8; (3 * bs + bs / 2) as usize];
    write_file(fs, "/conf/locs", &data).unwrap();
    let locs = fs
        .block_locations("/conf/locs", 0, data.len() as u64)
        .unwrap();
    assert_eq!(locs.len(), 4);
    for (i, l) in locs.iter().enumerate() {
        assert_eq!(l.offset, i as u64 * bs);
        assert!(!l.hosts.is_empty(), "block {i} must report hosts");
    }
    assert_eq!(locs[3].length, bs / 2);
    // Sub-range query returns only overlapping blocks.
    let locs = fs.block_locations("/conf/locs", bs, 1).unwrap();
    assert_eq!(locs.len(), 1);
    assert_eq!(locs[0].offset, bs);
    // `len = u64::MAX` is Hadoop's "every block from `offset` on".
    let locs = fs.block_locations("/conf/locs", 1, u64::MAX).unwrap();
    assert_eq!(locs.len(), 4);
    assert_eq!(locs[3].offset, 3 * bs);
}

/// status()/list() agree with what was created.
pub fn status_and_list(fs: &dyn FileSystem) {
    fs.mkdirs("/conf/ls/d1").unwrap();
    write_file(fs, "/conf/ls/f1", b"abc").unwrap();
    write_file(fs, "/conf/ls/f2", b"defg").unwrap();
    let mut names: Vec<String> = fs
        .list("/conf/ls")
        .unwrap()
        .into_iter()
        .map(|s| s.path)
        .collect();
    names.sort();
    assert_eq!(names, vec!["/conf/ls/d1", "/conf/ls/f1", "/conf/ls/f2"]);
    let st = fs.status("/conf/ls/f2").unwrap();
    assert!(!st.is_dir);
    assert_eq!(st.len, 4);
    assert_eq!(st.block_size, fs.block_size());
    // list of a file is an error; status of a missing path is NotFound.
    assert!(fs.list("/conf/ls/f1").is_err());
    assert!(matches!(
        fs.status("/conf/ls/nope"),
        Err(Error::NotFound(_))
    ));
}

/// The root, self-nesting renames, bad rename destinations, and using a
/// file as a directory or a directory as a file answer the same errors.
pub fn edge_cases(fs: &dyn FileSystem) {
    write_file(fs, "/conf/edge/d/f", b"x").unwrap();
    assert!(matches!(fs.delete("/", true), Err(Error::InvalidPath(_))));
    assert!(matches!(
        fs.rename("/", "/conf/edge/root"),
        Err(Error::InvalidPath(_))
    ));
    assert!(matches!(
        fs.rename("/conf/edge/d", "/conf/edge/d/inner"),
        Err(Error::InvalidPath(_))
    ));
    assert!(matches!(
        fs.rename("/conf/edge/d/f", "/conf/edge/missing/f"),
        Err(Error::NotFound(_))
    ));
    write_file(fs, "/conf/edge/g", b"y").unwrap();
    assert!(matches!(
        fs.rename("/conf/edge/d/f", "/conf/edge/g/f"),
        Err(Error::NotADirectory(_))
    ));
    assert!(matches!(fs.create("/", true), Err(Error::AlreadyExists(_))));
    assert!(matches!(
        fs.list("/conf/edge/g"),
        Err(Error::NotADirectory(_))
    ));
    assert!(fs.open("/conf/edge/d").is_err());
    // Every refusal left the tree as it was.
    assert_eq!(read_fully(fs, "/conf/edge/d/f").unwrap(), b"x");
    assert_eq!(fs.list("/conf/edge").unwrap().len(), 2);
}
