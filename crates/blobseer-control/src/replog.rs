//! Replicated-log entries and their on-disk frame payloads.
//!
//! Each replica persists its log as a `blobseer-disk`
//! [`FrameLog`](blobseer_disk::FrameLog) — the same CRC-checksummed,
//! length-prefixed frame format the durable version manager and the disk
//! metadata store already use, so torn tails truncate cleanly on reopen.
//! One frame holds one [`RepEntry`]: `term | index | command`.

use blobseer_types::wire::{Wire, WireReader, WireWriter};
use blobseer_types::{Error, Result};

use crate::codec::Command;

/// One slot of the replicated log.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RepEntry {
    /// Election term the entry was appended under.
    pub term: u64,
    /// Position in the log, starting at 0. Redundant with the frame's
    /// offset but cheap, and it turns a mis-stitched recovery into a
    /// loud decode-time error instead of silent reordering.
    pub index: u64,
    /// The replicated mutation.
    pub command: Command,
}

/// `term | index | command` — one frame payload.
impl Wire for RepEntry {
    fn put(&self, w: &mut WireWriter) {
        (self.term, self.index, self.command).put(w);
    }
    fn get(r: &mut WireReader<'_>) -> Result<Self> {
        let (term, index, command) = Wire::get(r)?;
        Ok(RepEntry {
            term,
            index,
            command,
        })
    }
}

/// Decodes one frame payload back into a [`RepEntry`], checking that its
/// recorded index matches the slot it was read into. The frame's checksum
/// held, so bytes that do not decode mean a broken writer, not a broken
/// medium or network: every failure is [`Error::Storage`].
pub fn decode_entry(payload: &[u8], expect_index: u64) -> Result<RepEntry> {
    let entry = RepEntry::from_bytes(payload)
        .map_err(|e| Error::Storage(format!("replicated log: undecodable entry: {e}")))?;
    if entry.index != expect_index {
        return Err(Error::Storage(format!(
            "replicated log: frame {expect_index} records index {}",
            entry.index
        )));
    }
    Ok(entry)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::CommandKind;

    fn entry(term: u64, index: u64) -> RepEntry {
        RepEntry {
            term,
            index,
            command: Command {
                client_id: 1,
                seq: 40 + index,
                kind: CommandKind::CreateBlob,
            },
        }
    }

    #[test]
    fn entries_roundtrip() {
        let e = entry(3, 17);
        let bytes = e.to_bytes();
        assert_eq!(decode_entry(&bytes, 17).unwrap(), e);
    }

    #[test]
    fn index_mismatch_is_rejected() {
        let bytes = entry(3, 17).to_bytes();
        let err = decode_entry(&bytes, 16).unwrap_err();
        assert!(err.to_string().contains("records index 17"), "{err}");
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut bytes = entry(1, 0).to_bytes();
        bytes.push(0xFF);
        let err = decode_entry(&bytes, 0).unwrap_err();
        assert!(matches!(err, Error::Storage(_)), "{err}");
    }
}
