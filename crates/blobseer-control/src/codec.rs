//! The [`Wire`] encoding of replicated version-manager commands.
//!
//! A [`Command`] is the unit of replication: the leader encodes one per
//! successful mutating call, appends it to its log and ships it to the
//! followers, and every replica replays the same byte-identical sequence
//! into its own `VersionManager`. Decoding therefore runs against
//! *persisted* bytes (crash recovery) as well as freshly produced ones,
//! so every malformed input must surface as an [`Error`] — this file is
//! in the workspace `no-panic-decode` lint scope.
//!
//! [`Error`]: blobseer_types::Error

use blobseer_core::version_manager::WriteIntent;
use blobseer_types::wire::{Wire, WireReader, WireWriter};
use blobseer_types::{BlobId, Error, Result, Version};

const CMD_CREATE_BLOB: u8 = 0;
const CMD_BRANCH: u8 = 1;
const CMD_ASSIGN: u8 = 2;
const CMD_COMMIT: u8 = 3;
const CMD_DELETE_BLOB: u8 = 4;
const CMD_COLLECT_BEFORE: u8 = 5;

/// One replicated mutation, tagged with its submitter and sequence number
/// so replicas can deduplicate retried submissions (exactly-once across
/// leader failover).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Command {
    /// Stable id of the submitting client endpoint (one service instance
    /// uses a single id; the field keeps the log format multi-client).
    pub client_id: u64,
    /// Submission sequence number, unique per `client_id`.
    pub seq: u64,
    /// The mutation itself.
    pub kind: CommandKind,
}

/// The mutating half of the `VersionService` port — the only calls that
/// change version-manager state, and therefore the only ones replicated.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CommandKind {
    /// `create_blob()`.
    CreateBlob,
    /// `branch(parent, at)`.
    Branch {
        /// The BLOB being forked.
        parent: BlobId,
        /// The (revealed) version to fork at.
        at: Version,
    },
    /// `assign(blob, intent)` — the serialization point.
    Assign {
        /// The BLOB being written.
        blob: BlobId,
        /// What the writer wants to do.
        intent: WriteIntent,
    },
    /// `commit(blob, version)`.
    Commit {
        /// The BLOB whose write is finishing.
        blob: BlobId,
        /// The version assigned to that write.
        version: Version,
    },
    /// `delete_blob(blob)`.
    DeleteBlob {
        /// The BLOB to delete.
        blob: BlobId,
    },
    /// `collect_before(blob, keep_from)`.
    CollectBefore {
        /// The BLOB being pruned.
        blob: BlobId,
        /// Oldest version that must survive.
        keep_from: Version,
    },
}

/// Submitter, sequence number, then a tag and the mutation's arguments.
/// Malformed bytes (an unknown tag, a truncated field) are
/// [`Error::Transport`], like every decode; the replica log reports them
/// as [`Error::Storage`] (see [`crate::replog`]).
impl Wire for Command {
    fn put(&self, w: &mut WireWriter) {
        (self.client_id, self.seq).put(w);
        match self.kind {
            CommandKind::CreateBlob => w.put_u8(CMD_CREATE_BLOB),
            CommandKind::Branch { parent, at } => (CMD_BRANCH, parent, at).put(w),
            CommandKind::Assign { blob, intent } => (CMD_ASSIGN, blob, intent).put(w),
            CommandKind::Commit { blob, version } => (CMD_COMMIT, blob, version).put(w),
            CommandKind::DeleteBlob { blob } => (CMD_DELETE_BLOB, blob).put(w),
            CommandKind::CollectBefore { blob, keep_from } => {
                (CMD_COLLECT_BEFORE, blob, keep_from).put(w)
            }
        }
    }

    fn get(r: &mut WireReader<'_>) -> Result<Self> {
        let (client_id, seq) = <(u64, u64)>::get(r)?;
        let kind = match r.get_u8()? {
            CMD_CREATE_BLOB => CommandKind::CreateBlob,
            CMD_BRANCH => {
                let (parent, at) = Wire::get(r)?;
                CommandKind::Branch { parent, at }
            }
            CMD_ASSIGN => {
                let (blob, intent) = Wire::get(r)?;
                CommandKind::Assign { blob, intent }
            }
            CMD_COMMIT => {
                let (blob, version) = Wire::get(r)?;
                CommandKind::Commit { blob, version }
            }
            CMD_DELETE_BLOB => CommandKind::DeleteBlob {
                blob: BlobId::get(r)?,
            },
            CMD_COLLECT_BEFORE => {
                let (blob, keep_from) = Wire::get(r)?;
                CommandKind::CollectBefore { blob, keep_from }
            }
            t => return Err(Error::Transport(format!("wire: unknown command tag {t}"))),
        };
        Ok(Command {
            client_id,
            seq,
            kind,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(cmd: Command) {
        assert_eq!(Command::from_bytes(&cmd.to_bytes()).unwrap(), cmd);
    }

    #[test]
    fn commands_roundtrip() {
        let kinds = [
            CommandKind::CreateBlob,
            CommandKind::Branch {
                parent: BlobId::new(7),
                at: Version::new(3),
            },
            CommandKind::Assign {
                blob: BlobId::new(1),
                intent: WriteIntent::Write {
                    offset: 4096,
                    size: 128,
                },
            },
            CommandKind::Assign {
                blob: BlobId::new(2),
                intent: WriteIntent::Append { size: u64::MAX },
            },
            CommandKind::Commit {
                blob: BlobId::new(9),
                version: Version::new(12),
            },
            CommandKind::DeleteBlob {
                blob: BlobId::new(4),
            },
            CommandKind::CollectBefore {
                blob: BlobId::new(5),
                keep_from: Version::new(2),
            },
        ];
        for (i, kind) in kinds.into_iter().enumerate() {
            roundtrip(Command {
                client_id: i as u64,
                seq: 1_000 + i as u64,
                kind,
            });
        }
    }

    #[test]
    fn malformed_bytes_error_instead_of_panicking() {
        // Unknown command tag.
        let mut w = WireWriter::new();
        w.put_u64(0);
        w.put_u64(1);
        w.put_u8(99);
        let bytes = w.into_vec();
        assert!(Command::from_bytes(&bytes).is_err());

        // Unknown intent tag.
        let mut w = WireWriter::new();
        w.put_u64(0);
        w.put_u64(1);
        w.put_u8(CMD_ASSIGN);
        w.put_u64(3);
        w.put_u8(42);
        let bytes = w.into_vec();
        assert!(Command::from_bytes(&bytes).is_err());

        // Every truncation of a valid encoding errors cleanly.
        let bytes = Command {
            client_id: 8,
            seq: 21,
            kind: CommandKind::Assign {
                blob: BlobId::new(3),
                intent: WriteIntent::Write {
                    offset: 70_000,
                    size: 300,
                },
            },
        }
        .to_bytes();
        for cut in 0..bytes.len() {
            assert!(
                Command::from_bytes(&bytes[..cut]).is_err(),
                "truncation at {cut} decoded"
            );
        }
    }
}
