//! Wire codec for replicated version-manager commands.
//!
//! A [`Command`] is the unit of replication: the leader encodes one per
//! successful mutating call, appends it to its log and ships it to the
//! followers, and every replica replays the same byte-identical sequence
//! into its own `VersionManager`. Decoding therefore runs against
//! *persisted* bytes (crash recovery) as well as freshly produced ones,
//! so every malformed input must surface as an [`Error`] — this file is
//! in the workspace `no-panic-decode` lint scope.

use blobseer_core::meta::codec::{get_write_intent, put_write_intent};
use blobseer_core::version_manager::WriteIntent;
use blobseer_types::wire::{WireReader, WireWriter};
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

/// Encodes `cmd` onto `w`.
pub fn put_command(w: &mut WireWriter, cmd: &Command) {
    w.put_u64(cmd.client_id);
    w.put_u64(cmd.seq);
    match cmd.kind {
        CommandKind::CreateBlob => w.put_u8(CMD_CREATE_BLOB),
        CommandKind::Branch { parent, at } => {
            w.put_u8(CMD_BRANCH);
            w.put_u64(parent.raw());
            w.put_u64(at.raw());
        }
        CommandKind::Assign { blob, intent } => {
            w.put_u8(CMD_ASSIGN);
            w.put_u64(blob.raw());
            put_write_intent(w, intent);
        }
        CommandKind::Commit { blob, version } => {
            w.put_u8(CMD_COMMIT);
            w.put_u64(blob.raw());
            w.put_u64(version.raw());
        }
        CommandKind::DeleteBlob { blob } => {
            w.put_u8(CMD_DELETE_BLOB);
            w.put_u64(blob.raw());
        }
        CommandKind::CollectBefore { blob, keep_from } => {
            w.put_u8(CMD_COLLECT_BEFORE);
            w.put_u64(blob.raw());
            w.put_u64(keep_from.raw());
        }
    }
}

/// Decodes one [`Command`] from `r`. Malformed bytes (an unknown tag, a
/// truncated field) surface as [`Error::Storage`] — never a panic.
pub fn get_command(r: &mut WireReader<'_>) -> Result<Command> {
    let client_id = r.get_u64()?;
    let seq = r.get_u64()?;
    let kind = match r.get_u8()? {
        CMD_CREATE_BLOB => CommandKind::CreateBlob,
        CMD_BRANCH => CommandKind::Branch {
            parent: BlobId::new(r.get_u64()?),
            at: Version::new(r.get_u64()?),
        },
        CMD_ASSIGN => {
            let blob = BlobId::new(r.get_u64()?);
            let intent =
                get_write_intent(r).map_err(|e| Error::Storage(format!("replicated log: {e}")))?;
            CommandKind::Assign { blob, intent }
        }
        CMD_COMMIT => CommandKind::Commit {
            blob: BlobId::new(r.get_u64()?),
            version: Version::new(r.get_u64()?),
        },
        CMD_DELETE_BLOB => CommandKind::DeleteBlob {
            blob: BlobId::new(r.get_u64()?),
        },
        CMD_COLLECT_BEFORE => CommandKind::CollectBefore {
            blob: BlobId::new(r.get_u64()?),
            keep_from: Version::new(r.get_u64()?),
        },
        t => {
            return Err(Error::Storage(format!(
                "replicated log: unknown command tag {t}"
            )))
        }
    };
    Ok(Command {
        client_id,
        seq,
        kind,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(cmd: Command) {
        let mut w = WireWriter::new();
        put_command(&mut w, &cmd);
        let bytes = w.into_vec();
        let mut r = WireReader::new(&bytes);
        assert_eq!(get_command(&mut r).unwrap(), cmd);
        r.finish().unwrap();
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
        assert!(get_command(&mut WireReader::new(&bytes)).is_err());

        // Unknown intent tag.
        let mut w = WireWriter::new();
        w.put_u64(0);
        w.put_u64(1);
        w.put_u8(CMD_ASSIGN);
        w.put_u64(3);
        w.put_u8(42);
        let bytes = w.into_vec();
        assert!(get_command(&mut WireReader::new(&bytes)).is_err());

        // Every truncation of a valid encoding errors cleanly.
        let mut w = WireWriter::new();
        put_command(
            &mut w,
            &Command {
                client_id: 8,
                seq: 21,
                kind: CommandKind::Assign {
                    blob: BlobId::new(3),
                    intent: WriteIntent::Write {
                        offset: 70_000,
                        size: 300,
                    },
                },
            },
        );
        let bytes = w.into_vec();
        for cut in 0..bytes.len() {
            assert!(
                get_command(&mut WireReader::new(&bytes[..cut])).is_err(),
                "truncation at {cut} decoded"
            );
        }
    }
}
