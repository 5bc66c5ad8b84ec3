//! Distributed metadata: the versioned segment trees of §III-A.3.
//!
//! * [`key`] — node positions and DHT keys;
//! * [`codec`] — the binary encoding shared by the RPC wire and the
//!   disk-backed metadata store's durable record logs;
//! * [`node`] — node payloads (inner nodes, leaves, aliases);
//! * [`log`] — the per-BLOB write log, its per-position index, the
//!   materializing-version rule that makes concurrent metadata *weaving*
//!   possible, and the border answers a ticket carries over the wire;
//! * [`tree`] — publishing a write's metadata and locating blocks for reads;
//! * [`shape`] — pure node-count arithmetic shared with the figure-scale
//!   simulator.

pub mod codec;
pub mod key;
pub mod log;
pub mod node;
pub mod shape;
pub mod tree;

pub use key::{BlockRange, NodeKey, Pos};
pub use log::{Border, LogChain, LogEntry, LogSegment, Materializer, SharedLog, WriteLog};
pub use node::{BlockDescriptor, NodeRef, TreeNode};
pub use tree::{LocatedBlock, TreeStore};
