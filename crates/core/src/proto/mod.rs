//! The Vice-Virtue interface.
//!
//! Section 3.3: "Vice provides primitives for locating the custodians of
//! files, and for fetching, storing, and deleting entire files. It also has
//! primitives for manipulating directories, examining and setting file and
//! directory attributes, and validating cached copies of files." This
//! module defines exactly those calls, plus the advisory locking primitives
//! of Section 3.6, with real wire encodings (requests and replies are
//! serialized to bytes, sealed by the secure channel, and decoded on the
//! far side).
//!
//! The interface is deliberately "relatively static" (Section 2.3): it is
//! the stable boundary that lets heterogeneous workstations participate —
//! anything that can speak these messages can join the system.

mod codec;
mod types;

pub use codec::{decode_reply, decode_request, encode_reply, encode_request, WireMsg};
/// File contents as one shared buffer; defined beside the inode that
/// stores it and re-exported here for the protocol's users.
pub use itc_unixfs::payload;
pub use payload::Payload;
pub use types::{EntryKind, ServerId, VStatus, ViceError, ViceReply, ViceRequest, VolumeId};
