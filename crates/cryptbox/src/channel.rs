//! A sequenced, authenticated, encrypted message channel over a session key.
//!
//! Once the handshake completes, "all further communication on the
//! connection is encrypted" (Section 3.4). The channel layer adds what raw
//! [`crate::mode::seal`] does not: direction separation (a message sealed by
//! the client cannot be reflected back to it as a server message) and
//! monotonic sequence numbering: a message whose sequence number is behind
//! the receiver's window — a replay, a duplicate delivery, or a stale
//! reordering — is rejected. Gaps are tolerated, because the network may
//! drop messages while the sender's sequence moves on; a retransmitted
//! *call* therefore arrives with a fresh sequence number and is accepted,
//! while the idempotency layer above (not this one) makes the retry safe.

use crate::mode::{open_in_place, seal_parts, Keys, SealError};
use crate::xtea::Key;

/// Which end of the connection this channel endpoint is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// The workstation (Virtue) end.
    Client,
    /// The Vice end.
    Server,
}

/// Errors surfaced when opening a received message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChannelError {
    /// Decryption or MAC verification failed.
    Crypto(SealError),
    /// The sequence number fell behind the receive window: a replay, a
    /// duplicate delivery, or a stale reordered message.
    BadSequence { expected: u64, got: u64 },
    /// The direction tag did not match: a reflected message.
    WrongDirection,
    /// The decrypted payload had the wrong shape.
    Malformed,
}

impl std::fmt::Display for ChannelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ChannelError::Crypto(e) => write!(f, "channel crypto failure: {e}"),
            ChannelError::BadSequence { expected, got } => {
                write!(f, "bad sequence number: expected {expected}, got {got}")
            }
            ChannelError::WrongDirection => write!(f, "message reflected from wrong direction"),
            ChannelError::Malformed => write!(f, "malformed channel payload"),
        }
    }
}

impl std::error::Error for ChannelError {}

/// One endpoint of an established secure connection. It holds the session
/// key only as its two expanded schedules (whose `Debug` prints nothing).
#[derive(Debug)]
pub struct SecureChannel {
    keys: Keys,
    role: Role,
    send_seq: u64,
    recv_seq: u64,
}

const DIR_CLIENT_TO_SERVER: u8 = 0xC5;
const DIR_SERVER_TO_CLIENT: u8 = 0x5C;

impl SecureChannel {
    /// Creates an endpoint from the handshake's session key.
    pub fn new(session_key: Key, role: Role) -> SecureChannel {
        SecureChannel {
            keys: Keys::new(session_key),
            role,
            send_seq: 0,
            recv_seq: 0,
        }
    }

    /// Number of messages sent so far.
    pub fn sent(&self) -> u64 {
        self.send_seq
    }

    /// Seals `payload` for transmission.
    pub fn seal_msg(&mut self, payload: &[u8]) -> Vec<u8> {
        let dir = match self.role {
            Role::Client => DIR_CLIENT_TO_SERVER,
            Role::Server => DIR_SERVER_TO_CLIENT,
        };
        let seq = self.send_seq;
        self.send_seq += 1;
        // Seed the IV with direction and sequence so no two messages share
        // an IV.
        let seed = (u64::from(dir) << 56) | seq;
        seal_parts(&self.keys, seed, &[&[dir], &seq.to_be_bytes(), payload])
    }

    /// Opens a received message, enforcing direction and sequence.
    pub fn open_msg(&mut self, sealed: &[u8]) -> Result<Vec<u8>, ChannelError> {
        self.open_owned(sealed.to_vec())
    }

    /// [`Self::open_msg`] for a caller that is done with the sealed bytes:
    /// decrypts in `sealed`'s own allocation and hands it back as the
    /// payload. On any error the buffer is dropped unread and the receive
    /// window has not moved.
    pub fn open_owned(&mut self, mut sealed: Vec<u8>) -> Result<Vec<u8>, ChannelError> {
        let len = open_in_place(&self.keys, &mut sealed).map_err(ChannelError::Crypto)?;
        if len < 9 {
            return Err(ChannelError::Malformed);
        }
        let expected_dir = match self.role {
            Role::Client => DIR_SERVER_TO_CLIENT,
            Role::Server => DIR_CLIENT_TO_SERVER,
        };
        if sealed[8] != expected_dir {
            return Err(ChannelError::WrongDirection);
        }
        let seq = u64::from_be_bytes(sealed[9..17].try_into().expect("checked length"));
        // Accept any sequence number at or ahead of the window: a gap means
        // earlier messages were lost in the network, which is legal. Only a
        // message *behind* the window — a replay or duplicate — is rejected.
        if seq < self.recv_seq {
            return Err(ChannelError::BadSequence {
                expected: self.recv_seq,
                got: seq,
            });
        }
        self.recv_seq = seq + 1;
        sealed.copy_within(17..8 + len, 0);
        sealed.truncate(len - 9);
        Ok(sealed)
    }
}

/// Convenience: a connected client/server channel pair over one session key.
pub fn pair(session_key: Key) -> (SecureChannel, SecureChannel) {
    (
        SecureChannel::new(session_key, Role::Client),
        SecureChannel::new(session_key, Role::Server),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    const KEY: Key = Key([3, 1, 4, 1]);

    #[test]
    fn messages_flow_both_ways() {
        let (mut c, mut s) = pair(KEY);
        let m1 = c.seal_msg(b"Fetch /vice/usr/satya/paper.tex");
        assert_eq!(s.open_msg(&m1).unwrap(), b"Fetch /vice/usr/satya/paper.tex");
        let r1 = s.seal_msg(b"here are 12k bytes");
        assert_eq!(c.open_msg(&r1).unwrap(), b"here are 12k bytes");
    }

    /// The first message of a client, captured from the serial code before
    /// the lock-step kernel replaced it: direction, sequence, IV seed,
    /// padding and tag all land where they always did.
    #[test]
    fn first_sealed_message_is_pinned() {
        let (mut c, mut s) = pair(KEY);
        let m = c.seal_msg(b"Fetch /vice/usr/satya/paper.tex");
        let hex: String = m.iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(
            hex,
            "0ea327a705eba8d27ffb6f294d9ebfd4c9650a09255c18dcabeac537f1ec8ab6\
             d7b912e712ef7ea11c380887f4887963bc3681ae50f22e6be55b84cc70d32ffc"
        );
        assert_eq!(m.capacity(), m.len(), "one exact-size buffer");
        assert_eq!(s.open_owned(m).unwrap(), b"Fetch /vice/usr/satya/paper.tex");
    }

    /// Both openers agree, and neither moves the window on a rejected
    /// message: the next honest one still opens.
    #[test]
    fn failed_open_leaves_the_window_where_it_was() {
        let (mut c, mut s) = pair(KEY);
        let first = c.seal_msg(b"first");
        let mut bad = c.seal_msg(b"second");
        bad[9] ^= 0x10;
        assert!(matches!(s.open_msg(&bad), Err(ChannelError::Crypto(_))));
        assert!(matches!(s.open_owned(bad), Err(ChannelError::Crypto(_))));
        // `first` is older than `bad`: had the window moved, it would be stale.
        assert_eq!(s.open_owned(first.clone()).unwrap(), b"first");
        assert!(matches!(
            s.open_owned(first),
            Err(ChannelError::BadSequence { .. })
        ));
    }

    #[test]
    fn debug_does_not_leak_key_material() {
        let s = format!(
            "{:?}",
            SecureChannel::new(Key([0x5ec2_e75e, 2, 3, 4]), Role::Server)
        );
        assert!(s.contains("Schedule(..)") && !s.to_lowercase().contains("5ec2e75e"));
    }

    #[test]
    fn replay_is_rejected() {
        let (mut c, mut s) = pair(KEY);
        let m = c.seal_msg(b"StoreFile");
        s.open_msg(&m).unwrap();
        assert!(matches!(
            s.open_msg(&m),
            Err(ChannelError::BadSequence {
                expected: 1,
                got: 0
            })
        ));
    }

    #[test]
    fn gap_is_tolerated_but_stale_message_is_rejected() {
        let (mut c, mut s) = pair(KEY);
        let m0 = c.seal_msg(b"first");
        let m1 = c.seal_msg(b"second");
        // m0 is "lost" in the network; m1 arrives first. The receiver cannot
        // distinguish a drop from a reorder, so it must accept the gap.
        assert_eq!(s.open_msg(&m1).unwrap(), b"second");
        // The straggler m0 is now behind the window and is rejected.
        assert!(matches!(
            s.open_msg(&m0),
            Err(ChannelError::BadSequence {
                expected: 2,
                got: 0
            })
        ));
    }

    #[test]
    fn retransmission_after_drop_is_accepted() {
        let (mut c, mut s) = pair(KEY);
        // First attempt at a call is sealed but never delivered.
        let _lost = c.seal_msg(b"Store /f");
        // The retry is re-sealed with the next sequence number and must be
        // accepted even though the server never saw the first attempt.
        let retry = c.seal_msg(b"Store /f");
        assert_eq!(s.open_msg(&retry).unwrap(), b"Store /f");
        // The conversation continues normally afterwards.
        let next = c.seal_msg(b"Fetch /g");
        assert_eq!(s.open_msg(&next).unwrap(), b"Fetch /g");
    }

    #[test]
    fn reflection_is_rejected() {
        let (mut c, _s) = pair(KEY);
        let m = c.seal_msg(b"echo?");
        // An attacker bounces the client's own message back at it.
        assert_eq!(c.open_msg(&m).err(), Some(ChannelError::WrongDirection));
    }

    #[test]
    fn cross_session_messages_rejected() {
        let (mut c1, _) = pair(Key([1, 1, 1, 1]));
        let (_, mut s2) = pair(Key([2, 2, 2, 2]));
        let m = c1.seal_msg(b"hi");
        assert!(matches!(s2.open_msg(&m), Err(ChannelError::Crypto(_))));
    }

    #[test]
    fn tampered_payload_rejected() {
        let (mut c, mut s) = pair(KEY);
        let mut m = c.seal_msg(b"balance = 10");
        let mid = m.len() / 2;
        m[mid] ^= 0x01;
        assert!(matches!(s.open_msg(&m), Err(ChannelError::Crypto(_))));
    }

    #[test]
    fn long_conversation_stays_in_sync() {
        let (mut c, mut s) = pair(KEY);
        for i in 0..200u32 {
            let req = c.seal_msg(&i.to_be_bytes());
            assert_eq!(s.open_msg(&req).unwrap(), i.to_be_bytes());
            let rsp = s.seal_msg(&(i * 2).to_be_bytes());
            assert_eq!(c.open_msg(&rsp).unwrap(), (i * 2).to_be_bytes());
        }
        assert_eq!(c.sent(), 200);
        assert_eq!(s.sent(), 200);
    }

    #[test]
    fn empty_payload_round_trips() {
        let (mut c, mut s) = pair(KEY);
        let m = c.seal_msg(b"");
        assert_eq!(s.open_msg(&m).unwrap(), Vec::<u8>::new());
    }
}
