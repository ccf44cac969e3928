//! The mutual authentication handshake.
//!
//! Section 3.4: *"At connection establishment time, Vice and Virtue are
//! viewed as mutually suspicious parties sharing a common encryption key.
//! This key is used in an authentication handshake, at the end of which each
//! party is assured of the identity of the other. The final phase of the
//! handshake generates a session key which is used for encrypting all
//! further communication on the connection."*
//!
//! Three messages, challenge/response in both directions:
//!
//! ```text
//! C -> S:  user, seal_K( Nc )                  (1) "I claim to be user"
//! S -> C:  seal_K( Nc+1 || Ns )                (2) proves S knows K
//! C -> S:  seal_K( Ns+1 )                      (3) proves C knows K
//! session key = K ⊕ mix(Nc, Ns)
//! ```
//!
//! `K` is the user's authentication key (derived from the password via
//! [`crate::kdf::derive_key`]); Vice holds the same key in its protection
//! database. Per-session keys mean the long-lived `K` is used only for
//! these three messages, "reducing the risk of exposure of authentication
//! keys".

use crate::mode::{open, seal};
use crate::xtea::{encrypt2, Key, Schedule};

/// Errors arising during the handshake.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HandshakeError {
    /// A handshake message failed to decrypt or verify: the peer does not
    /// hold the shared key (wrong password, unknown user, or attacker).
    BadCredentials,
    /// The peer decrypted our challenge but answered it incorrectly.
    WrongAnswer,
    /// A message had the wrong shape.
    Malformed,
}

impl std::fmt::Display for HandshakeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HandshakeError::BadCredentials => write!(f, "peer does not hold the shared key"),
            HandshakeError::WrongAnswer => write!(f, "challenge answered incorrectly"),
            HandshakeError::Malformed => write!(f, "malformed handshake message"),
        }
    }
}

impl std::error::Error for HandshakeError {}

/// Derives the session key from the shared key and both nonces.
fn session_key(shared: Key, nc: u64, ns: u64) -> Key {
    // Encrypt each nonce under the shared key and fold into a 128-bit mask,
    // then XOR with the shared key. An eavesdropper sees neither nonce in
    // the clear, so the mask is unpredictable.
    let k = Schedule::new(shared);
    let (a, b) = encrypt2(&k, nc, &k, ns);
    let mut m = [0u8; 16];
    m[..8].copy_from_slice(&a.to_be_bytes());
    m[8..].copy_from_slice(&b.to_be_bytes());
    shared.xor(Key::from_bytes(&m))
}

/// Client side of an in-progress handshake.
#[derive(Debug)]
pub struct ClientHandshake {
    shared: Key,
    nc: u64,
}

impl ClientHandshake {
    /// Begins a handshake. `nonce` must be fresh per attempt (the RPC layer
    /// draws it from the experiment RNG). Returns the state and message (1).
    pub fn initiate(shared: Key, nonce: u64) -> (ClientHandshake, Vec<u8>) {
        let msg = seal(shared, nonce ^ 0x0C11_E57A, &nonce.to_be_bytes());
        (ClientHandshake { shared, nc: nonce }, msg)
    }

    /// Processes message (2). On success the server is authenticated;
    /// returns the session key and message (3) to send back.
    pub fn complete(self, msg2: &[u8]) -> Result<(Key, Vec<u8>), HandshakeError> {
        let plain = open(self.shared, msg2).map_err(|_| HandshakeError::BadCredentials)?;
        if plain.len() != 16 {
            return Err(HandshakeError::Malformed);
        }
        let answer = u64::from_be_bytes(plain[..8].try_into().expect("checked length"));
        let ns = u64::from_be_bytes(plain[8..].try_into().expect("checked length"));
        if answer != self.nc.wrapping_add(1) {
            return Err(HandshakeError::WrongAnswer);
        }
        let msg3 = seal(
            self.shared,
            ns ^ 0x5E55_10F3,
            &ns.wrapping_add(1).to_be_bytes(),
        );
        Ok((session_key(self.shared, self.nc, ns), msg3))
    }
}

/// Server side of an in-progress handshake.
#[derive(Debug)]
pub struct ServerHandshake {
    shared: Key,
    nc: u64,
    ns: u64,
}

impl ServerHandshake {
    /// Processes message (1) using the claimed user's key from the
    /// protection database, and produces message (2). `nonce` is the
    /// server's fresh challenge.
    ///
    /// Note: at this point the client is *not yet* authenticated — anyone
    /// can replay a captured message (1). Authentication of the client
    /// completes only in [`ServerHandshake::finish`].
    pub fn respond(
        shared: Key,
        msg1: &[u8],
        nonce: u64,
    ) -> Result<(ServerHandshake, Vec<u8>), HandshakeError> {
        let plain = open(shared, msg1).map_err(|_| HandshakeError::BadCredentials)?;
        if plain.len() != 8 {
            return Err(HandshakeError::Malformed);
        }
        let nc = u64::from_be_bytes(plain.try_into().expect("checked length"));
        let mut body = Vec::with_capacity(16);
        body.extend_from_slice(&nc.wrapping_add(1).to_be_bytes());
        body.extend_from_slice(&nonce.to_be_bytes());
        let msg2 = seal(shared, nonce ^ nc, &body);
        Ok((
            ServerHandshake {
                shared,
                nc,
                ns: nonce,
            },
            msg2,
        ))
    }

    /// Processes message (3). On success the client is authenticated;
    /// returns the session key.
    pub fn finish(self, msg3: &[u8]) -> Result<Key, HandshakeError> {
        let plain = open(self.shared, msg3).map_err(|_| HandshakeError::BadCredentials)?;
        if plain.len() != 8 {
            return Err(HandshakeError::Malformed);
        }
        let answer = u64::from_be_bytes(plain.try_into().expect("checked length"));
        if answer != self.ns.wrapping_add(1) {
            return Err(HandshakeError::WrongAnswer);
        }
        Ok(session_key(self.shared, self.nc, self.ns))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kdf::derive_key;

    fn run(client_key: Key, server_key: Key) -> Result<(Key, Key), HandshakeError> {
        let (ch, m1) = ClientHandshake::initiate(client_key, 0x1111);
        let (sh, m2) = ServerHandshake::respond(server_key, &m1, 0x2222)?;
        let (ck, m3) = ch.complete(&m2)?;
        let sk = sh.finish(&m3)?;
        Ok((ck, sk))
    }

    #[test]
    fn both_sides_agree_on_session_key() {
        let k = derive_key("correct horse", "satya");
        let (ck, sk) = run(k, k).unwrap();
        assert_eq!(ck, sk);
        assert_ne!(ck, k, "session key must differ from the long-lived key");
    }

    #[test]
    fn wrong_password_fails_at_server() {
        let good = derive_key("right", "satya");
        let bad = derive_key("wrong", "satya");
        let (_, m1) = ClientHandshake::initiate(bad, 1);
        assert_eq!(
            ServerHandshake::respond(good, &m1, 2).err(),
            Some(HandshakeError::BadCredentials)
        );
    }

    #[test]
    fn impostor_server_fails_at_client() {
        // The "server" does not know the user's key: it cannot produce a
        // valid message (2), so the client rejects it. This is the property
        // that lets Virtue trust Vice without trusting the network.
        let user = derive_key("pw", "u");
        let impostor = derive_key("guess", "u");
        let (ch, m1) = ClientHandshake::initiate(user, 1);
        // The impostor cannot even open message (1); suppose it blindly
        // forwards garbage of the right shape under its own key.
        let forged = crate::mode::seal(impostor, 9, &[0u8; 16]);
        assert!(ch.complete(&forged).is_err());
        let _ = m1;
    }

    #[test]
    fn replayed_message1_cannot_complete() {
        // An eavesdropper replays message (1) but cannot answer the fresh
        // challenge in message (2), so finish() never succeeds for it.
        let k = derive_key("pw", "u");
        let (_ch, m1) = ClientHandshake::initiate(k, 7);
        let (sh, m2) = ServerHandshake::respond(k, &m1, 1000).unwrap();
        // The attacker, not knowing k, cannot decrypt m2 or build m3.
        let attacker_guess = crate::mode::seal(derive_key("x", "y"), 0, &1001u64.to_be_bytes());
        assert!(sh.finish(&attacker_guess).is_err());
        let _ = m2;
    }

    #[test]
    fn tampered_message2_detected() {
        let k = derive_key("pw", "u");
        let (ch, m1) = ClientHandshake::initiate(k, 7);
        let (_sh, mut m2) = ServerHandshake::respond(k, &m1, 8).unwrap();
        m2[10] ^= 1;
        assert!(ch.complete(&m2).is_err());
    }

    #[test]
    fn different_nonces_different_session_keys() {
        let k = derive_key("pw", "u");
        let (ch1, m1a) = ClientHandshake::initiate(k, 100);
        let (sh1, m2a) = ServerHandshake::respond(k, &m1a, 200).unwrap();
        let (sk1, m3a) = ch1.complete(&m2a).unwrap();
        sh1.finish(&m3a).unwrap();

        let (ch2, m1b) = ClientHandshake::initiate(k, 101);
        let (sh2, m2b) = ServerHandshake::respond(k, &m1b, 201).unwrap();
        let (sk2, m3b) = ch2.complete(&m2b).unwrap();
        sh2.finish(&m3b).unwrap();

        assert_ne!(sk1, sk2);
    }

    #[test]
    fn wrong_challenge_answer_rejected() {
        let k = derive_key("pw", "u");
        let (ch, _m1) = ClientHandshake::initiate(k, 7);
        // A message sealed under the right key but answering the wrong
        // nonce must be rejected with WrongAnswer.
        let mut body = Vec::new();
        body.extend_from_slice(&999u64.to_be_bytes()); // wrong nc+1
        body.extend_from_slice(&5u64.to_be_bytes());
        let forged = crate::mode::seal(k, 3, &body);
        assert_eq!(
            ch.complete(&forged).err(),
            Some(HandshakeError::WrongAnswer)
        );
    }
}
