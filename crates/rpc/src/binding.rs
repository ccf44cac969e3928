//! Authenticated connections ("bindings") between a user on a workstation
//! and a Vice server.
//!
//! "When a user initiates activity at a workstation, Virtue authenticates
//! itself to Vice on behalf of that user" (Section 3.4). The prototype ran
//! one connection per (user, workstation, server) triple; we model the same.
//! A binding owns both channel endpoints — the simulation is synchronous and
//! single-threaded, so the "network" between them is the sealed byte buffer
//! passed from one endpoint to the other.
//!
//! Security property carried through the whole reproduction: the server end
//! of a binding knows *by construction* which user it authenticated. Vice
//! code must take the requesting identity from [`Binding::server_user`],
//! never from a request field — workstations are untrusted and may claim
//! anything inside their (authenticated) requests.

use crate::net::NodeId;
use itc_cryptbox::channel::{ChannelError, Role, SecureChannel};
use itc_cryptbox::handshake::{ClientHandshake, HandshakeError, ServerHandshake};
use itc_cryptbox::Key;
use std::borrow::Cow;

/// Errors establishing or using a binding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BindingError {
    /// The handshake failed — wrong password, unknown user, or attack.
    Handshake(HandshakeError),
    /// A sealed message failed to open.
    Channel(ChannelError),
}

impl std::fmt::Display for BindingError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BindingError::Handshake(e) => write!(f, "binding handshake failed: {e}"),
            BindingError::Channel(e) => write!(f, "binding channel failed: {e}"),
        }
    }
}

impl std::error::Error for BindingError {}

impl From<HandshakeError> for BindingError {
    fn from(e: HandshakeError) -> Self {
        BindingError::Handshake(e)
    }
}

impl From<ChannelError> for BindingError {
    fn from(e: ChannelError) -> Self {
        BindingError::Channel(e)
    }
}

/// An established, mutually-authenticated, encrypted connection.
#[derive(Debug)]
pub struct Binding {
    user: String,
    workstation: NodeId,
    server: NodeId,
    client_chan: SecureChannel,
    server_chan: SecureChannel,
}

/// Number of messages exchanged by the handshake (used by the timing
/// kernel to charge connection setup).
pub const HANDSHAKE_MESSAGES: u32 = 3;

/// Runs the full mutual authentication handshake and returns an established
/// binding.
///
/// * `client_key` — the key Venus derived from the user's password.
/// * `server_key` — the key Vice holds for that user in its protection
///   database.
/// * `nonces` — fresh values for the two challenges.
///
/// The two keys are passed separately precisely so tests can exercise the
/// mismatch cases (wrong password, impostor server).
pub fn establish(
    user: &str,
    workstation: NodeId,
    server: NodeId,
    client_key: Key,
    server_key: Key,
    nonces: (u64, u64),
) -> Result<Binding, BindingError> {
    let (ch, m1) = ClientHandshake::initiate(client_key, nonces.0);
    let (sh, m2) = ServerHandshake::respond(server_key, &m1, nonces.1)?;
    let (client_session, m3) = ch.complete(&m2)?;
    let server_session = sh.finish(&m3)?;
    // Both sides derived the key independently; they must agree.
    debug_assert_eq!(client_session, server_session);
    Ok(Binding {
        user: user.to_string(),
        workstation,
        server,
        client_chan: SecureChannel::new(client_session, Role::Client),
        server_chan: SecureChannel::new(server_session, Role::Server),
    })
}

impl Binding {
    /// The authenticated user identity, as the *server* knows it. Vice
    /// protection checks key off this, never off request contents.
    pub fn server_user(&self) -> &str {
        &self.user
    }

    /// The workstation end of the connection.
    pub fn workstation(&self) -> NodeId {
        self.workstation
    }

    /// The server end of the connection.
    pub fn server(&self) -> NodeId {
        self.server
    }

    /// Client-side: seals a request for transmission.
    pub fn client_seal(&mut self, request: &[u8]) -> Vec<u8> {
        self.client_chan.seal_msg(request)
    }

    /// Server-side: opens a received request. Hand over the sealed `Vec`
    /// itself when done with it — it is decrypted in place and comes back
    /// as the request, with no allocation; a borrowed slice is copied once.
    pub fn server_open<'a>(
        &mut self,
        sealed: impl Into<Cow<'a, [u8]>>,
    ) -> Result<Vec<u8>, BindingError> {
        Ok(self.server_chan.open_owned(sealed.into().into_owned())?)
    }

    /// Server-side: seals a reply.
    pub fn server_seal(&mut self, reply: &[u8]) -> Vec<u8> {
        self.server_chan.seal_msg(reply)
    }

    /// Client-side: opens a received reply (owned or borrowed, as
    /// [`Self::server_open`]).
    pub fn client_open<'a>(
        &mut self,
        sealed: impl Into<Cow<'a, [u8]>>,
    ) -> Result<Vec<u8>, BindingError> {
        Ok(self.client_chan.open_owned(sealed.into().into_owned())?)
    }

    /// Performs a full round trip through the sealed channel: the request
    /// bytes go through the client sealer and the server opener; the reply
    /// produced by `handler` returns through the server sealer and client
    /// opener. This is the path every Vice call in the reproduction takes.
    pub fn round_trip<F>(&mut self, request: &[u8], handler: F) -> Result<Vec<u8>, BindingError>
    where
        F: FnOnce(&str, &[u8]) -> Vec<u8>,
    {
        let sealed_req = self.client_chan.seal_msg(request);
        let opened_req = self.server_chan.open_owned(sealed_req)?;
        let reply = handler(&self.user, &opened_req);
        let sealed_reply = self.server_chan.seal_msg(&reply);
        Ok(self.client_chan.open_owned(sealed_reply)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use itc_cryptbox::derive_key;

    fn nodes() -> (NodeId, NodeId) {
        (NodeId(0), NodeId(1))
    }

    #[test]
    fn establish_and_round_trip() {
        let (ws, srv) = nodes();
        let k = derive_key("pw", "satya");
        let mut b = establish("satya", ws, srv, k, k, (1, 2)).unwrap();
        assert_eq!(b.server_user(), "satya");
        let reply = b
            .round_trip(b"GetFileStat /vice/usr/satya", |user, req| {
                assert_eq!(user, "satya");
                assert_eq!(req, b"GetFileStat /vice/usr/satya");
                b"ok".to_vec()
            })
            .unwrap();
        assert_eq!(reply, b"ok");
    }

    #[test]
    fn wrong_password_cannot_bind() {
        let (ws, srv) = nodes();
        let client = derive_key("wrong", "satya");
        let server = derive_key("right", "satya");
        assert!(matches!(
            establish("satya", ws, srv, client, server, (1, 2)),
            Err(BindingError::Handshake(_))
        ));
    }

    #[test]
    fn sealed_traffic_resists_tampering() {
        let (ws, srv) = nodes();
        let k = derive_key("pw", "u");
        let mut b = establish("u", ws, srv, k, k, (3, 4)).unwrap();
        let mut sealed = b.client_seal(b"StoreFile important");
        sealed[12] ^= 0x80;
        assert!(matches!(
            b.server_open(&sealed),
            Err(BindingError::Channel(_))
        ));
    }

    #[test]
    fn replayed_request_rejected() {
        let (ws, srv) = nodes();
        let k = derive_key("pw", "u");
        let mut b = establish("u", ws, srv, k, k, (3, 4)).unwrap();
        let sealed = b.client_seal(b"RemoveFile /vice/x");
        b.server_open(&sealed).unwrap();
        assert!(matches!(
            b.server_open(&sealed),
            Err(BindingError::Channel(ChannelError::BadSequence { .. }))
        ));
    }

    #[test]
    fn sessions_are_isolated() {
        // Traffic sealed on one user's binding cannot be opened on
        // another's, even for the same password text (different salt →
        // different key) or a re-established session (different nonces).
        let (ws, srv) = nodes();
        let k1 = derive_key("pw", "alice");
        let mut b1 = establish("alice", ws, srv, k1, k1, (1, 2)).unwrap();
        let mut b1b = establish("alice", ws, srv, k1, k1, (5, 6)).unwrap();
        let sealed = b1.client_seal(b"hello");
        assert!(b1b.server_open(&sealed).is_err());
    }

    #[test]
    fn identity_comes_from_handshake_not_request() {
        // A malicious workstation puts "root" inside the request body; the
        // handler still sees the authenticated identity.
        let (ws, srv) = nodes();
        let k = derive_key("pw", "mallory");
        let mut b = establish("mallory", ws, srv, k, k, (9, 10)).unwrap();
        b.round_trip(b"as-user:root StoreFile /vice/etc/passwd", |user, _| {
            assert_eq!(user, "mallory");
            Vec::new()
        })
        .unwrap();
    }
}
