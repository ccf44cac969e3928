//! The call-frame header: idempotency token plus trace id.
//!
//! Every Vice request rides the sealed channel with a fixed 16-byte
//! header ahead of the encoded request head:
//!
//! ```text
//! | idempotency token (8B BE) | trace id (8B BE) | encoded request head |
//! ```
//!
//! The token makes retries safe (the server's replay cache answers a
//! retried mutation instead of re-applying it); the trace id propagates
//! the call's causal identity to the server, so spans recorded on the
//! server side of the exchange name the same trace the client minted. A
//! trace id of zero means the call was issued with tracing disabled.
//!
//! The header is *accounting-invisible*: simulated wire sizes are
//! computed from the logical message (`WireMsg::wire_len` plus a fixed
//! framing-and-sealing overhead), never from the framed byte length, so
//! carrying the trace id costs no virtual time. This mirrors how the
//! header would ride inside the fixed-size RPC packet header of the real
//! 1985 package rather than growing each datagram.

/// Size of the call-frame header in bytes.
pub const FRAME_HEADER_LEN: usize = 16;

/// Frames a request head with its idempotency token and trace id.
pub fn frame_call(token: u64, trace: u64, head: &[u8]) -> Vec<u8> {
    let mut framed = Vec::with_capacity(FRAME_HEADER_LEN + head.len());
    framed.extend_from_slice(&token.to_be_bytes());
    framed.extend_from_slice(&trace.to_be_bytes());
    framed.extend_from_slice(head);
    framed
}

/// Splits an opened frame back into `(token, trace, request head)`.
/// Returns `None` if the frame is shorter than the header.
pub fn split_frame(framed: &[u8]) -> Option<(u64, u64, &[u8])> {
    if framed.len() < FRAME_HEADER_LEN {
        return None;
    }
    let (header, body) = framed.split_at(FRAME_HEADER_LEN);
    let token = u64::from_be_bytes(header[..8].try_into().expect("8 bytes"));
    let trace = u64::from_be_bytes(header[8..].try_into().expect("8 bytes"));
    Some((token, trace, body))
}

/// [`split_frame`] for a caller that owns the opened frame: the header is
/// cut off in place, so the request head keeps the frame's allocation.
pub fn take_frame(mut framed: Vec<u8>) -> Option<(u64, u64, Vec<u8>)> {
    let (token, trace, _) = split_frame(&framed)?;
    framed.drain(..FRAME_HEADER_LEN);
    Some((token, trace, framed))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_round_trips() {
        let framed = frame_call(42, 7, b"request-head");
        assert_eq!(framed.len(), FRAME_HEADER_LEN + 12);
        let (token, trace, body) = split_frame(&framed).unwrap();
        assert_eq!(token, 42);
        assert_eq!(trace, 7);
        assert_eq!(body, b"request-head");
    }

    #[test]
    fn untraced_calls_carry_zero() {
        let framed = frame_call(1, 0, b"");
        let (_, trace, body) = split_frame(&framed).unwrap();
        assert_eq!(trace, 0);
        assert!(body.is_empty());
    }

    #[test]
    fn short_frames_are_rejected() {
        assert!(split_frame(&[0u8; 15]).is_none());
        assert!(split_frame(&[]).is_none());
    }

    #[test]
    fn take_frame_agrees_with_split_frame_and_keeps_the_allocation() {
        let framed = frame_call(42, 7, b"request-head");
        let at = framed.as_ptr();
        let (token, trace, body) = take_frame(framed).unwrap();
        assert_eq!((token, trace, &body[..]), (42, 7, &b"request-head"[..]));
        assert_eq!(body.as_ptr(), at);
        assert!(take_frame(vec![0u8; 15]).is_none());
    }
}
