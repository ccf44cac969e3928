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
    use itc_sim::SimRng;

    /// The frame `buf` holds, read byte by byte without the code under
    /// test: `None` below the header length.
    fn oracle(buf: &[u8]) -> Option<(u64, u64, &[u8])> {
        let word = |at: usize| {
            buf[at..at + 8]
                .iter()
                .fold(0, |w, &b| w << 8 | u64::from(b))
        };
        (buf.len() >= FRAME_HEADER_LEN).then(|| (word(0), word(8), &buf[FRAME_HEADER_LEN..]))
    }

    /// Both splitters agree with the oracle on `buf`, and the owning one
    /// hands back the buffer it was given, allocation and all.
    fn check(buf: &[u8]) {
        let want = oracle(buf);
        assert_eq!(split_frame(buf), want, "split_frame on {buf:?}");
        let owned = buf.to_vec();
        let (at, cap) = (owned.as_ptr(), owned.capacity());
        let taken = take_frame(owned);
        let got = taken.as_ref().map(|(t, r, body)| (*t, *r, &body[..]));
        assert_eq!(got, want, "take_frame on {buf:?}");
        if let Some((_, _, body)) = &taken {
            assert_eq!(
                (body.as_ptr(), body.capacity()),
                (at, cap),
                "take_frame reallocated"
            );
        }
    }

    #[test]
    fn hostile_frames_split_exactly_or_not_at_all() {
        let mut rng = SimRng::seeded(0xf4a3e);
        let mut random = |len: Option<u64>| {
            let len = len.unwrap_or_else(|| rng.range(0, 300));
            let mut b = vec![0u8; len as usize];
            rng.fill_bytes(&mut b);
            b
        };
        // Every length up to four headers, then 1,000 seeded buffers.
        for len in 0..=64 {
            check(&random(Some(len)));
        }
        for _ in 0..1_000 {
            check(&random(None));
        }
        // Truncations, extensions, byte substitutions and spliced-in bytes
        // of one valid frame.
        let valid = frame_call(0x0123_4567_89ab_cdef, 0xfeed_f00d, b"request-head");
        for cut in 0..=valid.len() {
            check(&valid[..cut]);
        }
        for extra in 1..=32 {
            check(&[&valid[..], &random(Some(extra))].concat());
        }
        for at in 0..valid.len() {
            for bit in 0..8 {
                let mut b = valid.clone();
                b[at] ^= 1 << bit;
                check(&b);
            }
            let mut b = valid.clone();
            b.splice(at..at, random(Some(1 + at as u64 % 3)));
            check(&b);
        }
    }

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
