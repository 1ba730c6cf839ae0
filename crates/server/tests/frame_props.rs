//! Property-based testing of the wire codec: encode/parse round trips
//! under random arguments and replies, pipelining, random mutation and
//! random bytes — with a domain-specific shrinker (`prop_shrink_with`, the
//! same convention as `tests/random_schedules.rs` at the workspace root)
//! so a failing argument vector is reported minimized.
//!
//! Each property runs `PROPTEST_CASES` cases (256 by default); CI's
//! `fuzz-smoke` job runs this file in release with a larger count.

use proptest::prelude::*;
use zstm_server::frame::{encode_request, parse_reply, parse_request, Parsed, Reply};

/// Greedy minimizer for a failing argument vector: drop whole arguments
/// (keeping at least one), then halve argument contents, as long as the
/// property still fails.
fn minimize_args(
    args: &Vec<Vec<u8>>,
    fails: &mut dyn FnMut(&Vec<Vec<u8>>) -> bool,
) -> Option<Vec<Vec<u8>>> {
    if !fails(args) {
        return None;
    }
    let mut best = args.clone();
    let mut progress = true;
    while progress {
        progress = false;
        // Drop arguments one at a time.
        for i in 0..best.len() {
            if best.len() <= 1 {
                break;
            }
            let mut candidate = best.clone();
            candidate.remove(i);
            if fails(&candidate) {
                best = candidate;
                progress = true;
                break;
            }
        }
        // Halve argument payloads.
        for i in 0..best.len() {
            if best[i].is_empty() {
                continue;
            }
            let mut candidate = best.clone();
            let half = candidate[i].len() / 2;
            candidate[i].truncate(half);
            if fails(&candidate) {
                best = candidate;
                progress = true;
                break;
            }
        }
    }
    Some(best)
}

fn args_strategy() -> impl Strategy<Value = Vec<Vec<u8>>> {
    proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..48), 1..8)
        .prop_shrink_with(minimize_args)
}

fn leaf_reply_strategy() -> impl Strategy<Value = Reply> {
    let text = proptest::collection::vec(any::<u8>(), 0..16).prop_map(|v| {
        v.iter()
            .map(|b| char::from(b'a' + b % 26))
            .collect::<String>()
    });
    prop_oneof![
        text.prop_map(Reply::Status),
        proptest::collection::vec(any::<u8>(), 0..24).prop_map(Reply::Value),
        Just(Reply::Nil),
        any::<i64>().prop_map(Reply::Int),
    ]
}

fn reply_strategy() -> impl Strategy<Value = Reply> {
    prop_oneof![
        3 => leaf_reply_strategy().boxed(),
        1 => proptest::collection::vec(leaf_reply_strategy(), 0..4)
            .prop_map(Reply::Multi)
            .boxed(),
        1 => proptest::collection::vec(
                proptest::collection::vec(leaf_reply_strategy(), 0..3).prop_map(Reply::Multi),
                1..3,
            )
            .prop_map(Reply::Multi)
            .boxed(),
    ]
}

/// What a parse consumed: `Some(n)` for a complete frame of `n` bytes,
/// `None` for an incomplete buffer or a framing error.
fn consumed<T, E>(parsed: Result<Parsed<T>, E>) -> Option<usize> {
    match parsed {
        Ok(Parsed::Complete(_, n)) => Some(n),
        Ok(Parsed::Incomplete) | Err(_) => None,
    }
}

/// Neither parser panics on `wire`, and a complete frame lies inside it.
fn parses_within(wire: &[u8]) -> Result<(), TestCaseError> {
    for used in [consumed(parse_request(wire)), consumed(parse_reply(wire))]
        .into_iter()
        .flatten()
    {
        prop_assert!(used <= wire.len());
        prop_assert!(used >= 4);
    }
    Ok(())
}

proptest! {
    #[test]
    fn requests_round_trip_exactly(args in args_strategy()) {
        let borrowed: Vec<&[u8]> = args.iter().map(Vec::as_slice).collect();
        let wire = encode_request(&borrowed);
        match parse_request(&wire) {
            Ok(Parsed::Complete(request, consumed)) => {
                prop_assert_eq!(consumed, wire.len());
                prop_assert_eq!(request.args, borrowed);
            }
            other => return Err(TestCaseError::fail(format!("parsed as {other:?}"))),
        }
    }

    #[test]
    fn every_strict_prefix_is_incomplete(args in args_strategy(), cut_seed in any::<u64>()) {
        let borrowed: Vec<&[u8]> = args.iter().map(Vec::as_slice).collect();
        let wire = encode_request(&borrowed);
        let cut = (cut_seed % wire.len() as u64) as usize;
        prop_assert_eq!(parse_request(&wire[..cut]), Ok(Parsed::Incomplete));
    }

    #[test]
    fn pipelined_frames_parse_in_sequence(
        first in args_strategy(),
        second in args_strategy(),
    ) {
        let a: Vec<&[u8]> = first.iter().map(Vec::as_slice).collect();
        let b: Vec<&[u8]> = second.iter().map(Vec::as_slice).collect();
        let mut wire = encode_request(&a);
        wire.extend_from_slice(&encode_request(&b));
        let Ok(Parsed::Complete(req_a, used_a)) = parse_request(&wire) else {
            return Err(TestCaseError::fail("first frame must parse"));
        };
        prop_assert_eq!(req_a.args, a);
        let Ok(Parsed::Complete(req_b, used_b)) = parse_request(&wire[used_a..]) else {
            return Err(TestCaseError::fail("second frame must parse"));
        };
        prop_assert_eq!(req_b.args, b);
        prop_assert_eq!(used_a + used_b, wire.len());
    }

    #[test]
    fn replies_round_trip_exactly(reply in reply_strategy()) {
        let wire = reply.encode_frame();
        match parse_reply(&wire) {
            Ok(Parsed::Complete(decoded, consumed)) => {
                prop_assert_eq!(consumed, wire.len());
                prop_assert_eq!(decoded, reply);
            }
            other => return Err(TestCaseError::fail(format!("parsed as {other:?}"))),
        }
    }

    /// Mutation safety: flipping bytes, truncating, or appending garbage
    /// to a valid frame must produce Complete/Incomplete/Err — never a
    /// panic, never consumption beyond the buffer.
    #[test]
    fn mutated_frames_never_break_the_parser(
        args in args_strategy(),
        flips in proptest::collection::vec((any::<u64>(), any::<u8>()), 0..6),
        trunc_seed in any::<u64>(),
        tail in proptest::collection::vec(any::<u8>(), 0..12),
    ) {
        let borrowed: Vec<&[u8]> = args.iter().map(Vec::as_slice).collect();
        let mut wire = encode_request(&borrowed);
        for (at, bit) in flips {
            let len = wire.len() as u64;
            wire[(at % len) as usize] ^= 1 << (bit % 8);
        }
        if trunc_seed % 3 == 0 {
            wire.truncate((trunc_seed % (wire.len() as u64 + 1)) as usize);
        }
        wire.extend_from_slice(&tail);
        parses_within(&wire)?;
    }

    /// Random bytes: the same no-panic, no-overrun property for both
    /// parsers on input that was never a frame.
    #[test]
    fn random_bytes_never_break_the_parser(
        bytes in proptest::collection::vec(any::<u8>(), 0..128),
    ) {
        parses_within(&bytes)?;
    }
}
