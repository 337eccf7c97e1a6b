//! Property-style fuzz of the wire codec: the framing layer and the
//! request/reply JSON parsers must map *every* input — random garbage,
//! truncations, oversized length claims, single-bit corruption — to a
//! typed error or a clean value. Never a panic, never a hang, never an
//! unbounded allocation.
//!
//! The generator is a deterministic SplitMix64 walk (no proptest
//! dependency, no flaky shrink): every failure reports the case index,
//! and rerunning reproduces it exactly.

use std::io::{Cursor, ErrorKind};
use yac_core::wire::MAX_FRAME;
use yac_core::{read_frame, write_frame, ServiceReply, ServiceRequest};
use yac_variation::montecarlo::mix_seed;

const FUZZ_SEED: u64 = 0x5eed_2006;

/// A tiny deterministic byte stream over `mix_seed`.
struct Rng {
    seed: u64,
    index: u64,
}

impl Rng {
    fn new(case: u64) -> Self {
        Rng {
            seed: mix_seed(FUZZ_SEED, case),
            index: 0,
        }
    }

    fn next_u64(&mut self) -> u64 {
        let v = mix_seed(self.seed, self.index);
        self.index += 1;
        v
    }

    fn below(&mut self, bound: usize) -> usize {
        (self.next_u64() % bound.max(1) as u64) as usize
    }

    fn bytes(&mut self, len: usize) -> Vec<u8> {
        (0..len).map(|_| (self.next_u64() & 0xff) as u8).collect()
    }
}

#[test]
fn random_payloads_round_trip_bit_identically() {
    for case in 0..200 {
        let mut rng = Rng::new(case);
        let len = rng.below(4096);
        let payload = rng.bytes(len);
        let mut wire = Vec::new();
        write_frame(&mut wire, &payload).unwrap();
        let got = read_frame(&mut Cursor::new(&wire))
            .unwrap_or_else(|e| panic!("case {case}: round trip failed: {e}"))
            .expect("a full frame was written");
        assert_eq!(got, payload, "case {case}: payload changed in flight");
    }
}

#[test]
fn truncated_frames_are_typed_errors_never_panics() {
    for case in 0..200 {
        let mut rng = Rng::new(case);
        let plen = 1 + rng.below(512);
        let payload = rng.bytes(plen);
        let mut wire = Vec::new();
        write_frame(&mut wire, &payload).unwrap();
        // Every proper prefix of a valid frame: empty means clean EOF
        // (Ok(None)); anything else is a typed UnexpectedEof.
        let cut = rng.below(wire.len());
        match read_frame(&mut Cursor::new(&wire[..cut])) {
            Ok(None) => assert_eq!(cut, 0, "case {case}: partial frame read as EOF"),
            Ok(Some(_)) => panic!("case {case}: truncated frame decoded to a payload"),
            Err(e) => assert_eq!(
                e.kind(),
                ErrorKind::UnexpectedEof,
                "case {case}: wrong error kind {e:?}"
            ),
        }
    }
}

#[test]
fn oversized_length_claims_are_refused_without_the_allocation() {
    // A header claiming more than MAX_FRAME is refused outright.
    for claim in [MAX_FRAME as u32 + 1, u32::MAX, u32::MAX - 7] {
        let mut wire = claim.to_be_bytes().to_vec();
        wire.extend_from_slice(&[0u8; 16]);
        let err = read_frame(&mut Cursor::new(&wire)).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::InvalidData, "claim {claim}");
    }
    // A hostile-but-legal claim (MAX_FRAME with almost no data behind
    // it) must fail fast as EOF — the progressive reader never trusts
    // the header enough to allocate the full claim up front, so this
    // also finishes instantly instead of reserving 16 MiB per probe.
    let started = std::time::Instant::now();
    for _ in 0..64 {
        let mut wire = (MAX_FRAME as u32).to_be_bytes().to_vec();
        wire.extend_from_slice(&[0u8; 64]);
        let err = read_frame(&mut Cursor::new(&wire)).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::UnexpectedEof);
    }
    assert!(
        started.elapsed() < std::time::Duration::from_secs(5),
        "hostile length claims must not cost a 16 MiB allocation each"
    );
}

#[test]
fn single_bit_corruption_never_yields_a_payload() {
    for case in 0..200 {
        let mut rng = Rng::new(case);
        let plen = 1 + rng.below(256);
        let payload = rng.bytes(plen);
        let mut wire = Vec::new();
        write_frame(&mut wire, &payload).unwrap();
        let bit = rng.below(wire.len() * 8);
        wire[bit / 8] ^= 1 << (bit % 8);
        // A flipped length field misroutes the read (oversize claim or
        // short read); a flipped CRC or payload bit fails the checksum.
        // All are typed errors — CRC-32 catches every single-bit error.
        match read_frame(&mut Cursor::new(&wire)) {
            Err(e) if matches!(e.kind(), ErrorKind::InvalidData | ErrorKind::UnexpectedEof) => {}
            Err(e) => panic!("case {case} bit {bit}: unexpected error kind {e:?}"),
            Ok(got) => panic!("case {case} bit {bit}: corruption went undetected: {got:?}"),
        }
    }
}

#[test]
fn random_garbage_streams_never_panic_the_reader() {
    for case in 0..400 {
        let mut rng = Rng::new(case ^ 0xdead);
        let wlen = rng.below(2048);
        let wire = rng.bytes(wlen);
        // Any outcome is fine except a panic; a decoded payload must at
        // least have carried a valid CRC.
        let _ = read_frame(&mut Cursor::new(&wire));
    }
}

#[test]
fn garbage_json_is_a_typed_parse_error_for_both_directions() {
    for case in 0..300 {
        let mut rng = Rng::new(case ^ 0xbeef);
        let blen = rng.below(512);
        let bytes = rng.bytes(blen);
        let text = String::from_utf8_lossy(&bytes);
        // Parsers must return Err, not panic; random bytes essentially
        // never form a valid op/status object.
        if let Ok(req) = ServiceRequest::parse(&text) {
            panic!("case {case}: garbage parsed as request {req:?}");
        }
        if let Ok(rep) = ServiceReply::parse(&text) {
            panic!("case {case}: garbage parsed as reply {rep:?}");
        }
    }
    // Structured-but-wrong JSON: valid syntax, bad fields.
    for text in [
        "{}",
        "{\"op\":\"query\"}",
        "{\"op\":\"nope\"}",
        "{\"status\":\"ok\"}",
        "{\"status\":\"busy\",\"inflight\":\"many\"}",
        "[1,2,3]",
        "null",
    ] {
        assert!(ServiceRequest::parse(text).is_err(), "request: {text}");
        assert!(ServiceReply::parse(text).is_err(), "reply: {text}");
    }
}
