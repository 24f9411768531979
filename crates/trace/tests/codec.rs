//! Property-based tests for the `.fgt` trace codec: `encode ∘ decode ==
//! id` over arbitrary event streams (any workload, any seed, with and
//! without attack campaigns), and totality over corrupted input.

use fireguard_trace::codec::{self, CodecError, EventDecoder, EventEncoder, TraceMeta};
use fireguard_trace::{
    AttackKind, AttackPlan, AttackingTrace, TraceGenerator, WorkloadProfile, PARSEC_WORKLOADS,
};
use proptest::prelude::*;

fn workload() -> impl Strategy<Value = WorkloadProfile> {
    (0..PARSEC_WORKLOADS.len()).prop_map(|i| PARSEC_WORKLOADS[i].clone())
}

fn stream(
    w: WorkloadProfile,
    seed: u64,
    n: usize,
    attacks: bool,
) -> Vec<fireguard_trace::TraceInst> {
    let g = TraceGenerator::new(w, seed);
    if !attacks {
        return g.take(n).collect();
    }
    let plan = AttackPlan::campaign(
        &[
            AttackKind::RetHijack,
            AttackKind::OutOfBounds,
            AttackKind::UseAfterFree,
            AttackKind::BoundsViolation,
        ],
        12,
        n as u64 / 8,
        (n as u64 / 2).max(n as u64 / 8 + 1),
        seed ^ 0x5a5a,
    );
    AttackingTrace::new(g, plan).take(n).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Batch round-trip: decode(encode(events)) == events for arbitrary
    /// workloads, seeds, batch sizes and attack injection.
    #[test]
    fn batch_round_trip(
        w in workload(),
        seed in 0u64..1_000_000,
        n in 64usize..4096,
        chunk in 1usize..1500,
        attacks in any::<bool>(),
    ) {
        let events = stream(w, seed, n, attacks);
        let mut enc = EventEncoder::new();
        let mut dec = EventDecoder::new();
        for part in events.chunks(chunk) {
            let payload = enc.encode_batch(part);
            let back = dec.decode_batch(&payload);
            prop_assert!(back.is_ok(), "decode failed: {:?}", back.err());
            let back = back.unwrap();
            prop_assert_eq!(back.as_slice(), part);
        }
    }

    /// Every batch stands alone: cut a stream into arbitrary batches, and
    /// a long-lived encoder emits each one byte-identical to a fresh
    /// encoder, while each payload decodes alone, in any order.
    #[test]
    fn every_batch_decodes_alone(
        w in workload(),
        seed in 0u64..1_000_000,
        n in 64usize..4096,
        cuts in proptest::collection::vec(1usize..700, 1..12),
        attacks in any::<bool>(),
    ) {
        let events = stream(w, seed, n, attacks);
        let mut batches = Vec::new();
        let mut rest = events.as_slice();
        for &c in cuts.iter().cycle() {
            if rest.is_empty() {
                break;
            }
            let (head, tail) = rest.split_at(c.min(rest.len()));
            batches.push(head);
            rest = tail;
        }
        let mut enc = EventEncoder::new();
        let payloads: Vec<Vec<u8>> = batches.iter().map(|b| enc.encode_batch(b)).collect();
        for (b, p) in batches.iter().zip(&payloads) {
            prop_assert_eq!(p, &EventEncoder::new().encode_batch(b));
        }
        let mut dec = EventDecoder::new();
        for (b, p) in batches.iter().zip(&payloads).rev() {
            let back = dec.decode_batch(p);
            prop_assert!(back.is_ok(), "decode failed: {:?}", back.err());
            let back = back.unwrap();
            prop_assert_eq!(back.as_slice(), *b);
        }
    }

    /// Container round-trip: a full `.fgt` write/read cycle preserves both
    /// metadata and every event exactly.
    #[test]
    fn container_round_trip(
        w in workload(),
        seed in 0u64..1_000_000,
        n in 64usize..2048,
    ) {
        let events = stream(w.clone(), seed, n, false);
        let meta = TraceMeta {
            workload: w.name.to_owned(),
            seed,
            insts: n as u64 / 2,
            baseline_cycles: seed.wrapping_mul(3) + 1,
            events: n as u64,
        };
        let bytes = codec::encode_trace(&meta, &events);
        let (m, e) = codec::read_trace(&mut bytes.as_slice()).expect("reads back");
        prop_assert_eq!(m, meta);
        prop_assert_eq!(e, events);
    }

    /// Totality: any single byte flip anywhere in a container either fails
    /// cleanly with a `CodecError` or (for the rare flips that keep the
    /// stream self-consistent, e.g. inside the header's workload name)
    /// still decodes — but never panics and never violates the checksum
    /// silently when a payload byte changed.
    #[test]
    fn corrupted_containers_never_panic(
        seed in 0u64..100_000,
        flip_seed in 0u64..1_000_000,
    ) {
        let w = PARSEC_WORKLOADS[(seed % PARSEC_WORKLOADS.len() as u64) as usize].clone();
        let events = stream(w.clone(), seed, 512, false);
        let meta = TraceMeta {
            workload: w.name.to_owned(),
            seed,
            insts: 256,
            baseline_cycles: 99,
            events: 512,
        };
        let bytes = codec::encode_trace(&meta, &events);
        let pos = (flip_seed as usize) % bytes.len();
        let bit = 1u8 << ((flip_seed >> 32) % 8);
        let mut corrupted = bytes.clone();
        corrupted[pos] ^= bit;
        // Must not panic; if it decodes, it must decode *something*.
        let _ = codec::read_trace(&mut corrupted.as_slice());
    }

    /// Truncation at an arbitrary point always errors (a partial container
    /// can never silently round down to fewer events).
    #[test]
    fn truncation_always_errors(seed in 0u64..100_000, cut_seed in 0u64..1_000_000) {
        let w = PARSEC_WORKLOADS[(seed % PARSEC_WORKLOADS.len() as u64) as usize].clone();
        let events = stream(w.clone(), seed, 256, false);
        let meta = TraceMeta {
            workload: w.name.to_owned(),
            seed,
            insts: 128,
            baseline_cycles: 1,
            events: 256,
        };
        let bytes = codec::encode_trace(&meta, &events);
        let cut = (cut_seed as usize) % bytes.len(); // strictly shorter
        let r = codec::read_trace(&mut &bytes[..cut]);
        prop_assert!(r.is_err(), "prefix of {} / {} bytes decoded", cut, bytes.len());
    }
}

#[test]
fn error_messages_are_informative() {
    let errs: Vec<CodecError> = vec![
        CodecError::BadMagic,
        CodecError::UnsupportedVersion(9),
        CodecError::Truncated("header"),
        CodecError::Corrupt("unknown attack kind"),
        CodecError::CountMismatch {
            expected: 3,
            found: 2,
        },
        CodecError::ChecksumMismatch {
            expected: 1,
            found: 2,
        },
    ];
    for e in errs {
        assert!(!e.to_string().is_empty());
    }
}
