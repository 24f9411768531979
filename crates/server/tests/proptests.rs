//! Property tests for the router's two load-bearing mechanisms: the
//! consistent-hash ring (placement balance and minimal remap on loss)
//! and resume-from-seq (an ack at count `k` means replay restarts at
//! event `k` with zero lost and zero duplicated events).

use fireguard_server::{Ring, DEFAULT_REPLICAS};
use fireguard_soc::{capture_events, ExperimentConfig, KernelId};
use fireguard_trace::{AttackKind, AttackPlan, EventDecoder, EventEncoder, TraceInst};
use proptest::prelude::*;
use std::sync::OnceLock;

const KEYS: u64 = 4096;

/// A real captured event stream (attack campaign included, so control /
/// heap / attack side-channels are all present), captured once and
/// shared across proptest cases.
fn stream() -> &'static [TraceInst] {
    static EVENTS: OnceLock<Vec<TraceInst>> = OnceLock::new();
    EVENTS.get_or_init(|| {
        let insts = 3_000u64;
        let plan = AttackPlan::campaign(
            &[AttackKind::RetHijack],
            4,
            insts / 10,
            insts.saturating_sub(insts / 5),
            3,
        );
        let cfg = ExperimentConfig::new("ferret")
            .kernel(KernelId::SHADOW_STACK, 4)
            .insts(insts)
            .attacks(plan);
        capture_events(&cfg)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Placement balance: over any contiguous window of `KEYS` session
    /// ids, every slot of an `n`-backend ring receives a sane share —
    /// no slot starves below a quarter of the ideal `1/n`, none hoards
    /// more than triple it. (64 virtual points per slot keep per-slot
    /// shares within a few tens of percent of ideal; the bounds here
    /// are deliberately loose so the property is about shape, not the
    /// exact hash constants.)
    #[test]
    fn ring_spreads_keys_across_all_slots(n in 1..=8usize, base in any::<u64>()) {
        let ring = Ring::new(n, DEFAULT_REPLICAS);
        let mut counts = vec![0u64; n];
        for i in 0..KEYS {
            counts[ring.route_all_up(base.wrapping_add(i))] += 1;
        }
        let ideal = KEYS / n as u64;
        for (slot, &c) in counts.iter().enumerate() {
            prop_assert!(
                c >= ideal / 4,
                "slot {slot}/{n} starves: {c} of {KEYS} keys (ideal {ideal})"
            );
            prop_assert!(
                c <= ideal * 3,
                "slot {slot}/{n} hoards: {c} of {KEYS} keys (ideal {ideal})"
            );
        }
    }

    /// Minimal disruption on a single loss: keys whose owner survives
    /// never move (exact, not statistical), every remapped key lands on
    /// a live slot, and the remapped fraction is the dead slot's share —
    /// bounded by 3/n, far below the 1/1 a modulo hash would remap.
    #[test]
    fn single_loss_remaps_only_the_dead_slots_share(
        n in 2..=8usize,
        dead_pick in any::<u64>(),
        base in any::<u64>(),
    ) {
        let ring = Ring::new(n, DEFAULT_REPLICAS);
        let dead = (dead_pick % n as u64) as usize;
        let mut moved = 0u64;
        for i in 0..KEYS {
            let key = base.wrapping_add(i);
            let home = ring.route_all_up(key);
            let rerouted = ring
                .route(key, |s| s != dead)
                .expect("n >= 2 leaves a live slot");
            prop_assert!(rerouted != dead, "key routed to the dead slot");
            if home == dead {
                moved += 1;
            } else {
                prop_assert_eq!(
                    rerouted, home,
                    "key {} moved although its owner survives", key
                );
            }
        }
        prop_assert!(
            moved <= KEYS * 3 / n as u64,
            "losing 1 of {n} slots remapped {moved}/{KEYS} keys"
        );
    }

    /// Routing is a pure function of (key, liveness): repeated lookups
    /// agree, and reviving the dead slot restores the original placement
    /// for every key (arc positions are stable for the life of the pool).
    #[test]
    fn revival_restores_original_placement(n in 2..=8usize, key in any::<u64>()) {
        let ring = Ring::new(n, DEFAULT_REPLICAS);
        let home = ring.route_all_up(key);
        let rerouted = ring.route(key, |s| s != home).expect("a live slot exists");
        prop_assert_ne!(rerouted, home);
        prop_assert_eq!(ring.route_all_up(key), home, "revival restores placement");
    }

    /// Resume-from-seq roundtrip: a session acked at event count `k`
    /// replays `events[k..]` through a *fresh* encoder/decoder pair (a
    /// new TCP connection or backend incarnation holds no codec state).
    /// The decoded tail must be exactly the original tail — first seq
    /// `k`, nothing lost, nothing duplicated — for any ack point and any
    /// batching of the replay.
    #[test]
    fn resume_from_any_ack_point_loses_and_duplicates_nothing(
        k_pick in any::<u64>(),
        batch in 1..700usize,
    ) {
        let events = stream();
        let k = (k_pick % (events.len() as u64 + 1)) as usize;

        // The original connection: the acked prefix, encoded and decoded.
        let mut enc = EventEncoder::new();
        let mut dec = EventDecoder::new();
        let prefix = dec
            .decode_batch(&enc.encode_batch(&events[..k]))
            .expect("prefix decodes");
        prop_assert_eq!(prefix.as_slice(), &events[..k]);

        // The resumed connection: fresh encoder and decoder, replay starts
        // at exactly the acked count.
        let mut enc = EventEncoder::new();
        let mut dec = EventDecoder::new();
        let mut replayed: Vec<TraceInst> = Vec::with_capacity(events.len() - k);
        for chunk in events[k..].chunks(batch) {
            replayed.extend(
                dec.decode_batch(&enc.encode_batch(chunk))
                    .expect("replay chunk decodes"),
            );
        }
        prop_assert_eq!(replayed.as_slice(), &events[k..]);
        if let Some(first) = replayed.first() {
            prop_assert_eq!(first.seq, k as u64, "replay starts at the acked count");
        }
        // Seqs are strictly consecutive: no duplicate can hide in the tail.
        for (off, ev) in replayed.iter().enumerate() {
            prop_assert_eq!(ev.seq, (k + off) as u64);
        }
    }
}
