//! Property tests for the Jacobson/Karn RTT estimator — the adaptive half
//! of the shared retry machinery.
//!
//! Three laws, each for arbitrary sample streams:
//!
//! * feeding a constant RTT converges SRTT to that RTT (and RTTVAR to 0),
//!   so the adaptive RTO approaches the true round trip;
//! * the RTO never leaves the `[MIN_RTO, RETRANSMIT.cap]` corridor,
//!   whatever the samples do;
//! * Karn's rule: samples flagged as retransmitted leave the estimator
//!   state bit-identical (they are ambiguous and must be discarded).

use proptest::prelude::*;
use std::time::Duration;
use vnet::{FaultConfig, FaultPlane, RttEstimator, RETRANSMIT};
use vproto::LogicalHost;

fn arb_sample() -> impl Strategy<Value = Duration> {
    // Microseconds to tens of milliseconds — the simulator's RTT range.
    (10u64..50_000).prop_map(Duration::from_micros)
}

proptest! {
    #[test]
    fn constant_rtt_converges_srtt_to_it(
        rtt_us in 100u64..20_000,
        warmup in proptest::collection::vec(arb_sample(), 0..8),
    ) {
        let mut e = RttEstimator::default();
        for s in warmup {
            e.observe(s, false);
        }
        let rtt = Duration::from_micros(rtt_us);
        // SRTT's error shrinks by 1/8 per sample: 128 clean samples decay
        // any warmup residue (≤ 50 ms) by (7/8)^128 ≈ 4e-8 — nanoseconds.
        for _ in 0..128 {
            e.observe(rtt, false);
        }
        let srtt = e.srtt().expect("sampled");
        let err = srtt.abs_diff(rtt);
        prop_assert!(err <= Duration::from_micros(2), "srtt {srtt:?} vs rtt {rtt:?}");
        prop_assert!(e.rttvar() <= Duration::from_micros(2), "rttvar {:?}", e.rttvar());
    }

    #[test]
    fn rto_stays_inside_the_configured_corridor(
        samples in proptest::collection::vec((arb_sample(), any::<bool>()), 1..64),
        timeouts in proptest::collection::vec(any::<bool>(), 0..16),
    ) {
        let (min_rto, max_rto) = (RttEstimator::MIN_RTO, RETRANSMIT.cap);
        let mut e = RttEstimator::default();
        prop_assert!(e.rto() >= min_rto && e.rto() <= max_rto);
        let mut t = timeouts.into_iter();
        for (s, retransmitted) in samples {
            e.observe(s, retransmitted);
            if t.next() == Some(true) {
                e.on_timeout();
            }
            prop_assert!(
                e.rto() >= min_rto && e.rto() <= max_rto,
                "rto {:?} outside [{:?}, {:?}]",
                e.rto(),
                min_rto,
                max_rto
            );
            // The backed-off ladder is clamped by the same ceiling.
            for attempt in 1..=6u32 {
                prop_assert!(e.ladder(attempt) <= max_rto);
            }
        }
    }

    #[test]
    fn karn_discards_retransmitted_samples(
        clean in proptest::collection::vec(arb_sample(), 1..32),
        ambiguous in proptest::collection::vec(arb_sample(), 1..16),
    ) {
        let mut with = RttEstimator::default();
        let mut without = RttEstimator::default();
        let mut amb = ambiguous.iter().cycle();
        for s in &clean {
            with.observe(*s, false);
            without.observe(*s, false);
            // Interleave ambiguous samples into one estimator only: if
            // Karn's rule holds they change nothing.
            with.observe(*amb.next().expect("cycle"), true);
        }
        prop_assert_eq!(with, without);
    }

    /// Per-destination estimation (asymmetric links): feeding a fault
    /// plane consistently small samples towards one destination and larger
    /// ones towards another must leave the two destinations with diverged
    /// RTOs — and the fast destination's RTO must never be dragged up by
    /// the slow one's samples.
    #[test]
    fn asymmetric_links_converge_to_per_destination_rtos(
        fast_us in 100u64..2_000,
        gap_us in 5_000u64..40_000,
        rounds in 8usize..48,
        interleave in proptest::collection::vec(any::<bool>(), 8..48),
    ) {
        let fast_dst = LogicalHost::new(2);
        let slow_dst = LogicalHost::new(3);
        let mut plane = FaultPlane::new(
            FaultConfig::lossless(1).with_adaptive(),
        );
        let fast = Duration::from_micros(fast_us);
        let slow = Duration::from_micros(fast_us + gap_us);
        let mut order = interleave.iter().cycle();
        for _ in 0..rounds {
            // Arbitrary interleaving: per-destination state must not care.
            if *order.next().expect("cycle") {
                plane.observe_rtt(fast_dst, fast, false);
                plane.observe_rtt(slow_dst, slow, false);
            } else {
                plane.observe_rtt(slow_dst, slow, false);
                plane.observe_rtt(fast_dst, fast, false);
            }
        }
        let rto_fast = plane.rtt_to(fast_dst).expect("observed").rto();
        let rto_slow = plane.rtt_to(slow_dst).expect("observed").rto();
        // Unless both hit the same corridor wall, the estimates diverge.
        if rto_slow < RETRANSMIT.cap && rto_fast > RttEstimator::MIN_RTO {
            prop_assert!(
                rto_fast < rto_slow,
                "fast {rto_fast:?} !< slow {rto_slow:?}"
            );
        }
        // The fast destination's RTO is what a lone fast-only estimator
        // would compute: the slow link's samples never bled into it.
        let mut lone = RttEstimator::default();
        for _ in 0..rounds {
            lone.observe(fast, false);
        }
        prop_assert_eq!(rto_fast, lone.rto());
        prop_assert!(plane.give_up_cost(fast_dst) <= plane.give_up_cost(slow_dst));
    }
}
