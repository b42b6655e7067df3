//! The client-side moderator: response-time monitoring and promotion.
//!
//! §I: the moderator "monitors the execution time of the code in the
//! application, and promotes the execution of code to a higher level of
//! acceleration when it detects that the response time of the application
//! starts to degrade." §VI-C-3: the evaluated configuration promotes with a
//! static probability of 1/50 per request, and the SDN-accelerator is
//! "released from the overhead of monitoring and tracking users" because the
//! decision is made on the device.

use crate::device::DeviceProfile;
use mca_offload::AccelerationGroupId;
use rand::Rng;

/// How the moderator decides to request a higher acceleration group.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PromotionPolicy {
    /// Promote with a fixed probability after each completed request — the
    /// paper's evaluated configuration uses `probability = 1/50`.
    Probabilistic {
        /// Per-request promotion probability in `[0, 1]`.
        probability: f64,
    },
    /// Promote when the observed response time of a request exceeds a fixed
    /// threshold (the "if processing requires more than t milliseconds"
    /// example of §VI-C-3).
    ResponseTimeThreshold {
        /// Threshold in milliseconds.
        threshold_ms: f64,
    },
    /// Battery-aware policy from the discussion in §VII-3: promote when the
    /// battery drops below a threshold (to shorten radio-on time) **or** when
    /// the response time exceeds the latency threshold.
    BatteryAware {
        /// Battery level (percent) below which the device requests more
        /// acceleration.
        battery_threshold_percent: f64,
        /// Response-time threshold in milliseconds.
        latency_threshold_ms: f64,
    },
    /// Never promote (the control configuration, e.g. user 32 in Fig. 9b).
    Never,
}

impl PromotionPolicy {
    /// The paper's static 1/50 promotion probability.
    pub fn paper_default() -> Self {
        PromotionPolicy::Probabilistic {
            probability: 1.0 / 50.0,
        }
    }
}

/// Event emitted by the moderator after observing a completed request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModeratorEvent {
    /// Keep the current acceleration group.
    Stay,
    /// Request promotion to the contained (higher) group.
    Promote(AccelerationGroupId),
}

/// Client-side moderator bound to one device.
#[derive(Debug, Clone, PartialEq)]
pub struct Moderator {
    policy: PromotionPolicy,
    current_group: AccelerationGroupId,
    max_group: AccelerationGroupId,
    promotions: u32,
    device: DeviceProfile,
}

impl Moderator {
    /// Creates a moderator starting in the lowest acceleration group
    /// (`initial`), able to climb up to `max_group`.
    pub fn new(
        device: DeviceProfile,
        policy: PromotionPolicy,
        initial: AccelerationGroupId,
        max_group: AccelerationGroupId,
    ) -> Self {
        Self {
            policy,
            current_group: initial,
            max_group,
            promotions: 0,
            device,
        }
    }

    /// The acceleration group the device currently requests.
    pub fn current_group(&self) -> AccelerationGroupId {
        self.current_group
    }

    /// Number of promotions performed so far.
    pub fn promotions(&self) -> u32 {
        self.promotions
    }

    /// The device profile this moderator runs on.
    pub fn device(&self) -> &DeviceProfile {
        &self.device
    }

    /// Observes a completed request with the given end-to-end response time
    /// and current battery level, and decides whether to request a higher
    /// acceleration group for subsequent requests.
    ///
    /// Promotion is sequential — one level at a time — as in §IV-A ("a user is
    /// gradually promoted in a sequential manner to a higher acceleration
    /// group").
    pub fn observe<R: Rng + ?Sized>(
        &mut self,
        response_ms: f64,
        battery_percent: f64,
        rng: &mut R,
    ) -> ModeratorEvent {
        if self.current_group >= self.max_group {
            return ModeratorEvent::Stay;
        }
        let should_promote = match self.policy {
            PromotionPolicy::Probabilistic { probability } => {
                rng.gen_bool(probability.clamp(0.0, 1.0))
            }
            PromotionPolicy::ResponseTimeThreshold { threshold_ms } => response_ms > threshold_ms,
            PromotionPolicy::BatteryAware {
                battery_threshold_percent,
                latency_threshold_ms,
            } => battery_percent < battery_threshold_percent || response_ms > latency_threshold_ms,
            PromotionPolicy::Never => false,
        };
        if should_promote {
            self.current_group = self.current_group.promoted();
            self.promotions += 1;
            ModeratorEvent::Promote(self.current_group)
        } else {
            ModeratorEvent::Stay
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::DeviceClass;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn moderator(policy: PromotionPolicy) -> Moderator {
        Moderator::new(
            DeviceProfile::for_class(DeviceClass::Legacy),
            policy,
            AccelerationGroupId(1),
            AccelerationGroupId(3),
        )
    }

    #[test]
    fn never_policy_never_promotes() {
        let mut m = moderator(PromotionPolicy::Never);
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..500 {
            assert_eq!(m.observe(4000.0, 80.0, &mut rng), ModeratorEvent::Stay);
        }
        assert_eq!(m.current_group(), AccelerationGroupId(1));
        assert_eq!(m.promotions(), 0);
    }

    #[test]
    fn probabilistic_policy_eventually_promotes_to_max() {
        let mut m = moderator(PromotionPolicy::paper_default());
        let mut rng = StdRng::seed_from_u64(2);
        let mut promotions = 0;
        for _ in 0..1000 {
            if m.observe(1000.0, 80.0, &mut rng) != ModeratorEvent::Stay {
                promotions += 1;
            }
        }
        // With p = 1/50 and 1000 observations, reaching the 2-promotion cap is
        // essentially certain.
        assert_eq!(promotions, 2);
        assert_eq!(m.current_group(), AccelerationGroupId(3));
        assert_eq!(m.promotions(), 2);
    }

    #[test]
    fn promotion_rate_matches_one_in_fifty() {
        // Without a max-group cap, the expected promotion count over n
        // observations is n/50.
        let mut m = Moderator::new(
            DeviceProfile::default(),
            PromotionPolicy::paper_default(),
            AccelerationGroupId(0),
            AccelerationGroupId(200),
        );
        let mut rng = StdRng::seed_from_u64(3);
        // Keep the observation count low enough that the u8 group ceiling
        // (255 promotions at most) is never reached.
        let n = 5_000;
        let mut promotions = 0;
        for _ in 0..n {
            if m.observe(100.0, 50.0, &mut rng) != ModeratorEvent::Stay {
                promotions += 1;
            }
        }
        let rate = promotions as f64 / n as f64;
        assert!((rate - 0.02).abs() < 0.008, "rate {rate}");
    }

    #[test]
    fn threshold_policy_promotes_on_slow_response() {
        let mut m = moderator(PromotionPolicy::ResponseTimeThreshold {
            threshold_ms: 500.0,
        });
        let mut rng = StdRng::seed_from_u64(4);
        assert_eq!(m.observe(300.0, 80.0, &mut rng), ModeratorEvent::Stay);
        assert_eq!(
            m.observe(900.0, 80.0, &mut rng),
            ModeratorEvent::Promote(AccelerationGroupId(2))
        );
        // sequential: only one level per observation
        assert_eq!(m.current_group(), AccelerationGroupId(2));
    }

    #[test]
    fn promotion_stops_at_max_group() {
        let mut m = moderator(PromotionPolicy::ResponseTimeThreshold { threshold_ms: 1.0 });
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..10 {
            m.observe(100.0, 80.0, &mut rng);
        }
        assert_eq!(m.current_group(), AccelerationGroupId(3));
        assert_eq!(m.promotions(), 2);
    }

    #[test]
    fn battery_aware_policy_promotes_on_low_battery() {
        let mut m = moderator(PromotionPolicy::BatteryAware {
            battery_threshold_percent: 20.0,
            latency_threshold_ms: 2_000.0,
        });
        let mut rng = StdRng::seed_from_u64(7);
        assert_eq!(m.observe(500.0, 80.0, &mut rng), ModeratorEvent::Stay);
        assert_eq!(
            m.observe(500.0, 10.0, &mut rng),
            ModeratorEvent::Promote(AccelerationGroupId(2))
        );
    }
}
