//! CPU-credit (burst) model for t2 instances.
//!
//! Amazon's t2 family earns CPU credits at a fixed rate and spends one credit
//! per vCPU-minute of full utilization; when the balance reaches zero the
//! instance is throttled to its baseline share. The paper's §VI-A-4 notes
//! that the opaque behaviour of this mechanism (combined with free-tier
//! multiplexing) is the most plausible cause of the t2.nano / t2.micro
//! anomaly. We model the mechanism explicitly so that long benchmarking runs
//! exercise it.

use crate::instance::InstanceType;

/// Credit accumulator for one burstable instance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct CpuCreditModel {
    /// Credits earned per hour.
    earn_rate_per_hour: f64,
    /// Maximum credit balance that can be accumulated.
    max_credits: f64,
    /// Baseline fraction of a core available when credits are exhausted.
    baseline_fraction: f64,
    balance: f64,
}

impl CpuCreditModel {
    /// The published credit parameters for a burstable type; `None` for
    /// fixed-performance (m4/c4) instances.
    pub(crate) fn for_instance(instance_type: InstanceType) -> Option<Self> {
        let (earn, max, baseline) = match instance_type {
            InstanceType::T2Nano => (3.0, 72.0, 0.05),
            InstanceType::T2Micro => (6.0, 144.0, 0.10),
            InstanceType::T2Small => (12.0, 288.0, 0.20),
            InstanceType::T2Medium => (24.0, 576.0, 0.40),
            InstanceType::T2Large => (36.0, 864.0, 0.60),
            _ => return None,
        };
        Some(Self {
            earn_rate_per_hour: earn,
            max_credits: max,
            baseline_fraction: baseline,
            balance: max, // instances launch with a full initial balance
        })
    }

    /// Whether the instance is currently throttled to its baseline.
    fn is_throttled(&self) -> bool {
        self.balance <= 0.0
    }

    /// The speed multiplier to apply to the instance's cores right now.
    pub(crate) fn speed_multiplier(&self) -> f64 {
        if self.is_throttled() {
            self.baseline_fraction
        } else {
            1.0
        }
    }

    /// Advances the model by `elapsed_ms` of wall-clock time during which the
    /// instance ran at `utilization` (0–1, averaged over all vCPUs, where 1.0
    /// means every core fully busy). Returns the speed multiplier that applied
    /// during the interval.
    pub(crate) fn advance(&mut self, elapsed_ms: f64, utilization: f64, vcpus: u32) -> f64 {
        let hours = elapsed_ms.max(0.0) / 3_600_000.0;
        let multiplier = self.speed_multiplier();
        // one credit = one vCPU running at 100% for one minute
        let spent = utilization.clamp(0.0, 1.0) * f64::from(vcpus) * hours * 60.0;
        let earned = self.earn_rate_per_hour * hours;
        self.balance = (self.balance + earned - spent).clamp(0.0, self.max_credits);
        multiplier
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn only_t2_family_is_burstable() {
        assert!(CpuCreditModel::for_instance(InstanceType::T2Nano).is_some());
        assert!(CpuCreditModel::for_instance(InstanceType::T2Large).is_some());
        assert!(CpuCreditModel::for_instance(InstanceType::M4_10XLarge).is_none());
        assert!(CpuCreditModel::for_instance(InstanceType::C4_8XLarge).is_none());
    }

    #[test]
    fn fresh_instance_is_not_throttled() {
        let m = CpuCreditModel::for_instance(InstanceType::T2Micro).unwrap();
        assert!(!m.is_throttled());
        assert_eq!(m.speed_multiplier(), 1.0);
        assert!(m.balance > 0.0);
    }

    #[test]
    fn sustained_full_load_exhausts_credits() {
        let mut m = CpuCreditModel::for_instance(InstanceType::T2Nano).unwrap();
        // full utilization for 3 hours: spends 60/h, earns 3/h, initial 72
        for _ in 0..36 {
            m.advance(5.0 * 60_000.0, 1.0, 1);
        }
        assert!(m.is_throttled(), "balance {}", m.balance);
        assert_eq!(m.speed_multiplier(), 0.05);
    }

    #[test]
    fn idle_instance_recovers_credits() {
        let mut m = CpuCreditModel::for_instance(InstanceType::T2Small).unwrap();
        m.advance(3.0 * 3_600_000.0, 1.0, 1); // drain hard
        let drained = m.balance;
        m.advance(2.0 * 3_600_000.0, 0.0, 1); // idle for 2 h -> +24 credits
        assert!(m.balance > drained);
        assert!(!m.is_throttled());
    }

    #[test]
    fn balance_is_capped() {
        let mut m = CpuCreditModel::for_instance(InstanceType::T2Medium).unwrap();
        m.advance(100.0 * 3_600_000.0, 0.0, 2);
        assert!((m.balance - m.max_credits).abs() < 1e-9);
    }

    #[test]
    fn light_load_never_throttles() {
        // Utilization at the baseline fraction is sustainable indefinitely.
        let mut m = CpuCreditModel::for_instance(InstanceType::T2Large).unwrap();
        for _ in 0..1000 {
            m.advance(60_000.0, 0.25, 2); // 0.25*2 = 0.5 credits/min vs earn 0.6/min
            assert!(!m.is_throttled());
        }
    }

    #[test]
    fn advance_returns_multiplier_in_force_during_interval() {
        let mut m = CpuCreditModel::for_instance(InstanceType::T2Nano).unwrap();
        assert_eq!(m.advance(1_000.0, 1.0, 1), 1.0);
        // exhaust
        m.advance(10.0 * 3_600_000.0, 1.0, 1);
        assert_eq!(m.advance(1_000.0, 1.0, 1), 0.05);
    }
}
