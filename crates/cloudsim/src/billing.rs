//! Hourly billing of allocated instances.
//!
//! §IV: "A provisioned instance is billed by hour by most of the cloud
//! vendors" — the allocation model exists precisely because every provisioning
//! interval costs real money. The meter accumulates instance-hours per type
//! and reports the total bill, which the allocation benchmarks compare across
//! policies.

use crate::instance::InstanceType;
use mca_snapshot::{Cursor, Restore, Snapshot, SnapshotError};
use std::collections::BTreeMap;

/// Accumulates billed instance-hours per instance type.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BillingMeter {
    hours: BTreeMap<InstanceType, f64>,
}

impl BillingMeter {
    /// Bills `count` instances of `instance_type` for `hours` hours each.
    /// Partial hours are rounded **up** per instance-allocation, as cloud
    /// vendors do. Durations within float residue of a whole hour are
    /// snapped to it first, so a tenant decommissioned *exactly* on an hour
    /// boundary — whose elapsed time sums to, say, `1.0000000000000002`
    /// hours of accumulated slot lengths — is not billed the next hour.
    pub(crate) fn bill(&mut self, instance_type: InstanceType, count: usize, hours: f64) {
        let raw = hours.max(0.0);
        let nearest = raw.round();
        let whole = if (raw - nearest).abs() < 1e-9 {
            nearest
        } else {
            raw.ceil()
        };
        let billed = whole.max(if count > 0 && raw > 0.0 { 1.0 } else { 0.0 });
        if count == 0 || billed == 0.0 {
            return;
        }
        *self.hours.entry(instance_type).or_insert(0.0) += billed * count as f64;
    }

    /// Total cost in USD.
    pub fn total_cost(&self) -> f64 {
        self.hours
            .iter()
            .map(|(t, h)| t.spec().cost_per_hour * h)
            .sum()
    }
}

impl Snapshot for BillingMeter {
    fn encode(&self, out: &mut Vec<u8>) {
        self.hours.encode(out);
    }
}

impl Restore for BillingMeter {
    fn decode(cur: &mut Cursor<'_>) -> Result<Self, SnapshotError> {
        Ok(Self {
            hours: BTreeMap::<InstanceType, f64>::decode(cur)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Billed instance-hours for one type.
    fn hours_for(meter: &BillingMeter, instance_type: InstanceType) -> f64 {
        meter.hours.get(&instance_type).copied().unwrap_or(0.0)
    }

    #[test]
    fn partial_hours_round_up() {
        let mut m = BillingMeter::default();
        m.bill(InstanceType::T2Large, 2, 0.5);
        assert_eq!(hours_for(&m, InstanceType::T2Large), 2.0);
        m.bill(InstanceType::T2Large, 1, 1.2);
        assert_eq!(hours_for(&m, InstanceType::T2Large), 4.0);
    }

    #[test]
    fn hour_boundary_residue_does_not_bill_the_next_hour() {
        // eleven 1/11-hour slots accumulate to 1.0000000000000002 hours in
        // f64; a tenant decommissioned on that boundary owes one hour
        let hours = (0..11).map(|_| 3_600_000.0f64 / 11.0).sum::<f64>() / 3_600_000.0;
        assert!(hours > 1.0, "the test needs the residue to exist");
        let mut m = BillingMeter::default();
        m.bill(InstanceType::T2Large, 1, hours);
        assert_eq!(hours_for(&m, InstanceType::T2Large), 1.0);
        // a genuine partial hour still rounds up
        let mut m = BillingMeter::default();
        m.bill(InstanceType::T2Large, 1, 1.001);
        assert_eq!(hours_for(&m, InstanceType::T2Large), 2.0);
    }

    #[test]
    fn zero_count_or_duration_bills_nothing() {
        let mut m = BillingMeter::default();
        m.bill(InstanceType::T2Nano, 0, 5.0);
        m.bill(InstanceType::T2Nano, 3, 0.0);
        assert_eq!(m, BillingMeter::default());
        assert_eq!(m.total_cost(), 0.0);
    }

    #[test]
    fn cost_uses_catalogue_prices() {
        let mut m = BillingMeter::default();
        m.bill(InstanceType::T2Nano, 10, 1.0);
        m.bill(InstanceType::M4_10XLarge, 1, 1.0);
        let expected = 10.0 * 0.0063 + 2.377;
        assert!((m.total_cost() - expected).abs() < 1e-9);
    }

    #[test]
    fn big_instances_dominate_the_bill() {
        // The motivation for the allocation model: one m4.10xlarge hour costs
        // more than 300 t2.nano hours.
        let mut nano = BillingMeter::default();
        nano.bill(InstanceType::T2Nano, 300, 1.0);
        let mut m4 = BillingMeter::default();
        m4.bill(InstanceType::M4_10XLarge, 1, 1.0);
        assert!(m4.total_cost() > nano.total_cost());
    }

    #[test]
    fn iteration_and_accumulation() {
        let mut m = BillingMeter::default();
        m.bill(InstanceType::T2Small, 1, 2.0);
        m.bill(InstanceType::T2Medium, 2, 1.0);
        m.bill(InstanceType::T2Small, 1, 0.5);
        // hours accumulate per type, whatever order they were billed in
        let mut reordered = BillingMeter::default();
        reordered.bill(InstanceType::T2Medium, 1, 2.0);
        reordered.bill(InstanceType::T2Small, 3, 1.0);
        assert_eq!(m, reordered);
        assert_eq!(hours_for(&m, InstanceType::T2Small), 3.0);
        assert!((m.total_cost() - (3.0 * 0.025 + 2.0 * 0.05)).abs() < 1e-12);
    }
}
