//! Battery model.
//!
//! Battery level is part of every trace record logged by the SDN-accelerator
//! (`<timestamp, user-id, acceleration-group, battery-level, rtt>`), and the
//! discussion in §VII-3 sketches a battery-aware promotion policy. This model
//! keeps the energy accounting simple: a capacity in milliwatt-hours drained
//! by (power, duration) pairs.

/// A battery with a fixed capacity.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Battery {
    capacity_mwh: f64,
    remaining_mwh: f64,
}

impl Battery {
    /// Creates a full battery of the given capacity (milliwatt-hours).
    ///
    /// # Panics
    ///
    /// Panics if the capacity is not strictly positive.
    pub fn new(capacity_mwh: f64) -> Self {
        assert!(capacity_mwh > 0.0, "battery capacity must be positive");
        Self {
            capacity_mwh,
            remaining_mwh: capacity_mwh,
        }
    }

    /// Remaining charge as a percentage in `[0, 100]`.
    pub fn level_percent(&self) -> f64 {
        (self.remaining_mwh / self.capacity_mwh * 100.0).clamp(0.0, 100.0)
    }

    /// Remaining energy in milliwatt-hours.
    pub fn remaining_mwh(&self) -> f64 {
        self.remaining_mwh
    }

    /// Drains the battery by running a load of `power_mw` for `duration_ms`.
    /// Returns the energy actually consumed in milliwatt-hours (less than the
    /// request if the battery ran out).
    pub fn drain(&mut self, power_mw: f64, duration_ms: f64) -> f64 {
        let requested_mwh = (power_mw.max(0.0) * duration_ms.max(0.0)) / 3_600_000.0;
        let consumed = requested_mwh.min(self.remaining_mwh);
        self.remaining_mwh -= consumed;
        consumed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_battery_is_full() {
        let b = Battery::new(10_000.0);
        assert_eq!(b.level_percent(), 100.0);
        assert_eq!(b.remaining_mwh(), 10_000.0);
    }

    #[test]
    fn drain_accounts_energy() {
        let mut b = Battery::new(3_600.0); // 3600 mWh
                                           // 1000 mW for one hour = 1000 mWh
        let consumed = b.drain(1_000.0, 3_600_000.0);
        assert!((consumed - 1_000.0).abs() < 1e-9);
        assert!((b.remaining_mwh() - 2_600.0).abs() < 1e-9);
        assert!((b.level_percent() - 72.222).abs() < 0.01);
    }

    #[test]
    fn drain_saturates_at_zero() {
        let mut b = Battery::new(1.0);
        let consumed = b.drain(1_000_000.0, 3_600_000.0);
        assert!((consumed - 1.0).abs() < 1e-9);
        assert_eq!(b.remaining_mwh(), 0.0);
        assert_eq!(b.level_percent(), 0.0);
        // further draining consumes nothing
        assert_eq!(b.drain(1_000.0, 1_000.0), 0.0);
    }

    #[test]
    fn negative_inputs_consume_nothing() {
        let mut b = Battery::new(100.0);
        assert_eq!(b.drain(-5.0, 1000.0), 0.0);
        assert_eq!(b.drain(5.0, -1000.0), 0.0);
        assert_eq!(b.level_percent(), 100.0);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_panics() {
        let _ = Battery::new(0.0);
    }
}
