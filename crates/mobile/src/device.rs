//! Mobile device profiles.
//!
//! The paper motivates the whole system with the observation that "complex
//! routines … can be computed easily by last generation smartphones but can
//! be expensive to compute on older devices and wearables" (§I). A profile
//! carries what the closed-loop simulator charges a device for: the battery
//! it starts with and the power its radio draws while a request is in
//! flight.

/// Category of mobile hardware in the deployed application's install base.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DeviceClass {
    /// Last-generation smartphone: handles the heavy routines locally.
    Flagship,
    /// Mid-range smartphone.
    MidRange,
    /// Several-generations-old smartphone.
    Legacy,
    /// Wearable (watch-class) device — the weakest profile.
    Wearable,
}

/// Hardware profile of a mobile device.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeviceProfile {
    /// The device class this profile describes.
    pub class: DeviceClass,
    /// Battery capacity in milliwatt-hours.
    pub battery_capacity_mwh: f64,
    /// Power drawn while the cellular radio is transferring/waiting, mW.
    pub radio_power_mw: f64,
}

impl DeviceProfile {
    /// Representative profile for a device class.
    pub fn for_class(class: DeviceClass) -> Self {
        let (battery_capacity_mwh, radio_power_mw) = match class {
            DeviceClass::Flagship => (15_000.0, 1_300.0),
            DeviceClass::MidRange => (11_000.0, 1_200.0),
            DeviceClass::Legacy => (7_500.0, 1_100.0),
            DeviceClass::Wearable => (1_500.0, 500.0),
        };
        Self {
            class,
            battery_capacity_mwh,
            radio_power_mw,
        }
    }
}

impl Default for DeviceProfile {
    fn default() -> Self {
        Self::for_class(DeviceClass::MidRange)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_profile_is_midrange() {
        assert_eq!(DeviceProfile::default().class, DeviceClass::MidRange);
    }
}
