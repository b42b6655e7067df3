//! Mobile device profiles.
//!
//! Execution speed is expressed relative to the reference cloud core used by
//! the task work model (`mca-offload`): a speed factor of 0.2 means the
//! device takes five times as long as a level-1 cloud core for the same task.

use mca_offload::TaskSpec;
use std::fmt;

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

impl DeviceClass {
    /// All device classes, strongest first.
    pub const ALL: [DeviceClass; 4] = [
        DeviceClass::Flagship,
        DeviceClass::MidRange,
        DeviceClass::Legacy,
        DeviceClass::Wearable,
    ];
}

impl fmt::Display for DeviceClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            DeviceClass::Flagship => "flagship",
            DeviceClass::MidRange => "mid-range",
            DeviceClass::Legacy => "legacy",
            DeviceClass::Wearable => "wearable",
        })
    }
}

/// Hardware profile of a mobile device.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeviceProfile {
    /// The device class this profile describes.
    pub class: DeviceClass,
    /// Execution speed relative to a reference level-1 cloud core.
    pub speed_factor: f64,
    /// Battery capacity in milliwatt-hours.
    pub battery_capacity_mwh: f64,
    /// Power drawn while executing code locally, milliwatts.
    pub active_power_mw: f64,
    /// Power drawn while the cellular radio is transferring/waiting, mW.
    pub radio_power_mw: f64,
    /// Baseline idle power, milliwatts.
    pub idle_power_mw: f64,
}

impl DeviceProfile {
    /// Representative profile for a device class.
    pub fn for_class(class: DeviceClass) -> Self {
        match class {
            DeviceClass::Flagship => Self {
                class,
                speed_factor: 0.55,
                battery_capacity_mwh: 15_000.0,
                active_power_mw: 2_600.0,
                radio_power_mw: 1_300.0,
                idle_power_mw: 60.0,
            },
            DeviceClass::MidRange => Self {
                class,
                speed_factor: 0.30,
                battery_capacity_mwh: 11_000.0,
                active_power_mw: 2_100.0,
                radio_power_mw: 1_200.0,
                idle_power_mw: 55.0,
            },
            DeviceClass::Legacy => Self {
                class,
                speed_factor: 0.16,
                battery_capacity_mwh: 7_500.0,
                active_power_mw: 1_800.0,
                radio_power_mw: 1_100.0,
                idle_power_mw: 50.0,
            },
            DeviceClass::Wearable => Self {
                class,
                speed_factor: 0.06,
                battery_capacity_mwh: 1_500.0,
                active_power_mw: 700.0,
                radio_power_mw: 500.0,
                idle_power_mw: 15.0,
            },
        }
    }

    /// Time to execute `task` locally on this device, in milliseconds.
    pub fn local_execution_ms(&self, task: &TaskSpec) -> f64 {
        task.work_units() / self.speed_factor.max(1e-9)
    }

    /// Energy to execute `task` locally, in millijoules.
    pub fn local_execution_energy_mj(&self, task: &TaskSpec) -> f64 {
        self.active_power_mw * self.local_execution_ms(task) / 1000.0
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
    use mca_offload::TaskKind;

    #[test]
    fn stronger_classes_are_faster() {
        let task = TaskSpec::paper_static_minimax();
        let times: Vec<f64> = DeviceClass::ALL
            .iter()
            .map(|&c| DeviceProfile::for_class(c).local_execution_ms(&task))
            .collect();
        // ALL is ordered strongest first, so times must be increasing.
        assert!(times.windows(2).all(|w| w[0] < w[1]), "{times:?}");
    }

    #[test]
    fn minimax_takes_seconds_on_weak_devices() {
        // The paper's Fig. 9b shows ≈2.5 s perceived response time for a
        // non-promoted user; local execution on legacy hardware should be in
        // the same order of magnitude.
        let task = TaskSpec::paper_static_minimax();
        let legacy = DeviceProfile::for_class(DeviceClass::Legacy).local_execution_ms(&task);
        assert!(
            legacy > 1_000.0 && legacy < 10_000.0,
            "legacy minimax {legacy} ms"
        );
        let wearable = DeviceProfile::for_class(DeviceClass::Wearable).local_execution_ms(&task);
        assert!(wearable > legacy);
    }

    #[test]
    fn all_devices_slower_than_reference_cloud_core() {
        let task = TaskSpec::paper_static_minimax();
        for class in DeviceClass::ALL {
            let p = DeviceProfile::for_class(class);
            assert!(p.speed_factor < 1.0);
            assert!(p.local_execution_ms(&task) > task.work_units());
        }
    }

    #[test]
    fn energy_scales_with_time_and_power() {
        let task = TaskSpec::new(TaskKind::Minimax, 8);
        let p = DeviceProfile::for_class(DeviceClass::MidRange);
        let expected = p.active_power_mw * p.local_execution_ms(&task) / 1000.0;
        assert!((p.local_execution_energy_mj(&task) - expected).abs() < 1e-9);
    }

    #[test]
    fn default_profile_is_midrange() {
        assert_eq!(DeviceProfile::default().class, DeviceClass::MidRange);
    }

    #[test]
    fn display_names() {
        assert_eq!(DeviceClass::Wearable.to_string(), "wearable");
        assert_eq!(DeviceClass::MidRange.to_string(), "mid-range");
    }
}
