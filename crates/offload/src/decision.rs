//! The offload-or-execute-locally decision rule.
//!
//! §II-A: *"A smartphone delegates a task to a remote server, if and only if,
//! the computational effort required for the device to delegate the task is
//! less than the actual effort required to process the task by itself."*
//!
//! The decision engine compares the estimated cost of remote execution
//! (serialization + uplink transfer + remote execution + downlink) against
//! local execution on the device, in both time and energy, and produces an
//! [`OffloadDecision`]. The SDN architecture sits behind this decision: only
//! requests that decide to offload reach the accelerator.

/// The costs the decision engine weighs for a candidate task.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DecisionInput {
    /// Work units of the task (1 work unit = 1 ms on a reference cloud core).
    pub work_units: f64,
    /// Device execution speed as a fraction of the reference cloud core
    /// (e.g. 0.2 means the device is 5× slower).
    pub device_speed_factor: f64,
    /// Expected cloud execution speed factor for the device's current
    /// acceleration group (≥ 1.0 for every level in the paper).
    pub cloud_speed_factor: f64,
    /// Round-trip network latency (mobile ↔ front-end), milliseconds.
    pub network_rtt_ms: f64,
    /// Bytes that must be uploaded (serialized application state).
    pub payload_bytes: usize,
    /// Uplink bandwidth in bytes per millisecond.
    pub uplink_bytes_per_ms: f64,
    /// Constant front-end routing overhead (the ≈150 ms SDN cost), ms.
    pub routing_overhead_ms: f64,
    /// Device active-execution power draw, milliwatts.
    pub device_active_power_mw: f64,
    /// Device radio transmission power draw, milliwatts.
    pub device_radio_power_mw: f64,
}

impl DecisionInput {
    /// Estimated time to execute the task locally on the device, ms.
    pub fn local_time_ms(&self) -> f64 {
        self.work_units / self.device_speed_factor.max(1e-9)
    }

    /// Estimated end-to-end time when offloading, ms.
    pub fn remote_time_ms(&self) -> f64 {
        let transfer = self.payload_bytes as f64 / self.uplink_bytes_per_ms.max(1e-9);
        let exec = self.work_units / self.cloud_speed_factor.max(1e-9);
        self.network_rtt_ms + transfer + self.routing_overhead_ms + exec
    }

    /// Estimated energy for local execution, millijoules.
    pub fn local_energy_mj(&self) -> f64 {
        self.device_active_power_mw * self.local_time_ms() / 1000.0
    }

    /// Estimated energy for offloading (radio active while transferring and
    /// waiting), millijoules.
    pub fn remote_energy_mj(&self) -> f64 {
        self.device_radio_power_mw * self.remote_time_ms() / 1000.0
    }
}

/// Outcome of evaluating the offloading rule for one task.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum OffloadDecision {
    /// Delegate the task to the cloud; carries the predicted speed-up factor
    /// (local time / remote time).
    Offload {
        /// Predicted local-to-remote time ratio (> 1 means offloading is
        /// faster).
        predicted_speedup: f64,
    },
    /// Execute locally; carries the predicted slowdown that offloading would
    /// have caused.
    ExecuteLocally {
        /// Predicted local-to-remote time ratio (≤ 1 here).
        predicted_speedup: f64,
    },
}

impl OffloadDecision {
    /// Whether the decision is to offload.
    pub fn is_offload(self) -> bool {
        matches!(self, OffloadDecision::Offload { .. })
    }

    /// The predicted local/remote speed-up regardless of the decision.
    pub fn predicted_speedup(self) -> f64 {
        match self {
            OffloadDecision::Offload { predicted_speedup }
            | OffloadDecision::ExecuteLocally { predicted_speedup } => predicted_speedup,
        }
    }
}

/// Policy weights for the decision rule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DecisionEngine {
    /// Weight of the time objective in \[0, 1\]; the energy objective gets the
    /// complement. 1.0 reproduces the paper's pure performance focus
    /// (assumption (d) in §IV).
    pub time_weight: f64,
    /// Minimum combined benefit ratio required to offload (1.0 = offload on
    /// any predicted improvement; higher values are more conservative).
    pub benefit_threshold: f64,
}

impl Default for DecisionEngine {
    fn default() -> Self {
        Self {
            time_weight: 1.0,
            benefit_threshold: 1.0,
        }
    }
}

impl DecisionEngine {
    /// Creates an engine that weighs time and energy equally.
    pub fn balanced() -> Self {
        Self {
            time_weight: 0.5,
            benefit_threshold: 1.0,
        }
    }

    /// Applies the offloading rule to a candidate task.
    pub fn decide(&self, input: &DecisionInput) -> OffloadDecision {
        let time_ratio = input.local_time_ms() / input.remote_time_ms().max(1e-9);
        let energy_ratio = input.local_energy_mj() / input.remote_energy_mj().max(1e-9);
        let w = self.time_weight.clamp(0.0, 1.0);
        let combined = w * time_ratio + (1.0 - w) * energy_ratio;
        if combined > self.benefit_threshold {
            OffloadDecision::Offload {
                predicted_speedup: time_ratio,
            }
        } else {
            OffloadDecision::ExecuteLocally {
                predicted_speedup: time_ratio,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base_input() -> DecisionInput {
        DecisionInput {
            work_units: 400.0,
            device_speed_factor: 0.2,
            cloud_speed_factor: 1.0,
            network_rtt_ms: 40.0,
            payload_bytes: 4000,
            uplink_bytes_per_ms: 2000.0,
            routing_overhead_ms: 150.0,
            device_active_power_mw: 2000.0,
            device_radio_power_mw: 1200.0,
        }
    }

    #[test]
    fn heavy_task_on_slow_device_offloads() {
        let input = base_input();
        // local: 400 / 0.2 = 2000 ms; remote: 40 + 2 + 150 + 400 = 592 ms
        let decision = DecisionEngine::default().decide(&input);
        assert!(decision.is_offload());
        assert!(decision.predicted_speedup() > 3.0);
    }

    #[test]
    fn light_task_stays_local() {
        let input = DecisionInput {
            work_units: 20.0,
            ..base_input()
        };
        // local: 100 ms; remote: 40 + 2 + 150 + 20 = 212 ms
        let decision = DecisionEngine::default().decide(&input);
        assert!(!decision.is_offload());
        assert!(decision.predicted_speedup() < 1.0);
    }

    #[test]
    fn fast_device_prefers_local() {
        let input = DecisionInput {
            device_speed_factor: 1.5,
            ..base_input()
        };
        // local: 267 ms; remote: 592 ms
        assert!(!DecisionEngine::default().decide(&input).is_offload());
    }

    #[test]
    fn higher_acceleration_makes_offloading_attractive_again() {
        let borderline = DecisionInput {
            work_units: 60.0,
            ..base_input()
        };
        // local 300 ms; remote at level 1: 40 + 2 + 150 + 60 = 252 -> offload already.
        // Make routing expensive so the level-1 offload is rejected:
        let expensive = DecisionInput {
            routing_overhead_ms: 400.0,
            ..borderline
        };
        assert!(!DecisionEngine::default().decide(&expensive).is_offload());
        // A level-3 group (1.73× acceleration) doesn't change verdict much here,
        // but a big cloud speed-up together with lower routing does:
        let faster = DecisionInput {
            cloud_speed_factor: 1.73,
            routing_overhead_ms: 150.0,
            ..borderline
        };
        assert!(DecisionEngine::default().decide(&faster).is_offload());
    }

    #[test]
    fn energy_aware_engine_can_differ_from_time_only() {
        // Construct a case where time favours local but energy favours remote:
        // radio power much lower than compute power.
        let input = DecisionInput {
            work_units: 50.0,
            device_speed_factor: 0.5,
            device_active_power_mw: 4000.0,
            device_radio_power_mw: 100.0,
            ..base_input()
        };
        // local: 100 ms, remote: 40 + 2 + 150 + 50 = 242 ms -> time says local
        assert!(!DecisionEngine::default().decide(&input).is_offload());
        // energy: local = 4000*0.1 = 400 mJ, remote = 100*0.242 = 24 mJ -> offload
        let energy_only = DecisionEngine {
            time_weight: 0.0,
            benefit_threshold: 1.0,
        };
        assert!(energy_only.decide(&input).is_offload());
    }

    #[test]
    fn threshold_makes_engine_conservative() {
        let input = DecisionInput {
            work_units: 150.0,
            ..base_input()
        };
        // local 750, remote 342 -> ratio ~2.2
        assert!(DecisionEngine::default().decide(&input).is_offload());
        let conservative = DecisionEngine {
            time_weight: 1.0,
            benefit_threshold: 3.0,
        };
        assert!(!conservative.decide(&input).is_offload());
    }

    #[test]
    fn cost_estimates_are_positive_and_consistent() {
        let input = base_input();
        assert!(input.local_time_ms() > 0.0);
        assert!(input.remote_time_ms() > input.network_rtt_ms);
        assert!(input.local_energy_mj() > 0.0);
        assert!(input.remote_energy_mj() > 0.0);
    }
}
