//! Parameterized experiment schedules.
//!
//! Two schedules appear in the paper's evaluation:
//!
//! * the **arrival-rate doubling** scenario of §VI-B-3 / Fig. 8b: the
//!   inter-arrival rate of requests doubles every five minutes from 1 Hz to
//!   1024 Hz, which drives a single t2.large past its saturation point, and
//! * **ramp** scenarios that grow (or shrink) the active user population over
//!   consecutive provisioning slots — the "quickly growing load" situation
//!   discussed in §IV-B-2 that the predictor handles conservatively.

/// One step of a rate schedule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RateStep {
    /// Offered arrival rate during the step, Hz.
    pub arrival_hz: f64,
    /// Time at which the step starts, ms.
    pub start_ms: f64,
    /// Duration of the step, ms.
    pub duration_ms: f64,
}

/// The Fig. 8b schedule: the arrival rate doubles every `step_duration_ms`
/// from `start_hz` until `end_hz` (inclusive).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DoublingRateScenario {
    /// Rate of the first step, Hz.
    pub start_hz: f64,
    /// Rate of the last step, Hz (inclusive; must be `start_hz * 2^k`).
    pub end_hz: f64,
    /// Duration of each step, ms.
    pub step_duration_ms: f64,
}

impl DoublingRateScenario {
    /// The paper's configuration: 1 Hz → 1024 Hz, doubling every 5 minutes.
    pub fn paper_default() -> Self {
        Self {
            start_hz: 1.0,
            end_hz: 1024.0,
            step_duration_ms: 5.0 * 60_000.0,
        }
    }

    /// The schedule as explicit steps.
    pub fn steps(&self) -> Vec<RateStep> {
        let mut steps = Vec::new();
        let mut hz = self.start_hz;
        let mut start = 0.0;
        while hz <= self.end_hz * (1.0 + 1e-9) {
            steps.push(RateStep {
                arrival_hz: hz,
                start_ms: start,
                duration_ms: self.step_duration_ms,
            });
            start += self.step_duration_ms;
            hz *= 2.0;
        }
        steps
    }
}

/// A user-population ramp across provisioning slots: the number of active
/// users changes linearly from `start_users` to `end_users` over `slots`
/// slots.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RampScenario {
    /// Users in the first slot.
    pub start_users: usize,
    /// Users in the last slot.
    pub end_users: usize,
    /// Number of slots in the ramp.
    pub slots: usize,
}

impl RampScenario {
    /// Users active in slot `index` (0-based). Indices beyond the ramp hold
    /// the final value.
    ///
    /// # Panics
    ///
    /// Panics if the scenario has zero slots.
    pub(crate) fn users_in_slot(&self, index: usize) -> usize {
        assert!(self.slots > 0, "ramp needs at least one slot");
        if self.slots == 1 || index + 1 >= self.slots {
            return self.end_users;
        }
        let t = index as f64 / (self.slots - 1) as f64;
        let users = self.start_users as f64 + t * (self.end_users as f64 - self.start_users as f64);
        users.round() as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Users in every slot of the ramp.
    fn per_slot(ramp: &RampScenario) -> Vec<usize> {
        (0..ramp.slots).map(|i| ramp.users_in_slot(i)).collect()
    }

    #[test]
    fn paper_schedule_has_eleven_steps() {
        let s = DoublingRateScenario::paper_default();
        let steps = s.steps();
        assert_eq!(steps.len(), 11); // 1,2,4,...,1024
        assert_eq!(steps[0].arrival_hz, 1.0);
        assert_eq!(steps[10].arrival_hz, 1024.0);
        let last = steps[10];
        assert_eq!(last.start_ms + last.duration_ms, 11.0 * 5.0 * 60_000.0);
    }

    #[test]
    fn steps_are_contiguous_and_doubling() {
        let steps = DoublingRateScenario::paper_default().steps();
        for pair in steps.windows(2) {
            assert_eq!(pair[1].arrival_hz, pair[0].arrival_hz * 2.0);
            assert!((pair[1].start_ms - (pair[0].start_ms + pair[0].duration_ms)).abs() < 1e-9);
        }
    }

    #[test]
    fn custom_schedule_respects_bounds() {
        let s = DoublingRateScenario {
            start_hz: 2.0,
            end_hz: 16.0,
            step_duration_ms: 1_000.0,
        };
        let rates: Vec<f64> = s.steps().iter().map(|x| x.arrival_hz).collect();
        assert_eq!(rates, vec![2.0, 4.0, 8.0, 16.0]);
    }

    #[test]
    fn ramp_interpolates_linearly() {
        let ramp = RampScenario {
            start_users: 10,
            end_users: 100,
            slots: 10,
        };
        let users = per_slot(&ramp);
        assert_eq!(users.len(), 10);
        assert_eq!(users[0], 10);
        assert_eq!(users[9], 100);
        assert!(users.windows(2).all(|w| w[1] >= w[0]));
    }

    #[test]
    fn ramp_handles_decreasing_and_degenerate_cases() {
        let down = RampScenario {
            start_users: 50,
            end_users: 20,
            slots: 4,
        };
        assert_eq!(per_slot(&down), vec![50, 40, 30, 20]);
        let single = RampScenario {
            start_users: 5,
            end_users: 9,
            slots: 1,
        };
        assert_eq!(per_slot(&single), vec![9]);
        // beyond the ramp the last value holds
        assert_eq!(down.users_in_slot(100), 20);
    }

    #[test]
    #[should_panic(expected = "at least one slot")]
    fn zero_slot_ramp_panics() {
        let ramp = RampScenario {
            start_users: 1,
            end_users: 2,
            slots: 0,
        };
        let _ = ramp.users_in_slot(0);
    }
}
