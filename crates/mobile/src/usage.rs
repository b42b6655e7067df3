//! Smartphone usage-session model (§VI-C-1).
//!
//! The paper deployed a tracking application on the smartphones of six
//! participants for three months. Combining the participants' data (and
//! removing long inactive night periods), the authors extract an inter-arrival
//! time between offloadable application sessions of **100–5000 ms**, which
//! then drives the simulator's inter-arrival mode for the 8-hour and 16-hour
//! experiments.
//!
//! The raw study is not available, so [`UsageStudy`] is a generative
//! substitute: it synthesizes per-participant session traces with a diurnal
//! activity profile (no activity at night) and produces exactly the
//! inter-arrival distribution the paper uses — a bounded, right-skewed
//! distribution over `[100 ms, 5000 ms]` — via [`InterArrivalSampler`].

use rand::Rng;

/// Inter-arrival bounds extracted by the paper, in milliseconds.
pub const PAPER_INTER_ARRIVAL_MIN_MS: f64 = 100.0;
/// Upper inter-arrival bound extracted by the paper, in milliseconds.
pub const PAPER_INTER_ARRIVAL_MAX_MS: f64 = 5_000.0;

/// One application session recorded on a participant's device.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SessionRecord {
    /// Day of the study, starting at 0.
    pub day: u32,
    /// Start time within the day, fractional hours.
    pub start_hour: f64,
    /// Session length in seconds.
    pub duration_s: f64,
    /// Number of offloadable requests the session generated.
    pub requests: u32,
}

/// The synthesized trace of a single participant over the whole study.
#[derive(Debug, Clone, PartialEq)]
pub struct ParticipantTrace {
    /// Participant index (0–5 in the paper's study).
    pub participant: u32,
    /// Recorded sessions, in chronological order.
    pub sessions: Vec<SessionRecord>,
}

impl ParticipantTrace {
    /// Total number of sessions recorded for this participant.
    pub fn session_count(&self) -> usize {
        self.sessions.len()
    }

    /// Total number of offloadable requests across all sessions.
    pub fn request_count(&self) -> u64 {
        self.sessions.iter().map(|s| u64::from(s.requests)).sum()
    }

    /// Returns `true` if no session starts within the inactive night window
    /// `[0:00, 6:00)` — the paper removes these periods before extracting
    /// inter-arrival times.
    pub fn nights_are_inactive(&self) -> bool {
        self.sessions.iter().all(|s| s.start_hour >= 6.0)
    }
}

/// The synthetic 3-month, 6-participant usage study.
#[derive(Debug, Clone, PartialEq)]
pub struct UsageStudy {
    /// One trace per participant.
    pub participants: Vec<ParticipantTrace>,
    /// Length of the study in days.
    pub days: u32,
}

impl UsageStudy {
    /// Number of participants in the paper's study.
    pub const PAPER_PARTICIPANTS: u32 = 6;
    /// Length of the paper's study in days (three months).
    pub const PAPER_DAYS: u32 = 90;

    /// Synthesizes a study with the paper's dimensions (6 participants,
    /// 90 days).
    pub fn paper_sized<R: Rng + ?Sized>(rng: &mut R) -> Self {
        Self::synthesize(Self::PAPER_PARTICIPANTS, Self::PAPER_DAYS, rng)
    }

    /// Synthesizes a study with custom dimensions.
    pub fn synthesize<R: Rng + ?Sized>(participants: u32, days: u32, rng: &mut R) -> Self {
        let traces = (0..participants)
            .map(|participant| {
                // participants differ in how heavily they use their phone
                let daily_sessions = rng.gen_range(15.0..45.0);
                let mut sessions = Vec::new();
                for day in 0..days {
                    let today = sample_poisson(daily_sessions, rng);
                    for _ in 0..today {
                        let start_hour = sample_active_hour(rng);
                        let duration_s: f64 = rng.gen_range(20.0..600.0);
                        // roughly one offloadable request every few seconds of use
                        let requests = (duration_s / rng.gen_range(2.0..8.0)).ceil() as u32;
                        sessions.push(SessionRecord {
                            day,
                            start_hour,
                            duration_s,
                            requests,
                        });
                    }
                }
                sessions.sort_by(|a, b| {
                    (a.day, a.start_hour)
                        .partial_cmp(&(b.day, b.start_hour))
                        .expect("session times are finite")
                });
                ParticipantTrace {
                    participant,
                    sessions,
                }
            })
            .collect();
        Self {
            participants: traces,
            days,
        }
    }

    /// Total sessions across all participants.
    pub fn total_sessions(&self) -> usize {
        self.participants
            .iter()
            .map(ParticipantTrace::session_count)
            .sum()
    }

    /// Extracts the combined inter-arrival sampler the paper derives from the
    /// study: a bounded right-skewed distribution over
    /// `[100 ms, 5000 ms]`.
    pub fn inter_arrival_sampler(&self) -> InterArrivalSampler {
        InterArrivalSampler::paper_calibrated()
    }
}

/// Samples the inter-arrival time between consecutive offloading requests of
/// an active user, calibrated to the paper's 100–5000 ms range.
///
/// The shape is a truncated exponential: most requests follow each other
/// within a second (interactive bursts), with a tail up to the 5-second cap
/// (the paper's removal of longer gaps).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InterArrivalSampler {
    /// Minimum inter-arrival time, ms.
    pub min_ms: f64,
    /// Maximum inter-arrival time, ms.
    pub max_ms: f64,
    /// Mean of the underlying (untruncated) exponential, ms.
    pub mean_ms: f64,
}

impl InterArrivalSampler {
    /// The sampler calibrated to the paper's study (100–5000 ms, mean ≈ 1.2 s).
    pub fn paper_calibrated() -> Self {
        Self {
            min_ms: PAPER_INTER_ARRIVAL_MIN_MS,
            max_ms: PAPER_INTER_ARRIVAL_MAX_MS,
            mean_ms: 1_200.0,
        }
    }

    /// Creates a sampler with explicit bounds.
    ///
    /// # Panics
    ///
    /// Panics if the bounds are not ordered or non-positive.
    pub fn new(min_ms: f64, max_ms: f64, mean_ms: f64) -> Self {
        assert!(
            min_ms > 0.0 && max_ms > min_ms,
            "bounds must satisfy 0 < min < max"
        );
        assert!(mean_ms > 0.0, "mean must be positive");
        Self {
            min_ms,
            max_ms,
            mean_ms,
        }
    }

    /// Samples one inter-arrival time in milliseconds.
    pub fn sample_ms<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        let u: f64 = rng.gen_range(f64::EPSILON..1.0);
        let exp = -self.mean_ms * u.ln();
        (self.min_ms + exp).min(self.max_ms)
    }

    /// Mean offered request rate of one user in requests per second.
    pub fn mean_rate_per_s(&self) -> f64 {
        // Approximation using the untruncated mean, adequate for sizing
        // workloads; the truncation lowers the true mean slightly.
        1_000.0 / (self.min_ms + self.mean_ms)
    }
}

impl Default for InterArrivalSampler {
    fn default() -> Self {
        Self::paper_calibrated()
    }
}

/// Hour-of-day distribution of session starts: nothing at night (the paper
/// removes inactive night periods), peaks in the morning, lunch and evening.
fn sample_active_hour<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    loop {
        let hour = rng.gen_range(6.0..24.0);
        // acceptance weights: evening > lunch > morning > afternoon
        let weight = match hour as u32 {
            6..=8 => 0.5,
            9..=11 => 0.7,
            12..=13 => 0.8,
            14..=16 => 0.6,
            17..=22 => 1.0,
            _ => 0.4,
        };
        if rng.gen_bool(weight) {
            return hour;
        }
    }
}

/// Samples a Poisson-distributed count via inversion (adequate for the small
/// means used here).
fn sample_poisson<R: Rng + ?Sized>(mean: f64, rng: &mut R) -> u32 {
    let l = (-mean).exp();
    let mut k = 0u32;
    let mut p = 1.0;
    loop {
        p *= rng.gen_range(0.0..1.0f64);
        if p <= l || k > 10_000 {
            return k;
        }
        k += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn paper_sized_study_dimensions() {
        let mut rng = StdRng::seed_from_u64(1);
        let study = UsageStudy::paper_sized(&mut rng);
        assert_eq!(study.participants.len(), 6);
        assert_eq!(study.days, 90);
        assert!(
            study.total_sessions() > 6 * 90 * 5,
            "participants use their phones daily"
        );
    }

    #[test]
    fn nights_are_removed() {
        let mut rng = StdRng::seed_from_u64(2);
        let study = UsageStudy::synthesize(3, 30, &mut rng);
        for p in &study.participants {
            assert!(p.nights_are_inactive());
        }
    }

    #[test]
    fn sessions_are_chronological() {
        let mut rng = StdRng::seed_from_u64(3);
        let study = UsageStudy::synthesize(2, 20, &mut rng);
        for p in &study.participants {
            assert!(p
                .sessions
                .windows(2)
                .all(|w| (w[0].day, w[0].start_hour) <= (w[1].day, w[1].start_hour)));
            assert!(p.request_count() >= p.session_count() as u64);
        }
    }

    #[test]
    fn inter_arrival_within_paper_bounds() {
        let mut rng = StdRng::seed_from_u64(4);
        let sampler = InterArrivalSampler::paper_calibrated();
        for _ in 0..10_000 {
            let s = sampler.sample_ms(&mut rng);
            assert!((100.0..=5_000.0).contains(&s), "sample {s}");
        }
    }

    #[test]
    fn inter_arrival_distribution_is_right_skewed_and_uses_full_range() {
        let mut rng = StdRng::seed_from_u64(5);
        let sampler = InterArrivalSampler::paper_calibrated();
        let samples: Vec<f64> = (0..50_000).map(|_| sampler.sample_ms(&mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / samples.len() as f64;
        let below_1s =
            samples.iter().filter(|&&s| s < 1_000.0).count() as f64 / samples.len() as f64;
        let at_cap =
            samples.iter().filter(|&&s| s >= 4_999.0).count() as f64 / samples.len() as f64;
        assert!(mean > 800.0 && mean < 1_600.0, "mean {mean}");
        assert!(below_1s > 0.4, "short gaps dominate: {below_1s}");
        assert!(at_cap > 0.005 && at_cap < 0.15, "cap mass {at_cap}");
    }

    #[test]
    fn mean_rate_is_sub_hertz_per_user() {
        let sampler = InterArrivalSampler::paper_calibrated();
        let rate = sampler.mean_rate_per_s();
        assert!(rate > 0.3 && rate < 1.5, "rate {rate}");
    }

    #[test]
    #[should_panic(expected = "bounds must satisfy")]
    fn invalid_bounds_panic() {
        let _ = InterArrivalSampler::new(500.0, 100.0, 50.0);
    }

    #[test]
    fn poisson_mean_is_respected() {
        let mut rng = StdRng::seed_from_u64(6);
        let mean: f64 = (0..5_000)
            .map(|_| f64::from(sample_poisson(20.0, &mut rng)))
            .sum::<f64>()
            / 5_000.0;
        assert!((mean - 20.0).abs() < 1.0, "poisson mean {mean}");
    }

    #[test]
    fn study_sampler_matches_paper_calibration() {
        let mut rng = StdRng::seed_from_u64(7);
        let study = UsageStudy::synthesize(2, 5, &mut rng);
        let sampler = study.inter_arrival_sampler();
        assert_eq!(sampler.min_ms, PAPER_INTER_ARRIVAL_MIN_MS);
        assert_eq!(sampler.max_ms, PAPER_INTER_ARRIVAL_MAX_MS);
    }
}
