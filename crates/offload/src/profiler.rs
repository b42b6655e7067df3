//! Method-level execution-time profiling.
//!
//! The paper's client-side moderator "monitors the execution time of the code
//! in the application, and promotes the execution of code to a higher level of
//! acceleration when it detects that the response time of the application
//! starts to degrade" (§I). The paper's implementation instruments client code
//! at method level using Java reflection (§V); this module is the equivalent
//! instrumentation layer: it records per-method response-time samples and
//! exposes the moving statistics the moderator's policies consume.

use std::collections::HashMap;

/// Rolling statistics for one instrumented method.
#[derive(Debug, Clone, PartialEq)]
pub struct MethodProfile {
    /// Method identifier (e.g. `"minimax"`).
    pub method: String,
    /// All recorded samples in milliseconds, oldest first, bounded by the
    /// profiler's window size.
    samples: Vec<f64>,
    /// Total number of samples ever recorded (including evicted ones).
    pub total_samples: u64,
    window: usize,
}

impl MethodProfile {
    fn new(method: String, window: usize) -> Self {
        Self {
            method,
            samples: Vec::new(),
            total_samples: 0,
            window,
        }
    }

    fn record(&mut self, sample_ms: f64) {
        self.total_samples += 1;
        self.samples.push(sample_ms);
        if self.samples.len() > self.window {
            let excess = self.samples.len() - self.window;
            self.samples.drain(0..excess);
        }
    }

    /// Samples currently in the window, oldest first.
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }

    /// Mean response time over the window, ms.
    pub fn mean_ms(&self) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        self.samples.iter().sum::<f64>() / self.samples.len() as f64
    }

    /// Standard deviation over the window, ms.
    pub fn std_dev_ms(&self) -> f64 {
        if self.samples.len() < 2 {
            return 0.0;
        }
        let mean = self.mean_ms();
        let var = self.samples.iter().map(|s| (s - mean).powi(2)).sum::<f64>()
            / (self.samples.len() - 1) as f64;
        var.sqrt()
    }

    /// The most recent sample, ms (0 when empty).
    pub fn last_ms(&self) -> f64 {
        self.samples.last().copied().unwrap_or(0.0)
    }

    /// Degradation ratio of the recent half of the window versus the older
    /// half. A value above 1 means response times are getting longer — the
    /// trigger condition for promotion in the paper.
    pub fn degradation_ratio(&self) -> f64 {
        if self.samples.len() < 4 {
            return 1.0;
        }
        let mid = self.samples.len() / 2;
        let older = &self.samples[..mid];
        let recent = &self.samples[mid..];
        let older_mean = older.iter().sum::<f64>() / older.len() as f64;
        let recent_mean = recent.iter().sum::<f64>() / recent.len() as f64;
        if older_mean <= f64::EPSILON {
            return 1.0;
        }
        recent_mean / older_mean
    }
}

/// Records response-time samples per method and exposes rolling statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct Profiler {
    window: usize,
    profiles: HashMap<String, MethodProfile>,
}

impl Profiler {
    /// Creates a profiler that keeps the most recent `window` samples per
    /// method (the default used by the moderator is 20).
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero.
    pub fn new(window: usize) -> Self {
        assert!(window > 0, "profiler window must be positive");
        Self {
            window,
            profiles: HashMap::new(),
        }
    }

    /// Records one response-time observation for `method`.
    pub fn record(&mut self, method: &str, sample_ms: f64) {
        self.profiles
            .entry(method.to_string())
            .or_insert_with(|| MethodProfile::new(method.to_string(), self.window))
            .record(sample_ms);
    }

    /// Profile for `method`, if any samples exist.
    pub fn profile(&self, method: &str) -> Option<&MethodProfile> {
        self.profiles.get(method)
    }

    /// Iterates over all method profiles in arbitrary order.
    pub fn iter(&self) -> impl Iterator<Item = &MethodProfile> {
        self.profiles.values()
    }

    /// Number of instrumented methods.
    pub fn len(&self) -> usize {
        self.profiles.len()
    }

    /// Returns `true` when no method has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.profiles.is_empty()
    }

    /// Mean response time across every method's window, ms.
    pub fn overall_mean_ms(&self) -> f64 {
        let mut total = 0.0;
        let mut count = 0usize;
        for p in self.profiles.values() {
            total += p.samples().iter().sum::<f64>();
            count += p.samples().len();
        }
        if count == 0 {
            0.0
        } else {
            total / count as f64
        }
    }
}

impl Default for Profiler {
    fn default() -> Self {
        Self::new(20)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_and_averages() {
        let mut p = Profiler::new(10);
        for v in [100.0, 200.0, 300.0] {
            p.record("minimax", v);
        }
        let profile = p.profile("minimax").unwrap();
        assert_eq!(profile.mean_ms(), 200.0);
        assert_eq!(profile.last_ms(), 300.0);
        assert_eq!(profile.total_samples, 3);
        assert!(p.profile("unknown").is_none());
    }

    #[test]
    fn window_evicts_old_samples() {
        let mut p = Profiler::new(3);
        for v in [1.0, 2.0, 3.0, 4.0, 5.0] {
            p.record("m", v);
        }
        let profile = p.profile("m").unwrap();
        assert_eq!(profile.samples(), &[3.0, 4.0, 5.0]);
        assert_eq!(profile.total_samples, 5);
    }

    #[test]
    fn degradation_ratio_detects_slowdown() {
        let mut p = Profiler::new(8);
        for v in [100.0, 100.0, 100.0, 100.0, 300.0, 300.0, 300.0, 300.0] {
            p.record("m", v);
        }
        let ratio = p.profile("m").unwrap().degradation_ratio();
        assert!((ratio - 3.0).abs() < 1e-9);
    }

    #[test]
    fn degradation_ratio_neutral_for_stable_times() {
        let mut p = Profiler::new(8);
        for _ in 0..8 {
            p.record("m", 250.0);
        }
        assert!((p.profile("m").unwrap().degradation_ratio() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn degradation_ratio_needs_enough_samples() {
        let mut p = Profiler::new(8);
        p.record("m", 1.0);
        p.record("m", 100.0);
        assert_eq!(p.profile("m").unwrap().degradation_ratio(), 1.0);
    }

    #[test]
    fn std_dev_zero_for_constant() {
        let mut p = Profiler::new(8);
        for _ in 0..5 {
            p.record("m", 42.0);
        }
        assert_eq!(p.profile("m").unwrap().std_dev_ms(), 0.0);
    }

    #[test]
    fn overall_mean_spans_methods() {
        let mut p = Profiler::new(8);
        p.record("a", 100.0);
        p.record("b", 300.0);
        assert_eq!(p.overall_mean_ms(), 200.0);
        assert_eq!(p.len(), 2);
        assert!(!p.is_empty());
    }

    #[test]
    #[should_panic(expected = "window must be positive")]
    fn zero_window_panics() {
        let _ = Profiler::new(0);
    }
}
