//! Payload transfer time model.
//!
//! The paper's assumption (c) states that over LTE "the size of the data
//! transferred and network latency do not incur overhead in the offloading
//! process" — because the homogeneous model only ships a compact application
//! state. The transfer model is nevertheless explicit so that the assumption
//! can be checked (and violated, e.g. for 3G or large payloads) rather than
//! hard-coded.

use crate::cellular::Technology;

/// Bandwidth model for uplink/downlink payload transfers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TransferModel {
    /// Uplink throughput in bytes per millisecond.
    pub uplink_bytes_per_ms: f64,
    /// Downlink throughput in bytes per millisecond.
    pub downlink_bytes_per_ms: f64,
}

impl TransferModel {
    /// Typical sustained throughput for an access technology
    /// (LTE ≈ 20 Mbit/s up / 40 Mbit/s down; 3G ≈ 2 Mbit/s up / 6 Mbit/s down).
    pub fn for_technology(technology: Technology) -> Self {
        match technology {
            Technology::Lte => Self {
                uplink_bytes_per_ms: 20_000.0 / 8.0,
                downlink_bytes_per_ms: 40_000.0 / 8.0,
            },
            Technology::ThreeG => Self {
                uplink_bytes_per_ms: 2_000.0 / 8.0,
                downlink_bytes_per_ms: 6_000.0 / 8.0,
            },
        }
    }

    /// Time to upload `bytes` of serialized application state, ms.
    pub fn uplink_time_ms(&self, bytes: usize) -> f64 {
        bytes as f64 / self.uplink_bytes_per_ms.max(1e-9)
    }

    /// Time to download a result of `bytes`, ms.
    pub fn downlink_time_ms(&self, bytes: usize) -> f64 {
        bytes as f64 / self.downlink_bytes_per_ms.max(1e-9)
    }
}

impl Default for TransferModel {
    fn default() -> Self {
        Self::for_technology(Technology::Lte)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lte_faster_than_3g() {
        let lte = TransferModel::for_technology(Technology::Lte);
        let threeg = TransferModel::for_technology(Technology::ThreeG);
        assert!(lte.uplink_time_ms(100_000) < threeg.uplink_time_ms(100_000));
        assert!(lte.downlink_time_ms(100_000) < threeg.downlink_time_ms(100_000));
    }

    #[test]
    fn typical_offload_payload_is_negligible_on_lte() {
        // A minimax application state is a few hundred bytes (task.rs), and
        // the result is small; over LTE this is well under 10 ms.
        let lte = TransferModel::default();
        assert!(lte.uplink_time_ms(1_000) + lte.downlink_time_ms(200) <= 10.0);
    }

    #[test]
    fn large_payload_is_not_negligible_on_3g() {
        let threeg = TransferModel::for_technology(Technology::ThreeG);
        // 1 MB over 2 Mbit/s ~ 4 s
        assert!(threeg.uplink_time_ms(1_000_000) + threeg.downlink_time_ms(1_000) > 100.0);
        assert!(threeg.uplink_time_ms(1_000_000) > 3_000.0);
    }

    #[test]
    fn transfer_times_scale_linearly() {
        let lte = TransferModel::default();
        let t1 = lte.uplink_time_ms(10_000);
        let t2 = lte.uplink_time_ms(20_000);
        assert!((t2 - 2.0 * t1).abs() < 1e-9);
        assert_eq!(lte.uplink_time_ms(0), 0.0);
    }
}
