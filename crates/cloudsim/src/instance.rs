//! The EC2-like instance catalogue used by the paper's testbed.
//!
//! Prices are the published 2016/2017 on-demand prices for the EU (Ireland)
//! region — the region the paper deploys in — rounded to the cent. Per-core
//! speed factors are calibrated so that the single-task acceleration ratios of
//! Fig. 5 hold: a level-2 instance executes a task ≈1.25× faster than a
//! level-1 instance, a level-3 instance ≈1.73× faster than level 1 (and
//! ≈1.36× faster than level 2). The c4.8xlarge added in §VI-B sits above all
//! of them (level 4).

use mca_snapshot::{Cursor, Restore, Snapshot, SnapshotError};
use std::fmt;

/// Instance types used in the paper's evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[allow(non_camel_case_types)]
pub enum InstanceType {
    /// t2.nano — 1 vCPU, 0.5 GiB (anomalously strong, see Fig. 6).
    T2Nano,
    /// t2.micro — 1 vCPU, 1 GiB, free-tier eligible (anomalously weak).
    T2Micro,
    /// t2.small — 1 vCPU, 2 GiB.
    T2Small,
    /// t2.medium — 2 vCPU, 4 GiB.
    T2Medium,
    /// t2.large — 2 vCPU, 8 GiB.
    T2Large,
    /// m4.4xlarge — 16 vCPU, 64 GiB.
    M4_4XLarge,
    /// m4.10xlarge — 40 vCPU, 160 GiB.
    M4_10XLarge,
    /// c4.8xlarge — 36 vCPU, 60 GiB, compute optimized (level 4 in §VI-B).
    C4_8XLarge,
}

impl Snapshot for InstanceType {
    fn encode(&self, out: &mut Vec<u8>) {
        self.wire_tag().encode(out);
    }
}

impl Restore for InstanceType {
    fn decode(cur: &mut Cursor<'_>) -> Result<Self, SnapshotError> {
        let tag = u8::decode(cur)?;
        InstanceType::ALL
            .get(tag as usize)
            .copied()
            .ok_or(SnapshotError::Malformed {
                context: "instance type tag",
            })
    }
}

impl InstanceType {
    /// Every instance type the paper benchmarks, in catalogue order.
    pub const ALL: [InstanceType; 8] = [
        InstanceType::T2Nano,
        InstanceType::T2Micro,
        InstanceType::T2Small,
        InstanceType::T2Medium,
        InstanceType::T2Large,
        InstanceType::M4_4XLarge,
        InstanceType::M4_10XLarge,
        InstanceType::C4_8XLarge,
    ];

    /// The six general-purpose instances of the Fig. 4 characterization.
    pub const FIG4_SET: [InstanceType; 6] = [
        InstanceType::T2Nano,
        InstanceType::T2Micro,
        InstanceType::T2Small,
        InstanceType::T2Medium,
        InstanceType::T2Large,
        InstanceType::M4_10XLarge,
    ];

    /// Stable wire tag: the discriminant, which is the position in
    /// [`InstanceType::ALL`] (catalogue order, which new types must extend
    /// at the end; `wire_tags_are_catalogue_positions` pins it).
    fn wire_tag(self) -> u8 {
        self as u8
    }

    /// The API name of the instance type (e.g. `"t2.nano"`).
    fn api_name(self) -> &'static str {
        match self {
            InstanceType::T2Nano => "t2.nano",
            InstanceType::T2Micro => "t2.micro",
            InstanceType::T2Small => "t2.small",
            InstanceType::T2Medium => "t2.medium",
            InstanceType::T2Large => "t2.large",
            InstanceType::M4_4XLarge => "m4.4xlarge",
            InstanceType::M4_10XLarge => "m4.10xlarge",
            InstanceType::C4_8XLarge => "c4.8xlarge",
        }
    }

    /// Full specification of the instance type.
    pub fn spec(self) -> InstanceSpec {
        match self {
            InstanceType::T2Nano => InstanceSpec {
                instance_type: self,
                vcpus: 1,
                memory_gib: 0.5,
                cost_per_hour: 0.0063,
                per_core_speed: 1.02,
                burstable: true,
                contention_factor: 1.0,
            },
            InstanceType::T2Micro => InstanceSpec {
                instance_type: self,
                vcpus: 1,
                memory_gib: 1.0,
                cost_per_hour: 0.0126,
                // Free-tier eligible and heavily multiplexed: despite larger
                // nominal resources it performs worse than t2.nano under load
                // (the Fig. 6 anomaly).
                per_core_speed: 0.78,
                burstable: true,
                contention_factor: 0.80,
            },
            InstanceType::T2Small => InstanceSpec {
                instance_type: self,
                vcpus: 1,
                memory_gib: 2.0,
                cost_per_hour: 0.025,
                per_core_speed: 1.0,
                burstable: true,
                contention_factor: 1.0,
            },
            InstanceType::T2Medium => InstanceSpec {
                instance_type: self,
                vcpus: 2,
                memory_gib: 4.0,
                cost_per_hour: 0.05,
                per_core_speed: 1.25,
                burstable: true,
                contention_factor: 1.0,
            },
            InstanceType::T2Large => InstanceSpec {
                instance_type: self,
                vcpus: 2,
                memory_gib: 8.0,
                cost_per_hour: 0.101,
                per_core_speed: 1.25,
                burstable: true,
                contention_factor: 1.0,
            },
            InstanceType::M4_4XLarge => InstanceSpec {
                instance_type: self,
                vcpus: 16,
                memory_gib: 64.0,
                cost_per_hour: 0.95,
                per_core_speed: 1.73,
                burstable: false,
                contention_factor: 1.0,
            },
            InstanceType::M4_10XLarge => InstanceSpec {
                instance_type: self,
                vcpus: 40,
                memory_gib: 160.0,
                cost_per_hour: 2.377,
                per_core_speed: 1.73,
                burstable: false,
                contention_factor: 1.0,
            },
            InstanceType::C4_8XLarge => InstanceSpec {
                instance_type: self,
                vcpus: 36,
                memory_gib: 60.0,
                cost_per_hour: 1.906,
                per_core_speed: 2.08,
                burstable: false,
                contention_factor: 1.0,
            },
        }
    }
}

impl fmt::Display for InstanceType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.api_name())
    }
}

/// Static specification of an instance type.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InstanceSpec {
    /// The instance type this specification describes.
    pub instance_type: InstanceType,
    /// Number of virtual CPUs.
    pub vcpus: u32,
    /// Memory in GiB.
    pub memory_gib: f64,
    /// On-demand price per hour (EU Ireland, USD).
    pub cost_per_hour: f64,
    /// Single-core execution speed relative to the level-1 reference core.
    pub per_core_speed: f64,
    /// Whether the instance uses the t2 CPU-credit (burst) mechanism.
    pub burstable: bool,
    /// Multiplicative factor (< 1 for contended free-tier hardware) applied
    /// on top of the per-core speed under sustained load.
    pub contention_factor: f64,
}

impl InstanceSpec {
    /// Effective sustained per-core speed including the contention factor.
    pub(crate) fn sustained_core_speed(&self) -> f64 {
        self.per_core_speed * self.contention_factor
    }

    /// Aggregate sustained throughput of the instance in work units per
    /// millisecond (all cores).
    pub(crate) fn aggregate_throughput(&self) -> f64 {
        self.sustained_core_speed() * f64::from(self.vcpus)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalogue_contains_all_paper_instances() {
        assert_eq!(InstanceType::ALL.len(), 8);
        assert_eq!(InstanceType::FIG4_SET.len(), 6);
        for t in InstanceType::ALL {
            let spec = t.spec();
            assert!(spec.vcpus >= 1);
            assert!(spec.cost_per_hour > 0.0);
            assert!(spec.per_core_speed > 0.0);
            assert_eq!(spec.instance_type, t);
        }
    }

    #[test]
    fn bigger_instances_cost_more() {
        let order = [
            InstanceType::T2Nano,
            InstanceType::T2Micro,
            InstanceType::T2Small,
            InstanceType::T2Medium,
            InstanceType::T2Large,
            InstanceType::M4_4XLarge,
            InstanceType::C4_8XLarge,
            InstanceType::M4_10XLarge,
        ];
        let costs: Vec<f64> = order.iter().map(|t| t.spec().cost_per_hour).collect();
        assert!(costs.windows(2).all(|w| w[0] < w[1]), "{costs:?}");
    }

    #[test]
    fn fig5_acceleration_ratios_hold() {
        // level 1 = t2.small (reference), level 2 = t2.large, level 3 = m4.*
        let l1 = InstanceType::T2Small.spec().per_core_speed;
        let l2 = InstanceType::T2Large.spec().per_core_speed;
        let l3 = InstanceType::M4_10XLarge.spec().per_core_speed;
        assert!((l2 / l1 - 1.25).abs() < 0.01, "level2/level1 = {}", l2 / l1);
        assert!((l3 / l1 - 1.73).abs() < 0.01, "level3/level1 = {}", l3 / l1);
        assert!((l3 / l2 - 1.36).abs() < 0.05, "level3/level2 = {}", l3 / l2);
    }

    #[test]
    fn nano_outperforms_micro_under_sustained_load() {
        // The Fig. 6 anomaly: nominal resources say micro >= nano, but the
        // sustained speed says otherwise.
        let nano = InstanceType::T2Nano.spec();
        let micro = InstanceType::T2Micro.spec();
        assert!(micro.memory_gib > nano.memory_gib);
        assert!(micro.cost_per_hour > nano.cost_per_hour);
        assert!(nano.sustained_core_speed() > micro.sustained_core_speed());
    }

    #[test]
    fn c4_is_fastest_per_core() {
        let c4 = InstanceType::C4_8XLarge.spec().per_core_speed;
        for t in InstanceType::ALL {
            if t != InstanceType::C4_8XLarge {
                assert!(c4 > t.spec().per_core_speed);
            }
        }
    }

    #[test]
    fn aggregate_throughput_reflects_core_count() {
        let m4 = InstanceType::M4_10XLarge.spec();
        assert!((m4.aggregate_throughput() - 40.0 * 1.73).abs() < 1e-9);
        let nano = InstanceType::T2Nano.spec();
        assert!(m4.aggregate_throughput() > 30.0 * nano.aggregate_throughput());
    }

    #[test]
    fn api_names_match_amazon_catalogue() {
        assert_eq!(InstanceType::T2Nano.to_string(), "t2.nano");
        assert_eq!(InstanceType::M4_10XLarge.to_string(), "m4.10xlarge");
        assert_eq!(InstanceType::C4_8XLarge.api_name(), "c4.8xlarge");
    }

    #[test]
    fn wire_tags_are_catalogue_positions() {
        for (i, t) in InstanceType::ALL.into_iter().enumerate() {
            assert_eq!(t as u8 as usize, i, "{t}");
            assert_eq!(t.wire_tag() as usize, i, "{t}");
        }
    }
}
