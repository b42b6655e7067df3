//! Acceleration groups: the abstraction of cloud servers into levels of code
//! acceleration (§IV-A, §IV-C-1).
//!
//! "The model encapsulates the servers of the cloud into acceleration groups.
//! Each `a_n` is mapped to a set of servers that provide a specific level of
//! code acceleration." The mapping is produced either from the benchmarking
//! classification (`mca-cloudsim::LevelClassification`) or manually (the
//! 8-hour experiment pins groups 1/2/3 to t2.nano, t2.large and m4.4xlarge).

use crate::error::CoreError;
use mca_cloudsim::{InstanceType, LevelClassification, Server};
use mca_offload::AccelerationGroupId;

/// One acceleration group: a level of code acceleration and the instance
/// types that provide it.
#[derive(Debug, Clone, PartialEq)]
pub struct AccelerationGroup {
    /// The group identifier (`a_n`); higher ids accelerate more.
    pub id: AccelerationGroupId,
    /// Instance types that provide this level of acceleration.
    pub instance_types: Vec<InstanceType>,
    /// Capacity `K_s` of one instance of this group: the number of concurrent
    /// users a single instance serves within the response-time target.
    pub capacity_per_instance: usize,
}

impl AccelerationGroup {
    /// The cheapest instance type in the group (the allocator's preferred
    /// choice when several types provide the same acceleration).
    pub fn cheapest_instance(&self) -> Option<InstanceType> {
        self.instance_types.iter().copied().min_by(|a, b| {
            a.spec()
                .cost_per_hour
                .partial_cmp(&b.spec().cost_per_hour)
                .unwrap_or(std::cmp::Ordering::Equal)
        })
    }

    /// Single-task speed factor of the group (per-core speed of its fastest
    /// member), relative to the level-1 reference core.
    pub fn speed_factor(&self) -> f64 {
        self.instance_types
            .iter()
            .map(|t| t.spec().per_core_speed)
            .fold(0.0, f64::max)
    }
}

/// The ordered set of acceleration groups `A` offered by the system.
#[derive(Debug, Clone, PartialEq)]
pub struct AccelerationGroups {
    groups: Vec<AccelerationGroup>,
    /// Response-time target (ms) that defined the groups' capacities.
    pub response_target_ms: f64,
}

impl AccelerationGroups {
    /// Builds groups from an explicit list.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] if the list is empty, contains a
    /// group without instance types, or has duplicate group ids.
    pub fn new(groups: Vec<AccelerationGroup>, response_target_ms: f64) -> Result<Self, CoreError> {
        if groups.is_empty() {
            return Err(CoreError::InvalidConfig {
                reason: "no acceleration groups".into(),
            });
        }
        let mut ids: Vec<u8> = groups.iter().map(|g| g.id.0).collect();
        ids.sort_unstable();
        ids.dedup();
        if ids.len() != groups.len() {
            return Err(CoreError::InvalidConfig {
                reason: "duplicate acceleration group ids".into(),
            });
        }
        if groups.iter().any(|g| g.instance_types.is_empty()) {
            return Err(CoreError::InvalidConfig {
                reason: "acceleration group without instance types".into(),
            });
        }
        let mut groups = groups;
        groups.sort_by_key(|g| g.id);
        Ok(Self {
            groups,
            response_target_ms,
        })
    }

    /// The three manually pinned groups of the paper's 8-hour experiment
    /// (§VI-C-1): group 1 = t2.nano, group 2 = t2.large, group 3 =
    /// m4.4xlarge, with capacities derived from the server model under a
    /// 500 ms response-time target and the mean pool task.
    pub fn paper_three_groups() -> Self {
        Self::from_assignments(
            &[
                (AccelerationGroupId(1), vec![InstanceType::T2Nano]),
                (AccelerationGroupId(2), vec![InstanceType::T2Large]),
                (AccelerationGroupId(3), vec![InstanceType::M4_4XLarge]),
            ],
            500.0,
            65.0,
        )
    }

    /// The four groups produced by the Fig. 4 characterization plus the
    /// c4.8xlarge level-4 group added in §VI-B.
    pub fn paper_five_groups() -> Self {
        Self::from_assignments(
            &[
                (AccelerationGroupId(0), vec![InstanceType::T2Micro]),
                (
                    AccelerationGroupId(1),
                    vec![InstanceType::T2Nano, InstanceType::T2Small],
                ),
                (
                    AccelerationGroupId(2),
                    vec![InstanceType::T2Medium, InstanceType::T2Large],
                ),
                (
                    AccelerationGroupId(3),
                    vec![InstanceType::M4_4XLarge, InstanceType::M4_10XLarge],
                ),
                (AccelerationGroupId(4), vec![InstanceType::C4_8XLarge]),
            ],
            500.0,
            65.0,
        )
    }

    /// Builds groups from `(id, instance types)` assignments, deriving each
    /// group's per-instance capacity from the server model: the number of
    /// concurrent users one instance of the group's cheapest type serves
    /// within `response_target_ms` for a task of `typical_work_units`.
    pub fn from_assignments(
        assignments: &[(AccelerationGroupId, Vec<InstanceType>)],
        response_target_ms: f64,
        typical_work_units: f64,
    ) -> Self {
        let groups = assignments
            .iter()
            .map(|(id, types)| {
                let capacity = types
                    .iter()
                    .map(|&t| Server::new(t).capacity_under(typical_work_units, response_target_ms))
                    .min()
                    .unwrap_or(0)
                    .max(1);
                AccelerationGroup {
                    id: *id,
                    instance_types: types.clone(),
                    capacity_per_instance: capacity,
                }
            })
            .collect();
        Self::new(groups, response_target_ms).expect("assignments are statically well formed")
    }

    /// Builds groups from the benchmarking classification of
    /// `mca-cloudsim` (§IV-C-1: one group per measured capacity class).
    pub fn from_classification(classification: &LevelClassification) -> Self {
        let groups = classification
            .levels
            .iter()
            .map(|level| AccelerationGroup {
                id: AccelerationGroupId(level.level),
                instance_types: level.members.clone(),
                capacity_per_instance: level.capacity.max(1),
            })
            .collect();
        Self::new(groups, classification.response_target_ms)
            .expect("classification always yields at least one non-empty level")
    }

    /// The groups in ascending acceleration order.
    pub fn groups(&self) -> &[AccelerationGroup] {
        &self.groups
    }

    /// Number of groups.
    pub fn len(&self) -> usize {
        self.groups.len()
    }

    /// Returns `true` when no group is defined (never true for a validated
    /// instance).
    pub fn is_empty(&self) -> bool {
        self.groups.is_empty()
    }

    /// Looks up a group by id.
    pub fn get(&self, id: AccelerationGroupId) -> Option<&AccelerationGroup> {
        self.groups.iter().find(|g| g.id == id)
    }

    /// The lowest (entry) acceleration group — where every user starts
    /// (§IV-A: "initially, each user is located in the group that provides
    /// the lowest acceleration of code").
    pub fn lowest(&self) -> &AccelerationGroup {
        self.groups.first().expect("validated groups are non-empty")
    }

    /// The highest acceleration group (the promotion ceiling).
    pub fn highest(&self) -> &AccelerationGroup {
        self.groups.last().expect("validated groups are non-empty")
    }

    /// All group ids in ascending order.
    pub fn ids(&self) -> Vec<AccelerationGroupId> {
        self.groups.iter().map(|g| g.id).collect()
    }

    /// Clamps a requested group to the closest one the system offers (a
    /// device promoted beyond the highest group is served by the highest).
    pub fn clamp(&self, requested: AccelerationGroupId) -> AccelerationGroupId {
        if self.get(requested).is_some() {
            return requested;
        }
        if requested > self.highest().id {
            self.highest().id
        } else {
            // find the nearest defined id at or above the request
            self.groups
                .iter()
                .map(|g| g.id)
                .find(|id| *id >= requested)
                .unwrap_or(self.lowest().id)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_three_groups_are_ordered_and_sized() {
        let groups = AccelerationGroups::paper_three_groups();
        assert_eq!(groups.len(), 3);
        assert_eq!(groups.lowest().id, AccelerationGroupId(1));
        assert_eq!(groups.highest().id, AccelerationGroupId(3));
        // capacity grows with the acceleration level
        let caps: Vec<usize> = groups
            .groups()
            .iter()
            .map(|g| g.capacity_per_instance)
            .collect();
        assert!(caps.windows(2).all(|w| w[1] > w[0]), "{caps:?}");
        // speed factors reproduce the Fig. 5 ordering
        let speeds: Vec<f64> = groups.groups().iter().map(|g| g.speed_factor()).collect();
        assert!(speeds.windows(2).all(|w| w[1] > w[0]), "{speeds:?}");
    }

    #[test]
    fn five_group_catalogue_contains_all_levels() {
        let groups = AccelerationGroups::paper_five_groups();
        assert_eq!(groups.len(), 5);
        assert_eq!(groups.lowest().id, AccelerationGroupId(0));
        assert_eq!(
            groups.get(AccelerationGroupId(0)).unwrap().instance_types,
            vec![InstanceType::T2Micro]
        );
        assert_eq!(
            groups.highest().instance_types,
            vec![InstanceType::C4_8XLarge]
        );
    }

    #[test]
    fn cheapest_instance_prefers_lower_price() {
        let groups = AccelerationGroups::paper_five_groups();
        let level1 = groups.get(AccelerationGroupId(1)).unwrap();
        assert_eq!(level1.cheapest_instance(), Some(InstanceType::T2Nano));
        let level3 = groups.get(AccelerationGroupId(3)).unwrap();
        assert_eq!(level3.cheapest_instance(), Some(InstanceType::M4_4XLarge));
    }

    #[test]
    fn clamp_maps_out_of_range_requests() {
        let groups = AccelerationGroups::paper_three_groups();
        assert_eq!(groups.clamp(AccelerationGroupId(2)), AccelerationGroupId(2));
        assert_eq!(
            groups.clamp(AccelerationGroupId(200)),
            AccelerationGroupId(3)
        );
        assert_eq!(groups.clamp(AccelerationGroupId(0)), AccelerationGroupId(1));
    }

    #[test]
    fn validation_rejects_bad_configurations() {
        assert!(matches!(
            AccelerationGroups::new(vec![], 500.0),
            Err(CoreError::InvalidConfig { .. })
        ));
        let dup = vec![
            AccelerationGroup {
                id: AccelerationGroupId(1),
                instance_types: vec![InstanceType::T2Nano],
                capacity_per_instance: 10,
            },
            AccelerationGroup {
                id: AccelerationGroupId(1),
                instance_types: vec![InstanceType::T2Small],
                capacity_per_instance: 10,
            },
        ];
        assert!(matches!(
            AccelerationGroups::new(dup, 500.0),
            Err(CoreError::InvalidConfig { .. })
        ));
        let empty_members = vec![AccelerationGroup {
            id: AccelerationGroupId(1),
            instance_types: vec![],
            capacity_per_instance: 10,
        }];
        assert!(matches!(
            AccelerationGroups::new(empty_members, 500.0),
            Err(CoreError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn from_classification_round_trips_levels() {
        use mca_cloudsim::{AccelerationLevel, LevelClassification};
        let classification = LevelClassification {
            response_target_ms: 500.0,
            levels: vec![
                AccelerationLevel {
                    level: 0,
                    members: vec![InstanceType::T2Micro],
                    capacity: 25,
                },
                AccelerationLevel {
                    level: 1,
                    members: vec![InstanceType::T2Nano, InstanceType::T2Small],
                    capacity: 80,
                },
                AccelerationLevel {
                    level: 2,
                    members: vec![InstanceType::T2Large],
                    capacity: 280,
                },
            ],
        };
        let groups = AccelerationGroups::from_classification(&classification);
        assert_eq!(groups.len(), 3);
        assert_eq!(
            groups
                .get(AccelerationGroupId(1))
                .unwrap()
                .capacity_per_instance,
            80
        );
        assert_eq!(
            groups.get(AccelerationGroupId(1)).unwrap().instance_types,
            vec![InstanceType::T2Nano, InstanceType::T2Small]
        );
        assert_eq!(groups.response_target_ms, 500.0);
    }

    #[test]
    fn groups_are_sorted_by_id_regardless_of_input_order() {
        let groups = AccelerationGroups::new(
            vec![
                AccelerationGroup {
                    id: AccelerationGroupId(3),
                    instance_types: vec![InstanceType::M4_4XLarge],
                    capacity_per_instance: 100,
                },
                AccelerationGroup {
                    id: AccelerationGroupId(1),
                    instance_types: vec![InstanceType::T2Nano],
                    capacity_per_instance: 10,
                },
            ],
            500.0,
        )
        .unwrap();
        assert_eq!(
            groups.ids(),
            vec![AccelerationGroupId(1), AccelerationGroupId(3)]
        );
    }
}
