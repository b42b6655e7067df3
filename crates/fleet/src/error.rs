//! Typed errors for the fleet engine and the streaming ingestion driver.
//!
//! Every misuse condition — an unknown tenant, a tenant missing from a mix, a
//! missing shard, a misbound source, host exhaustion — is a [`FleetError`]
//! returned through [`crate::FleetDriver`] and the engine's fallible
//! methods, so a control plane can handle a misconfigured tenant or source
//! without unwinding the whole fleet.

use mca_cloudsim::PlacementError;
use mca_offload::TenantId;
use std::error::Error;
use std::fmt;

/// Errors produced by the fleet engine and the ingestion driver.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FleetError {
    /// The tenant is not onboarded on this engine.
    UnknownTenant {
        /// The tenant that was named.
        tenant: TenantId,
    },
    /// A hosted tenant is not part of the [`mca_workload::TenantMix`] that
    /// was asked to drive the fleet.
    TenantNotInMix {
        /// The hosted tenant the mix does not define.
        tenant: TenantId,
        /// Number of tenants the mix defines (ids `0..mix_tenants`).
        mix_tenants: usize,
    },
    /// An operation named a shard index the fleet does not have (e.g. a
    /// migration target beyond the shard count).
    InvalidShard {
        /// The shard index that was named.
        shard: usize,
        /// Number of shards the fleet has.
        shards: usize,
    },
    /// A record source is already registered for this tenant.
    DuplicateSource {
        /// The tenant with two sources.
        tenant: TenantId,
    },
    /// A source bound to one tenant produced a record naming another.
    ForeignRecord {
        /// The tenant the source is bound to.
        bound: TenantId,
        /// The tenant the offending record named.
        found: TenantId,
    },
    /// A tenant's datacenter could not place its standing allocation (host
    /// exhaustion). The tick path never panics on this — it counts the
    /// failure in the tenant's metrics and keeps running degraded; the
    /// engine's `placement_health` surfaces it as this typed error.
    Placement {
        /// The tenant whose placement failed.
        tenant: TenantId,
        /// The underlying placement failure.
        error: PlacementError,
    },
}

impl fmt::Display for FleetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FleetError::UnknownTenant { tenant } => {
                write!(f, "tenant {tenant} is not onboarded")
            }
            FleetError::TenantNotInMix {
                tenant,
                mix_tenants,
            } => write!(
                f,
                "hosted tenant {tenant} is not part of the mix ({mix_tenants} mix tenants)"
            ),
            FleetError::InvalidShard { shard, shards } => write!(
                f,
                "shard {shard} does not exist (the fleet has {shards} shards)"
            ),
            FleetError::DuplicateSource { tenant } => {
                write!(
                    f,
                    "a record source is already registered for tenant {tenant}"
                )
            }
            FleetError::ForeignRecord { bound, found } => write!(
                f,
                "source bound to tenant {bound} produced a record for tenant {found}"
            ),
            FleetError::Placement { tenant, error } => {
                write!(f, "tenant {tenant} placement failed: {error}")
            }
        }
    }
}

impl Error for FleetError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_the_tenant_and_condition() {
        let e = FleetError::UnknownTenant {
            tenant: TenantId(7),
        };
        assert!(e.to_string().contains("not onboarded"));
        let e = FleetError::ForeignRecord {
            bound: TenantId(1),
            found: TenantId(2),
        };
        let text = e.to_string();
        assert!(text.contains("bound"));
        assert!(text.contains('2'));
        assert!(FleetError::TenantNotInMix {
            tenant: TenantId(9),
            mix_tenants: 4
        }
        .to_string()
        .contains("mix"));
        let text = FleetError::InvalidShard {
            shard: 9,
            shards: 4,
        }
        .to_string();
        assert!(text.contains('9') && text.contains('4'));
        let text = FleetError::Placement {
            tenant: TenantId(3),
            error: PlacementError::NoHostFits {
                instance_type: mca_cloudsim::InstanceType::M4_4XLarge,
                hosts: 1,
            },
        }
        .to_string();
        assert!(text.contains("placement failed") && text.contains("m4.4xlarge"));
    }

    #[test]
    fn error_is_send_sync() {
        fn check<T: Send + Sync + Error>() {}
        check::<FleetError>();
    }
}
