//! # mca-network — cellular network substrate
//!
//! *Modeling Mobile Code Acceleration in the Cloud* assumes that offloading
//! happens over LTE with cloudlet-like latency (§IV assumption (c), §VII-2)
//! and justifies that assumption with a large-scale analysis of the NetRadar
//! dataset: 3G and LTE round-trip times for three anonymized Finnish mobile
//! operators (§VI-C-4, Fig. 11). The dataset itself is not distributable, so
//! this crate synthesizes an equivalent:
//!
//! * [`CellularNetwork`] — per-operator, per-technology log-normal RTT models
//!   calibrated to the mean and median values the paper reports
//!   ([`OperatorProfile`]), with a diurnal (time-of-day) modulation;
//! * [`NetRadarCampaign`] — a synthetic NetRadar-style measurement campaign
//!   and the hourly aggregation ([`HourlyLatency`], [`LatencyStats`]) used
//!   to draw Fig. 11;
//! * [`TransferModel`] — payload transfer times over each technology.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cellular;
mod latency;
mod netradar;
mod transfer;

pub use cellular::{CellularNetwork, Operator, OperatorProfile, Technology};
pub use latency::LatencyStats;
pub use netradar::{HourlyLatency, NetRadarCampaign, NetRadarSample};
pub use transfer::TransferModel;
