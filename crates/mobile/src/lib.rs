//! # mca-mobile — the device side of the closed loop
//!
//! What the closed-loop simulator (`mca-core`'s `System`) needs of the
//! client side of the code-acceleration architecture:
//!
//! * device profiles ([`DeviceProfile`], [`DeviceClass`]) — the battery a
//!   device starts with and the power its radio draws while it waits for a
//!   result;
//! * [`Battery`] — an energy store drained by radio activity; battery level
//!   is part of every trace record;
//! * the client-side [`Moderator`] that promotes the device to a higher
//!   acceleration group (§I, §VI-C-3): the paper's static 1/50 promotion
//!   probability, plus threshold- and battery-aware [`PromotionPolicy`]
//!   variants (§VII-3 sketches the battery-aware one);
//! * [`InterArrivalSampler`] — the 100–5000 ms inter-arrival distribution
//!   the paper extracts from its 3-month, 6-participant usage study
//!   (§VI-C-1).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod battery;
mod device;
mod moderator;
mod usage;

pub use battery::Battery;
pub use device::{DeviceClass, DeviceProfile};
pub use moderator::{Moderator, ModeratorEvent, PromotionPolicy};
pub use usage::InterArrivalSampler;
