//! # xoar-core
//!
//! The Xoar platform (SOSP 2011): disaggregation of the control VM into
//! least-privilege shards.

#![warn(missing_docs)]

pub mod audit;
pub mod boot;
pub mod builder;
pub mod deployment;
pub mod ha;
pub mod hypersplit;
pub mod migration;
pub mod platform;
pub mod restart;
pub mod shard;
pub mod toolstack;
mod xs_plan;

pub use audit::{AuditEvent, AuditLog};
pub use boot::{BootPlan, BootTimes};
pub use builder::{BuildRequest, Builder, KernelSpec};
pub use deployment::{Deployment, DeploymentScenario};
pub use ha::HaSession;
pub use migration::{migrate, MigrationConfig, MigrationReport};
pub use platform::{GuestConfig, Platform, PlatformMode, XoarConfig};
pub use restart::{RestartEngine, RestartPath, RestartPolicy};
pub use shard::{ConstraintTag, ShardKind, ShardSpec};
pub use toolstack::{ResourceQuota, Toolstack, VmInfo};
