//! # cisa-migrate: process migration across composite-ISA cores
//!
//! Migration between overlapping feature sets is the composite-ISA
//! architecture's killer advantage over multi-vendor heterogeneity:
//! *upgrades* (moving to a core that implements a superset of the
//! features in use) run natively with zero translation, and
//! *downgrades* need only the minimal, local binary transformations of
//! [`downgrade`] — no fat binaries, no cross-ISA state transformation.
//!
//! [`migration`] replays multiprogrammed schedules with migration and
//! downgrade costs charged, reproducing the paper's Section VII-D
//! analysis (1,863 migrations, 0.42% average degradation).
//!
//! [`classes`] classifies prospective migrations into the cost taxonomy
//! of the heterogeneous-ISA migration-measurement literature
//! (state-transformation-free vs. transforming), cheap enough to
//! annotate every alternative in a serving-layer query answer.
//!
//! [`verify`] is the full staged machine-code verifier: the compiler's
//! five per-phase passes plus migration safety, which checks every
//! [`emulate`] downgrade. The `verify_all` binary runs it over the
//! whole workload suite.

#![warn(missing_docs)]

pub mod classes;
pub mod downgrade;
pub mod error;
pub mod migration;
pub mod points;
pub mod verify;

pub use classes::{classify_migration, MigrationClass, MigrationCost};
pub use downgrade::{downgrade_cost, emulate, EmulationStats};
pub use error::MigrateError;
pub use migration::{MigrationConfig, MigrationReport, MigrationSim};
pub use points::{classify_migration_with, MigrationPoint, MigrationPointMap};
