//! # mapsbench
//!
//! The repository's benchmark: one command that generates a workload
//! from a seed, serves it through the public `maps-service` API, checks
//! the output against the workspace's oracles and prints every metric
//! by name and unit. `--trace 1` prints the per-layer figures instead,
//! measured from outside the program by timing calls into the public
//! functions of `maps-service`, `maps-core`, `maps-simulator` and
//! `maps-matching`. `DESIGN.md` next to this crate records the workloads,
//! the metric map and the thread budget.

#![warn(missing_docs)]

pub mod layers;
pub mod run;
pub mod serve;
pub mod stats;
pub mod stream;

pub use run::{run, Options, Report, Scale, Workload};
