//! The repository's one benchmark: seven workloads against the public APIs of
//! the engine (`core`), the node service (`node`) and the disk tier
//! (`persist`), with named end-to-end and per-layer metrics.
//!
//! README.md in this directory is the manual: what every metric and workload
//! means, which layer metric is predicted to move which end-to-end metric,
//! and how to run and compare. `../BENCHMARK.json` declares the same metrics
//! and workloads for the driver.
//!
//! Module map: [`workloads`] (the table of workloads and sizes), [`sut`] (the
//! only file that names repository types), [`pacing`] and [`stamps`] (the load
//! generator and its raw time stamps), [`run`] (repetitions → medians),
//! [`stats`], [`trace`], [`metrics`] (the declared metric tables) and
//! [`report`] (result files and `compare`).

#![forbid(unsafe_code)]

pub mod metrics;
pub mod pacing;
pub mod report;
pub mod run;
pub mod stamps;
pub mod stats;
pub mod sut;
pub mod trace;
pub mod workloads;
