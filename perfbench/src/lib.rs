//! The runtime benchmark: three workloads driven through the public
//! `slp-runtime` API, an output checker, process probes and a span
//! recorder. `src/main.rs` is the command line; `README.md` says why each
//! workload exists and which layer each metric belongs to.

pub mod check;
pub mod probes;
pub mod stats;
pub mod trace;
pub mod workload;
