//! End-to-end and per-layer benchmark of the Pulse runtime. See README.md.

pub mod alloc;
pub mod fingerprint;
pub mod loadgen;
pub mod pulse_api;
pub mod run;
pub mod stats;
pub mod trace;
pub mod workloads;
