//! End-to-end and per-layer benchmark of the dual-Vdd flow.
//!
//! Three named workloads (see [`workload::Workload`]) run as closed loops.
//! An untraced run ([`run::timed`]) measures the end-to-end metrics; a
//! traced run ([`run::traced`]) replays the same ops one public layer call
//! at a time under the benchmark's own spans and reports the per-layer
//! ledger. Both check every op's outputs. `README.md` in this directory
//! explains the choices and the baseline findings.

pub mod machine;
pub mod metrics;
pub mod ops;
pub mod run;
pub mod stats;
pub mod trace;
pub mod workload;
