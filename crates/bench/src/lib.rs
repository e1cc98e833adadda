//! # bench — the paper's evaluation, regenerated
//!
//! Workload generators, a measurement harness, and one runner per table
//! and figure of the paper's Section 6 (see the per-experiment index in
//! `DESIGN.md`). The `paper_tables` binary prints any or all of them:
//!
//! ```text
//! cargo run --release -p bench --bin paper_tables -- all
//! cargo run --release -p bench --bin paper_tables -- fig12 fig14 --quick
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod experiments;
pub mod harness;
pub mod json;
pub mod report;
pub mod reprs;
pub mod workloads;

pub use harness::{Config, OpTimes, ReprKind};
pub use report::{
    normalize, render, render_json, render_markdown, ReportConfig, Row, Section, SCHEMA_VERSION,
};
