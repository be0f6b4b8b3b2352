//! The experiment harness: regenerates every table and figure of *"Using
//! Latency to Evaluate Interactive System Performance"* (OSDI '96).
//!
//! `cargo run -p latlab-bench --bin repro --release` runs every experiment,
//! prints the ASCII analogue of each figure with shape checks against the
//! paper's claims, and writes CSV/JSON data under `results/`. Individual
//! experiments run with `-- <id>` (`fig1` … `fig12`, `tab2`, `sec54`,
//! `ablations`).

pub mod engine;
pub mod faultcfg;
pub mod forkcfg;
pub mod pool;
pub mod query_fixture;
pub mod record;
pub mod report;
pub mod runner;
pub mod scenarios;
pub mod sweep;

pub use engine::{run_scenarios, EngineConfig, ScenarioOutcome, ScenarioRun};
pub use pool::JobOutcome;
pub use report::{Check, ExperimentReport};
