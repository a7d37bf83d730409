//! # heterog-bench
//!
//! Experiment harness regenerating every table and figure of the
//! paper's evaluation (§6). Each `exp_*` binary in `src/bin/` reproduces
//! one table/figure; `bench_compare` gates the committed `BENCH_*.json`
//! artifacts (see [`compare`]). See DESIGN.md's experiment index and
//! EXPERIMENTS.md for paper-vs-measured results.

pub mod compare;
pub mod harness;

pub use harness::*;
