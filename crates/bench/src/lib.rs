//! # ridl-bench — the shared harness of the criterion micro benches
//!
//! The `benches/` directory holds one criterion harness per paper
//! figure/claim; [`harness`] holds everything they share: scenario
//! construction, engine-probed mutation targets, adaptive timing loops
//! and scratch directories (previously copy-pasted into each bench).
//!
//! The end-to-end benchmark lives in the repository's `benchmark/`
//! directory.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod harness;
