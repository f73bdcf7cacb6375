//! End-to-end and per-layer benchmark of the Hammer evaluation framework.
//!
//! The benchmark runs the unmodified `Evaluation::run` against registry
//! backends and measures every layer from outside the program: through
//! a timing [`proxy::TimingChain`] handed to the driver with
//! `Deployment::from_chain`, by timing public functions on the same
//! inputs, and by reading CPU per thread role from `/proc`. See
//! `README.md` beside this crate for the workloads and the metric map.

pub mod harness;
pub mod pacing;
pub mod procfs;
pub mod proxy;
pub mod stats;
