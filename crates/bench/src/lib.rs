//! Benchmark harness for regenerating the TLT paper's tables and figures.
//!
//! Each `fig*`/`tab*` binary reproduces one table or figure of the paper's
//! evaluation (§7 and Appendix B); the shared [`runner`] module provides
//! argument parsing (`--full`, `--quick`, `--seeds N`, `--jobs N`,
//! `--out file.csv`), the scheme/variant builders, and paper-style table
//! printing, while [`plan`] executes the (scheme, seed) grid across worker
//! threads with a deterministic fold (output is byte-identical under any
//! `--jobs` value). [`benchcmp`] diffs two deterministic artifacts of the
//! same schema (`tlt-metrics/v1`, `tlt-profile/v1`, `tlt-serve/v1`,
//! `tlt-spans/v1`) key by key, and [`profiler`] stamps every artifact with
//! provenance metadata. DESIGN.md carries the experiment index;
//! EXPERIMENTS.md records paper-vs-measured values.
//!
//! Run any experiment with, e.g.:
//!
//! ```text
//! cargo run --release -p bench --bin fig05_tcp_family
//! cargo run --release -p bench --bin fig05_tcp_family -- --full --seeds 5
//! cargo run --release -p bench --bin fig05_tcp_family -- --jobs 8
//! ```
//!
//! Host cost (wall time, peak memory, per-layer unit costs) is measured by
//! the separate `perfbench/` package, not by this crate:
//!
//! ```text
//! python3 perfbench/run.py --workload <leafspine_mix|fattree_serve|incast_rto> \
//!     --seed 1 --seconds 30 --trace 0
//! ```

pub mod benchcmp;
pub mod plan;
pub mod profiler;
pub mod runner;
