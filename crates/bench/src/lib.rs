//! Benchmark harness crate. The Criterion benches live in `benches/`:
//!
//! * `figures` — one benchmark per paper table/figure, each running the
//!   corresponding experiment at quick (scaled-down) scale;
//! * `micro` — microbenchmarks of the hot structures (TLB, cuckoo filter,
//!   reuse tracker, event queue, page table, workload generator);
//! * `engine` — microbenchmarks of the calendar event queue's regimes
//!   (ring fast path, same-cycle batch drain, wraparound, overflow
//!   promotion, and the far tier's in-order bulk load and heap fallback).
//!
//! The paper-scale experiment runs are produced by the `figures` binary of
//! the `least-tlb` crate, not by Criterion (they take seconds to minutes
//! per run and are not statistical microbenchmarks).
//!
//! The library part of this crate is the [`engine_gate`] comparator: the
//! logic behind CI's `bench-engine` job, which fails the build when the
//! quick-suite sim rate regresses past the committed tolerance. The
//! `engine-gate` binary (`src/bin/engine-gate.rs`) is its CLI.

#![forbid(unsafe_code)]

pub mod engine_gate;
