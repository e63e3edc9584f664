//! # ceh-perfbench — the repository's benchmark
//!
//! A single-process, closed-loop load generator for the concurrent
//! extendible hash file. Two client threads replay seeded operation
//! plans against one of four workloads (`read-zipf`, `update-uniform`,
//! `durable-mem`, `dist-tcp`), time every operation, and check every
//! answer against an exact model. An untraced run reports end-to-end
//! metrics; a traced run reports per-layer metrics from the layers'
//! own `ceh-obs` registries, timed probes of each layer's public
//! functions, and spans around every layer call. See `README.md`.

pub mod drive;
pub mod gen;
pub mod report;
pub mod trace;
pub mod workloads;
