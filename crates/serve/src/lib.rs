//! `hpcfail-serve`: a concurrent, multi-tenant query service over the
//! unified [`hpcfail_core::engine::Engine`] API.
//!
//! The crate turns the analysis toolkit into a long-running server: a
//! **trace registry** ([`registry`]) maps names to engines — traces
//! load at boot or arrive as CSV/`.hpcsnap` uploads over HTTP, each
//! with its own fingerprint and epoch — and typed
//! [`AnalysisRequest`](hpcfail_core::engine::AnalysisRequest)s arrive
//! as JSON over plain HTTP/1.1 — std only, no frameworks. The HTTP
//! surface is versioned and trace-scoped (`/v1/traces/{name}/query`,
//! see [`routes`]); it is the only surface — the unversioned paths of
//! earlier releases answer a typed 404.
//! Re-uploading a name is an atomic epoch swap: in-flight queries
//! finish against their pinned epoch, and the old epoch's memory is
//! released when its last pin drops. Under `--max-resident-bytes`,
//! least-recently-queried traces demote to snapshot-backed cold state
//! and rehydrate transparently on the next query.
//!
//! Serving adds three behaviors on top of the engine, none of which
//! can change an answer's bytes:
//!
//! * **Result cache** ([`cache`]): an LRU keyed on
//!   `(trace name, epoch fingerprint, canonical request JSON)`. Warm
//!   queries skip the analysis entirely; a name's stale epochs can
//!   never answer.
//! * **Coalescing** ([`coalesce`]): identical in-flight queries elect
//!   one leader; followers share its serialized result.
//! * **Deadlines** ([`server`]): a follower whose `x-deadline-ms`
//!   passes before the leader finishes degrades gracefully to a typed
//!   `504` instead of blocking a worker.
//!
//! Under load the server protects itself instead of falling over:
//!
//! * **Admission control** ([`admission`]): a bounded gate in front of
//!   the worker pool classifies every query and batch by cost
//!   (cached hit / cold scan / batch) and sheds with *typed* `429`/
//!   `503` + `Retry-After` when full — brownout mode sheds expensive
//!   classes first while `/v1/healthz` and `/v1/metrics` stay always-on.
//! * **Retrying client** ([`retry`]): seeded jittered exponential
//!   backoff with a retry budget and honor-`Retry-After` semantics,
//!   used by `hpcfail-serve query` and `hpcfail-load`'s HTTP target.
//! * **Chaos injection** ([`chaos`]): a seeded `--chaos spec.json`
//!   injects latency, stalls, typed errors, drops and forced sheds at
//!   named points, deterministically, so storm recovery is testable.
//!
//! Observability is request-scoped and live:
//!
//! * Every request runs under a trace; the id comes back in the
//!   `x-trace-id` header, and `x-trace: 1` returns the full span tree
//!   inline ([`server`]).
//! * `GET /v1/metrics` exports the registry in Prometheus text format
//!   ([`metrics`]), validated by the in-tree parser ([`promtext`]).
//! * Per-kind sliding-window latency and error budgets feed SLO
//!   standings ([`slo`]) into `/v1/healthz` and `serve_slo_*` series.
//! * An optional size-capped JSONL access log records one line per
//!   request ([`accesslog`]).
//! * `hpcfail-serve top` polls `/v1/metrics` into a live dashboard
//!   ([`top`]).
//!
//! The flat counters (`serve.requests`, `serve.cache.hit`,
//! `serve.cache.miss`, `serve.coalesced`, `serve.degraded`), the
//! `serve.inflight` gauge and per-kind `serve.query.<kind>` spans all
//! land in the standard `hpcfail-obs` registry, so a server run
//! exports the same manifest format as a `repro` run.
//!
//! ```no_run
//! use hpcfail_core::engine::Engine;
//! use hpcfail_serve::server::{spawn, ServerConfig};
//! use hpcfail_store::trace::Trace;
//!
//! let engine = Engine::new(Trace::new());
//! let handle = spawn(engine, ServerConfig::default()).expect("bind");
//! println!("serving on {}", handle.addr());
//! handle.shutdown();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod accesslog;
pub mod admission;
pub mod cache;
pub mod chaos;
pub mod client;
pub mod coalesce;
pub mod http;
pub mod metrics;
pub mod promtext;
pub mod registry;
pub mod retry;
pub mod routes;
pub mod server;
pub mod slo;
pub mod top;

pub use admission::{AdmissionConfig, CostClass, ShedPolicy, ShedReason};
pub use chaos::{ChaosConfig, ChaosError};
pub use client::{Client, Response};
pub use registry::{TraceRegistry, TraceSource, TraceSummary, DEFAULT_TRACE};
pub use retry::{RetryPolicy, RetryingClient};
pub use routes::{Endpoint, RouteMatch, Routed};
pub use server::{spawn, ServerConfig, ServerHandle};
pub use slo::{SloPolicy, SloReport};
