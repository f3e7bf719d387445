//! # lmmir-serve
//!
//! An always-on batched inference server for the LMM-IR reproduction: the
//! paper's whole pitch is trading golden-solver hours for inference
//! seconds, and this crate is the deployment story — load a trained
//! checkpoint once, answer IR-drop queries in milliseconds.
//!
//! Std-only by construction (the build environment has no registry access,
//! so the HTTP layer is hand-rolled over [`std::net::TcpListener`]) and
//! `unsafe`-free like the rest of the workspace.
//!
//! ## Architecture
//!
//! ```text
//!  clients ──> acceptor thread ──> event-loop threads (fixed pool:
//!                 (round-robin)    non-blocking sockets, resumable HTTP
//!                                  parse, per-state deadlines,
//!                                  result-cache lookup)
//!                                        │ mpsc jobs (result-cache misses;
//!                                        │ connection parks)
//!                                        v
//!                               one queue, `threads` inference lanes
//!                               over one RwLock<ModelRegistry>; a
//!                               free lane:
//!                               │ moves what has arrived into the
//!                               │ shared backlog (≤ max_batch), no
//!                               │ timed wait
//!                               │ takes the head + its duplicates
//!                               │ (same model and content hash)
//!                               │ prepare, one forward, encode once
//!                               │ — pool width threads / busy lanes
//!                               │ result cache insert (encoded frames)
//!                               └─> completion events wake parked
//!                                   connections on their event loop
//! ```
//!
//! Connections are **persistent** (HTTP/1.1 keep-alive with pipelining)
//! and are *not* threads: a small fixed pool of event loops (the internal
//! `event` module) drives every connection's state machine (`ReadingHead →
//! ReadingBody → AwaitingInference → Writing`) over non-blocking sockets,
//! so hundreds of idle keep-alive peers hold sockets, not stacks. Each
//! state carries its own deadline (subsuming the old idle timeout — a
//! peer trickling a body is cut off just like a silent one), and the
//! per-connection request cap closes with `Connection: close`. The
//! **result cache** stores **encoded response frames**: a repeated query
//! for an unchanged design is answered on the event-loop thread — no
//! inference-lane wakeup, no re-encode; `POST /reload` invalidates it.
//!
//! Models are `Send + Sync` (parameters sit behind `Arc` + locks that a
//! forward only reads), so the one loaded registry is shared by
//! `ServeConfig::threads` **inference lanes**: distinct designs run as
//! concurrent forwards, one per lane, and requests sharing a design
//! content hash that are queued together are served by **one** forward
//! pass. A lane that is the only busy one parallelizes its forward across
//! the whole `lmmir-par` pool; lanes busy together divide it. A reload
//! takes the registry's write lock, so it never overlaps a forward.
//!
//! ## Endpoints
//!
//! | endpoint | method | body |
//! |---|---|---|
//! | `/predict` | POST | binary predict request ([`proto`]) → IR map + hotspot mask |
//! | `/healthz` | GET | — → readiness: `ready` + one `model <name>` line per model, or `503` while loading/reloading |
//! | `/metrics` | GET | — → Prometheus-style text ([`metrics`]) |
//! | `/reload` | POST | — → reloads every checkpoint from disk |
//! | `/shutdown` | POST | — → graceful shutdown (drain, then exit) |
//!
//! ## Quick start
//!
//! ```no_run
//! use lmmir_serve::{RegistrySpec, ServeConfig, Server};
//!
//! # fn main() -> Result<(), lmmir_serve::ServeError> {
//! let spec = RegistrySpec::single("demo", "demo.lmmt");
//! let server = Server::start(ServeConfig::default(), spec)?;
//! println!("serving on http://{}", server.addr());
//! server.wait(); // blocks until POST /shutdown, then drains
//! # Ok(())
//! # }
//! ```

pub mod batch;
pub mod cache;
pub mod client;
pub mod http;
pub mod metrics;
pub mod proto;
pub mod registry;

mod event;
mod server;

pub use batch::prepare_request;
pub use cache::{result_cache, LruCache, ResultCache};
pub use client::Client;
pub use metrics::{model_label, Health, LoadState, Metrics, ModelSeries};
pub use proto::{PredictRequest, PredictResponse};
pub use registry::{ModelRegistry, ModelSpec, RegistrySpec};
pub use server::{ServeConfig, Server};

use std::fmt;

/// Error type of the serving layer.
#[derive(Debug)]
pub enum ServeError {
    /// Socket / filesystem failure.
    Io(std::io::Error),
    /// Checkpoint loading / model registry failure.
    Registry(String),
    /// Malformed wire payload (HTTP or predict protocol).
    Proto(String),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Io(e) => write!(f, "i/o error: {e}"),
            ServeError::Registry(m) => write!(f, "registry error: {m}"),
            ServeError::Proto(m) => write!(f, "protocol error: {m}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<std::io::Error> for ServeError {
    fn from(e: std::io::Error) -> Self {
        ServeError::Io(e)
    }
}
