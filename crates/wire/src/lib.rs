//! # psnap-wire — serving partial snapshots over sockets
//!
//! A std-only transport that hosts a [`SnapshotService`] over TCP or
//! unix-domain sockets, making the in-process serving stack reachable from
//! other processes with the same semantics:
//!
//! * **Framing** ([`frame`]): 4-byte big-endian length prefix + UTF-8 JSON
//!   payload. Oversized lengths are rejected before allocation; truncation
//!   is an error, never a panic.
//! * **Protocol** ([`proto`]): versioned `hello`/`welcome` handshake, then
//!   id-multiplexed submit/scan/stats requests. Values ride as
//!   precision-safe JSON (decimal strings above 2⁵³). Backpressure is
//!   explicit: a full ingestion queue answers `{"ok":false,"error":"busy"}`
//!   — a frame, not a dropped request.
//! * **Server** ([`server`]): a blocking acceptor thread; per-connection
//!   ingestion queues reusing the in-process ticket/backpressure machinery;
//!   requests served on the connection's reader thread when the service's
//!   pipeline is idle and the store is wait-free; idle timeouts, half-close
//!   draining, and graceful shutdown (in-flight tickets resolve and flush
//!   before the listener closes). Each request roots a flight-recorder span
//!   at frame decode, so wire requests appear in span trees end to end.
//! * **Client** ([`client`]): [`RemoteClientHandle`] mirrors the in-process
//!   `ClientHandle` API; a reader thread resolves tickets out of order, and
//!   a dead connection fails every outstanding ticket rather than hanging.
//!
//! ```no_run
//! use std::sync::Arc;
//! use psnap_serve::{Executor, Freshness, ServiceConfig, SnapshotService};
//! use psnap_wire::{RemoteClientHandle, WireServer, WireServerConfig};
//!
//! let executor = Executor::new(2);
//! let snapshot = psnap_core::CasPartialSnapshot::new(16, 4, 0u64);
//! let service = Arc::new(SnapshotService::start(
//!     snapshot, ServiceConfig::default(), &executor,
//! ));
//! let server = WireServer::serve_tcp(
//!     Arc::clone(&service), "127.0.0.1:0", WireServerConfig::default(), &executor,
//! ).unwrap();
//! let addr = server.local_addr().unwrap();
//!
//! let client = RemoteClientHandle::connect_tcp(addr).unwrap();
//! client.submit_blocking(3, 42).unwrap();
//! assert_eq!(client.scan_blocking(vec![3], Freshness::Fresh).unwrap(), vec![42]);
//! ```
//!
//! [`SnapshotService`]: psnap_serve::SnapshotService

#![warn(missing_docs)]

pub mod client;
pub mod frame;
pub mod proto;
pub mod server;
pub(crate) mod stream;

pub use client::{RemoteClientHandle, RemoteScanTicket, RemoteSubmitTicket, WireError};
pub use frame::{encode_frame, read_frame, read_frame_str, write_frame, FrameError, MAX_FRAME_LEN};
pub use proto::{Reply, ReplyBody, Request, RequestBody, WireErrorKind, PROTOCOL_VERSION};
pub use server::{WireServer, WireServerConfig};
