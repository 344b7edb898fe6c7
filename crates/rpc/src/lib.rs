//! # tiera-rpc — the Tiera server's RPC layer
//!
//! Paper §3: "The Tiera server is deployed as a Thrift server on an EC2
//! instance... When the server starts up, it begins by reading the
//! configuration file that is used to indicate the different tiers..., the
//! size of the thread pool dedicated to service client requests, \[and\] the
//! size of thread pool dedicated to service responses and evaluate events."
//!
//! This crate replaces Thrift with a small, fully specified framed binary
//! protocol ([`proto`]) — pipelined and batched, one framing for every
//! client (see DESIGN.md §3d) — and provides:
//!
//! * [`TieraServer`] — a TCP server with sharded accept (each connection
//!   pinned to a worker thread), a per-connection read/write split with
//!   response coalescing for pipelined clients, and a dedicated event
//!   thread that maps wall time onto the instance's virtual clock and
//!   drives timers/background responses (the "response pool" of the
//!   paper, §3);
//! * [`TieraClient`] — a blocking client, one request in flight, with a
//!   per-request read deadline and automatic reconnect after transport
//!   errors;
//! * [`PipelinedClient`] — a v2 client keeping many requests in flight on
//!   one connection, with write coalescing and `multi_put`/`multi_get`/
//!   `multi_delete` batch helpers;
//! * [`LocalClient`] — an in-process loopback with the same API, used when
//!   the application colocates with the server (and by the Figure 18
//!   overhead measurements, where RPC cost must not drown the control-layer
//!   cost being measured).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod proto;
pub mod server;

pub use client::{
    ClientReceipt, LocalClient, PipelinedClient, TieraClient, Token, DEFAULT_READ_DEADLINE,
};
pub use server::{ServerConfig, ServerHandle, TieraServer};
