//! Offline stand-in for the `crossbeam` facade crate.
//!
//! The build environment has no registry access, so this workspace vendors
//! the *exact* API subset it consumes: `crossbeam::channel` bounded MPMC
//! channels with disconnect semantics (see `shims/README.md`). Semantics
//! follow crossbeam-channel:
//!
//! * `send` blocks while the channel is full and fails once every receiver
//!   is gone (returning the record);
//! * `recv` blocks while the channel is empty and fails once every sender
//!   is gone *and* the queue is drained;
//! * clones share one queue (work-stealing consumers, fan-in producers).
//!
//! Wake-up rule: a push wakes a receiver, and a pop wakes a sender, only
//! when one is parked (blocked in `recv`/`recv_timeout`, or in `send`).
//! The parked counts live under the queue's lock, so no wake-up is lost,
//! and an uncontended hand-off costs no futex call. Disconnects still wake
//! every parked peer. Upstream crossbeam behaves the same way.

pub mod channel;
