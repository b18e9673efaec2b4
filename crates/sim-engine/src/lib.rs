//! Deterministic discrete-event simulation kernel.
//!
//! MGPUSim (the simulator the paper builds on) is an event-driven simulator;
//! this crate provides the equivalent substrate: a time-ordered event queue
//! with deterministic FIFO tie-breaking, a monotonic clock, and a small
//! server-pool helper used to model resources such as the IOMMU's eight
//! shared page-table walkers.
//!
//! The queue is a two-tier calendar queue (per-cycle bucket ring + far
//! tier, see [`EventQueue`]): the short-horizon common case — TLB, link and
//! walk latencies are small constants — costs O(1) per event, and the
//! batch API ([`EventQueue::pop_batch`]) hands a dispatch loop every event
//! of a cycle in one operation, by moving the bucket's buffer rather than
//! copying its events. Idle buckets own no memory: drained buffers wait in
//! a LIFO spare pool for the next bucket to come alive, so the queue's
//! memory follows its occupied buckets, not the ring length. Far-future
//! events (fault batches, snapshot timers, a replayed trace's requests)
//! wait in the far tier and are promoted as the clock advances. Far
//! pushes that arrive in time order, as a trace replay's do, are appended
//! to an in-order run in O(1); only earlier pushes pay for the overflow
//! heap behind it.
//!
//! The queue is generic over the event payload so the system model (in the
//! `least-tlb` crate) can define one flat event enum and keep dispatch in a
//! single match statement — the structure that makes a simulator of this kind
//! auditable.
//!
//! # Examples
//!
//! ```
//! use mgpu_types::Cycle;
//! use sim_engine::EventQueue;
//!
//! let mut q = EventQueue::new();
//! q.schedule(Cycle(5), "late");
//! q.schedule(Cycle(1), "early");
//! q.schedule(Cycle(5), "late-but-second");
//!
//! assert_eq!(q.pop(), Some((Cycle(1), "early")));
//! assert_eq!(q.pop(), Some((Cycle(5), "late")));
//! assert_eq!(q.pop(), Some((Cycle(5), "late-but-second")));
//! assert_eq!(q.pop(), None);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod queue;
mod server;

pub use queue::EventQueue;
pub use server::ServerPool;
