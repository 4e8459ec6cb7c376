//! `desim` — a small, generic discrete-event simulation kernel.
//!
//! The crate grew out of the `hpcsim` port (see `ARCHITECTURE.md`): the
//! cluster simulator used to advance time by linearly scanning job vectors
//! for the next arrival/completion, which capped trace sizes and PPO
//! rollout throughput. This kernel factors the event-driven core out into
//! a reusable, workload-agnostic library:
//!
//! * [`SimTime`] — simulation clock time: a totally ordered `f64` wrapper
//!   (NaN is rejected at construction), so times can key a priority queue.
//! * [`EventQueue`] — a `BinaryHeap`-backed future-event list with **stable
//!   FIFO tie-breaking**: events scheduled for the same instant execute in
//!   scheduling order, making every schedule deterministic.
//! * [`Replicator`] — N independent replications with decorrelated
//!   per-replication seeds, fanned out across OS threads.
//!
//! There is no run loop here: `hpcsim::Simulation` drives the queue itself
//! (`advance` / `apply_due_events`), because the scheduler must pause at
//! every decision point to hand the backfilling choice to a heuristic or
//! the RL agent.
//!
//! # Determinism
//!
//! Two properties make kernel schedules reproducible: the queue's total
//! order `(time, insertion sequence)` leaves no tie to platform hash/heap
//! quirks, and [`SimTime`]'s total order admits no NaN. Replications are
//! seeded from a SplitMix64 stream of the master seed, so a replication's
//! result depends only on `(master seed, replication index)` — never on
//! thread scheduling.

mod queue;
mod replicate;
mod time;

pub use queue::EventQueue;
pub use replicate::{replication_seed, Replicator};
pub use time::SimTime;
