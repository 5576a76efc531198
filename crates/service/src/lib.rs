//! The long-running reachability service (ROADMAP item 2).
//!
//! A server owns one transitive closure `R*` and answers a command stream
//! — the datacenter query/update pattern where reads vastly outnumber
//! structural changes. The closure is a
//! [`systolic_closure::SparseClosure`]: a component id per vertex and one
//! list-or-bits row per component, never an `n × n` matrix. The commands:
//!
//! * `REACH u v` — two component lookups and one row test;
//! * `INSERT u v` — answered by the closure when `u` already reaches `v`,
//!   otherwise a rebuild of the component rows (not counted as a
//!   recompute); `added=` is the exact change of the pair count;
//! * `DELETE u v` — marks the closure dirty; the next read triggers a
//!   recompute through the condensation, so consecutive deletes coalesce
//!   into one;
//! * `STATS` / `QUIT` — introspection and session end. `pairs=` is
//!   counted once per rebuild, when first asked for.
//!
//! The recompute path can run in software (`condense_csr` and the
//! ascending-id sweep, as `systolic closure --sparse`) or through a shared
//! [`systolic_partition::AdmissionBatcher`], which packs the pending
//! component-DAG closures of up to 64 tenants into one `BoolLanes` run on
//! the packed engine's memoized plan — a warm server never recompiles and
//! never runs scalar when it can pack. Its closed DAG is encoded into the
//! same component rows. A DAG of more than [`MAX_BATCHED_COMPONENTS`]
//! components refreshes in software: the simulated array's cost grows
//! with the cube of the DAG size.
//!
//! Production hardening on top of the core service:
//!
//! * [`wal`] — durability: a checksummed write-ahead log of mutations
//!   plus periodic snapshots; recovery replays the longest committed
//!   prefix and discards a torn tail.
//! * [`server::SharedService`] — many concurrent sessions over one
//!   `RwLock`-guarded service, with non-blocking degraded reads
//!   (`stale=true`) while a recompute holds the writer, answered from a
//!   published snapshot that shares the closure's `Arc`.
//! * [`chaos`] — seeded fault-injecting transport wrappers
//!   (disconnects, partial writes, bit flips) for chaos tests.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chaos;
pub mod protocol;
pub mod server;
pub mod service;
pub mod stream;
pub mod wal;

pub use chaos::{ChaosPlan, ChaosReader, ChaosWriter};
pub use protocol::{parse_command, Command, Response};
pub use server::{serve, serve_tcp, ServeSummary, SessionLimits, SharedService};
pub use service::{
    ReachService, ServiceError, ServiceStats, MAX_BATCHED_COMPONENTS, MAX_LOAD_VERTICES,
};
pub use stream::seeded_stream;
pub use wal::{Durability, RecoveryReport, WalOp, WalRecord};
