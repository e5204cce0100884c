#![deny(missing_docs)]

//! Instrumentation shared by all algorithms: phase timers (Tables III, VII,
//! VIII), operation counters (the "% queries saved" column of Table II),
//! deep-size memory accounting (Table IV) and plain-text table rendering
//! for the reproduction harnesses.

//! ```
//! use metrics::{Counters, PhaseTimer};
//!
//! let c = Counters::new();
//! c.count_range_query();
//! c.count_query_saved();
//! assert_eq!(c.pct_queries_saved(), 50.0);
//!
//! let mut phases = PhaseTimer::new();
//! phases.add_secs("build", 1.0);
//! phases.add_secs("query", 3.0);
//! assert_eq!(phases.split_up()[1].2, 75.0); // query is 75% of the total
//! ```

pub mod counters;
pub mod mem;
pub mod table;
pub mod timer;

pub use counters::Counters;
pub use mem::{slice_bytes, vec_bytes, MemUsage};
pub use table::Table;
pub use timer::{thread_cpu_secs, BusyTimer, Phase, PhaseTimer, Stopwatch};
