//! # dsolve
//!
//! The DSOLVE driver (§6): verifies a NanoML module (`.ml`) against a
//! property specification (`.mlq` — measures, named recursive
//! refinements, `val` types) using a set of logical qualifiers
//! (`.quals`), and reports Figure-10-style rows (LOC, annotations, time,
//! properties).
//!
//! ```
//! use dsolve::Job;
//!
//! let job = Job::from_sources(
//!     "demo",
//!     "let abs x = if x < 0 then 0 - x else x\nlet ok = assert (abs (0 - 3) >= 0)",
//!     "",
//!     "qualif NonNeg : 0 <= VV",
//! );
//! let result = job.run().unwrap();
//! assert!(result.is_safe());
//! ```

#![warn(missing_docs)]

mod driver;
pub mod fleet;
pub mod profile;
mod report;
mod spec;
mod stats;

pub use driver::{count_loc, Job, JobError, JobResult};
pub use fleet::{run_fleet, run_program, FleetOptions, FleetSummary, FleetVerdict, Matrix};
pub use report::{Row, Status, Table};
pub use spec::{
    map_witness, parse_mlq, parse_quals, scrape_qualifiers, RhoDef, SpecError, SpecFile,
};
pub use stats::stats_json;
