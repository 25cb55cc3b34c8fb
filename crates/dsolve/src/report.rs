//! Figure-10-style reporting.

use crate::driver::JobResult;
use dsolve_logic::{Exhaustion, Outcome};
use std::fmt;
use std::time::Duration;

/// The verdict column of a report row.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Status {
    /// Every obligation was proven within budget.
    Safe,
    /// At least one obligation failed with full budget available.
    Unsafe,
    /// A budget ran out (or a panic was isolated) before a definite
    /// answer.
    Unknown(Exhaustion),
    /// The job never produced a verdict (front-end or spec error).
    Error(String),
}

impl Status {
    /// Whether the row verified.
    pub fn is_safe(&self) -> bool {
        matches!(self, Status::Safe)
    }
}

impl From<&Outcome> for Status {
    fn from(o: &Outcome) -> Status {
        match o {
            Outcome::Safe => Status::Safe,
            Outcome::Unsafe => Status::Unsafe,
            Outcome::Unknown(e) => Status::Unknown(e.clone()),
        }
    }
}

impl fmt::Display for Status {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Status::Safe => f.write_str("SAFE"),
            Status::Unsafe => f.write_str("UNSAFE"),
            Status::Unknown(e) => write!(f, "UNKNOWN ({e})"),
            Status::Error(m) => write!(f, "ERROR ({m})"),
        }
    }
}

/// One row of the results table (Fig. 10 of the paper).
#[derive(Clone, Debug)]
pub struct Row {
    /// Program name.
    pub program: String,
    /// Lines of code.
    pub loc: usize,
    /// Manual qualifier annotations.
    pub annotations: usize,
    /// Verification time.
    pub time: Duration,
    /// Verified properties.
    pub properties: String,
    /// The verdict.
    pub status: Status,
}

impl Row {
    /// Builds a row from a job result.
    pub fn from_result(
        program: impl Into<String>,
        properties: impl Into<String>,
        r: &JobResult,
    ) -> Row {
        Row {
            program: program.into(),
            loc: r.loc,
            annotations: r.annotations,
            time: r.time,
            properties: properties.into(),
            status: Status::from(r.outcome()),
        }
    }
}

/// The whole table, with totals (the paper's last row).
#[derive(Clone, Debug, Default)]
pub struct Table {
    /// Rows in benchmark order.
    pub rows: Vec<Row>,
}

impl Table {
    /// Creates an empty table.
    pub fn new() -> Table {
        Table::default()
    }

    /// Appends a row.
    pub fn push(&mut self, row: Row) {
        self.rows.push(row);
    }

    /// Total LOC.
    pub fn total_loc(&self) -> usize {
        self.rows.iter().map(|r| r.loc).sum()
    }

    /// Total annotations.
    pub fn total_annotations(&self) -> usize {
        self.rows.iter().map(|r| r.annotations).sum()
    }

    /// Total time.
    pub fn total_time(&self) -> Duration {
        self.rows.iter().map(|r| r.time).sum()
    }

    /// Whether every row verified.
    pub fn all_safe(&self) -> bool {
        self.rows.iter().all(|r| r.status.is_safe())
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{:<12} {:>5} {:>5} {:>8}  {:<28} Status",
            "Program", "LOC", "Ann.", "T(s)", "Property"
        )?;
        writeln!(f, "{}", "-".repeat(72))?;
        for r in &self.rows {
            writeln!(
                f,
                "{:<12} {:>5} {:>5} {:>8.2}  {:<28} {}",
                r.program,
                r.loc,
                r.annotations,
                r.time.as_secs_f64(),
                r.properties,
                r.status
            )?;
        }
        writeln!(f, "{}", "-".repeat(72))?;
        writeln!(
            f,
            "{:<12} {:>5} {:>5} {:>8.2}",
            "Total",
            self.total_loc(),
            self.total_annotations(),
            self.total_time().as_secs_f64()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsolve_logic::{Phase, Resource};

    #[test]
    fn table_totals() {
        let mut t = Table::new();
        t.push(Row {
            program: "a".into(),
            loc: 10,
            annotations: 2,
            time: Duration::from_millis(500),
            properties: "Sorted".into(),
            status: Status::Safe,
        });
        t.push(Row {
            program: "b".into(),
            loc: 20,
            annotations: 3,
            time: Duration::from_millis(1500),
            properties: "BST".into(),
            status: Status::Safe,
        });
        assert_eq!(t.total_loc(), 30);
        assert_eq!(t.total_annotations(), 5);
        assert_eq!(t.total_time(), Duration::from_millis(2000));
        assert!(t.all_safe());
        let s = t.to_string();
        assert!(s.contains("Sorted"));
        assert!(s.contains("Total"));
    }

    #[test]
    fn unknown_rows_break_all_safe_and_render_reason() {
        let mut t = Table::new();
        t.push(Row {
            program: "p".into(),
            loc: 1,
            annotations: 0,
            time: Duration::ZERO,
            properties: "X".into(),
            status: Status::Unknown(Exhaustion::new(Phase::Driver, Resource::Panic)),
        });
        assert!(!t.all_safe());
        let s = t.to_string();
        assert!(s.contains("UNKNOWN (panic exhausted in driver)"), "{s}");
    }
}
