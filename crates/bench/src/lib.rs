//! Shared benchmark definitions: the twelve programs of Fig. 10 with
//! their properties and the paper's reported numbers.

pub mod diff;

use dsolve::{Job, JobError};
use std::path::{Path, PathBuf};

/// One benchmark row: program, verified properties, and the numbers
/// reported in Fig. 10 of the paper (for EXPERIMENTS.md comparisons).
#[derive(Clone, Copy, Debug)]
pub struct Benchmark {
    /// File stem under `benchmarks/`.
    pub name: &'static str,
    /// Properties verified (the table's Property column).
    pub properties: &'static str,
    /// Paper-reported lines of code.
    pub paper_loc: usize,
    /// Paper-reported manual qualifier annotations.
    pub paper_annotations: usize,
    /// Paper-reported verification time in seconds (DSOLVE + Z3, 2009).
    pub paper_time_s: u64,
}

/// The Fig. 10 rows.
pub const BENCHMARKS: &[Benchmark] = &[
    Benchmark {
        name: "listsort",
        properties: "Sorted, Elts",
        paper_loc: 110,
        paper_annotations: 7,
        paper_time_s: 11,
    },
    Benchmark {
        name: "map",
        properties: "Balance, BST, Set",
        paper_loc: 95,
        paper_annotations: 3,
        paper_time_s: 23,
    },
    Benchmark {
        name: "ralist",
        properties: "Len",
        paper_loc: 91,
        paper_annotations: 3,
        paper_time_s: 3,
    },
    Benchmark {
        name: "redblack",
        properties: "Balance, Color, BST",
        paper_loc: 105,
        paper_annotations: 3,
        paper_time_s: 32,
    },
    Benchmark {
        name: "stablesort",
        properties: "Sorted",
        paper_loc: 161,
        paper_annotations: 1,
        paper_time_s: 6,
    },
    Benchmark {
        name: "vec",
        properties: "Balance, Len1, Len2",
        paper_loc: 343,
        paper_annotations: 9,
        paper_time_s: 103,
    },
    Benchmark {
        name: "heap",
        properties: "Heap, Min, Set",
        paper_loc: 120,
        paper_annotations: 2,
        paper_time_s: 41,
    },
    Benchmark {
        name: "splayheap",
        properties: "BST, Min, Set",
        paper_loc: 128,
        paper_annotations: 3,
        paper_time_s: 7,
    },
    Benchmark {
        name: "malloc",
        properties: "Alloc",
        paper_loc: 71,
        paper_annotations: 2,
        paper_time_s: 2,
    },
    Benchmark {
        name: "bdd",
        properties: "VariableOrder",
        paper_loc: 205,
        paper_annotations: 3,
        paper_time_s: 38,
    },
    Benchmark {
        name: "unionfind",
        properties: "Acyclic",
        paper_loc: 61,
        paper_annotations: 2,
        paper_time_s: 5,
    },
    Benchmark {
        name: "subvsolve",
        properties: "Acyclic",
        paper_loc: 264,
        paper_annotations: 2,
        paper_time_s: 26,
    },
];

/// The repository's `benchmarks/` directory, resolved relative to this
/// crate so binaries work from any working directory.
pub fn benchmarks_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join("..")
        .join("benchmarks")
}

/// Loads a benchmark's job.
///
/// # Errors
///
/// Fails when the benchmark's `.ml` file cannot be read.
pub fn load(name: &str) -> Result<Job, JobError> {
    Job::from_path(benchmarks_dir().join(format!("{name}.ml")))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_benchmark_files_exist() {
        for b in BENCHMARKS {
            let p = benchmarks_dir().join(format!("{}.ml", b.name));
            assert!(p.exists(), "missing {}", p.display());
        }
    }

    #[test]
    fn paper_totals_match_figure_10() {
        let loc: usize = BENCHMARKS.iter().map(|b| b.paper_loc).sum();
        let ann: usize = BENCHMARKS.iter().map(|b| b.paper_annotations).sum();
        let t: u64 = BENCHMARKS.iter().map(|b| b.paper_time_s).sum();
        assert_eq!(loc, 1754);
        assert_eq!(ann, 40);
        assert_eq!(t, 297);
    }
}
