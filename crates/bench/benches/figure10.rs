//! Criterion benches over the Fig. 10 programs that verify quickly
//! enough to sample repeatedly. The complete table — including the
//! heavyweight rows — is produced by the one-shot binary:
//!
//! ```text
//! cargo run --release -p dsolve-bench --bin figure10
//! ```

use criterion::{criterion_group, criterion_main, Criterion};
use dsolve_bench::{load, run};
use std::time::Duration;

/// Rows cheap enough for repeated sampling.
const FAST: &[&str] = &["malloc", "subvsolve", "stablesort"];

fn bench_verification(c: &mut Criterion) {
    let mut g = c.benchmark_group("figure10");
    g.sample_size(10);
    g.measurement_time(Duration::from_secs(20));
    for name in FAST {
        // Skip rows that do not currently verify rather than crash the
        // whole bench run.
        match run(name) {
            Ok(r) if r.is_safe() => {}
            _ => {
                eprintln!("skipping {name}: does not verify in this configuration");
                continue;
            }
        }
        let job = load(name).expect("benchmark exists");
        g.bench_function(*name, |b| {
            b.iter(|| {
                let res = job.run().expect("front end");
                assert!(res.is_safe());
                res.metrics.queries
            })
        });
    }
    g.finish();
}

fn bench_frontend(c: &mut Criterion) {
    // Parsing + HM inference alone, on the largest source.
    use dsolve_nanoml::{infer_program, parse_program, resolve_program, DataEnv};
    let src = std::fs::read_to_string(dsolve_bench::benchmarks_dir().join("vec.ml")).unwrap();
    let (ml_builtins, _) = dsolve_liquid::builtin_schemes();
    c.bench_function("frontend/vec", |b| {
        b.iter(|| {
            let prog = parse_program(&src).unwrap();
            let mut data = DataEnv::with_builtins();
            data.add_program(&prog.datatypes).unwrap();
            let prog = resolve_program(&prog, &data).unwrap();
            infer_program(&prog, &data, &ml_builtins).unwrap()
        })
    });
}

criterion_group!(benches, bench_verification, bench_frontend);
criterion_main!(benches);
