//! Criterion benchmarks of the full pipeline: compiling a benchmark and
//! simulating it on each register file organization.

use criterion::{criterion_group, criterion_main, Criterion};
use nsf_bench::{nsf_config, segmented_config, segmented_software_config, PAR_CTX_REGS};
use nsf_sim::{RegFileSpec, SimConfig};
use nsf_workloads::{gamteb, gatesim, paraffins, quicksort, run};

fn bench_simulation(c: &mut Criterion) {
    let mut g = c.benchmark_group("simulate");
    g.sample_size(20);
    let gs = gatesim::build(0);
    let qs = quicksort::build(0);
    for (tag, cfg) in [
        ("nsf", nsf_config(128)),
        ("segmented_hw", segmented_config(4, 32)),
        ("segmented_sw", segmented_software_config(4, 32)),
    ] {
        g.bench_function(format!("gatesim_{tag}"), |b| {
            b.iter(|| run(&gs, cfg).expect("validates"));
        });
        g.bench_function(format!("quicksort_{tag}"), |b| {
            b.iter(|| run(&qs, cfg).expect("validates"));
        });
    }
    g.finish();
}

/// The multithreaded benchmarks, which always run on the live `Machine`
/// (they switch threads too often to batch or replay). One point per
/// engine family the run loop is monomorphized for.
fn bench_live_parallel(c: &mut Criterion) {
    let mut g = c.benchmark_group("simulate/live_par");
    g.sample_size(20);
    let workloads = [gamteb::build(0), paraffins::build(0), quicksort::build(0)];
    for (tag, cfg) in [
        ("nsf128", nsf_config(128)),
        ("segmented_hw_4x32", segmented_config(4, PAR_CTX_REGS)),
        (
            "windows8",
            SimConfig::with_regfile(RegFileSpec::sparc_windows(PAR_CTX_REGS)),
        ),
    ] {
        for w in &workloads {
            g.bench_function(format!("{}_{tag}", w.name.to_lowercase()), |b| {
                b.iter(|| run(w, cfg).expect("validates"));
            });
        }
    }
    g.finish();
}

fn bench_compile(c: &mut Criterion) {
    let mut g = c.benchmark_group("compile");
    g.sample_size(20);
    // `build` runs the whole front end: IR construction, liveness, graph
    // coloring, codegen, plus the Rust reference computation.
    g.bench_function("gatesim_build", |b| b.iter(|| gatesim::build(0)));
    g.bench_function("quicksort_build", |b| b.iter(|| quicksort::build(0)));
    g.finish();
}

fn bench_default_config(c: &mut Criterion) {
    // Guard against pathological slowdowns in the default setup.
    c.bench_function("default_simconfig_gatesim", |b| {
        let w = gatesim::build(0);
        b.iter(|| run(&w, SimConfig::default()).expect("validates"));
    });
}

criterion_group!(
    benches,
    bench_simulation,
    bench_live_parallel,
    bench_compile,
    bench_default_config
);
criterion_main!(benches);
