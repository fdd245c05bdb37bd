//! Criterion group `frontend_cache`: capture-and-replay against live
//! simulation on a figure-style configuration fan — one workload, N
//! frontend-identical engine configurations. `capture8_replay_8cfg`
//! measures the whole cached sweep (one live capture + eight replayed
//! lanes); `replay_only_8cfg` isolates the replay engine by reusing a
//! pre-captured buffer, which is the marginal cost of every grid point
//! after the first. `replay_only_mixed_8cfg` replays the same buffer into
//! a fan that alternates NSF and segmented files, the shape of the
//! Figs. 11-12 size sweep. The serial baseline is the same fan run live.

use criterion::{criterion_group, criterion_main, Criterion};
use nsf_bench::{nsf_config, segmented_config, SEQ_CTX_REGS};
use nsf_sim::SimConfig;
use nsf_trace::{capture_frontend, replay_frontend};
use nsf_workloads::{gatesim, run};

fn bench_frontend_cache(c: &mut Criterion) {
    let mut g = c.benchmark_group("frontend_cache");
    g.sample_size(10);
    let w = gatesim::build(0);
    // A Figure-12-style size fan: eight NSF capacities, shared frontend.
    let cfgs: Vec<SimConfig> = (0..8u32).map(|i| nsf_config(48 + 16 * i)).collect();

    g.bench_function("live_8cfg", |b| {
        b.iter(|| {
            cfgs.iter()
                .map(|&cfg| run(&w, cfg).expect("validates"))
                .collect::<Vec<_>>()
        })
    });
    g.bench_function("capture_replay_8cfg", |b| {
        b.iter(|| {
            let buf = capture_frontend(&w, cfgs[0]).expect("captures");
            let mut reports = vec![buf.report.clone()];
            reports.extend(replay_frontend(&buf, &w, &cfgs[1..]).expect("replays"));
            reports
        })
    });
    let buf = capture_frontend(&w, cfgs[0]).expect("captures");
    g.bench_function("replay_only_8cfg", |b| {
        b.iter(|| replay_frontend(&buf, &w, &cfgs).expect("replays"))
    });
    let mixed: Vec<SimConfig> = (0..8u32)
        .map(|i| match i % 2 {
            0 => nsf_config(48 + 16 * i),
            _ => segmented_config(2 + i / 2, SEQ_CTX_REGS),
        })
        .collect();
    g.bench_function("replay_only_mixed_8cfg", |b| {
        b.iter(|| replay_frontend(&buf, &w, &mixed).expect("replays"))
    });
    g.finish();
}

criterion_group!(benches, bench_frontend_cache);
criterion_main!(benches);
