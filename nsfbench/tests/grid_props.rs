//! Properties of the benchmark's inputs: seeding, and what each
//! workload's programs and configurations must be for the workload to
//! stress the layers it exists for.

use nsf_sim::batchable_program;
use nsfbench::{build, grid_key, quartiles, synth_params, Kind, SplitMix, DEFAULT_SEED, SCALE};

const SEEDS: [u64; 3] = [DEFAULT_SEED, 7, 1234];

#[test]
fn same_seed_gives_an_identical_grid() {
    for kind in Kind::ALL {
        for seed in SEEDS {
            assert_eq!(
                grid_key(&build(kind, seed, SCALE)),
                grid_key(&build(kind, seed, SCALE)),
                "{} seed {seed}",
                kind.name()
            );
        }
    }
}

#[test]
fn another_seed_gives_another_grid_of_the_same_size() {
    for kind in Kind::ALL {
        let keys: Vec<Vec<String>> = SEEDS
            .iter()
            .map(|&s| grid_key(&build(kind, s, SCALE)))
            .collect();
        for (i, a) in keys.iter().enumerate() {
            for b in &keys[i + 1..] {
                assert_eq!(a.len(), b.len(), "{}: point count", kind.name());
                assert_ne!(a, b, "{}: seeds must draw different grids", kind.name());
            }
        }
    }
}

#[test]
fn seq_fanout_fans_are_batchable_and_share_one_frontend() {
    for seed in SEEDS {
        let figures = build(Kind::SeqFanout, seed, SCALE);
        let mut widths = Vec::new();
        for f in &figures {
            for (wi, w) in f.sweep.workloads.iter().enumerate() {
                assert!(batchable_program(&w.program), "{} is not batchable", w.name);
                let fan: Vec<_> = f.sweep.points.iter().filter(|p| p.workload == wi).collect();
                assert!(
                    fan.iter().all(|p| p.cfg.frontend_eq(&fan[0].cfg)),
                    "{} fan of {} mixes frontends",
                    f.name,
                    w.name
                );
                widths.push((f.name, fan.len()));
            }
        }
        // Figs. 11–12 size sweep: at least 16 wide; Fig. 13: 15 wide.
        assert!(widths
            .iter()
            .filter(|(n, _)| *n == "size-fan")
            .all(|&(_, len)| len >= 16));
        assert!(widths
            .iter()
            .filter(|(n, _)| *n == "line-fan")
            .all(|&(_, len)| len == 15));
        assert_eq!(widths.len(), 6, "three programs, two fans each");
    }
}

#[test]
fn par_live_has_no_batchable_program() {
    for seed in SEEDS {
        for f in build(Kind::ParLive, seed, SCALE) {
            for w in &f.sweep.workloads {
                assert!(!batchable_program(&w.program), "{} is batchable", w.name);
            }
        }
    }
}

#[test]
fn seeded_synth_keeps_the_instruction_budget() {
    let d = synth_params(None);
    let budget = f64::from(d.threads * d.iters * d.work);
    for seed in 1..50 {
        let p = synth_params(Some(&mut SplitMix::new(seed)));
        let drawn = f64::from(p.threads * p.iters * p.work);
        assert!((drawn / budget - 1.0).abs() < 0.35, "seed {seed}: {p:?}");
        assert!((2..=30).contains(&p.active_regs));
    }
}

#[test]
fn quartiles_match_pythons_exclusive_method() {
    // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
    let xs: Vec<f64> = (1..=10).map(f64::from).collect();
    assert_eq!(quartiles(&xs), (2.75, 5.5, 8.25));
    // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
    assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
}
