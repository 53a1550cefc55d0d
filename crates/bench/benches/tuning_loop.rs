//! Benchmarks of whole tuning iterations: the algorithm-side cost per
//! iteration for ResTune with and without meta-learning (Table 3's
//! model-update + recommendation columns).

use dbsim::{InstanceType, KnobSet, SimulatedDbms, WorkloadSpec};
use restune_bench::microbench::{black_box, suite, Bencher};
use restune_core::acquisition::AcquisitionOptimizer;
use restune_core::problem::ResourceKind;
use restune_core::repository::{DataRepository, TaskRecord};
use restune_core::tuner::{RestuneConfig, TuningEnvironment, TuningSession};
use workload::WorkloadCharacterizer;

fn quick_config(seed: u64) -> RestuneConfig {
    RestuneConfig {
        optimizer: AcquisitionOptimizer { n_candidates: 600, n_local: 120, local_sigma: 0.08 },
        gp: gp::GpConfig { restarts: 1, adam_iters: 25, ..Default::default() },
        dynamic_samples: 16,
        seed,
        ..Default::default()
    }
}

fn env(seed: u64) -> TuningEnvironment {
    TuningEnvironment::builder()
        .instance(InstanceType::A)
        .workload(WorkloadSpec::twitter())
        .resource(ResourceKind::Cpu)
        .knob_set(KnobSet::cpu())
        .seed(seed)
        .build()
}

fn main() {
    let b = Bencher::from_env();
    suite("tuning_iteration");

    // Each sample rebuilds a session warmed past the LHS bootstrap so the
    // timed step always exercises the GP path at the same history size.
    b.bench_with_setup(
        "restune_without_ml_step",
        || {
            let mut s = TuningSession::new(env(1), quick_config(1));
            for _ in 0..12 {
                s.step();
            }
            s
        },
        |mut s| black_box(s.step()),
    );

    // Meta-boosted step (dynamic ranking-loss weights over 6 base learners).
    let characterizer = WorkloadCharacterizer::train_default(2);
    let mut repo = DataRepository::new();
    for (i, spec) in WorkloadSpec::twitter_variations().into_iter().take(3).enumerate() {
        for instance in [InstanceType::A, InstanceType::B] {
            let mut dbms = SimulatedDbms::new(instance, spec.clone(), 30 + i as u64);
            repo.add(TaskRecord::collect(
                &mut dbms,
                &KnobSet::cpu(),
                ResourceKind::Cpu,
                &characterizer,
                50,
                40 + i as u64,
            ));
        }
    }
    let learners = repo.base_learners(&gp::GpConfig::fixed(), |_| true);
    let mf = characterizer.embed_workload(&WorkloadSpec::twitter(), 1).probs;
    b.bench_with_setup(
        "restune_meta_step_6_learners",
        || {
            let mut s = TuningSession::with_base_learners(
                env(2),
                quick_config(2),
                learners.clone(),
                mf.clone(),
            );
            for _ in 0..12 {
                s.step();
            }
            s
        },
        |mut s| black_box(s.step()),
    );

    // Warmed to iteration 13 (not a multiple of 4) so the timed step can't
    // hit the stagnation safeguard, which skips the acquisition optimization:
    // this arm always times the full recommend path.
    b.bench_with_setup(
        "restune_meta_step_recommend_path",
        || {
            let mut s = TuningSession::with_base_learners(
                env(3),
                quick_config(3),
                learners.clone(),
                mf.clone(),
            );
            for _ in 0..13 {
                s.step();
            }
            s
        },
        |mut s| black_box(s.step()),
    );

    // Tracing overhead (DESIGN.md §10): the warmed non-meta step with the
    // collector disabled — the default no-op sink, one relaxed atomic load
    // per instrumentation site — and enabled. The disabled arm must sit
    // within 2% of `restune_without_ml_step` above (same workload, the
    // toggle is the only difference); the enabled arm prices the mutex +
    // allocation cost of actually recording.
    for (name, on) in
        [("restune_step_trace_noop_sink", false), ("restune_step_trace_enabled", true)]
    {
        b.bench_with_setup(
            name,
            move || {
                if on {
                    trace::enable();
                } else {
                    trace::disable();
                }
                trace::reset();
                let mut s = TuningSession::new(env(1), quick_config(1));
                for _ in 0..12 {
                    s.step();
                }
                s
            },
            |mut s| black_box(s.step()),
        );
    }
    trace::disable();
    trace::reset();
}
