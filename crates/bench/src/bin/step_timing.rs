//! Phase-level drill-down of one warmed meta-boosted tuning step, rendered
//! from the trace collector (DESIGN.md §10): the span tree shows the
//! per-metric GP fits, the per-learner posterior draws, and the candidate
//! scoring that `IterationTiming` only reports in aggregate.

use dbsim::{InstanceType, KnobSet, SimulatedDbms, WorkloadSpec};
use restune_bench::trace_view;
use restune_core::acquisition::AcquisitionOptimizer;
use restune_core::problem::ResourceKind;
use restune_core::repository::{DataRepository, TaskRecord};
use restune_core::tuner::{RestuneConfig, TuningEnvironment, TuningSession};
use workload::WorkloadCharacterizer;

fn main() {
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

    let config = RestuneConfig {
        optimizer: AcquisitionOptimizer { n_candidates: 600, n_local: 120, local_sigma: 0.08 },
        gp: gp::GpConfig { restarts: 1, adam_iters: 25, ..Default::default() },
        dynamic_samples: 16,
        seed: 3,
        ..Default::default()
    };
    let env = TuningEnvironment::builder()
        .instance(InstanceType::A)
        .workload(WorkloadSpec::twitter())
        .resource(ResourceKind::Cpu)
        .knob_set(KnobSet::cpu())
        .seed(3)
        .build();
    let mut s = TuningSession::with_base_learners(env, config, learners, mf);
    // Warm past the bootstrap so dynamic weights and the full ensemble are
    // live, then trace exactly one step.
    for _ in 0..13 {
        s.step();
    }
    trace::enable();
    trace::reset();
    s.step();
    let snap = trace::snapshot();
    trace::disable();
    println!("== one warmed step ==");
    print!("{}", trace_view::render_span_tree(&snap));
}
