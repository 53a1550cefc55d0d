//! Golden same-seed snapshot across every `run_method` strategy: a baked-in
//! digest per method pins the exact iteration trace (points, observations,
//! incumbents, weights, failure tallies and the simulated replay clock), so
//! any refactor of the evaluation loop that moves a single bit fails loudly.
//!
//! The digests were captured from the pre-driver-refactor code and re-pinned
//! once when the Adam hyperparameter search was fixed to keep the best-NLL
//! iterate instead of the last one (an outcome-improving bugfix: at this seed
//! ResTune's best objective moved 22.39 → 21.70 and ResTune-w/o-ML / iTuned
//! 21.283 → 21.265; OtterTune and CDBTune digests were unaffected). The
//! shared `TuningDriver`/`EvalEngine` path must reproduce them exactly.
//!
//! Re-pinned a second time when the knob registry grew from 38 to 200 knobs:
//! the digest hashes `Configuration`'s Debug repr (inside each observation and
//! the best config), which now spans 200 values. The *numeric* traces were
//! verified bit-identical against the pre-growth tree — a config-free digest
//! over (points, observation metric bits, objectives, weights, failures,
//! replay clock) matched exactly for all six methods, because the extended
//! knobs' misconfiguration penalty is exactly `0.0` at their defaults.

use baselines::method::Setting;
use baselines::{method_driver, run_method, Method, MethodContext};
use dbsim::{FaultPlan, InstanceType, KnobSet, SimulatedDbms, WorkloadSpec};
use restune::core::acquisition::AcquisitionOptimizer;
use restune::core::repository::{DataRepository, TaskRecord};
use restune::prelude::*;

const ITERS: usize = 12;

fn golden_repo() -> DataRepository {
    let characterizer = workload::WorkloadCharacterizer::train_default(0);
    let mut repo = DataRepository::new();
    for (i, w) in [WorkloadSpec::twitter(), WorkloadSpec::sysbench()].into_iter().enumerate() {
        let mut dbms = SimulatedDbms::new(InstanceType::A, w, 100 + i as u64);
        repo.add(TaskRecord::collect(
            &mut dbms,
            &KnobSet::case_study(),
            ResourceKind::Cpu,
            &characterizer,
            12,
            200 + i as u64,
        ));
    }
    repo
}

fn golden_env() -> TuningEnvironment {
    TuningEnvironment::builder()
        .instance(InstanceType::A)
        .workload(WorkloadSpec::twitter())
        .resource(ResourceKind::Cpu)
        .knob_set(KnobSet::case_study())
        .seed(17)
        // A moderate transient rate so the digests also pin the failure
        // bookkeeping (retries, penalized observations).
        .fault_plan(FaultPlan::none().with_transient_rate(0.2).with_seed(0xFA))
        .build()
}

fn golden_ctx(repo: &DataRepository) -> MethodContext<'_> {
    MethodContext {
        config: RestuneConfig {
            optimizer: AcquisitionOptimizer { n_candidates: 250, n_local: 50, local_sigma: 0.1 },
            gp: gp::GpConfig { restarts: 1, adam_iters: 12, ..Default::default() },
            dynamic_samples: 8,
            init_iters: 4,
            seed: 17,
            ..Default::default()
        },
        repository: Some(repo),
        prepared_learners: None,
        setting: Setting::Original,
        target_meta_feature: vec![0.2; 5],
    }
}

/// FNV-1a over the canonical trace text: stable, dependency-free, and
/// sensitive to every bit of every float (shortest-round-trip `{:?}`).
fn outcome_digest(o: &TuningOutcome) -> u64 {
    let mut text = String::new();
    for r in &o.history {
        text.push_str(&format!(
            "{}|{:?}|{:?}|{:?}|{}|{:?}|{:?}|{:?}|{}|{:?}\n",
            r.iteration,
            r.point,
            r.observation,
            r.objective,
            r.feasible,
            r.best_feasible_objective,
            r.weights,
            r.failure,
            r.retries,
            r.timing.replay_s,
        ));
    }
    text.push_str(&format!(
        "best={:?}@{:?} default={:?} failures={:?} config={:?}",
        o.best_objective,
        o.best_iteration,
        o.default_obj_value,
        o.failures,
        format!("{:?}", o.best_config),
    ));
    xrand::fnv1a(text.as_bytes())
}

#[test]
fn all_six_method_outcomes_match_the_pre_refactor_golden_digests() {
    let repo = golden_repo();
    // Note RestuneWithoutML and ITuned legitimately share a digest at this
    // seed: the case-study space is feasible almost everywhere, so CEI's
    // feasibility weighting never changes EI's argmax over these 12 iters.
    let expected: [(Method, u64); 6] = [
        (Method::Restune, 0xd44a54bba41e6639),
        (Method::RestuneWithoutML, 0x369b7d132d8f9428),
        (Method::RestuneWithoutWorkload, 0x215093b01c0280ce),
        (Method::ITuned, 0x369b7d132d8f9428),
        (Method::OtterTuneWithConstraints, 0xc16bc93abf78b13c),
        (Method::CdbTuneWithConstraints, 0x242e8876597d3073),
    ];
    let mut failures = Vec::new();
    for (method, want) in expected {
        let outcome = run_method(method, golden_env(), ITERS, &golden_ctx(&repo));
        assert_eq!(outcome.history.len(), ITERS, "{}", method.name());
        let got = outcome_digest(&outcome);
        if got != want {
            failures.push(format!("(Method::{method:?}, 0x{got:016x}),"));
        }
        // Timings-shape: the replay clock is simulated and always charged;
        // wall-clock phases are measured and must be finite and non-negative.
        for r in &outcome.history {
            assert!(r.timing.replay_s > 0.0, "{}: replay not charged", method.name());
            for v in [
                r.timing.meta_data_processing_s,
                r.timing.model_update_s,
                r.timing.gp_fit_s,
                r.timing.weight_update_s,
                r.timing.recommendation_s,
            ] {
                assert!(v.is_finite() && v >= 0.0, "{}: bad timing {v}", method.name());
            }
            assert!(r.timing.gp_fit_s + r.timing.weight_update_s <= r.timing.model_update_s + 1e-9);
        }
    }
    assert!(
        failures.is_empty(),
        "golden digests diverged; current values:\n{}",
        failures.join("\n")
    );
}

#[test]
fn a_heterogeneous_fleet_reproduces_the_golden_digests() {
    use restune::core::fleet::{FleetConfig, FleetService, Tenant};

    // All six methods as concurrent tenants of one fleet: scheduling onto a
    // shared worker pool, slicing, and the shared store must not move a
    // single bit of any method's trace — each tenant's outcome digest equals
    // the single-driver golden value.
    let repo = golden_repo();
    let expected: [(Method, u64); 6] = [
        (Method::Restune, 0xd44a54bba41e6639),
        (Method::RestuneWithoutML, 0x369b7d132d8f9428),
        (Method::RestuneWithoutWorkload, 0x215093b01c0280ce),
        (Method::ITuned, 0x369b7d132d8f9428),
        (Method::OtterTuneWithConstraints, 0xc16bc93abf78b13c),
        (Method::CdbTuneWithConstraints, 0x242e8876597d3073),
    ];
    let tenants: Vec<Tenant> = expected
        .iter()
        .enumerate()
        .map(|(id, (method, _))| {
            let driver = method_driver(*method, golden_env(), &golden_ctx(&repo));
            Tenant::new(id as u64, method.name(), ITERS, Vec::new(), driver)
        })
        .collect();
    let service = FleetService::new(FleetConfig { workers: 3, slice: 2, shards: 4 });
    let out = service.run(tenants);
    assert_eq!(out.tenants.len(), expected.len());
    for (t, (method, want)) in out.tenants.iter().zip(&expected) {
        assert!(!t.panicked, "{} panicked in the fleet", method.name());
        assert_eq!(t.outcome.history.len(), ITERS, "{}", method.name());
        assert_eq!(
            outcome_digest(&t.outcome),
            *want,
            "{} diverged from its golden digest when run as a fleet tenant",
            method.name()
        );
    }
    // Completed tenants committed their records to the shared store.
    assert_eq!(service.store().snapshot().n_records(), expected.len());
}
