//! The three seeded workloads and their output checks.
//!
//! Each workload is a closed loop: an iteration starts only after the
//! previous replay returned. A *unit* is one complete piece of work that the
//! benchmark times and repeats — eight tuning sessions, each with its own
//! seed, for `meta_d14` and `drift_p16`, one whole fleet run for
//! `fleet_d3`. Every unit of a run replays the same seeds, so units must
//! agree bit for bit.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use dbsim::{FaultPlan, InstanceType, KnobSet, SimulatedDbms, WorkloadSchedule, WorkloadSpec};
use gp::GpConfig;
use restune_bench::context::scale_rate_to_instance;
use restune_core::acquisition::AcquisitionOptimizer;
use restune_core::drift::{DriftConfig, DriftController, LocalSealSink, RestartPolicy};
use restune_core::fleet::{mix_seed, FleetConfig, FleetService, Tenant};
use restune_core::meta::BaseLearner;
use restune_core::problem::ResourceKind;
use restune_core::repository::{DataRepository, TaskRecord};
use restune_core::resilience::FailureKind;
use restune_core::space::{projected_space, Projection, SpaceTransform};
use restune_core::tuner::{IterationRecord, RestuneConfig, TuningEnvironment, TuningOutcome};
use workload::WorkloadCharacterizer;

use crate::stats::median;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Full ResTune with six base learners on 14 CPU knobs: the meta
    /// ensemble, kernel and acquisition scoring dominate a step.
    Meta,
    /// 64 target-only tenants on 3 knobs through the fleet service: GP
    /// hyperparameter fits, the worker pool, the store and retries carry
    /// the load; meta transfer is absent.
    Fleet,
    /// 200 knobs projected to 16 dimensions under an OLTP-to-OLAP drift: the
    /// only workload with incremental refits, lifts, drift checks and a
    /// warm restart.
    Drift,
}

impl Kind {
    pub const ALL: [Kind; 3] = [Kind::Meta, Kind::Fleet, Kind::Drift];

    pub fn name(self) -> &'static str {
        match self {
            Kind::Meta => "meta_d14",
            Kind::Fleet => "fleet_d3",
            Kind::Drift => "drift_p16",
        }
    }

    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }
}

/// How much work a workload does. `Full` is what the benchmark measures;
/// `Tiny` keeps every mechanism (including the drift restart) at a fraction
/// of the cost, for the smoke tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Full,
    #[cfg_attr(not(test), allow(dead_code))]
    Tiny,
}

/// The pre-drift epoch must pass the 40-observation gate before the drift
/// starts, so the incremental rank-1 refit path runs.
const DRIFT_AT: u64 = 44;
const DRIFT_RAMP: u64 = 6;
/// Sessions a unit of meta_d14 or drift_p16 runs between two points where
/// the benchmark may set up (see `Workload::run_units`).
pub const SESSIONS_PER_CHUNK: usize = 2;
/// Every fourth fleet tenant replays under transient faults at this rate.
const FAULT_RATE: f64 = 0.2;
/// Retry budget of the fleet tenants. The default budget of 2 lets about one
/// iteration in 125 of a faulted tenant hard-fail at rate 0.2; with 8 the
/// chance is 0.2^9 per iteration, so no operation of the workload fails
/// while the retry path still runs about 80 times per fleet.
const FLEET_MAX_RETRIES: usize = 8;

impl Size {
    /// Iterations per session (per tenant for the fleet).
    pub fn iters(self, kind: Kind) -> usize {
        match (kind, self) {
            (Kind::Meta, Size::Full) => 30,
            (Kind::Meta, Size::Tiny) => 12,
            (Kind::Fleet, Size::Full) => 20,
            (Kind::Fleet, Size::Tiny) => 8,
            (Kind::Drift, Size::Full) => 72,
            (Kind::Drift, Size::Tiny) => 64,
        }
    }

    /// Tenants per unit: the fleet's tenants, or the sessions a session
    /// workload runs one after the other. Each has its own seed, so a unit
    /// averages over that many tuning trajectories.
    pub fn tenants(self, kind: Kind) -> usize {
        match (kind, self) {
            (Kind::Meta, Size::Full) => 8,
            (Kind::Fleet, Size::Full) => 64,
            (Kind::Drift, Size::Full) => 8,
            (Kind::Fleet, Size::Tiny) => 8,
            (_, Size::Tiny) => 1,
        }
    }

    /// Observations per historical task of the meta_d14 repository.
    fn task_observations(self) -> usize {
        match self {
            Size::Full => 50,
            Size::Tiny => 16,
        }
    }

    /// The tuner configuration: the default one for `Full`.
    pub fn config(self, seed: u64) -> RestuneConfig {
        match self {
            Size::Full => RestuneConfig {
                seed,
                ..Default::default()
            },
            Size::Tiny => RestuneConfig {
                optimizer: AcquisitionOptimizer {
                    n_candidates: 100,
                    n_local: 20,
                    local_sigma: 0.08,
                },
                gp: GpConfig {
                    restarts: 1,
                    adam_iters: 5,
                    ..Default::default()
                },
                dynamic_samples: 6,
                seed,
                ..Default::default()
            },
        }
    }
}

/// Wall-clock cost of one set-up, split where the layers are.
#[derive(Debug, Clone, Copy)]
pub struct SetupTimes {
    pub total_s: f64,
    /// One `WorkloadCharacterizer::train_default`.
    pub train_s: f64,
}

/// The inputs sessions are built from. drift_p16 sets up one replica per
/// session of a unit, each from its own seed: what a drift session costs and
/// finds depends mostly on its projection and schedule, so a unit averages
/// over several independent draws of them. meta_d14 and fleet_d3 share one.
pub struct Replica {
    pub seed: u64,
    pub characterizer: Arc<WorkloadCharacterizer>,
    /// meta_d14's transfer repository (empty elsewhere).
    pub repository: DataRepository,
    /// Base learners fitted from `repository`.
    pub learners: Vec<BaseLearner>,
    /// meta_d14: the target's meta-feature; fleet_d3: one per tenant.
    meta_features: Vec<Vec<f64>>,
    /// drift_p16's 200-to-16 projection.
    pub space: Option<Arc<dyn SpaceTransform>>,
}

/// Characterizer seed of the meta_d14 repository, as `step_timing` builds it.
const REPOSITORY_SEED: u64 = 2;

/// A workload's set-up state, shared by every unit of a run.
pub struct Workload {
    pub kind: Kind,
    pub size: Size,
    pub seed: u64,
    /// GP settings the workload fits base learners with.
    pub learner_gp: GpConfig,
    replicas: Vec<Replica>,
}

impl Workload {
    /// Builds everything paid before the first timed iteration, including
    /// one unit's worth of tenants (which each unit then builds afresh).
    pub fn setup(kind: Kind, size: Size, seed: u64) -> (Workload, SetupTimes) {
        let start = Instant::now();
        let mut train_s = None;
        let replicas = match kind {
            Kind::Meta | Kind::Fleet => 1,
            Kind::Drift => size.tenants(kind),
        };
        let learner_gp = match kind {
            Kind::Meta => GpConfig::fixed(),
            Kind::Fleet | Kind::Drift => size.config(seed).gp,
        };
        let replicas = (0..replicas as u64)
            .map(|i| {
                let seed = match kind {
                    Kind::Meta => REPOSITORY_SEED,
                    Kind::Fleet => seed,
                    Kind::Drift => mix_seed(seed, i),
                };
                let t = Instant::now();
                let characterizer = Arc::new(WorkloadCharacterizer::train_default(seed));
                train_s.get_or_insert(t.elapsed().as_secs_f64());
                let mut r = Replica {
                    seed,
                    characterizer,
                    repository: DataRepository::new(),
                    learners: Vec::new(),
                    meta_features: Vec::new(),
                    space: None,
                };
                match kind {
                    Kind::Meta => {
                        // The history every session transfers from: three
                        // twitter variations on instances A and B, with the
                        // fixed seeds `step_timing` uses. The sessions'
                        // seeds come from `--seed`; a repository drawn per
                        // seed would make the number of base learners that
                        // keep an ensemble weight, and with it the cost of a
                        // step, a property of the seed.
                        let variations = WorkloadSpec::twitter_variations().into_iter().take(3);
                        for (v, spec) in variations.enumerate() {
                            for instance in [InstanceType::A, InstanceType::B] {
                                let mut dbms =
                                    SimulatedDbms::new(instance, spec.clone(), 30 + v as u64);
                                r.repository.add(TaskRecord::collect(
                                    &mut dbms,
                                    &KnobSet::cpu(),
                                    ResourceKind::Cpu,
                                    &r.characterizer,
                                    size.task_observations(),
                                    40 + v as u64,
                                ));
                            }
                        }
                        r.learners = r.repository.base_learners(&learner_gp, |_| true);
                        r.meta_features = vec![
                            r.characterizer
                                .embed_workload(&WorkloadSpec::twitter(), 1)
                                .probs,
                        ];
                    }
                    Kind::Fleet => {
                        r.meta_features = (0..size.tenants(kind))
                            .map(|t| {
                                r.characterizer
                                    .embed_workload(&fleet_spec(seed, t), seed)
                                    .probs
                            })
                            .collect();
                    }
                    Kind::Drift => {
                        r.space = Some(projected_space(
                            &KnobSet::extended(),
                            Projection::Hesbo,
                            16,
                            seed,
                            Some(64),
                            Some(0.2),
                        ));
                    }
                }
                r
            })
            .collect();
        let w = Workload {
            kind,
            size,
            seed,
            learner_gp,
            replicas,
        };
        black_box(w.unit_tenants());
        let total_s = start.elapsed().as_secs_f64();
        (
            w,
            SetupTimes {
                total_s,
                train_s: train_s.expect("at least one replica"),
            },
        )
    }

    /// The inputs tenant `index` is built from.
    pub fn replica(&self, index: usize) -> &Replica {
        match self.kind {
            Kind::Meta | Kind::Fleet => &self.replicas[0],
            Kind::Drift => &self.replicas[index],
        }
    }

    /// The target workload the tenant with `index` tunes.
    pub fn spec(&self, index: usize) -> WorkloadSpec {
        match self.kind {
            Kind::Meta => WorkloadSpec::twitter(),
            Kind::Fleet => fleet_spec(self.seed, index),
            Kind::Drift => scale_rate_to_instance(&WorkloadSpec::twitter(), InstanceType::B),
        }
    }

    /// Tenant `index` with an `iters` budget, ready to run. Every constructor
    /// used here pins the serial proposer path, so a session uses one thread.
    pub fn tenant(&self, index: usize, iters: usize) -> Tenant {
        let replica = self.replica(index);
        let seed = mix_seed(self.seed, index as u64);
        let spec = self.spec(index);
        let builder = TuningEnvironment::builder()
            .resource(ResourceKind::Cpu)
            .workload(spec.clone());
        match self.kind {
            Kind::Meta => {
                let env = builder
                    .instance(InstanceType::A)
                    .knob_set(KnobSet::cpu())
                    .seed(seed)
                    .build();
                Tenant::restune_meta(
                    index as u64,
                    "twitter@A",
                    env,
                    self.size.config(seed),
                    replica.learners.clone(),
                    replica.meta_features[0].clone(),
                    iters,
                )
            }
            Kind::Fleet => {
                let id = fleet_id(self.seed, index);
                let tenant_seed = mix_seed(self.seed, id);
                let mut builder = builder
                    .instance(InstanceType::A)
                    .knob_set(KnobSet::case_study())
                    .seed(tenant_seed);
                if index % 4 == 0 {
                    builder = builder.fault_plan(
                        FaultPlan::none()
                            .with_transient_rate(FAULT_RATE)
                            .with_seed(mix_seed(self.seed ^ 0xFA, id)),
                    );
                }
                let config = RestuneConfig {
                    max_retries: FLEET_MAX_RETRIES,
                    ..self.size.config(tenant_seed)
                };
                let mut tenant =
                    Tenant::restune(id, spec.name.clone(), builder.build(), config, iters);
                tenant.meta_feature = replica.meta_features[index].clone();
                tenant
            }
            Kind::Drift => {
                let space = Arc::clone(
                    replica
                        .space
                        .as_ref()
                        .expect("drift_p16 replicas hold a projection"),
                );
                let env = builder
                    .instance(InstanceType::B)
                    .knob_set(KnobSet::extended())
                    .space(space)
                    .seed(seed)
                    .schedule(WorkloadSchedule::oltp_to_olap(seed, DRIFT_AT, DRIFT_RAMP))
                    .build();
                // A wide Epanechnikov bandwidth keeps the sealed pre-drift
                // task's static weight nonzero after the restart.
                let config = RestuneConfig {
                    static_bandwidth: 2.0,
                    ..self.size.config(seed)
                };
                let sink = Box::new(LocalSealSink::new(DataRepository::new(), config.gp.clone()));
                let drift = DriftConfig {
                    check_every: 2,
                    threshold: 0.25,
                    min_epoch_iters: 6,
                    settle_tol: 0.05,
                    embed_seed: 0,
                    policy: RestartPolicy::Warm,
                };
                let controller = DriftController::for_workload(
                    drift,
                    Arc::clone(&replica.characterizer),
                    &spec,
                    "twitter@B",
                    sink,
                );
                let mut tenant = Tenant::restune(index as u64, "twitter@B", env, config, iters);
                tenant.driver.set_drift(controller);
                tenant
            }
        }
    }

    /// The tenants of one unit.
    pub fn unit_tenants(&self) -> Vec<Tenant> {
        let iters = self.size.iters(self.kind);
        (0..self.size.tenants(self.kind))
            .map(|i| self.tenant(i, iters))
            .collect()
    }

    /// The pilot: the first session of a unit, or the whole fleet. The
    /// warm-up runs it, and the traced run counts and times it.
    pub fn pilot_tenants(&self) -> Vec<Tenant> {
        match self.kind {
            Kind::Fleet => self.unit_tenants(),
            Kind::Meta | Kind::Drift => vec![self.tenant(0, self.size.iters(self.kind))],
        }
    }

    /// Fleet workers: two, or fewer on a smaller machine.
    pub fn workers() -> usize {
        2.min(nproc())
    }

    /// Builds and runs one unit; only the iterations are timed.
    #[cfg(test)]
    pub fn run_unit(&self) -> Unit {
        self.run(self.unit_tenants())
    }

    /// How many units run at once: one per CPU for the session workloads,
    /// whose sessions are single-threaded, and one for the fleet, whose
    /// workers already take the CPUs. Never more than two.
    pub fn concurrent_units(kind: Kind) -> usize {
        match kind {
            Kind::Meta | Kind::Drift => nproc().min(2),
            Kind::Fleet => 1,
        }
    }

    /// Runs [`Workload::concurrent_units`] identical units at once, each on
    /// a thread of its own, and returns them in thread order. The session
    /// workloads run their units in chunks of [`SESSIONS_PER_CHUNK`]
    /// sessions, every thread the same chunk, and call `between_chunks`
    /// after each chunk but the last, while no unit runs.
    pub fn run_units(&self, mut between_chunks: impl FnMut()) -> Vec<Unit> {
        let copies = Workload::concurrent_units(self.kind);
        let sessions = self.size.tenants(self.kind);
        let chunk = match self.kind {
            Kind::Meta | Kind::Drift => SESSIONS_PER_CHUNK,
            Kind::Fleet => sessions,
        };
        let iters = self.size.iters(self.kind);
        let mut units: Vec<Option<Unit>> = (0..copies).map(|_| None).collect();
        let mut start = 0;
        while start < sessions {
            let range = start..(start + chunk).min(sessions);
            let parts: Vec<Unit> = std::thread::scope(|scope| {
                let threads: Vec<_> = (0..copies)
                    .map(|_| {
                        let range = range.clone();
                        scope
                            .spawn(move || self.run(range.map(|i| self.tenant(i, iters)).collect()))
                    })
                    .collect();
                threads
                    .into_iter()
                    .map(|t| t.join().expect("a unit's thread panicked"))
                    .collect()
            });
            for (unit, part) in units.iter_mut().zip(parts) {
                match unit {
                    Some(unit) => unit.absorb(part),
                    None => *unit = Some(part),
                }
            }
            start = range.end;
            if start < sessions {
                between_chunks();
            }
        }
        units
            .into_iter()
            .map(|u| u.expect("a unit has sessions"))
            .collect()
    }

    /// Runs `tenants`: one after the other for the session workloads, as one
    /// fleet for fleet_d3. Only the iterations are timed.
    pub fn run(&self, tenants: Vec<Tenant>) -> Unit {
        let planned = tenants.iter().map(|t| t.iters).sum();
        match self.kind {
            Kind::Meta | Kind::Drift => {
                let (mut outcomes, mut restarts) = (Vec::new(), Vec::new());
                let mut step_s = Vec::with_capacity(planned);
                let mut session_step_s = Vec::new();
                let mut wall_s = 0.0;
                for mut tenant in tenants {
                    let start = Instant::now();
                    for _ in 0..tenant.iters {
                        let t = Instant::now();
                        black_box(tenant.driver.step());
                        step_s.push(t.elapsed().as_secs_f64());
                    }
                    let session_s = start.elapsed().as_secs_f64();
                    wall_s += session_s;
                    session_step_s.push(session_s / tenant.iters as f64);
                    restarts.push(
                        tenant
                            .driver
                            .drift()
                            .map_or((0, 0), |d| (d.restarts(), d.sealed_tasks())),
                    );
                    outcomes.push(tenant.driver.into_outcome());
                }
                Unit {
                    wall_s,
                    step_s,
                    session_step_s,
                    restarts,
                    ..Unit::new(outcomes, planned, 0)
                }
            }
            Kind::Fleet => {
                let service = FleetService::new(FleetConfig {
                    workers: Workload::workers(),
                    slice: 4,
                    shards: 16,
                });
                let start = Instant::now();
                let fleet = service.run(tenants);
                let wall_s = start.elapsed().as_secs_f64();
                let iters = self.size.iters(self.kind);
                let short = fleet
                    .tenants
                    .iter()
                    .filter(|t| t.panicked || t.iterations_run != iters)
                    .count();
                let outcomes: Vec<TuningOutcome> =
                    fleet.tenants.into_iter().map(|t| t.outcome).collect();
                let step_s = outcomes
                    .iter()
                    .flat_map(|o| o.history.iter().map(proposal_s))
                    .collect();
                let session_step_s = outcomes
                    .iter()
                    .map(|o| o.history.iter().map(proposal_s).sum::<f64>() / o.history.len() as f64)
                    .collect();
                Unit {
                    wall_s,
                    step_s,
                    session_step_s,
                    ..Unit::new(outcomes, planned, short)
                }
            }
        }
    }
}

/// The fleet's tenant ids: consecutive, so every run covers the five
/// workload families evenly, and distinct per seed.
fn fleet_id(seed: u64, index: usize) -> u64 {
    seed.wrapping_mul(4096).wrapping_add(index as u64)
}

fn fleet_spec(seed: u64, index: usize) -> WorkloadSpec {
    WorkloadSpec::fleet_tenant(fleet_id(seed, index))
}

/// Proposal-side wall time of a fleet iteration, as the record's timing
/// spans measured it inside the worker (the replay itself is simulated).
fn proposal_s(r: &IterationRecord) -> f64 {
    r.timing.meta_data_processing_s + r.timing.model_update_s + r.timing.recommendation_s
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// One timed unit's measurements and outputs.
pub struct Unit {
    pub wall_s: f64,
    /// Committed iterations.
    pub iterations: usize,
    /// Wall time of each iteration.
    pub step_s: Vec<f64>,
    /// Mean iteration wall time of each session or tenant.
    pub session_step_s: Vec<f64>,
    /// Iterations that hard-failed after their retries, or belong to a
    /// tenant that did not complete its budget.
    pub failed: usize,
    pub planned: usize,
    /// Tenants that panicked or stopped short of their budget.
    pub short_tenants: usize,
    /// Warm restarts and sealed epochs of each drift session.
    pub restarts: Vec<(u64, usize)>,
    /// Outcome digest of each session or tenant.
    pub digests: Vec<u64>,
    pub outcomes: Vec<TuningOutcome>,
}

impl Unit {
    /// A unit of `outcomes`, with no timings yet.
    fn new(outcomes: Vec<TuningOutcome>, planned: usize, short_tenants: usize) -> Unit {
        let iterations = outcomes.iter().map(|o| o.history.len()).sum();
        let hard_failed = outcomes
            .iter()
            .flat_map(|o| &o.history)
            .filter(|r| matches!(r.failure, Some(FailureKind::Crash | FailureKind::Timeout)))
            .count();
        let failed = hard_failed + (planned - iterations);
        let digests = outcomes.iter().map(outcome_digest).collect();
        Unit {
            wall_s: 0.0,
            iterations,
            step_s: Vec::new(),
            session_step_s: Vec::new(),
            failed,
            planned,
            short_tenants,
            restarts: Vec::new(),
            digests,
            outcomes,
        }
    }

    /// Appends `later`, the next sessions of the same unit.
    fn absorb(&mut self, later: Unit) {
        self.wall_s += later.wall_s;
        self.iterations += later.iterations;
        self.step_s.extend(later.step_s);
        self.session_step_s.extend(later.session_step_s);
        self.failed += later.failed;
        self.planned += later.planned;
        self.short_tenants += later.short_tenants;
        self.restarts.extend(later.restarts);
        self.digests.extend(later.digests);
        self.outcomes.extend(later.outcomes);
    }

    pub fn iters_per_s(&self) -> f64 {
        self.iterations as f64 / self.wall_s
    }

    fn records(&self) -> impl Iterator<Item = &IterationRecord> {
        self.outcomes.iter().flat_map(|o| &o.history)
    }

    /// Median over sessions or tenants of the incumbent's resource saving
    /// over the default, percent. The median, because a drift_p16 session's
    /// saving is bimodal: most find 20–55% after the restart, and about one
    /// in twenty finds under 10%. How many of those a seed draws would move
    /// the mean.
    pub fn cpu_saved_pct(&self) -> f64 {
        let saved: Vec<f64> = self
            .outcomes
            .iter()
            .map(TuningOutcome::improvement)
            .collect();
        100.0 * median(&saved).expect("a unit has sessions")
    }

    /// Share of evaluated configurations that met the SLA, percent.
    pub fn feasible_pct(&self) -> f64 {
        100.0 * self.records().filter(|r| r.feasible).count() as f64 / self.iterations as f64
    }

    /// Share of planned iterations that did not fail, percent.
    pub fn ok_pct(&self) -> f64 {
        100.0 * (1.0 - self.failed as f64 / self.planned as f64)
    }

    /// Share of records whose replay succeeded without a retry.
    pub fn first_try_ok(&self) -> f64 {
        self.records().filter(|r| r.retries == 0).count() as f64 / self.iterations as f64
    }

    /// The output checks every unit must pass, whatever the run measures.
    pub fn check(&self, kind: Kind) -> Result<(), String> {
        if self.short_tenants > 0 {
            return Err(format!(
                "{} tenants were poisoned or stopped short of their budget",
                self.short_tenants
            ));
        }
        for (i, o) in self.outcomes.iter().enumerate() {
            let best = o
                .best_objective
                .ok_or_else(|| format!("session {i} has no incumbent"))?;
            if best > o.default_obj_value {
                return Err(format!(
                    "session {i}: incumbent {best} is worse than the default {}",
                    o.default_obj_value
                ));
            }
            if let Some(at) = o.best_iteration {
                let feasible = o.history.iter().any(|r| r.iteration == at && r.feasible);
                if !feasible {
                    return Err(format!(
                        "session {i}: incumbent from iteration {at} is not feasible"
                    ));
                }
            }
        }
        if kind == Kind::Drift {
            for (i, &(restarts, sealed)) in self.restarts.iter().enumerate() {
                if restarts < 1 || sealed < 1 {
                    return Err(format!(
                        "drift_p16 session {i} saw {restarts} warm restarts and {sealed} sealed epochs; \
                         each must be at least 1"
                    ));
                }
            }
        }
        Ok(())
    }

    /// Checks that this unit reproduced every session or tenant that an
    /// earlier unit (or the warm-up, which runs the first ones) of the run
    /// produced under the same seed; `reference` collects the digests seen.
    pub fn check_reproduces(&self, reference: &mut Vec<u64>) -> Result<(), String> {
        if let Some(i) = self
            .digests
            .iter()
            .zip(reference.iter())
            .position(|(a, b)| a != b)
        {
            return Err(format!(
                "session {i} has outcome digest {:016x}, not the {:016x} it had earlier in the run under the same seed",
                self.digests[i], reference[i]
            ));
        }
        if self.digests.len() > reference.len() {
            *reference = self.digests.clone();
        }
        Ok(())
    }
}

/// FNV-1a over every record's iteration, point and objective, as the golden
/// digests of the repository's tests hash them.
pub fn outcome_digest(outcome: &TuningOutcome) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for r in &outcome.history {
        let line = format!(
            "{}|{:?}|{:?}|{}|{:?}\n",
            r.iteration, r.point, r.objective, r.feasible, r.best_feasible_objective
        );
        for b in line.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
    }
    h
}

/// Serializes the tests that run tuning sessions: the trace collector is
/// process-wide, so a traced test must not count another test's work.
#[cfg(test)]
pub static RUN_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

#[cfg(test)]
mod tests {
    use super::*;

    /// Runs a tiny unit alone and then beside its concurrent copies, and
    /// checks their outputs the way the benchmark does; returns the first.
    fn smoke(kind: Kind) -> Unit {
        let _guard = RUN_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let (w, times) = Workload::setup(kind, Size::Tiny, 7);
        assert!(times.total_s > 0.0 && times.train_s <= times.total_s);
        let a = w.run_unit();
        a.check(kind).unwrap();
        let mut reference = Vec::new();
        a.check_reproduces(&mut reference).unwrap();
        let mut chunk_breaks = 0;
        let concurrent = w.run_units(|| chunk_breaks += 1);
        let chunks = a.outcomes.len().div_ceil(match kind {
            Kind::Fleet => a.outcomes.len(),
            Kind::Meta | Kind::Drift => SESSIONS_PER_CHUNK,
        });
        assert_eq!(chunk_breaks, chunks - 1);
        assert_eq!(concurrent.len(), Workload::concurrent_units(kind));
        for b in &concurrent {
            b.check_reproduces(&mut reference).unwrap();
        }
        assert_eq!(a.iterations, a.planned);
        assert_eq!(a.step_s.len(), a.iterations);
        assert_eq!(a.session_step_s.len(), a.outcomes.len());
        assert!(a.iters_per_s() > 0.0);
        assert!(a.cpu_saved_pct() > 0.0 && a.feasible_pct() > 0.0);
        assert_eq!(a.ok_pct(), 100.0);
        a
    }

    #[test]
    fn meta_d14_smoke() {
        let unit = smoke(Kind::Meta);
        assert!(unit.outcomes[0]
            .history
            .iter()
            .any(|r| r.weights.as_ref().is_some_and(|w| w.len() == 7)));
    }

    #[test]
    fn fleet_d3_smoke() {
        let unit = smoke(Kind::Fleet);
        assert_eq!(unit.outcomes.len(), Size::Tiny.tenants(Kind::Fleet));
        assert!(unit.first_try_ok() < 1.0, "the faulted tenants retry");
    }

    #[test]
    fn drift_p16_smoke() {
        let unit = smoke(Kind::Drift);
        assert!(unit
            .restarts
            .iter()
            .all(|&(restarts, sealed)| restarts >= 1 && sealed >= 1));
    }

    #[test]
    fn a_different_seed_gives_different_outputs() {
        let _guard = RUN_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let a = Workload::setup(Kind::Fleet, Size::Tiny, 1).0.run_unit();
        let b = Workload::setup(Kind::Fleet, Size::Tiny, 2).0.run_unit();
        assert_ne!(a.digests, b.digests);
    }

    #[test]
    fn check_names_a_broken_output() {
        let _guard = RUN_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let (w, _) = Workload::setup(Kind::Meta, Size::Tiny, 7);
        let mut unit = w.run_unit();
        let mut reference = vec![unit.digests[0] ^ 1];
        assert!(unit
            .check_reproduces(&mut reference)
            .unwrap_err()
            .contains("session 0"));
        let o = &mut unit.outcomes[0];
        o.best_objective = Some(o.default_obj_value * 2.0);
        let err = unit.check(Kind::Meta).unwrap_err();
        assert!(err.contains("worse than the default"), "{err}");
        unit.short_tenants = 1;
        assert!(unit.check(Kind::Meta).unwrap_err().contains("poisoned"));
    }
}
