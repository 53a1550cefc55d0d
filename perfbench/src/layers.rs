//! Per-layer timers for the traced run.
//!
//! Every timer wraps one public call into a layer, made from outside the
//! library on state captured from a unit of the workload: the last tenant's
//! history after a full budget, the target surrogate fitted on it, and the
//! workload's learners, repository, characterizer and search space.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use dbsim::Configuration;
use gp::{GaussianProcess, GpConfig, Kernel};
use linalg::{Cholesky, Matrix};
use restune_core::acquisition::{AcquisitionOptimizer, ConstrainedExpectedImprovement};
use restune_core::driver::Proposer;
use restune_core::fleet::{FleetConfig, FleetService, ShardedStore, Tenant};
use restune_core::meta::{dynamic_weights, MetaLearner, TargetObservations};
use restune_core::repository::DataRepository;
use restune_core::scale::Standardizer;
use restune_core::space::{IdentityTransform, SpaceTransform};
use restune_core::surrogate::{GpTaskModel, TaskSurrogate};
use xrand::rngs::StdRng;
use xrand::{RngExt, SeedableRng};

use crate::stats::median;
use crate::workloads::{Kind, SetupTimes, Workload};

/// Steps at the end of the captured session that are split into their
/// proposal and evaluation halves.
const SPLIT_STEPS: usize = 5;
/// Ensemble weights are sampled over at most this many recent observations,
/// as the default `RestuneConfig` does.
const RANK_POINTS: usize = 50;
/// Session length of the meta_d14 and drift_p16 tenants in the scaling probe.
const SCALING_ITERS: usize = 10;
/// Fleet tenants in the scaling probe.
const SCALING_TENANTS: usize = 8;

/// Median wall time of `reps` calls of `f`, in seconds.
fn time<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            black_box(f());
            t.elapsed().as_secs_f64()
        })
        .collect();
    median(&samples).expect("at least one repetition")
}

/// Median over `reps` batches of the mean wall time of one of `batch` calls,
/// for calls too short to time one by one.
fn time_batched<T>(reps: usize, batch: usize, mut f: impl FnMut() -> T) -> f64 {
    time(reps, || {
        for _ in 0..batch {
            black_box(f());
        }
    }) / batch as f64
}

/// Runs the layer timers; returns every timer metric of the per-layer
/// catalogue (the counts come from the trace, not from here).
pub fn probe(w: &Workload, setup: SetupTimes) -> Result<BTreeMap<&'static str, f64>, String> {
    let mut out = BTreeMap::new();
    let iters = w.size.iters(w.kind);
    let last = w.size.tenants(w.kind) - 1;

    // Step split: run the last tenant's session up to its final steps, then
    // drive those steps by hand through the proposer and the engine.
    let replica = w.replica(last);
    let mut tenant = w.tenant(last, iters);
    for _ in 0..iters - SPLIT_STEPS {
        tenant.driver.step();
    }
    let (mut engine, mut proposer, seed) = tenant.driver.into_parts();
    let (mut propose_s, mut evaluate_s) = (Vec::new(), Vec::new());
    for _ in 0..SPLIT_STEPS {
        let iter = engine.iterations();
        let step_seed = seed.wrapping_add(iter as u64).wrapping_mul(0x9E37);
        let t = Instant::now();
        let proposal = proposer.propose(&engine.view(), iter, step_seed);
        propose_s.push(t.elapsed().as_secs_f64());
        let t = Instant::now();
        let mut record = engine.evaluate(proposal);
        evaluate_s.push(t.elapsed().as_secs_f64());
        record.timing.model_update_s += proposer.observe(&engine.view(), &record);
        engine.commit(record);
    }
    out.insert(
        "proposer.propose_ms",
        1e3 * median(&propose_s).expect("split steps"),
    );
    out.insert(
        "engine.evaluate_us",
        1e6 * median(&evaluate_s).expect("split steps"),
    );

    let view = engine.view();
    let points = view.points.to_vec();
    let (res, tps, lat) = (view.res.to_vec(), view.tps.to_vec(), view.lat.to_vec());
    let n = points.len();
    let dim = view.problem.dim();
    let default_point = view.default_point.to_vec();
    let best_point = view.best.map(|(_, _, p)| p.clone());
    if n < 3 {
        return Err(format!(
            "captured history has {n} observations; the probes need 3"
        ));
    }

    // Model update.
    let config = GpConfig::default();
    out.insert(
        "surrogate.fit_ms",
        1e3 * time(5, || GpTaskModel::fit(&points, &res, &tps, &lat, &config)),
    );
    let target = GpTaskModel::fit(&points, &res, &tps, &lat, &config).map_err(|e| e.to_string())?;
    let scalers = target.scalers;
    let (res_std, tps_std, lat_std) = (
        scalers.res.transform_all(&res),
        scalers.tps.transform_all(&tps),
        scalers.lat.transform_all(&lat),
    );
    out.insert(
        "gp.fit_ms",
        1e3 * time(5, || {
            GaussianProcess::fit(points.clone(), res_std.clone(), &config)
        }),
    );
    let gp_res = GaussianProcess::fit(points.clone(), res_std.clone(), &config)
        .map_err(|e| e.to_string())?;
    // The rank-1 append at the largest n the session reached: every
    // committed record, across drift epochs.
    let records = engine.history();
    let xs: Vec<Vec<f64>> = records.iter().map(|r| r.point.clone()).collect();
    let ys = Standardizer::fit(&records.iter().map(|r| r.objective).collect::<Vec<_>>());
    let ys: Vec<f64> = records.iter().map(|r| ys.transform(r.objective)).collect();
    let tail = xs.len() - 1;
    let head = GaussianProcess::fit(xs[..tail].to_vec(), ys[..tail].to_vec(), &config)
        .map_err(|e| e.to_string())?;
    let mut copies = vec![head; 11];
    let extend_s: Vec<f64> = copies
        .iter_mut()
        .map(|gp| {
            let t = Instant::now();
            let done = gp.extend(xs[tail].clone(), ys[tail], &config);
            let elapsed = t.elapsed().as_secs_f64();
            done.map(|()| elapsed).map_err(|e| e.to_string())
        })
        .collect::<Result<_, _>>()?;
    out.insert(
        "gp.extend_us",
        1e6 * median(&extend_s).expect("extend copies"),
    );
    let noise = gp_res.noise_std().powi(2);
    let kernel = gp_res.kernel();
    let k = Matrix::from_fn(n, n, |i, j| {
        kernel.value(&points[i], &points[j]) + if i == j { noise } else { 0.0 }
    });
    out.insert(
        "linalg.factor_us",
        1e6 * time_batched(11, 10, || Cholesky::factor(&k)),
    );
    let chol = Cholesky::factor_with_jitter(&k).map_err(|e| e.to_string())?;
    out.insert(
        "linalg.solve_us",
        1e6 * time_batched(11, 50, || chol.solve(&res_std)),
    );

    // Recommend path over the default candidate count.
    let optimizer = AcquisitionOptimizer::default();
    let mut rng = StdRng::seed_from_u64(replica.seed);
    let candidates: Vec<Vec<f64>> = (0..optimizer.n_candidates + optimizer.n_local)
        .map(|_| (0..dim).map(|_| rng.random::<f64>()).collect())
        .collect();
    let m = candidates.len() as f64;
    let meta = if replica.learners.is_empty() {
        MetaLearner::target_only(target.clone())
    } else {
        MetaLearner::new(
            replica.learners.clone(),
            target.clone(),
            vec![1.0; replica.learners.len() + 1],
        )
    };
    let predict_s = time(3, || meta.predict_batch(&candidates));
    out.insert("meta.predict_batch_us_per_pt", 1e6 * predict_s / m);
    // Kernel evaluations the ensemble computes per point: one per training
    // observation of each of the three metric GPs of every learner.
    let train_obs: usize = replica.learners.iter().map(|b| b.model.n()).sum::<usize>() + target.n();
    out.insert(
        "meta.ns_per_kernel_eval",
        1e9 * predict_s / (m * 3.0 * train_obs as f64),
    );
    let obs = TargetObservations {
        points: &points,
        res: &res_std,
        tps: &tps_std,
        lat: &lat_std,
    };
    out.insert(
        "meta.dynamic_weights_ms",
        1e3 * time(3, || {
            dynamic_weights(
                &replica.learners,
                &target,
                &obs,
                30,
                RANK_POINTS,
                replica.seed,
            )
        }),
    );
    let joint = &candidates[..RANK_POINTS];
    out.insert(
        "gp.sample_joint_ms",
        1e3 * time(5, || {
            gp_res.sample_joint(joint, 30, &mut StdRng::seed_from_u64(replica.seed))
        }),
    );
    out.insert(
        "gp.predict_batch_us_per_pt",
        1e6 * time(5, || gp_res.predict_batch(&candidates)) / m,
    );
    let at_default = meta.predict(&default_point);
    let cei = ConstrainedExpectedImprovement {
        best_feasible: res_std.iter().copied().reduce(f64::min),
        tps_floor: at_default.tps.mean,
        lat_ceiling: at_default.lat.mean,
    };
    let anchors: Vec<Vec<f64>> = best_point.into_iter().collect();
    out.insert(
        "acq.optimize_ms",
        1e3 * time(3, || {
            optimizer.optimize_batch(dim, &anchors, replica.seed, false, |pts| {
                meta.predict_batch(pts)
                    .iter()
                    .map(|p| cei.value(p))
                    .collect()
            })
        }),
    );

    // Simulator, characterization, repository and space.
    let mut dbms = engine.environment().dbms.clone();
    let default_config = Configuration::dba_default();
    out.insert(
        "dbsim.evaluate_us",
        1e6 * time_batched(5, 200, || dbms.evaluate(&default_config)),
    );
    out.insert("workload.train_ms", 1e3 * setup.train_s);
    let spec = w.spec(last);
    out.insert(
        "workload.embed_ms",
        1e3 * time(5, || {
            replica.characterizer.embed_workload(&spec, replica.seed)
        }),
    );
    let record = engine.to_task_record("captured", Vec::new());
    let repository = if replica.repository.is_empty() {
        let mut repo = DataRepository::new();
        repo.add(record.clone());
        repo
    } else {
        replica.repository.clone()
    };
    out.insert(
        "repository.base_learners_ms",
        1e3 * time(3, || repository.base_learners(&w.learner_gp, |_| true)),
    );
    let space: Arc<dyn SpaceTransform> = replica
        .space
        .clone()
        .unwrap_or_else(|| Arc::new(IdentityTransform::new(dim)));
    let low = &candidates[0];
    out.insert(
        "space.lift_us",
        1e6 * time_batched(5, 1000, || space.lift(low)),
    );

    // Fleet store and scaling.
    let store = ShardedStore::new(16);
    let commit_s: Vec<f64> = (0..64u64)
        .map(|id| {
            let copy = record.clone();
            let t = Instant::now();
            store.commit(id, copy);
            t.elapsed().as_secs_f64()
        })
        .collect();
    out.insert(
        "fleet.store_commit_us",
        1e6 * median(&commit_s).expect("commits"),
    );
    out.insert(
        "fleet.store_snapshot_us",
        1e6 * time_batched(11, 100, || store.snapshot()),
    );
    out.insert("fleet.scaling_eff", scaling_eff(w)?);
    Ok(out)
}

/// Fleet throughput at the benchmark's worker count over that many times
/// the throughput at one worker, on tenants of this workload.
fn scaling_eff(w: &Workload) -> Result<f64, String> {
    let tenants = || -> Vec<Tenant> {
        match w.kind {
            Kind::Fleet => (0..SCALING_TENANTS)
                .map(|i| w.tenant(i, w.size.iters(w.kind)))
                .collect(),
            Kind::Meta | Kind::Drift => (0..2).map(|i| w.tenant(i, SCALING_ITERS)).collect(),
        }
    };
    let workers = Workload::workers();
    let ips = |workers: usize| -> Result<f64, String> {
        let batch = tenants();
        let service = FleetService::new(FleetConfig {
            workers,
            slice: 4,
            shards: 16,
        });
        let start = Instant::now();
        let fleet = service.run(batch);
        let wall_s = start.elapsed().as_secs_f64();
        if fleet.poisoned().count() > 0 {
            return Err("a tenant of the scaling probe was poisoned".to_string());
        }
        Ok(fleet
            .tenants
            .iter()
            .map(|t| t.iterations_run)
            .sum::<usize>() as f64
            / wall_s)
    };
    let one = ips(1)?;
    Ok(ips(workers)? / (workers as f64 * one))
}
