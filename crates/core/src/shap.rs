//! Exact Shapley-value knob attribution (the Figure 7 "SHAP path").
//!
//! The paper uses SHAP to explain how each recommended knob moves CPU,
//! throughput, and latency from their default values. With a handful of
//! tuned knobs (the case study tunes 3) the Shapley value can be computed
//! *exactly* by enumerating all `2^m` coalitions, using the simulator as the
//! value function; above [`EXACT_LIMIT`] knobs a seeded permutation-sampling
//! estimate is used instead.

use dbsim::{Configuration, Observation, SimulatedDbms};
use xrand::rngs::StdRng;
use xrand::{RngExt, SeedableRng};

/// Maximum knob count for exact enumeration (2^12 = 4096 evaluations per
/// metric is still instant on the simulator).
pub const EXACT_LIMIT: usize = 12;

/// Per-knob attribution for one output metric.
#[derive(Debug, Clone, PartialEq)]
pub struct ShapAttribution {
    /// Knob name.
    pub knob: String,
    /// Default value of the knob.
    pub default_value: f64,
    /// Recommended (current) value of the knob.
    pub current_value: f64,
    /// Shapley contribution to the CPU change (percentage points).
    pub cpu: f64,
    /// Shapley contribution to the throughput change (txn/s).
    pub tps: f64,
    /// Shapley contribution to the p99 latency change (ms).
    pub p99_ms: f64,
}

/// The full explanation: per-knob contributions plus the endpoint values.
#[derive(Debug, Clone, PartialEq)]
pub struct ShapPath {
    /// One attribution per changed knob, ordered by |CPU contribution|.
    pub attributions: Vec<ShapAttribution>,
    /// Metrics under the default configuration.
    pub default_metrics: (f64, f64, f64),
    /// Metrics under the recommended configuration.
    pub current_metrics: (f64, f64, f64),
}

fn metrics(obs: &Observation) -> (f64, f64, f64) {
    (obs.resources.cpu_pct, obs.tps, obs.p99_ms)
}

/// Computes the SHAP path from the default configuration to `recommended`
/// over the named knobs.
///
/// The value function evaluates the *noiseless* simulator with a coalition's
/// knobs set to their recommended values and the rest at defaults. Shapley
/// values therefore sum exactly (up to estimation error beyond
/// [`EXACT_LIMIT`]) to the default→recommended metric deltas.
pub fn shap_path(
    dbms: &SimulatedDbms,
    recommended: &Configuration,
    knobs: &[String],
    seed: u64,
) -> ShapPath {
    let m = knobs.len();
    let default = Configuration::dba_default();
    let eval = |mask: &[bool]| -> (f64, f64, f64) {
        let mut config = default.clone();
        for (i, on) in mask.iter().enumerate() {
            if *on {
                config.set(&knobs[i], recommended.get(&knobs[i]));
            }
        }
        metrics(&dbms.evaluate_noiseless(&config))
    };

    let default_metrics = eval(&vec![false; m]);
    let current_metrics = eval(&vec![true; m]);

    let contributions = if m <= EXACT_LIMIT {
        exact_shapley(m, &eval)
    } else {
        sampled_shapley(m, &eval, 64, seed)
    };

    let mut attributions: Vec<ShapAttribution> = knobs
        .iter()
        .enumerate()
        .map(|(i, name)| ShapAttribution {
            knob: name.clone(),
            default_value: default.get(name),
            current_value: recommended.get(name),
            cpu: contributions[i].0,
            tps: contributions[i].1,
            p99_ms: contributions[i].2,
        })
        .collect();
    rank_by_cpu(&mut attributions);
    ShapPath { attributions, default_metrics, current_metrics }
}

/// Orders attributions by descending |CPU contribution|. Total order, not
/// `partial_cmp(..).unwrap()`: a NaN contribution (a degenerate simulator
/// output) sorts last instead of panicking the explanation.
fn rank_by_cpu(attributions: &mut [ShapAttribution]) {
    let key = |a: &ShapAttribution| {
        let v = a.cpu.abs();
        if v.is_nan() {
            f64::NEG_INFINITY
        } else {
            v
        }
    };
    attributions.sort_by(|a, b| key(b).total_cmp(&key(a)));
}

fn exact_shapley(
    m: usize,
    eval: &impl Fn(&[bool]) -> (f64, f64, f64),
) -> Vec<(f64, f64, f64)> {
    // Cache all coalition values.
    let size = 1usize << m;
    let mut values = Vec::with_capacity(size);
    for mask in 0..size {
        let bits: Vec<bool> = (0..m).map(|i| mask & (1 << i) != 0).collect();
        values.push(eval(&bits));
    }
    let fact: Vec<f64> = {
        let mut f = vec![1.0; m + 1];
        for i in 1..=m {
            f[i] = f[i - 1] * i as f64;
        }
        f
    };
    let mut out = vec![(0.0, 0.0, 0.0); m];
    for (i, contribution) in out.iter_mut().enumerate() {
        for mask in 0..size {
            if mask & (1 << i) != 0 {
                continue;
            }
            let s = (mask as u64).count_ones() as usize;
            let weight = fact[s] * fact[m - s - 1] / fact[m];
            let with = values[mask | (1 << i)];
            let without = values[mask];
            contribution.0 += weight * (with.0 - without.0);
            contribution.1 += weight * (with.1 - without.1);
            contribution.2 += weight * (with.2 - without.2);
        }
    }
    out
}

fn sampled_shapley(
    m: usize,
    eval: &impl Fn(&[bool]) -> (f64, f64, f64),
    permutations: usize,
    seed: u64,
) -> Vec<(f64, f64, f64)> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = vec![(0.0, 0.0, 0.0); m];
    let mut order: Vec<usize> = (0..m).collect();
    for _ in 0..permutations {
        for i in (1..m).rev() {
            let j = rng.random_range(0..=i);
            order.swap(i, j);
        }
        let mut mask = vec![false; m];
        let mut prev = eval(&mask);
        for &i in &order {
            mask[i] = true;
            let with = eval(&mask);
            out[i].0 += with.0 - prev.0;
            out[i].1 += with.1 - prev.1;
            out[i].2 += with.2 - prev.2;
            prev = with;
        }
    }
    for c in &mut out {
        c.0 /= permutations as f64;
        c.1 /= permutations as f64;
        c.2 /= permutations as f64;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbsim::{InstanceType, WorkloadSpec};

    fn case_study_setup() -> (SimulatedDbms, Configuration, Vec<String>) {
        let dbms =
            SimulatedDbms::new(InstanceType::A, WorkloadSpec::twitter(), 0).with_noise(0.0);
        let recommended = Configuration::dba_default()
            .with("innodb_thread_concurrency", 13.0)
            .with("innodb_spin_wait_delay", 0.0)
            .with("innodb_lru_scan_depth", 356.0);
        let knobs = vec![
            "innodb_thread_concurrency".to_string(),
            "innodb_spin_wait_delay".to_string(),
            "innodb_lru_scan_depth".to_string(),
        ];
        (dbms, recommended, knobs)
    }

    #[test]
    fn contributions_sum_to_the_total_delta() {
        let (dbms, rec, knobs) = case_study_setup();
        let path = shap_path(&dbms, &rec, &knobs, 0);
        let cpu_sum: f64 = path.attributions.iter().map(|a| a.cpu).sum();
        let cpu_delta = path.current_metrics.0 - path.default_metrics.0;
        assert!(
            (cpu_sum - cpu_delta).abs() < 1e-6,
            "efficiency axiom violated: {cpu_sum} vs {cpu_delta}"
        );
        let tps_sum: f64 = path.attributions.iter().map(|a| a.tps).sum();
        let tps_delta = path.current_metrics.1 - path.default_metrics.1;
        assert!((tps_sum - tps_delta).abs() < 1e-6);
    }

    #[test]
    fn thread_concurrency_dominates_the_case_study() {
        // Paper Fig. 7: thread_concurrency has the largest CPU effect.
        let (dbms, rec, knobs) = case_study_setup();
        let path = shap_path(&dbms, &rec, &knobs, 0);
        assert_eq!(path.attributions[0].knob, "innodb_thread_concurrency");
        assert!(path.attributions[0].cpu < 0.0, "it reduces CPU");
    }

    #[test]
    fn unchanged_knobs_get_zero_attribution() {
        let (dbms, mut rec, mut knobs) = case_study_setup();
        // Add a knob whose recommended value equals the default (dummy axiom).
        rec.set("innodb_purge_threads", 4.0);
        knobs.push("innodb_purge_threads".to_string());
        let path = shap_path(&dbms, &rec, &knobs, 0);
        let purge = path.attributions.iter().find(|a| a.knob == "innodb_purge_threads").unwrap();
        assert!(purge.cpu.abs() < 1e-9);
        assert!(purge.tps.abs() < 1e-9);
    }

    #[test]
    fn nan_contribution_ranks_last_without_panicking() {
        let attribution = |knob: &str, cpu: f64| ShapAttribution {
            knob: knob.to_string(),
            default_value: 0.0,
            current_value: 1.0,
            cpu,
            tps: 0.0,
            p99_ms: 0.0,
        };
        let mut attributions =
            vec![attribution("small", 0.5), attribution("nan", f64::NAN), attribution("big", -3.0)];
        rank_by_cpu(&mut attributions);
        let order: Vec<&str> = attributions.iter().map(|a| a.knob.as_str()).collect();
        assert_eq!(order, ["big", "small", "nan"]);
    }

    #[test]
    fn sampled_estimator_agrees_with_exact_on_small_problems() {
        let (dbms, rec, knobs) = case_study_setup();
        let default = Configuration::dba_default();
        let eval = |mask: &[bool]| {
            let mut config = default.clone();
            for (i, on) in mask.iter().enumerate() {
                if *on {
                    config.set(&knobs[i], rec.get(&knobs[i]));
                }
            }
            let o = dbms.evaluate_noiseless(&config);
            (o.resources.cpu_pct, o.tps, o.p99_ms)
        };
        let exact = exact_shapley(3, &eval);
        let sampled = sampled_shapley(3, &eval, 200, 1);
        for i in 0..3 {
            assert!(
                (exact[i].0 - sampled[i].0).abs() < 1.5,
                "knob {i}: exact {} sampled {}",
                exact[i].0,
                sampled[i].0
            );
        }
    }
}

minjson::json_struct!(ShapAttribution { knob, default_value, current_value, cpu, tps, p99_ms });
minjson::json_struct!(ShapPath { attributions, default_metrics, current_metrics });
