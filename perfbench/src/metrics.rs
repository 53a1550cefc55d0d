//! The metric catalogue and the one-line JSON result.
//!
//! `BENCHMARK.json` at the repository root lists the same metrics; a test
//! below keeps the two in step.

use std::collections::BTreeMap;

use minjson::Json;

/// Which direction of change is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    #[cfg_attr(not(test), allow(dead_code))]
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// The values a metric may take; `result_line` refuses any other.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Range {
    /// Above 0 on every workload: a time, a rate, a size or a share of a
    /// nonempty set. Every end-to-end metric is one.
    Positive,
    /// A count, or a ratio of counts, of a layer that does no work on some
    /// workloads; there it reads 0, the reading of a layer that should not
    /// move.
    NonNegative,
    /// A difference of two timings that is 0 within noise where it measures
    /// nothing.
    Signed,
}

/// One reported metric.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    #[cfg_attr(not(test), allow(dead_code))]
    pub better: Better,
    pub range: Range,
}

const fn m(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        range: Range::Positive,
    }
}

/// A metric that reads 0 on workloads where its layer does no work.
const fn idle0(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        range: Range::NonNegative,
        ..m(name, unit, better)
    }
}

use Better::{Higher, Lower};

/// Reported by the untraced run (`--trace 0`).
pub const END_TO_END: &[MetricDef] = &[
    m("setup_s", "s", Lower),
    m("iters_per_s", "1/s", Higher),
    m("step_ms_p50", "ms", Lower),
    m("step_ms_p90", "ms", Lower),
    m("peak_rss_mb", "MB", Lower),
    m("cpu_saved_pct", "%", Higher),
    m("feasible_pct", "%", Higher),
    m("ok_pct", "%", Higher),
];

/// Reported by the traced run (`--trace 1`).
pub const PER_LAYER: &[MetricDef] = &[
    // Recommend path.
    m("meta.predict_batch_us_per_pt", "us", Lower),
    m("meta.ns_per_kernel_eval", "ns", Lower),
    m("meta.dynamic_weights_ms", "ms", Lower),
    m("gp.sample_joint_ms", "ms", Lower),
    m("gp.predict_batch_us_per_pt", "us", Lower),
    m("acq.optimize_ms", "ms", Lower),
    // Model update.
    m("gp.fit_ms", "ms", Lower),
    m("surrogate.fit_ms", "ms", Lower),
    m("gp.extend_us", "us", Lower),
    m("linalg.factor_us", "us", Lower),
    m("linalg.solve_us", "us", Lower),
    // Step split.
    m("proposer.propose_ms", "ms", Lower),
    m("engine.evaluate_us", "us", Lower),
    m("dbsim.evaluate_us", "us", Lower),
    // Set-up and the drift path.
    m("workload.train_ms", "ms", Lower),
    m("workload.embed_ms", "ms", Lower),
    m("repository.base_learners_ms", "ms", Lower),
    m("space.lift_us", "us", Lower),
    // Service and tracing.
    m("fleet.scaling_eff", "ratio", Higher),
    m("fleet.store_commit_us", "us", Lower),
    m("fleet.store_snapshot_us", "us", Lower),
    MetricDef {
        range: Range::Signed,
        ..m("trace.overhead_pct", "%", Lower)
    },
    // Counts of one traced pilot; they repeat exactly for a seed.
    m("count.linalg.cholesky.factor", "count", Lower),
    m("count.linalg.cholesky.solve", "count", Lower),
    idle0("count.linalg.cholesky.update", "count", Lower),
    m("count.gp.fit.full", "count", Lower),
    idle0("count.gp.fit.incremental", "count", Higher),
    m("count.gp.hypers.refit", "count", Lower),
    m("count.acq.candidates_scored", "count", Lower),
    idle0("count.meta.weight_updates", "count", Lower),
    m("count.dbsim.evals", "count", Lower),
    idle0("count.replay.retries", "count", Lower),
    idle0("count.space.project", "count", Lower),
    idle0("count.drift.checks", "count", Lower),
    idle0("count.drift.restarts", "count", Lower),
    idle0("count.fleet.store.commits", "count", Lower),
    // Ratios.
    idle0("ratio.gp.incremental_share", "ratio", Higher),
    m("ratio.replay.first_try_ok", "ratio", Higher),
];

/// The trace counters the `count.*` metrics read.
pub fn counter_names() -> impl Iterator<Item = (&'static str, &'static str)> {
    PER_LAYER
        .iter()
        .filter_map(|d| d.name.strip_prefix("count.").map(|c| (d.name, c)))
}

/// Renders the result line. Every metric of `catalogue` must be present in
/// `values`, and nothing else; every value must be finite and in its range.
pub fn result_line(
    catalogue: &[MetricDef],
    values: &BTreeMap<&'static str, f64>,
    attempted: u64,
    failed: u64,
) -> Result<String, String> {
    if let Some(extra) = values
        .keys()
        .find(|k| !catalogue.iter().any(|d| d.name == **k))
    {
        return Err(format!("metric {extra} is not in the catalogue"));
    }
    let mut metrics = Vec::with_capacity(catalogue.len());
    for def in catalogue {
        let value = *values
            .get(def.name)
            .ok_or_else(|| format!("metric {} was not measured", def.name))?;
        let in_range = match def.range {
            Range::Positive => value > 0.0,
            Range::NonNegative => value >= 0.0,
            Range::Signed => true,
        };
        if !value.is_finite() || !in_range {
            return Err(format!(
                "metric {} is out of its range {:?}: {value}",
                def.name, def.range
            ));
        }
        metrics.push((
            def.name.to_string(),
            Json::Obj(vec![
                ("value".to_string(), Json::Num(value)),
                ("unit".to_string(), Json::Str(def.unit.to_string())),
            ]),
        ));
    }
    Json::Obj(vec![
        ("correct".to_string(), Json::Bool(true)),
        ("attempted".to_string(), Json::Num(attempted as f64)),
        ("failed".to_string(), Json::Num(failed as f64)),
        ("metrics".to_string(), Json::Obj(metrics)),
    ])
    .render()
    .map_err(|e| e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(name: &str) -> bool {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn valid_unit(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    #[test]
    fn every_metric_has_a_valid_unique_name_a_unit_and_a_direction() {
        let mut seen = std::collections::BTreeSet::new();
        for def in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(def.name), "bad metric name {:?}", def.name);
            assert!(
                valid_unit(def.unit),
                "bad unit {:?} on {}",
                def.unit,
                def.name
            );
            assert!(matches!(def.better.as_str(), "higher" | "lower"));
            assert!(seen.insert(def.name), "metric {} listed twice", def.name);
        }
        assert_eq!(END_TO_END[0].name, "setup_s");
        assert!(END_TO_END.iter().all(|d| d.range == Range::Positive));
    }

    #[test]
    fn benchmark_json_lists_exactly_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        let doc = Json::parse(&text).expect("BENCHMARK.json parses");
        for (key, catalogue) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed = doc.field(key).unwrap().as_array().expect("metric list");
            assert_eq!(listed.len(), catalogue.len(), "{key} length");
            for (entry, def) in listed.iter().zip(catalogue) {
                assert_eq!(entry.field("name").unwrap().as_str(), Some(def.name));
                assert_eq!(entry.field("unit").unwrap().as_str(), Some(def.unit));
                assert_eq!(
                    entry.field("better").unwrap().as_str(),
                    Some(def.better.as_str())
                );
            }
        }
        let workloads = doc.field("workloads").unwrap().as_array().unwrap();
        let names: Vec<&str> = workloads
            .iter()
            .map(|w| w.field("name").unwrap().as_str().unwrap())
            .collect();
        assert_eq!(names, crate::workloads::Kind::ALL.map(|k| k.name()));
    }

    #[test]
    fn result_line_refuses_missing_extra_and_out_of_range_metrics() {
        let mut values: BTreeMap<&'static str, f64> =
            END_TO_END.iter().map(|d| (d.name, 1.5)).collect();
        let line = result_line(END_TO_END, &values, 10, 0).unwrap();
        assert!(line.starts_with(r#"{"correct":true,"attempted":10,"failed":0,"metrics":{"setup_s":{"value":1.5,"unit":"s"}"#));
        for bad in [f64::NAN, 0.0, -1.0] {
            values.insert("setup_s", bad);
            assert!(result_line(END_TO_END, &values, 10, 0).is_err(), "{bad}");
        }
        values.remove("setup_s");
        assert!(result_line(END_TO_END, &values, 10, 0).is_err());
        assert!(result_line(&END_TO_END[1..], &values, 10, 0).is_ok());
        values.insert("gp.fit_ms", 1.0);
        assert!(result_line(&END_TO_END[1..], &values, 10, 0).is_err());
    }

    #[test]
    fn only_idle_layer_counts_may_read_zero() {
        let mut values: BTreeMap<&'static str, f64> =
            PER_LAYER.iter().map(|d| (d.name, 1.0)).collect();
        for def in PER_LAYER {
            let mut zeroed = values.clone();
            zeroed.insert(def.name, 0.0);
            let accepted = result_line(PER_LAYER, &zeroed, 1, 0).is_ok();
            assert_eq!(accepted, def.range != Range::Positive, "{}", def.name);
        }
        values.insert("trace.overhead_pct", -0.5);
        assert!(result_line(PER_LAYER, &values, 1, 0).is_ok());
        values.insert("count.drift.checks", -1.0);
        assert!(result_line(PER_LAYER, &values, 1, 0).is_err());
    }
}
