//! Fleet throughput scaling bench (DESIGN.md §12): runs the same simulated
//! tenant fleet at worker counts 1, 4, and ncpu, reports tenants/sec per
//! arm, and cross-checks the determinism contract — every arm must produce
//! byte-identical per-tenant repository JSON.
//!
//! Usage:
//!   fleet_bench [--tenants N] [--iters K] [--out BENCH_fleet.json]
//!
//! Defaults: 1000 tenants × 4 iterations. The JSON written to `--out` is the
//! tracked `BENCH_fleet.json` trajectory CI keeps an arm of.

use restune_core::acquisition::AcquisitionOptimizer;
use restune_core::fleet::{mix_seed, FleetConfig, FleetService, Tenant};
use restune_core::problem::ResourceKind;
use restune_core::tuner::{RestuneConfig, TuningEnvironment};
use dbsim::{InstanceType, KnobSet, WorkloadSpec};

/// A cheap-but-real per-tenant config: two LHS bootstraps, then GP-driven
/// iterations with small budgets, so a thousand tenants finish in seconds
/// while still exercising fit + acquisition on every tenant.
fn tenant_config(seed: u64) -> RestuneConfig {
    RestuneConfig {
        optimizer: AcquisitionOptimizer { n_candidates: 60, n_local: 15, local_sigma: 0.1 },
        gp: gp::GpConfig { restarts: 1, adam_iters: 4, ..Default::default() },
        dynamic_samples: 4,
        init_iters: 2,
        seed,
        ..Default::default()
    }
}

fn build_tenants(n: usize, iters: usize) -> Vec<Tenant> {
    (0..n as u64)
        .map(|id| {
            let seed = mix_seed(0xF1EE7, id);
            let env = TuningEnvironment::builder()
                .instance(InstanceType::A)
                .workload(WorkloadSpec::fleet_tenant(id))
                .resource(ResourceKind::Cpu)
                .knob_set(KnobSet::case_study())
                .seed(seed)
                .build();
            Tenant::restune(id, format!("tenant-{id}"), env, tenant_config(seed), iters)
        })
        .collect()
}

struct Arm {
    workers: usize,
    wall_s: f64,
    tenants_per_s: f64,
    digest: u64,
}

fn run_arm(workers: usize, tenants: usize, iters: usize) -> Arm {
    let service = FleetService::new(FleetConfig { workers, slice: 2, shards: 16 });
    let out = service.run(build_tenants(tenants, iters));
    assert_eq!(out.tenants.len(), tenants);
    assert_eq!(out.poisoned().count(), 0);
    // One digest over every tenant's record JSON, in id order.
    let mut h: u64 = 0xcbf29ce484222325;
    for t in &out.tenants {
        h ^= xrand::fnv1a(t.record_json().expect("render record").as_bytes());
        h = h.wrapping_mul(0x100000001b3);
    }
    Arm { workers, wall_s: out.wall_s, tenants_per_s: out.tenants_per_s(), digest: h }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| {
        args.iter().position(|a| a == flag).and_then(|i| args.get(i + 1)).cloned()
    };
    let tenants: usize = get("--tenants").and_then(|v| v.parse().ok()).unwrap_or(1000);
    let iters: usize = get("--iters").and_then(|v| v.parse().ok()).unwrap_or(4);
    let out_path = get("--out").unwrap_or_else(|| "BENCH_fleet.json".to_string());
    let ncpu = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);

    let mut worker_arms = vec![1usize, 4];
    if !worker_arms.contains(&ncpu) {
        worker_arms.push(ncpu);
    }

    println!("fleet_bench: {tenants} tenants x {iters} iters, arms {worker_arms:?} (ncpu={ncpu})");
    let arms: Vec<Arm> =
        worker_arms.iter().map(|&w| run_arm(w, tenants, iters)).collect();

    println!("\n{:>8}  {:>10}  {:>12}  {:>18}", "workers", "wall_s", "tenants/s", "digest");
    for a in &arms {
        println!(
            "{:>8}  {:>10.3}  {:>12.1}  {:>#18x}",
            a.workers, a.wall_s, a.tenants_per_s, a.digest
        );
    }

    // The determinism contract: per-tenant repository JSON is bit-identical
    // at every worker count, so the combined digests must agree.
    for a in &arms[1..] {
        assert_eq!(
            a.digest, arms[0].digest,
            "per-tenant records diverged between workers={} and workers={}",
            arms[0].workers, a.workers
        );
    }
    println!("\ndeterminism: all {} arms bit-identical", arms.len());
    if ncpu == 1 {
        println!("note: single-core machine — multi-worker arms measure scheduling overhead only");
    }

    // Tracked trajectory entry (BENCH_fleet.json).
    let json = format!(
        "{{\n  \"bench\": \"fleet_scaling\",\n  \"tenants\": {tenants},\n  \"iters\": {iters},\n  \"ncpu\": {ncpu},\n  \"arms\": [\n{}\n  ],\n  \"determinism_digest\": \"{:#x}\"\n}}\n",
        arms.iter()
            .map(|a| format!(
                "    {{\"workers\": {}, \"wall_s\": {:.3}, \"tenants_per_s\": {:.1}}}",
                a.workers, a.wall_s, a.tenants_per_s
            ))
            .collect::<Vec<_>>()
            .join(",\n"),
        arms[0].digest
    );
    std::fs::write(&out_path, json).expect("write bench json");
    println!("[saved {out_path}]");
}
