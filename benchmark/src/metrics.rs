//! The benchmark's declared names: workloads, end-to-end metrics and the
//! per-layer ledger. `BENCHMARK.json` at the repository root must list
//! exactly these (`tests/schema.rs` holds the two together).

use crate::json::{self, Value};

/// `true` = lower is better.
pub const LOWER: bool = true;
pub const HIGHER: bool = false;

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub lower_is_better: bool,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
}

pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub lower_is_better: bool,
}

/// Workloads in suite order, each with the one-line reason it exists.
pub const WORKLOADS: &[(&str, &str)] = &[
    ("basin_forward", "the paper's forward solve on the LA-basin mesh: 670 (h,lambda,mu) classes make the element sweep memory-bound; the only workload that writes checkpoints"),
    ("layered_forward", "the same solve on a 2-class layered mesh: templates stay L1-resident so the kernel is compute-bound; bypasses ckpt"),
    ("fault_zone_lts", "geometric refinement stepped by SolverHarness::run_grouped: the solver's second (rate-group) loop, where LTS pays off"),
    ("basin_ranks2", "run_distributed on 2 ranks = 2 cores: the only workload where parcomm, the partition and the exchange phase work"),
    ("serve_mixed", "closed-loop ServeEngine stream of cold scenarios interleaved with guaranteed cache hits: queue, workers, source assembly, cache writes beside reads"),
    ("inverse_material", "multiscale Gauss-Newton-CG material inversion: antiplane forward/adjoint solves and stored state history, no elastic kernel"),
    ("etree_mesh", "out-of-core EtreePipeline construct/balance/transform on a DiskStore: btree and pager only"),
];

pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd { name: "setup_s", unit: "s", lower_is_better: LOWER, bound: 0.25 },
    EndToEnd { name: "wall_s", unit: "s", lower_is_better: LOWER, bound: 0.25 },
    EndToEnd { name: "element_updates_per_s", unit: "1/s", lower_is_better: HIGHER, bound: 0.25 },
    EndToEnd { name: "peak_rss_mb", unit: "MB", lower_is_better: LOWER, bound: 0.1 },
];

const fn lo(name: &'static str, unit: &'static str) -> Layer {
    Layer { name, unit, lower_is_better: LOWER }
}

const fn hi(name: &'static str, unit: &'static str) -> Layer {
    Layer { name, unit, lower_is_better: HIGHER }
}

/// The per-layer ledger. Layer prefixes are the workspace's crates. A
/// workload that bypasses a layer reports 0 for it. `_computed` values come
/// from sizes, not counters; counts repeat exactly for a seed.
pub const PER_LAYER: &[Layer] = &[
    lo("bench.reps", "samples"),
    lo("telemetry.traced_overhead_pct", "%"),
    // model
    lo("model.sample_ns", "ns"),
    lo("model.min_vs_box_ns", "ns"),
    // octree
    lo("octree.build_s", "s"),
    lo("octree.leaves", "count"),
    // etree
    lo("etree.construct_s", "s"),
    lo("etree.balance_s", "s"),
    lo("etree.transform_s", "s"),
    lo("etree.octants", "count"),
    hi("etree.elements_per_s", "1/s"),
    lo("etree.pager_disk_reads", "count"),
    lo("etree.pager_disk_writes", "count"),
    hi("etree.pager_hit_ratio", "ratio"),
    lo("etree.db_bytes", "bytes"),
    // mesh
    lo("mesh.extract_s", "s"),
    lo("mesh.color_s", "s"),
    lo("mesh.colors", "count"),
    lo("mesh.elements", "count"),
    lo("mesh.nodes", "count"),
    lo("mesh.hanging_nodes", "count"),
    lo("mesh.levels", "count"),
    lo("mesh.material_classes", "count"),
    hi("mesh.class_run_len_mean", "count"),
    lo("mesh.partition_s", "s"),
    lo("mesh.partition_imbalance", "ratio"),
    lo("mesh.interface_nodes", "count"),
    lo("mesh.rategroups_s", "s"),
    // fem
    lo("fem.template_build_us", "us"),
    // core (the ForwardRun driver's own stage spans)
    lo("core.forward_mesh_s", "s"),
    lo("core.forward_assemble_s", "s"),
    lo("core.forward_solve_s", "s"),
    // solver
    lo("solver.new_s", "s"),
    lo("solver.assemble_sources_s", "s"),
    hi("solver.kernel_updates_per_s", "1/s"),
    hi("solver.harness_updates_per_s", "1/s"),
    lo("solver.phase_fill_s", "s"),
    lo("solver.phase_elements_s", "s"),
    lo("solver.phase_abc_s", "s"),
    lo("solver.phase_fold_s", "s"),
    lo("solver.phase_exchange_s", "s"),
    lo("solver.phase_tail_s", "s"),
    lo("solver.phase_interp_s", "s"),
    lo("solver.phase_source_s", "s"),
    lo("solver.flops_per_update_computed", "flop"),
    lo("solver.bytes_per_update_computed", "bytes"),
    hi("solver.intensity_computed", "flop/byte"),
    lo("solver.lts_plan_s", "s"),
    lo("solver.lts_cycle", "count"),
    hi("solver.lts_ideal_work_ratio", "ratio"),
    hi("solver.lts_speedup_vs_global", "ratio"),
    hi("solver.lts_efficiency", "ratio"),
    lo("solver.lts_error_rel", "ratio"),
    lo("solver.reference_match_rel", "ratio"),
    // ckpt
    lo("ckpt.write_s", "s"),
    lo("ckpt.read_s", "s"),
    lo("ckpt.snapshot_bytes", "bytes"),
    lo("ckpt.writes", "count"),
    // parcomm
    lo("parcomm.exchange_wait_s", "s"),
    lo("parcomm.exchange_copy_s", "s"),
    lo("parcomm.rank_elements_s_max", "s"),
    lo("parcomm.rank_elements_s_mean", "s"),
    lo("parcomm.messages_per_step", "count"),
    lo("parcomm.bytes_per_step_computed", "bytes"),
    lo("parcomm.pingpong_us", "us"),
    hi("parcomm.scaling_efficiency", "ratio"),
    // machine
    lo("machine.predicted_step_s", "s"),
    hi("machine.predicted_efficiency", "ratio"),
    // serve
    lo("serve.engine_start_s", "s"),
    lo("serve.request_key_us", "us"),
    lo("serve.submit_us", "us"),
    lo("serve.cache_get_ms", "ms"),
    lo("serve.cache_put_ms", "ms"),
    lo("serve.cache_entry_bytes", "bytes"),
    lo("serve.run_scenario_ms", "ms"),
    hi("serve.requests_per_s", "1/s"),
    lo("serve.latency_samples", "samples"),
    lo("serve.latency_cold_p50_ms", "ms"),
    lo("serve.latency_cold_p90_ms", "ms"),
    lo("serve.latency_hit_p50_ms", "ms"),
    lo("serve.latency_hit_p90_ms", "ms"),
    lo("serve.service_ms_p50", "ms"),
    lo("serve.queue_wait_ms_p50", "ms"),
    lo("serve.engine_overhead_pct", "%"),
    hi("serve.worker_busy_share", "ratio"),
    hi("serve.cache_hit_ratio", "ratio"),
    lo("serve.rejected", "count"),
    hi("serve.cold_updates_per_s", "1/s"),
    // inverse / antiplane / wave
    lo("inverse.gn_iters", "count"),
    lo("inverse.cg_iters", "count"),
    lo("inverse.level_s.g2x2", "s"),
    lo("inverse.level_s.g3x3", "s"),
    lo("inverse.level_s.g5x4", "s"),
    lo("inverse.level_s.g9x6", "s"),
    lo("inverse.final_misfit_ratio", "ratio"),
    lo("inverse.model_error_rel", "ratio"),
    lo("inverse.state_history_mb_computed", "MB"),
    lo("wave.forward_ms", "ms"),
    lo("wave.forward_with_history_ms", "ms"),
    lo("antiplane.solver_new_ms", "ms"),
];

pub fn workload_names() -> impl Iterator<Item = &'static str> {
    WORKLOADS.iter().map(|(n, _)| *n)
}

/// The driver's command: builds on first use, then runs one pass.
pub const COMMAND: &[&str] =
    &["cargo", "run", "--release", "--quiet", "--manifest-path", "benchmark/Cargo.toml", "--"];

/// `BENCHMARK.json` as these tables declare it (`quake-benchmark
/// declaration` prints it; the schema test compares the committed file).
pub fn declaration() -> Value {
    let better = |lower: bool| json::text(if lower { "lower" } else { "higher" });
    let strings = |items: &[&str]| Value::Arr(items.iter().map(|s| json::text(s)).collect());
    json::obj([
        ("command", strings(COMMAND)),
        ("paths", strings(&["benchmark"])),
        ("run_seconds", json::num(crate::suite::RUN_SECONDS)),
        (
            "workloads",
            Value::Arr(
                WORKLOADS
                    .iter()
                    .map(|(name, why)| {
                        json::obj([("name", json::text(name)), ("why", json::text(why))])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Value::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        json::obj([
                            ("name", json::text(m.name)),
                            ("unit", json::text(m.unit)),
                            ("better", better(m.lower_is_better)),
                            ("bound", json::num(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Value::Arr(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        json::obj([
                            ("name", json::text(m.name)),
                            ("unit", json::text(m.unit)),
                            ("better", better(m.lower_is_better)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}
