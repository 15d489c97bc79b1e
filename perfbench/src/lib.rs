//! The repository benchmark: host time of the simulator, end to end and
//! per layer, over three workloads (`exact-fig04`, `sampled-dp`,
//! `served-tiny`), two of which `BENCHMARK.json` times ([`TIMED`]). See
//! `README.md` in this directory.

pub mod common;
pub mod exact;
pub mod metrics;
pub mod sampled;
pub mod served;
pub mod spans;
pub mod stats;

use common::{Cfg, Checker};
use metrics::Metric;
use spans::{span_cost_s, Span, Tracer};
use stats::median;
use std::collections::HashSet;

/// The workloads, by the names `--workload` accepts.
pub const WORKLOADS: [&str; 3] = ["exact-fig04", "sampled-dp", "served-tiny"];

/// The workloads `BENCHMARK.json` lists, whose end-to-end metrics are
/// gated. `sampled-dp` still runs by name, but its `plan_sampled` calls
/// take up to 120 ms and move memory in bulk, and when the shared host
/// stays busy for a minute their fastest times move by up to half; its
/// layer is measured in the traced runs of `exact-fig04` instead.
pub const TIMED: [&str; 2] = ["exact-fig04", "served-tiny"];

/// `(name, unit)` of every end-to-end metric an untraced run reports.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("host_s", "s"),
    ("sim_mcycles_per_s", "Mcycles/s"),
    ("point_p50_ms", "ms"),
    ("point_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// `(name, unit)` of every per-layer metric a traced run reports. A
/// layer a workload does not exercise reads 0, with a note saying so.
pub const PER_LAYER: [(&str, &str); 45] = [
    ("workloads.build_ms", "ms"),
    ("workloads.rebuild_ms_per_point", "ms"),
    ("isa.ff_minstr_per_s", "Minstr/s"),
    ("sim.host_ns_per_cycle.1L", "ns"),
    ("sim.host_ns_per_cycle.1b", "ns"),
    ("sim.host_ns_per_cycle.1bIV", "ns"),
    ("sim.host_ns_per_cycle.1b-4L", "ns"),
    ("sim.host_ns_per_cycle.1bIV-4L", "ns"),
    ("sim.host_ns_per_cycle.1bDV", "ns"),
    ("sim.host_ns_per_cycle.1b-4VL", "ns"),
    ("sim.host_ns_per_edge", "ns"),
    ("sim.edges_run", "count"),
    ("sim.edges_skipped", "count"),
    ("sim.skip_frac", "fraction"),
    ("mem.l1_accesses", "count"),
    ("mem.l2_accesses", "count"),
    ("mem.dram_reqs", "count"),
    ("sampling.plan_s", "s"),
    ("sampling.window_s", "s"),
    ("sampling.combine_s", "s"),
    ("sampling.windows", "count"),
    ("sampling.windows_truncated", "count"),
    ("sampling.ff_instrs", "count"),
    ("sampling.detailed_frac", "fraction"),
    ("sampling.err_mean_pct", "%"),
    ("sampling.err_max_pct", "%"),
    ("sampling.ci_coverage", "fraction"),
    ("snap.state_bytes", "bytes"),
    ("snap.encode_mb_per_s", "MB/s"),
    ("snap.decode_mb_per_s", "MB/s"),
    ("obs.stats_entries", "count"),
    ("obs.conservation_ms", "ms"),
    ("sweep.busy_frac", "fraction"),
    ("serve.sim_share", "fraction"),
    ("serve.overhead_ms_per_point", "ms"),
    ("serve.ckpt_save_ms", "ms"),
    ("serve.store_load_ms", "ms"),
    ("serve.store_bytes_per_point", "bytes"),
    ("serve.executed", "count"),
    ("serve.disk_hits", "count"),
    ("serve.memo_hits", "count"),
    ("serve.coalesced", "count"),
    ("serve.warm_point_p50_ms", "ms"),
    ("serve.warm_point_tail_ms", "ms"),
    ("trace.overhead_pct", "%"),
];

/// What one workload run produced.
#[derive(Debug)]
pub struct Outcome {
    /// Points attempted and failed.
    pub check: Checker,
    /// The [`END_TO_END`] metrics, from the untraced passes.
    pub e2e: Vec<Metric>,
    /// End-to-end metrics only this workload has (sampling error, warm
    /// latency, `failed_frac`), printed but not in the result line.
    pub extra: Vec<Metric>,
    /// Per-layer metrics (traced runs only), before [`finish_layers`].
    pub layers: Vec<Metric>,
    /// Free-form lines (result digest, artifact check).
    pub notes: Vec<String>,
    /// Host seconds of each untraced pass.
    pub plain_host: Vec<f64>,
    /// Host seconds of each traced pass.
    pub traced_host: Vec<f64>,
}

/// Runs the named workload; `None` for an unknown name.
pub fn run_workload(name: &str, cfg: &Cfg, tracer: &Tracer) -> Option<Outcome> {
    Some(match name {
        "exact-fig04" => common::run(&exact::Exact, cfg, tracer),
        "sampled-dp" => common::run(&sampled::Sampled, cfg, tracer),
        "served-tiny" => {
            let served = served::Served {
                seed: cfg.seed,
                work_dir: cfg.work_dir.clone(),
            };
            common::run(&served, cfg, tracer)
        }
        _ => return None,
    })
}

/// `trace.overhead_pct`: what recording the spans of one traced pass
/// costs, as a share of that pass's duration. The cost is the spans
/// recorded inside the timed passes times the measured cost of one kept
/// span over an untraced one ([`span_cost_s`]). Comparing whole traced
/// and untraced passes cannot show it: the host's speed drifts by far
/// more than the spans cost, so that difference is only a note.
fn tracing_overhead(out: &Outcome, spans: &[Span]) -> Metric {
    let passes: HashSet<u64> = spans
        .iter()
        .filter(|s| s.name.starts_with("pass."))
        .map(|s| s.id)
        .collect();
    let in_passes = spans
        .iter()
        .filter(|s| passes.contains(&s.id) || s.parent.is_some_and(|p| passes.contains(&p)))
        .count();
    let pass_s: f64 = spans
        .iter()
        .filter(|s| passes.contains(&s.id))
        .map(Span::secs)
        .sum();
    let cost = span_cost_s();
    let (plain, traced) = (median(&out.plain_host), median(&out.traced_host));
    Metric::new(
        "trace.overhead_pct",
        "%",
        in_passes as f64 * cost / pass_s * 100.0,
        in_passes,
    )
    .with_note(format!(
        "{in_passes} spans x {:.0} ns over {pass_s:.3} s of traced passes; \
         median pass wall time: traced {traced:.4} s vs untraced {plain:.4} s",
        cost * 1e9
    ))
}

/// Completes a traced run's per-layer metrics: adds the build time and
/// the tracing overhead, and returns exactly [`PER_LAYER`], in order,
/// with 0 (and a note) for every layer the workload does not exercise.
pub fn finish_layers(out: &Outcome, tracer: &Tracer, workload: &str) -> Vec<Metric> {
    let spans = tracer.spans();
    let builds: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == "workloads.build")
        .map(|s| s.secs() * 1e3)
        .collect();
    let mut have = out.layers.clone();
    have.push(
        Metric::new("workloads.build_ms", "ms", median(&builds), builds.len())
            .with_note("median Workload build"),
    );
    have.push(tracing_overhead(out, &spans));
    PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            have.iter()
                .find(|m| m.name == name)
                .cloned()
                .map(|m| Metric { unit, ..m })
                .unwrap_or_else(|| {
                    Metric::new(name, unit, 0.0, 0)
                        .with_note(format!("layer not exercised by {workload}"))
                })
        })
        .collect()
}
