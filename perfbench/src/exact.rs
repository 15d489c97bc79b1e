//! `exact-fig04`: exact `simulate_with_stats` over the Figure 4 matrix at
//! `tiny` scale, fanned out through the sweep harness's `run_parallel`
//! with no memo or disk cache in the way. At `default` scale one pass
//! takes 9–13 s, so a run could time each point only three or four
//! times; at `tiny` it times each a few dozen times, enough for each
//! point's fastest time to meet a quiet host (see
//! [`crate::common::fastest_per_point`]). The `default`-scale matrix
//! still runs once, untimed, at the default seed, to check it against
//! the committed Figure 4 artifact.

use crate::common::{
    build_set, isa_probe, matrix, mem_metrics, obs_metrics, per_kind, per_kind_metrics, point_name,
    skip_metrics, sum_skip, Bench, Cfg, Checker, Pass, Passes, PointRec, FIG04_NAMES, THREADS,
};
use crate::metrics::Metric;
use crate::spans::Tracer;
use crate::stats::median;
use bvl_experiments::sweep::run_parallel;
use bvl_experiments::Measurement;
use bvl_sim::{simulate_with_stats, SimParams, SkipStats, SystemKind};
use bvl_workloads::{Scale, Workload};
use std::collections::HashMap;
use std::path::Path;
use std::sync::Arc;

/// One pass: every point of `ws` × all seven systems.
pub fn pass(ws: &[Arc<Workload>], tracer: &Tracer) -> Pass<()> {
    let jobs = matrix(ws.len(), &SystemKind::ALL);
    let params = SimParams::default();
    let open = tracer.begin("pass.exact", None, None);
    let parent = open.id();
    let points = run_parallel(&jobs, THREADS, |&(idx, wi, kind)| {
        let (out, secs) = tracer.time("sim.simulate_with_stats", parent, Some(idx), || {
            simulate_with_stats(kind, &ws[wi], &params)
        });
        let (result, skip) = match out {
            Ok((r, s)) => (Ok(Arc::new(r)), s),
            Err(e) => (Err(e), SkipStats::default()),
        };
        PointRec {
            idx,
            workload: wi,
            kind,
            secs,
            result,
            skip,
        }
    });
    Pass {
        host_s: open.end(),
        points,
        extra: (),
    }
}

/// Compares every point's `wall_ns`, `fetch_groups` and `data_reqs` with
/// the committed Figure 4 artifact; returns the number compared.
pub fn check_fig04(
    pass: &Pass<()>,
    ws: &[Arc<Workload>],
    artifact: &Path,
    check: &mut Checker,
) -> usize {
    let text = match std::fs::read_to_string(artifact) {
        Ok(t) => t,
        Err(e) => {
            check.problem(format!("cannot read {}: {e}", artifact.display()));
            return 0;
        }
    };
    let Some(rows) = serde_json::from_str(&text).ok().and_then(|v| {
        v.as_array().map(|rows| {
            rows.iter()
                .filter_map(|r| {
                    let s = |k: &str| r.get(k).and_then(|x| x.as_str()).map(str::to_string);
                    let key = (s("workload")?, s("system")?);
                    let vals = (
                        r.get("wall_ns")?.as_f64()?,
                        r.get("fetch_groups")?.as_u64()?,
                        r.get("data_reqs")?.as_u64()?,
                    );
                    Some((key, vals))
                })
                .collect::<HashMap<_, _>>()
        })
    }) else {
        check.problem(format!("{} is not a fig04 artifact", artifact.display()));
        return 0;
    };
    let mut compared = 0;
    for p in &pass.points {
        let Ok(r) = &p.result else { continue };
        let name = ws[p.workload].name;
        let m = Measurement::of(name, p.kind, r);
        match rows.get(&(name.to_string(), p.kind.label().to_string())) {
            Some(&(wall, fg, dr)) if wall == m.wall_ns && fg == m.fetch_groups && dr == m.data_reqs => {}
            Some(want) => check.fail(format!(
                "{name} on {}: (wall_ns, fetch_groups, data_reqs) = ({}, {}, {}), artifact has {want:?}",
                p.kind, m.wall_ns, m.fetch_groups, m.data_reqs
            )),
            None => check.fail(format!("{name} on {}: missing from the artifact", p.kind)),
        }
        compared += 1;
    }
    compared
}

/// The `exact-fig04` workload.
pub struct Exact;

impl Bench for Exact {
    type Extra = ();
    const NAME: &'static str = "exact-fig04";
    const WORKLOADS: &'static [&'static str] = &FIG04_NAMES;
    const SCALE: &'static str = "tiny";
    const WARM_UP: bool = true;
    const LAYER_PREFIX: &'static str = "exact";

    fn pass(&self, ws: &[Arc<Workload>], tracer: &Tracer, _pass_no: usize) -> Pass<()> {
        pass(ws, tracer)
    }

    /// At the default seed, runs the matrix at `default` scale once,
    /// untimed, and checks it against the Figure 4 artifact.
    fn check(
        &self,
        _ws: &[Arc<Workload>],
        _passes: &Passes<()>,
        cfg: &Cfg,
        check: &mut Checker,
        notes: &mut Vec<String>,
    ) -> Vec<Metric> {
        if cfg.seed == Scale::default_eval().seed {
            let (dws, _) = build_set(&FIG04_NAMES, Scale::default_eval(), &Tracer::off(), None);
            let reference = pass(&dws, &Tracer::off());
            check.passes(&[&reference], "exact-fig04 at default scale", |p| {
                point_name(&dws, p)
            });
            let artifact = cfg.root.join("results/fig04_speedup.default.json");
            let n = check_fig04(&reference, &dws, &artifact, check);
            notes.push(format!(
                "{n} points at default scale match {}",
                artifact.display()
            ));
        }
        Vec::new()
    }

    /// Also measures the sampling layer, with one traced `sampled-dp`
    /// pass: `sampled-dp` is not a timed workload of the benchmark.
    fn layers(
        &self,
        ws: &[Arc<Workload>],
        traced: &[Pass<()>],
        cfg: &Cfg,
        tracer: &Tracer,
        check: &mut Checker,
    ) -> Vec<Metric> {
        let mut m = layer_metrics(traced, ws, tracer, check);
        m.extend(crate::sampled::layer_probe(cfg, tracer, check));
        m
    }
}

fn layer_metrics(
    traced: &[Pass<()>],
    ws: &[Arc<Workload>],
    tracer: &Tracer,
    check: &mut Checker,
) -> Vec<Metric> {
    let p = &traced[0];
    let ok = || {
        p.points
            .iter()
            .filter_map(|x| x.result.as_deref().ok().map(|r| (x, r)))
    };
    let kinds = per_kind(ok().map(|(x, r)| (x.kind, x.secs, r.uncore_cycles)));
    let point_s: f64 = p.points.iter().map(|x| x.secs).sum();
    let busy: Vec<f64> = traced
        .iter()
        .map(|t| t.points.iter().map(|x| x.secs).sum::<f64>() / (t.host_s * THREADS as f64))
        .collect();
    let mut m = per_kind_metrics(&kinds, "the exact runs");
    m.extend(skip_metrics(
        point_s,
        sum_skip(p.points.iter().map(|x| &x.skip)),
        "the exact runs",
    ));
    m.extend(mem_metrics(ok().map(|(_, r)| r)));
    m.extend(obs_metrics(
        ok().map(|(x, r)| (x.idx, r)),
        tracer,
        check,
        "exact-fig04",
    ));
    m.push(
        Metric::new("sweep.busy_frac", "fraction", median(&busy), busy.len()).with_note(format!(
            "Σ point time / (pass wall time × {THREADS} threads)"
        )),
    );
    m.push(isa_probe(ws, tracer, check));
    m
}
