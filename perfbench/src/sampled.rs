//! `sampled-dp`: the sampled path as the sweep harness runs it —
//! `plan_sampled` for every point, then every planned window flattened
//! across one `run_parallel` pool via `run_sample_window`, then
//! `combine_sampled` — over the data-parallel workloads on the five
//! systems that run them without work stealing.

use crate::common::{
    build_set, isa_probe, matrix, mem_metrics, per_kind, per_kind_metrics, point_name, seeded,
    skip_metrics, stats_entries_metric, sum_skip, Bench, Cfg, Checker, Pass, Passes, PointRec,
    DP_NAMES, THREADS,
};
use crate::metrics::Metric;
use crate::spans::{total_of, Tracer};
use bvl_experiments::sweep::run_parallel;
use bvl_sim::{
    combine_sampled, plan_sampled, run_sample_window, simulate, RunResult, SamplePlan,
    SamplingParams, SimParams, SkipStats, SysState, SystemKind, WindowMeasurement,
};
use bvl_workloads::Workload;
use std::sync::Arc;

/// The systems sampled: task-mode systems fall back to exact runs.
pub const KINDS: [SystemKind; 5] = [
    SystemKind::L1,
    SystemKind::B1,
    SystemKind::BIv,
    SystemKind::BDv,
    SystemKind::B4Vl,
];

/// Per-pass sampling-layer measurements.
#[derive(Clone, Debug, Default)]
pub struct Extra {
    /// Windows planned.
    pub windows: u64,
    /// Windows the combiner reported truncated or dropped.
    pub truncated: u64,
    /// Instructions functionally fast-forwarded.
    pub ff_instrs: u64,
    /// Instructions simulated in detail.
    pub detailed_instrs: u64,
    /// `(kind, window seconds, window uncore cycles)` per window.
    pub window_kinds: Vec<(SystemKind, f64, u64)>,
    /// Σ window tick-skip counters.
    pub window_skip: SkipStats,
    /// Snap round trip of every planned state (traced passes only):
    /// bytes, encode seconds, decode seconds.
    pub snap: Option<(u64, f64, f64)>,
    /// `(point index, seconds)` of every plan, window and combine call,
    /// in that order: the calls a point's time is the sum of.
    pub calls: Vec<(usize, f64)>,
}

/// Sampling parameters of every point.
pub fn params() -> SimParams {
    SimParams {
        sampling: Some(SamplingParams::default()),
        ..SimParams::default()
    }
}

/// One pass over every point.
pub fn pass(ws: &[Arc<Workload>], tracer: &Tracer) -> Pass<Extra> {
    let jobs = matrix(ws.len(), &KINDS);
    let params = params();
    let open = tracer.begin("pass.sampled", None, None);
    let parent = open.id();

    let plans: Vec<(Result<SamplePlan, String>, f64)> =
        run_parallel(&jobs, THREADS, |&(idx, wi, kind)| {
            tracer.time("sampling.plan_sampled", parent, Some(idx), || {
                plan_sampled(kind, &ws[wi], &params)
            })
        });
    // Every planned window of every point shares one pool.
    let items: Vec<(usize, usize)> = plans
        .iter()
        .enumerate()
        .flat_map(|(ji, (plan, _))| {
            let n = plan.as_ref().map_or(0, |p| p.windows.len());
            (0..n).map(move |w| (ji, w))
        })
        .collect();
    let outs: Vec<(Result<WindowMeasurement, String>, f64)> =
        run_parallel(&items, THREADS, |&(ji, wi)| {
            let (idx, w, kind) = jobs[ji];
            let plan = plans[ji].0.as_ref().expect("planned");
            tracer.time("sampling.run_sample_window", parent, Some(idx), || {
                run_sample_window(kind, &ws[w], &params, &plan.windows[wi])
            })
        });

    let mut extra = Extra::default();
    extra
        .calls
        .extend(plans.iter().enumerate().map(|(ji, p)| (ji, p.1)));
    extra
        .calls
        .extend(items.iter().zip(&outs).map(|(&(ji, _), o)| (ji, o.1)));
    let mut per_job: Vec<(Vec<WindowMeasurement>, f64, Option<String>)> =
        jobs.iter().map(|_| (Vec::new(), 0.0, None)).collect();
    for (&(ji, _), (out, secs)) in items.iter().zip(outs) {
        let slot = &mut per_job[ji];
        slot.1 += secs;
        match out {
            Ok(m) => {
                extra.detailed_instrs += m.instrs;
                extra
                    .window_kinds
                    .push((jobs[ji].2, secs, m.result.uncore_cycles));
                extra.window_skip = sum_skip([&extra.window_skip, &m.skip]);
                slot.0.push(m);
            }
            Err(e) => slot.2 = Some(e),
        }
    }

    let mut points = Vec::with_capacity(jobs.len());
    for (ji, &(idx, wi, kind)) in jobs.iter().enumerate() {
        let (plan, plan_s) = &plans[ji];
        let (measured, window_s, err) = std::mem::take(&mut per_job[ji]);
        let mut secs = plan_s + window_s;
        let out = match (plan, err) {
            (Err(e), _) => Err(e.clone()),
            (Ok(_), Some(e)) => Err(e),
            (Ok(plan), None) if plan.exact_fallback => {
                Err("unexpected exact fallback: the sampled systems never run tasks".into())
            }
            (Ok(plan), None) => {
                extra.windows += plan.windows.len() as u64;
                extra.ff_instrs += plan.total_instrs;
                let (out, s) = tracer.time("sampling.combine_sampled", parent, Some(idx), || {
                    combine_sampled(kind, &ws[wi], &params, plan, &measured)
                });
                secs += s;
                extra.calls.push((ji, s));
                out
            }
        };
        let (result, skip) = match out {
            Ok((r, s)) => {
                if let Some(meta) = &r.sampling {
                    extra.truncated += meta.windows_truncated;
                }
                (Ok(Arc::new(r)), s)
            }
            Err(e) => (Err(e), SkipStats::default()),
        };
        points.push(PointRec {
            idx,
            workload: wi,
            kind,
            secs,
            result,
            skip,
        });
    }
    let host_s = open.end();

    if tracer.enabled() {
        extra.snap = Some(snap_round_trip(
            plans
                .iter()
                .filter_map(|(p, _)| p.as_ref().ok())
                .flat_map(|p| p.windows.iter().map(|w| &w.state)),
            tracer,
        ));
    }
    Pass {
        host_s,
        points,
        extra,
    }
}

/// Encodes every state with `SysState::to_bytes` and decodes it back
/// with `SysState::from_bytes`, in `snap.*` spans. Returns (bytes,
/// encode seconds, decode seconds).
pub fn snap_round_trip<'a>(
    states: impl IntoIterator<Item = &'a SysState>,
    tracer: &Tracer,
) -> (u64, f64, f64) {
    let (mut bytes, mut enc, mut dec) = (0u64, 0.0, 0.0);
    for s in states {
        let (blob, e) = tracer.time("snap.to_bytes", None, None, || s.to_bytes());
        let (back, d) = tracer.time("snap.from_bytes", None, None, || {
            SysState::from_bytes(&blob)
        });
        back.expect("a freshly encoded state decodes");
        bytes += blob.len() as u64;
        enc += e;
        dec += d;
    }
    (bytes, enc, dec)
}

/// The `snap.*` metrics from a [`snap_round_trip`].
pub fn snap_metrics((bytes, enc, dec): (u64, f64, f64), states: usize, what: &str) -> Vec<Metric> {
    let rate = |s: f64| if s > 0.0 { bytes as f64 / s / 1e6 } else { 0.0 };
    vec![
        Metric::new(
            "snap.state_bytes",
            "bytes",
            bytes as f64 / states.max(1) as f64,
            states,
        )
        .with_note(format!("mean encoded size of {what}")),
        Metric::new("snap.encode_mb_per_s", "MB/s", rate(enc), states),
        Metric::new("snap.decode_mb_per_s", "MB/s", rate(dec), states),
    ]
}

/// Sampling error against exact references, as (mean |error| %, max
/// |error| %, CI coverage fraction, the worst point's index).
pub fn accuracy(points: &[PointRec], exact: &[Result<RunResult, String>]) -> (f64, f64, f64, u32) {
    let (mut sum, mut max, mut covered, mut n, mut worst) = (0.0, 0.0, 0usize, 0usize, 0u32);
    for (p, e) in points.iter().zip(exact) {
        let (Ok(r), Ok(e)) = (&p.result, e) else {
            continue;
        };
        let err = (r.wall_ns - e.wall_ns).abs() / e.wall_ns * 100.0;
        sum += err;
        if err > max {
            max = err;
            worst = p.idx;
        }
        if r.sampling
            .as_ref()
            .is_some_and(|m| m.ci_covers(r.wall_ns, e.wall_ns))
        {
            covered += 1;
        }
        n += 1;
    }
    let n_f = n.max(1) as f64;
    (sum / n_f, max, covered as f64 / n_f, worst)
}

/// The `sampled-dp` workload.
pub struct Sampled;

impl Bench for Sampled {
    type Extra = Extra;
    const NAME: &'static str = "sampled-dp";
    const WORKLOADS: &'static [&'static str] = &DP_NAMES;
    const SCALE: &'static str = "default";
    const WARM_UP: bool = true;
    const LAYER_PREFIX: &'static str = "sampling";

    fn pass(&self, ws: &[Arc<Workload>], tracer: &Tracer, _pass_no: usize) -> Pass<Extra> {
        pass(ws, tracer)
    }

    /// A point's time is its plan, window and combine calls.
    fn calls_ms(&self, pass: &Pass<Extra>) -> Vec<(usize, f64)> {
        pass.extra
            .calls
            .iter()
            .map(|&(i, s)| (i, s * 1e3))
            .collect()
    }

    /// Runs the exact references, outside every timed region, and
    /// reports the sampling error of the first pass against them.
    fn check(
        &self,
        ws: &[Arc<Workload>],
        passes: &Passes<Extra>,
        _cfg: &Cfg,
        check: &mut Checker,
        _notes: &mut Vec<String>,
    ) -> Vec<Metric> {
        let jobs = matrix(ws.len(), &KINDS);
        let exact_params = SimParams::default();
        let exact: Vec<Result<RunResult, String>> =
            run_parallel(&jobs, THREADS, |&(_, wi, kind)| {
                simulate(kind, &ws[wi], &exact_params)
            });
        for (e, &(_, wi, kind)) in exact.iter().zip(&jobs) {
            check.attempted += 1;
            if let Err(e) = e {
                check.fail(format!("exact reference {} on {kind}: {e}", ws[wi].name));
            }
        }
        let first = passes.all()[0];
        let (err_mean, err_max, coverage, worst) = accuracy(&first.points, &exact);
        let worst = point_name(ws, &first.points[worst as usize]);
        let n = first.points.len();
        vec![
            Metric::new("err_mean_pct", "%", err_mean, n)
                .with_note("mean |sampled - exact| / exact on wall_ns"),
            Metric::new("err_max_pct", "%", err_max, n).with_note(format!("worst: {worst}")),
            Metric::new("ci_coverage", "fraction", coverage, n)
                .with_note("points whose 95% CI covers the exact wall_ns"),
        ]
    }

    fn layers(
        &self,
        ws: &[Arc<Workload>],
        traced: &[Pass<Extra>],
        _cfg: &Cfg,
        tracer: &Tracer,
        check: &mut Checker,
    ) -> Vec<Metric> {
        let mut m = layer_metrics(traced, tracer);
        m.push(isa_probe(ws, tracer, check));
        m
    }
}

/// The sampling layer for another workload's traced run: one traced
/// pass over the `sampled-dp` points at the run's seed, checked like a
/// `sampled-dp` run. Returns the `sampling.*` and `snap.*` metrics.
pub fn layer_probe(cfg: &Cfg, tracer: &Tracer, check: &mut Checker) -> Vec<Metric> {
    let (ws, _) = build_set(&DP_NAMES, seeded("default", cfg.seed), &Tracer::off(), None);
    let passes = Passes {
        plain: Vec::new(),
        traced: vec![pass(&ws, tracer)],
        warm_up: None,
        rss_mb: 0.0,
    };
    check.passes(&passes.all(), "sampled-dp probe", |p| point_name(&ws, p));
    let accuracy = Sampled.check(&ws, &passes, cfg, check, &mut Vec::new());
    let mut m = layer_metrics(&passes.traced, tracer);
    m.extend(accuracy.into_iter().map(|x| Metric {
        name: format!("{}.{}", Sampled::LAYER_PREFIX, x.name),
        ..x
    }));
    m.retain(|x| x.name.starts_with("sampling.") || x.name.starts_with("snap."));
    m
}

fn layer_metrics(traced: &[Pass<Extra>], tracer: &Tracer) -> Vec<Metric> {
    let p = &traced[0];
    let x = &p.extra;
    let spans = tracer.spans();
    let per_pass = |name: &str| total_of(&spans, name) / traced.len() as f64;
    let window_s: f64 = x.window_kinds.iter().map(|w| w.1).sum();
    let mut m = per_kind_metrics(
        &per_kind(x.window_kinds.iter().copied()),
        "the detailed windows",
    );
    m.extend(skip_metrics(
        window_s,
        x.window_skip,
        "the detailed windows",
    ));
    let ok = || p.points.iter().filter_map(|x| x.result.as_deref().ok());
    m.extend(mem_metrics(ok()));
    m.extend([
        Metric::new(
            "sampling.plan_s",
            "s",
            per_pass("sampling.plan_sampled"),
            traced.len(),
        ),
        Metric::new(
            "sampling.window_s",
            "s",
            per_pass("sampling.run_sample_window"),
            traced.len(),
        ),
        Metric::new(
            "sampling.combine_s",
            "s",
            per_pass("sampling.combine_sampled"),
            traced.len(),
        ),
        Metric::new("sampling.windows", "count", x.windows as f64, 1),
        Metric::new("sampling.windows_truncated", "count", x.truncated as f64, 1),
        Metric::new("sampling.ff_instrs", "count", x.ff_instrs as f64, 1),
        Metric::new(
            "sampling.detailed_frac",
            "fraction",
            x.detailed_instrs as f64 / x.ff_instrs.max(1) as f64,
            1,
        )
        .with_note("instructions simulated in detail / fast-forwarded"),
    ]);
    if let Some(snap) = x.snap {
        m.extend(snap_metrics(
            snap,
            x.windows as usize,
            "every planned window state",
        ));
    }
    // Estimates are weighted sums of windows, so conservation is not
    // checked on them; the entry count still is what a result carries.
    m.push(stats_entries_metric(ok()));
    m
}
