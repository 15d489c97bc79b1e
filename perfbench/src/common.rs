//! Pieces shared by the three workloads: configuration, the timed pass
//! loop, point records, correctness bookkeeping and the summaries every
//! workload reports.

use crate::metrics::Metric;
use crate::spans::Tracer;
use crate::stats::{median, percentile, tail_percentile};
use crate::Outcome;
use bvl_experiments::sweep::run_parallel;
use bvl_sim::{RunResult, SkipStats, SystemKind};
use bvl_snap::{Snap, SnapWriter};
use bvl_workloads::{Scale, Workload};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

/// Worker threads every workload runs with (the host has two cores).
pub const THREADS: usize = 2;

/// Set-ups before the first pass, and again before every pass.
/// `setup_s` sums each workload's fastest build over all of them. One
/// set-up takes 1–3 ms, so the builds of a single burst all meet the
/// host in the same state; spread over the run, some meet it quiet.
pub const SETUP_REPS: usize = 10;

/// Set-ups repeated before every pass (see [`SETUP_REPS`]).
pub const SETUP_REPS_PER_PASS: usize = 5;

/// The fastest [`speed_probe`] time seen on the host the baseline in
/// `README.md` was measured on (a 2-vCPU KVM guest), in a quiet hour.
/// Every end-to-end timing is reported at this pace: scaled by it over
/// the run's fastest probe ([`Speed`]).
pub const PROBE_REF_S: f64 = 1.5e-3;

/// Probes on each worker thread before the first pass, and again before
/// every pass.
pub const PROBES_PER_PASS: usize = 5;

/// The Figure 4 workloads the benchmark sweeps: every suite workload but
/// `trianglecount`, task-parallel first, in the figure's order.
pub const FIG04_NAMES: [&str; 18] = [
    "bfs",
    "pagerank",
    "components",
    "radii",
    "mis",
    "kcore",
    "bc",
    "vvadd",
    "mmult",
    "saxpy",
    "backprop",
    "kmeans",
    "particlefilter",
    "blackscholes",
    "jacobi2d",
    "pathfinder",
    "lavamd",
    "sw",
];

/// The data-parallel subset of [`FIG04_NAMES`].
pub const DP_NAMES: [&str; 11] = [
    "vvadd",
    "mmult",
    "saxpy",
    "backprop",
    "kmeans",
    "particlefilter",
    "blackscholes",
    "jacobi2d",
    "pathfinder",
    "lavamd",
    "sw",
];

/// One benchmark run's settings.
#[derive(Clone, Debug)]
pub struct Cfg {
    /// Input seed; becomes `Scale::seed` for every workload.
    pub seed: u64,
    /// How long the pass loop measures.
    pub seconds: f64,
    /// Traced run (per-layer metrics) rather than untraced (end to end).
    pub trace: bool,
    /// Directory the run may write scratch files under (stores, traces).
    pub work_dir: PathBuf,
    /// The checkout root (where `results/` lives).
    pub root: PathBuf,
}

/// A preset scale with the run's seed.
pub fn seeded(name: &str, seed: u64) -> Scale {
    Scale {
        seed,
        ..Scale::by_name(name).expect("preset scale")
    }
}

/// Builds the named workloads, each inside a `workloads.build` span.
/// Returns them with each one's build seconds.
pub fn build_set(
    names: &[&str],
    scale: Scale,
    tracer: &Tracer,
    parent: Option<u64>,
) -> (Vec<Arc<Workload>>, Vec<f64>) {
    names
        .iter()
        .map(|name| {
            let (w, secs) = tracer.time("workloads.build", parent, None, || {
                bvl_workloads::by_name(name, scale).expect("registered workload")
            });
            (Arc::new(w), secs)
        })
        .unzip()
}

/// Builds the workload set `n` times (keeping the last) and returns it
/// with the seconds of every repetition, per workload.
pub fn setup_builds(
    names: &[&str],
    scale: Scale,
    tracer: &Tracer,
    n: usize,
) -> (Vec<Arc<Workload>>, Vec<Vec<f64>>) {
    let mut reps = Vec::new();
    let mut ws = Vec::new();
    for _ in 0..n {
        let open = tracer.begin("setup", None, None);
        let (built, secs) = build_set(names, scale, tracer, open.id());
        open.end();
        reps.push(secs);
        ws = built;
    }
    (ws, reps)
}

/// What one workload adds to the run every workload shares ([`run`]):
/// its points, its own checks and its per-layer metrics.
pub trait Bench {
    /// Workload-specific measurements of one pass.
    type Extra;
    /// The workload's name, as `--workload` takes it.
    const NAME: &'static str;
    /// The workloads built in set-up.
    const WORKLOADS: &'static [&'static str];
    /// The preset scale they are built at (with the run's seed).
    const SCALE: &'static str;
    /// Whether an untimed warm-up pass runs first (see [`run_passes`]).
    const WARM_UP: bool;
    /// The per-layer prefix under which the workload-only end-to-end
    /// metrics are repeated in a traced run.
    const LAYER_PREFIX: &'static str;

    /// One pass over every point; `pass_no` counts every pass of the run.
    fn pass(&self, ws: &[Arc<Workload>], tracer: &Tracer, pass_no: usize) -> Pass<Self::Extra>;

    /// Every timed call of a pass that makes up a point's time: the
    /// point's index and the call's host ms, in the same order every
    /// pass. By default each point is one call.
    fn calls_ms(&self, pass: &Pass<Self::Extra>) -> Vec<(usize, f64)> {
        pass.points
            .iter()
            .enumerate()
            .map(|(i, p)| (i, p.secs * 1e3))
            .collect()
    }

    /// Set-up seconds beyond the workload builds (the fastest of every
    /// pass).
    fn more_setup_s(&self, _passes: &[&Pass<Self::Extra>]) -> f64 {
        0.0
    }

    /// Checks of this workload's own. Returns the workload-only
    /// end-to-end metrics, from the untraced passes.
    fn check(
        &self,
        ws: &[Arc<Workload>],
        passes: &Passes<Self::Extra>,
        cfg: &Cfg,
        check: &mut Checker,
        notes: &mut Vec<String>,
    ) -> Vec<Metric>;

    /// Per-layer metrics of the traced passes.
    fn layers(
        &self,
        ws: &[Arc<Workload>],
        traced: &[Pass<Self::Extra>],
        cfg: &Cfg,
        tracer: &Tracer,
        check: &mut Checker,
    ) -> Vec<Metric>;
}

/// Runs a workload: set-up, the timed passes, the checks every workload
/// shares (errors, every pass equal to the first, the result digest),
/// the workload's own checks and the metrics.
pub fn run<B: Bench>(b: &B, cfg: &Cfg, tracer: &Tracer) -> Outcome {
    let scale = seeded(B::SCALE, cfg.seed);
    let mut probes = speed_probes();
    let (ws, mut setup) = setup_builds(B::WORKLOADS, scale, tracer, SETUP_REPS);
    let passes = run_passes(cfg, tracer, B::WARM_UP, |t, i| {
        probes.extend(speed_probes());
        setup.extend(setup_builds(B::WORKLOADS, scale, tracer, SETUP_REPS_PER_PASS).1);
        b.pass(&ws, t, i)
    });
    let speed = Speed::of(&probes);

    let mut check = Checker::default();
    let all = passes.all();
    check.passes(&all, B::NAME, |p| point_name(&ws, p));
    let mut notes = vec![format!(
        "result digest {:016x}",
        digest(
            all[0]
                .points
                .iter()
                .filter_map(|p| p.result.as_deref().ok())
        )
    )];
    let extra = b.check(&ws, &passes, cfg, &mut check, &mut notes);
    let setup_s = fastest_per_point(&setup).iter().sum::<f64>() + b.more_setup_s(&all);
    let e2e = common_e2e(
        &passes.plain,
        passes.rss_mb,
        setup_s,
        setup.len(),
        speed,
        |p| b.calls_ms(p),
    );
    let mut layers = Vec::new();
    if cfg.trace {
        layers = b.layers(&ws, &passes.traced, cfg, tracer, &mut check);
        layers.extend(extra.iter().map(|m| Metric {
            name: format!("{}.{}", B::LAYER_PREFIX, m.name),
            ..m.clone()
        }));
    }
    Outcome {
        check,
        e2e,
        extra,
        layers,
        notes,
        plain_host: passes.plain.iter().map(|p| p.host_s).collect(),
        traced_host: passes.traced.iter().map(|p| p.host_s).collect(),
    }
}

/// `"<workload> on <system>"` for a point.
pub fn point_name(ws: &[Arc<Workload>], p: &PointRec) -> String {
    format!("{} on {}", ws[p.workload].name, p.kind)
}

/// Every (point id, workload index, system) of a workloads × systems
/// matrix, workload-major.
pub fn matrix(workloads: usize, kinds: &[SystemKind]) -> Vec<(u32, usize, SystemKind)> {
    (0..workloads)
        .flat_map(|wi| kinds.iter().map(move |&k| (wi, k)))
        .enumerate()
        .map(|(i, (wi, k))| (i as u32, wi, k))
        .collect()
}

/// One point of one pass.
#[derive(Clone, Debug)]
pub struct PointRec {
    /// Point id (index into the workload's matrix).
    pub idx: u32,
    /// Index into the workload set.
    pub workload: usize,
    /// System simulated.
    pub kind: SystemKind,
    /// Host seconds attributed to the point.
    pub secs: f64,
    /// The checked result, or why the point failed. A result equal to
    /// the first pass's is that result, shared, so that a run holds one
    /// copy of its results however many passes it makes.
    pub result: Result<Arc<RunResult>, String>,
    /// Tick-skip counters of the point's simulation.
    pub skip: SkipStats,
}

/// One timed pass over a workload's points.
#[derive(Clone, Debug)]
pub struct Pass<X> {
    /// Host seconds of the timed region.
    pub host_s: f64,
    /// Every point, in matrix order.
    pub points: Vec<PointRec>,
    /// Workload-specific measurements.
    pub extra: X,
}

/// The passes of one run.
#[derive(Debug)]
pub struct Passes<X> {
    /// Untraced passes: the end-to-end numbers.
    pub plain: Vec<Pass<X>>,
    /// Traced passes: the per-layer numbers.
    pub traced: Vec<Pass<X>>,
    /// The untimed warm-up pass, if one ran.
    pub warm_up: Option<Pass<X>>,
    /// `VmHWM` after the warm-up and the first timed pass, MB.
    pub rss_mb: f64,
}

impl<X> Passes<X> {
    /// Every pass: the warm-up first, then the untraced, then the traced.
    pub fn all(&self) -> Vec<&Pass<X>> {
        self.warm_up
            .iter()
            .chain(&self.plain)
            .chain(&self.traced)
            .collect()
    }
}

/// Runs passes for about `cfg.seconds`: at least one, and no further
/// pass once the next would end more than half a pass past the deadline.
/// A traced run alternates untraced and traced passes, so it can report
/// the tracing overhead, and has at least one of each. With `warm_up`, an
/// untimed pass first lets allocator and page-cache state settle; its
/// results are still checked.
pub fn run_passes<X>(
    cfg: &Cfg,
    tracer: &Tracer,
    warm_up: bool,
    mut pass: impl FnMut(&Tracer, usize) -> Pass<X>,
) -> Passes<X> {
    let off = Tracer::off();
    let mut out = Passes {
        plain: Vec::new(),
        traced: Vec::new(),
        warm_up: warm_up.then(|| pass(&off, 0)),
        rss_mb: 0.0,
    };
    let start = Instant::now();
    let mut i = 0;
    loop {
        let elapsed = start.elapsed().as_secs_f64();
        let per_pass = elapsed / i.max(1) as f64;
        let done = i > 0 && elapsed + per_pass / 2.0 > cfg.seconds;
        if done && !out.plain.is_empty() && (!cfg.trace || !out.traced.is_empty()) {
            break;
        }
        let n = i + usize::from(warm_up);
        let traced = cfg.trace && i % 2 == 1;
        let mut p = pass(if traced { tracer } else { &off }, n);
        if let Some(first) = out.all().first() {
            share_results(first, &mut p);
        }
        if traced {
            out.traced.push(p);
        } else {
            out.plain.push(p);
        }
        // The allocator's footprint keeps growing while one process
        // repeats a sweep (`sampled-dp` frees and reallocates megabytes of
        // checkpoints every pass), by a different amount in every run; the
        // peak of a process's first sweeps is what running one costs.
        if i == 0 {
            out.rss_mb = peak_rss_mb();
        }
        i += 1;
    }
    out
}

/// Makes every result of `pass` that equals `first`'s the same shared
/// value.
fn share_results<X>(first: &Pass<X>, pass: &mut Pass<X>) {
    for (p, p0) in pass.points.iter_mut().zip(&first.points) {
        if let (Ok(r), Ok(r0)) = (&p.result, &p0.result) {
            if r == r0 {
                p.result = Ok(Arc::clone(r0));
            }
        }
    }
}

/// Counts points attempted and failed, and keeps the reasons.
#[derive(Debug, Default)]
pub struct Checker {
    /// Points attempted.
    pub attempted: u64,
    /// Points that failed or produced a wrong result.
    pub failed: u64,
    /// Why (the first few are printed).
    pub problems: Vec<String>,
}

impl Checker {
    /// Records one failed or wrong point.
    pub fn fail(&mut self, why: impl Into<String>) {
        self.failed += 1;
        self.problems.push(why.into());
    }

    /// Records a run-level check failure that is not tied to one point
    /// (it still makes the run incorrect).
    pub fn problem(&mut self, why: impl Into<String>) {
        self.problems.push(why.into());
    }

    /// True when nothing failed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }

    /// Counts every pass's points, failing those that returned `Err` and —
    /// for every pass after the first — those whose result differs from
    /// the first pass's (simulation is deterministic).
    pub fn passes<X>(
        &mut self,
        passes: &[&Pass<X>],
        label: &str,
        name: impl Fn(&PointRec) -> String,
    ) {
        let Some(first) = passes.first() else {
            return;
        };
        for (pi, pass) in passes.iter().enumerate() {
            for (p, p0) in pass.points.iter().zip(&first.points) {
                self.attempted += 1;
                match (&p.result, &p0.result) {
                    (Err(e), _) => self.fail(format!("{label} {}: {e}", name(p))),
                    (Ok(r), Ok(r0)) if pi > 0 && r != r0 => {
                        self.fail(format!("{label} {}: result differs from pass 0", name(p)))
                    }
                    _ => {}
                }
            }
        }
    }
}

/// FNV-1a over the snap encoding of every `Ok` result, in order.
pub fn digest<'a>(results: impl IntoIterator<Item = &'a RunResult>) -> u64 {
    let mut w = SnapWriter::new();
    for r in results {
        r.save(&mut w);
    }
    bvl_serve::store::fnv1a(&w.into_bytes())
}

/// The process's peak resident set (`VmHWM`), MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Each index's fastest time over passes, in index order. `per_pass`
/// holds one time per index (a point or a call) for every pass.
///
/// The host is shared: other tenants slow a point by up to twice, in
/// bursts of seconds, and how much of a run they cover changes from
/// minute to minute. A point's fastest pass is the one that met a quiet
/// host, so it moves with the code and hardly with the neighbours.
pub fn fastest_per_point(per_pass: &[Vec<f64>]) -> Vec<f64> {
    let points = per_pass.first().map_or(0, Vec::len);
    (0..points)
        .map(|i| {
            per_pass
                .iter()
                .filter_map(|p| p.get(i).copied())
                .fold(f64::INFINITY, f64::min)
        })
        .collect()
}

/// Each point's time from its calls ([`Bench::calls_ms`]) over passes:
/// the sum of each call's fastest time.
pub fn fastest_point_ms(per_pass: &[Vec<(usize, f64)>], points: usize) -> Vec<f64> {
    let times: Vec<Vec<f64>> = per_pass
        .iter()
        .map(|calls| calls.iter().map(|c| c.1).collect())
        .collect();
    let mut out = vec![0.0; points];
    if let Some(first) = per_pass.first() {
        for (&(point, _), best) in first.iter().zip(fastest_per_point(&times)) {
            out[point] += best;
        }
    }
    out
}

/// Times a fixed piece of integer work over an L1-resident table, which
/// shares no code with the simulator. Returns its host seconds.
pub fn speed_probe() -> f64 {
    let mut table = [0u64; 1024];
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let start = Instant::now();
    for i in 0..400_000u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let j = (x & 1023) as usize;
        table[j] = table[j].wrapping_add(i);
        if table[j] & 1 == 0 {
            x = x.wrapping_add(3);
        }
    }
    std::hint::black_box((x, &table));
    start.elapsed().as_secs_f64()
}

/// [`PROBES_PER_PASS`] probes on each of the [`THREADS`] worker threads at
/// once, so that every vCPU the points run on is probed: the vCPUs of a
/// guest can run at different paces.
pub fn speed_probes() -> Vec<f64> {
    run_parallel(&[(); THREADS * PROBES_PER_PASS], THREADS, |_| speed_probe())
}

/// How fast the host ran during a run, from its [`speed_probe`] times.
///
/// The fastest time of each point already leaves out other tenants'
/// bursts, but not the host's own pace: when the whole machine is busy
/// even its quiet moments run slower, and from one quarter hour to the
/// next the fastest pass of `exact-fig04` moved by 40%. The probe's fastest time
/// moves with that pace and not with this repository's code, so every
/// timing is scaled by `PROBE_REF_S / fastest probe`: host seconds at
/// the reference host's pace.
#[derive(Clone, Copy, Debug)]
pub struct Speed {
    /// The run's fastest probe, seconds.
    pub probe_s: f64,
    /// Probes taken.
    pub probes: usize,
}

impl Speed {
    /// The speed of a run whose probes took `probes` seconds.
    pub fn of(probes: &[f64]) -> Speed {
        Speed {
            probe_s: probes.iter().copied().fold(f64::INFINITY, f64::min),
            probes: probes.len(),
        }
    }

    /// What a time measured in this run would have been at the reference
    /// pace.
    pub fn scale(self, secs: f64) -> f64 {
        secs * PROBE_REF_S / self.probe_s
    }
}

/// The median and the tail of per-point times, with the tail's
/// percentile.
pub fn summary(per_point: &[f64]) -> (f64, f64, u32) {
    let p = tail_percentile(per_point.len());
    (median(per_point), percentile(per_point, p), p)
}

/// The end-to-end metrics every workload reports.
///
/// `calls_ms` gives each pass's timed calls ([`Bench::calls_ms`]).
/// Every timing is over each point's fastest calls
/// ([`fastest_point_ms`]) and at the reference pace ([`Speed`]);
/// `host_s` is their sum, the host time of one pass run point by point.
/// Each note gives the time as measured.
pub fn common_e2e<X>(
    passes: &[Pass<X>],
    rss_mb: f64,
    setup_s: f64,
    setup_n: usize,
    speed: Speed,
    calls_ms: impl Fn(&Pass<X>) -> Vec<(usize, f64)>,
) -> Vec<Metric> {
    let n = passes.len();
    let points = passes.first().map_or(0, |p| p.points.len());
    let calls: Vec<Vec<(usize, f64)>> = passes.iter().map(calls_ms).collect();
    let best = fastest_point_ms(&calls, points);
    let host_s = best.iter().sum::<f64>() / 1e3;
    let cycles = passes.first().map_or(0, |p| sim_cycles(&p.points));
    let (p50, tail, pct) = summary(&best);
    let each = format!("each point's fastest of {n} passes");
    let pace = format!(
        "at the reference pace (fastest of {} probes {:.4} ms)",
        speed.probes,
        speed.probe_s * 1e3
    );
    vec![
        Metric::new("setup_s", "s", speed.scale(setup_s), setup_n).with_note(format!(
            "Σ each build's fastest of {setup_n} set-ups spread over the run, {pace}; \
             measured {setup_s:.6} s"
        )),
        Metric::new("host_s", "s", speed.scale(host_s), n * points).with_note(format!(
            "Σ over {points} points, {each}, {pace}; measured {host_s:.4} s"
        )),
        Metric::new(
            "sim_mcycles_per_s",
            "Mcycles/s",
            cycles as f64 / speed.scale(host_s) / 1e6,
            n * points,
        )
        .with_note(format!(
            "simulated uncore Mcycles per second of host_s; measured {:.4}",
            cycles as f64 / host_s / 1e6
        )),
        Metric::new("point_p50_ms", "ms", speed.scale(p50), n * points).with_note(format!(
            "p50 of {points} points, {each}; measured {p50:.4} ms"
        )),
        Metric::new("point_tail_ms", "ms", speed.scale(tail), n * points).with_note(format!(
            "p{pct} of {points} points ({} beyond), {each}; measured {tail:.4} ms",
            crate::stats::beyond(points, pct)
        )),
        Metric::new("peak_rss_mb", "MB", rss_mb, 1)
            .with_note("VmHWM after set-up, the warm-up and the first timed pass"),
    ]
}

/// Σ simulated uncore cycles of a pass's successful points.
pub fn sim_cycles(points: &[PointRec]) -> u64 {
    points
        .iter()
        .filter_map(|p| p.result.as_ref().ok())
        .map(|r| r.uncore_cycles)
        .sum()
}

/// Σ host seconds and Σ uncore cycles per system kind, in
/// `SystemKind::ALL` order, over `(kind, secs, cycles)` samples.
pub fn per_kind(samples: impl IntoIterator<Item = (SystemKind, f64, u64)>) -> [(f64, u64); 7] {
    let mut out = [(0.0, 0u64); 7];
    for (k, secs, cycles) in samples {
        let i = SystemKind::ALL.iter().position(|&x| x == k).expect("kind");
        out[i].0 += secs;
        out[i].1 += cycles;
    }
    out
}

/// `sim.host_ns_per_cycle.{kind}` metrics from [`per_kind`] sums.
pub fn per_kind_metrics(sums: &[(f64, u64); 7], what: &str) -> Vec<Metric> {
    SystemKind::ALL
        .iter()
        .zip(sums)
        .map(|(k, &(secs, cycles))| {
            let name = format!("sim.host_ns_per_cycle.{}", k.label());
            if cycles == 0 {
                Metric::new(name, "ns", 0.0, 0).with_note(format!("{k} not run by this workload"))
            } else {
                Metric::new(name, "ns", secs * 1e9 / cycles as f64, 1)
                    .with_note(format!("host ns per uncore cycle over {what}"))
            }
        })
        .collect()
}

/// The tick-loop metrics: host ns per processed edge, edges run and
/// skipped, and the skipped fraction.
pub fn skip_metrics(host_s: f64, skip: SkipStats, what: &str) -> Vec<Metric> {
    let per_edge = if skip.edges_run == 0 {
        0.0
    } else {
        host_s * 1e9 / skip.edges_run as f64
    };
    vec![
        Metric::new("sim.host_ns_per_edge", "ns", per_edge, 1)
            .with_note(format!("host ns per clock edge ticked, over {what}")),
        Metric::new("sim.edges_run", "count", skip.edges_run as f64, 1),
        Metric::new("sim.edges_skipped", "count", skip.edges_skipped as f64, 1),
        Metric::new("sim.skip_frac", "fraction", skip.skipped_frac(), 1)
            .with_note("edges skipped / all edges; SkipStats does not count vetoed plans"),
    ]
}

/// Σ of the skip counters.
pub fn sum_skip<'a>(it: impl IntoIterator<Item = &'a SkipStats>) -> SkipStats {
    it.into_iter().fold(SkipStats::default(), |a, s| SkipStats {
        edges_run: a.edges_run + s.edges_run,
        edges_skipped: a.edges_skipped + s.edges_skipped,
        windows: a.windows + s.windows,
    })
}

/// The simulated memory-hierarchy counts of a set of results: L1 (data
/// and instruction) accesses, L2 accesses and DRAM requests.
pub fn mem_metrics<'a>(results: impl IntoIterator<Item = &'a RunResult>) -> Vec<Metric> {
    let (mut l1, mut l2, mut dram, mut n) = (0u64, 0u64, 0u64, 0usize);
    for r in results {
        l1 += r.stats.sum_matching("sys.", ".l1d.accesses")
            + r.stats.sum_matching("sys.", ".l1i.accesses");
        l2 += r.stat("sys.l2.accesses");
        dram += r.stat("sys.dram.accesses");
        n += 1;
    }
    vec![
        Metric::new("mem.l1_accesses", "count", l1 as f64, n),
        Metric::new("mem.l2_accesses", "count", l2 as f64, n),
        Metric::new("mem.dram_reqs", "count", dram as f64, n),
    ]
}

/// `obs.stats_entries`: mean counter-snapshot entries per result.
pub fn stats_entries_metric<'a>(results: impl IntoIterator<Item = &'a RunResult>) -> Metric {
    let (mut entries, mut n) = (0usize, 0usize);
    for r in results {
        entries += r.stats.len();
        n += 1;
    }
    Metric::new(
        "obs.stats_entries",
        "count",
        entries as f64 / n.max(1) as f64,
        n,
    )
    .with_note("mean counter-snapshot entries per result")
}

/// `obs.*`: [`stats_entries_metric`] plus the mean `verify_conservation`
/// ms per result (each call in an `obs.verify_conservation` span).
/// Violations fail the point.
pub fn obs_metrics<'a>(
    results: impl IntoIterator<Item = (u32, &'a RunResult)> + Clone,
    tracer: &Tracer,
    check: &mut Checker,
    label: &str,
) -> Vec<Metric> {
    let (mut secs, mut n) = (0.0, 0usize);
    for (idx, r) in results.clone() {
        let (violations, s) = tracer.time("obs.verify_conservation", None, Some(idx), || {
            bvl_sim::verify_conservation(r)
        });
        if let Some(v) = violations.first() {
            check.fail(format!("{label} point {idx}: conservation violated: {v:?}"));
        }
        secs += s;
        n += 1;
    }
    vec![
        stats_entries_metric(results.into_iter().map(|(_, r)| r)),
        Metric::new("obs.conservation_ms", "ms", secs * 1e3 / n.max(1) as f64, n)
            .with_note("mean verify_conservation time per result"),
    ]
}

/// `isa.ff_minstr_per_s`: the retire rate of the functional `Machine`
/// running every data-parallel workload's serial entry (128-bit vector
/// length) and vector entry (512-bit), each in an `isa.Machine::run`
/// span.
pub fn isa_probe(ws: &[Arc<Workload>], tracer: &Tracer, check: &mut Checker) -> Metric {
    let (mut instrs, mut secs) = (0u64, 0.0);
    for w in ws.iter().filter(|w| DP_NAMES.contains(&w.name)) {
        let entries = [(Some(w.serial_entry), 128), (w.vector_entry, 512)];
        for (entry, vlen) in entries {
            let Some(entry) = entry else { continue };
            let mut m = bvl_isa::exec::Machine::new(w.mem.fork(), vlen);
            m.set_pc(entry);
            let (n, s) = tracer.time("isa.Machine::run", None, None, || {
                m.run(&w.program, u64::MAX)
            });
            match n {
                Ok(n) => {
                    instrs += n;
                    secs += s;
                }
                Err(e) => check.fail(format!("isa probe {} entry {entry}: {e}", w.name)),
            }
        }
    }
    let rate = if secs > 0.0 {
        instrs as f64 / secs / 1e6
    } else {
        0.0
    };
    Metric::new("isa.ff_minstr_per_s", "Minstr/s", rate, 1)
        .with_note(format!("{instrs} instrs over every data-parallel entry"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_of_each_points_fastest_pass() {
        // Three passes over 20 points: pass 0 is twice as slow everywhere,
        // pass 1 is the base and pass 2 is slower by a factor that differs
        // between even and odd points; each point's fastest is the base.
        let base: Vec<f64> = (1..=20).map(f64::from).collect();
        let per_pass = vec![
            base.iter().map(|x| x * 2.0).collect(),
            base.clone(),
            base.iter()
                .enumerate()
                .map(|(i, x)| if i % 2 == 0 { x * 1.5 } else { x * 3.0 })
                .collect(),
        ];
        assert_eq!(fastest_per_point(&per_pass), base);
        let (p50, tail, pct) = summary(&fastest_per_point(&per_pass));
        assert_eq!(p50, median(&base));
        assert_eq!(pct, tail_percentile(20));
        assert_eq!(tail, percentile(&base, pct));
    }

    #[test]
    fn a_points_time_sums_each_calls_fastest_pass() {
        // Point 0 is calls 0 and 2, point 1 is call 1; each call is
        // fastest in a different pass.
        let per_pass = vec![
            vec![(0, 1.0), (1, 5.0), (0, 9.0)],
            vec![(0, 4.0), (1, 2.0), (0, 3.0)],
        ];
        assert_eq!(fastest_point_ms(&per_pass, 2), vec![1.0 + 3.0, 2.0]);
    }
}
