//! `served-tiny`: the Figure 4 matrix at `tiny` scale through an
//! embedded `bvl_serve::Daemon` (two worker threads, a checkpoint every
//! [`CHECKPOINT_EVERY`] cycles) and one `Client` in a closed loop with at
//! most two
//! submissions outstanding. Each pass runs a cold phase over a fresh
//! store (every point executes) and a warm phase through a fresh daemon
//! over the now-populated store (every point is a disk hit).

use crate::common::{
    fastest_per_point, isa_probe, matrix, mem_metrics, obs_metrics, per_kind, per_kind_metrics,
    point_name, seeded, skip_metrics, summary, Bench, Cfg, Checker, Pass, Passes, PointRec,
    FIG04_NAMES, THREADS,
};
use crate::metrics::Metric;
use crate::sampled::{snap_metrics, snap_round_trip};
use crate::spans::{total_of, Tracer};
use bvl_experiments::sweep::run_parallel;
use bvl_serve::{
    Client, Daemon, DaemonConfig, FabricStats, Msg, PointSpec, ResultStore, WorkloadSpec,
};
use bvl_sim::{
    simulate, simulate_with_stats_resumable, RunResult, SimParams, SkipStats, SysState, SystemKind,
};
use bvl_workloads::{Scale, Workload};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// One served point's result with its skip counters, or why it failed.
type PointResult = Result<(RunResult, SkipStats), String>;

/// Submissions the client keeps outstanding.
pub const WINDOW: usize = 2;

/// The daemon's checkpoint cadence, in uncore cycles. The fabric's
/// default (4096) checkpoints a tiny point about ten times: a cold phase
/// then writes about 0.5 GB of checkpoints, each replacing the last by
/// rename, which makes ext4 start writing it to disk at once, so the
/// run timed the shared disk. At this cadence the longer points still checkpoint, a few times
/// each.
pub const CHECKPOINT_EVERY: u64 = 65_536;

/// The daemon every phase starts: two worker threads over `store`.
pub fn daemon_config(store: &Path) -> DaemonConfig {
    DaemonConfig {
        checkpoint_every: CHECKPOINT_EVERY,
        ..DaemonConfig::threads_only(THREADS, store)
    }
}

/// One served phase (cold or warm).
#[derive(Clone, Debug, Default)]
pub struct Phase {
    /// Host seconds from the first submission to the last response.
    pub host_s: f64,
    /// Per point: submit → `Done` seconds.
    pub latency: Vec<f64>,
    /// Per point: the worker's reported simulation seconds.
    pub sim_secs: Vec<f64>,
    /// `Daemon::start` seconds.
    pub start_s: f64,
    /// The daemon's counters at the end of the phase.
    pub stats: FabricStats,
}

/// Per-pass served measurements; the pass's points are the cold phase.
#[derive(Clone, Debug, Default)]
pub struct Extra {
    /// The cold phase's timing.
    pub cold: Phase,
    /// The warm phase's timing.
    pub warm: Phase,
    /// Warm results that differ from (or failed unlike) the cold ones.
    pub warm_mismatch: Vec<u32>,
    /// Bytes of result entries in the store after the cold phase.
    pub store_bytes: u64,
}

/// The fabric spec of every point: the workload key carries the seed, so
/// two seeds never share a memo or store entry.
pub fn specs(ws: &[Arc<Workload>], scale: Scale) -> Vec<PointSpec> {
    matrix(ws.len(), &SystemKind::ALL)
        .into_iter()
        .map(|(_, wi, system)| PointSpec {
            system,
            workload_key: format!("{}@tiny-seed{}", ws[wi].name, scale.seed),
            workload: WorkloadSpec::Named {
                name: ws[wi].name.to_string(),
                scale,
            },
            params: SimParams::default(),
        })
        .collect()
}

/// Starts a daemon over `store`, submits every spec from one client in a
/// closed loop, and shuts the daemon down. Returns each point's outcome
/// and the phase timing.
fn phase(
    specs: &[PointSpec],
    store: &Path,
    tracer: &Tracer,
    name: &'static str,
) -> (Vec<PointResult>, Phase) {
    let mut ph = Phase::default();
    let mut out: Vec<PointResult> = specs.iter().map(|_| Err("no response".into())).collect();
    ph.latency = vec![0.0; specs.len()];
    ph.sim_secs = vec![0.0; specs.len()];
    let (daemon, start_s) = tracer.time("serve.daemon_start", None, None, || {
        Daemon::start(daemon_config(store))
    });
    ph.start_s = start_s;
    let daemon = match daemon {
        Ok(d) => d,
        Err(e) => {
            out.iter_mut()
                .for_each(|o| *o = Err(format!("daemon start: {e}")));
            return (out, ph);
        }
    };
    let open = tracer.begin(name, None, None);
    let parent = open.id();
    if let Err(e) = closed_loop(daemon.addr(), specs, tracer, parent, &mut out, &mut ph) {
        for o in out.iter_mut().filter(|o| o.is_err()) {
            *o = Err(e.clone());
        }
    }
    ph.host_s = open.end();
    ph.stats = daemon.stats();
    tracer.time("serve.daemon_shutdown", None, None, || daemon.shutdown());
    (out, ph)
}

fn closed_loop(
    addr: std::net::SocketAddr,
    specs: &[PointSpec],
    tracer: &Tracer,
    parent: Option<u64>,
    out: &mut [PointResult],
    ph: &mut Phase,
) -> Result<(), String> {
    let mut client = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let mut outstanding = HashMap::new();
    let mut next = 0usize;
    let mut done = 0usize;
    while done < specs.len() {
        while next < specs.len() && outstanding.len() < WINDOW {
            let span = tracer.begin("serve.point", parent, Some(next as u32));
            let id = client
                .submit(&specs[next])
                .map_err(|e| format!("submit: {e}"))?;
            outstanding.insert(id, (next, span));
            next += 1;
        }
        let msg = client.recv().map_err(|e| format!("recv: {e}"))?;
        let (id, result) = match msg {
            Msg::Done {
                id,
                result,
                edges_run,
                edges_skipped,
                host_secs,
                ..
            } => {
                let skip = SkipStats {
                    edges_run,
                    edges_skipped,
                    windows: 0,
                };
                (id, Ok((result, skip, host_secs)))
            }
            Msg::Failed { id, error } => (id, Err(error)),
            Msg::Busy { id, retry_after_ms } => {
                // Unbounded admission never sheds; retry regardless.
                std::thread::sleep(Duration::from_millis(retry_after_ms.min(1000)));
                let (i, span) = outstanding.remove(&id).ok_or("Busy for an unknown id")?;
                let new = client
                    .submit(&specs[i])
                    .map_err(|e| format!("resubmit: {e}"))?;
                outstanding.insert(new, (i, span));
                continue;
            }
            other => return Err(format!("unexpected message {other:?}")),
        };
        let (i, span) = outstanding
            .remove(&id)
            .ok_or("response for an unknown id")?;
        ph.latency[i] = span.end();
        out[i] = result.map(|(r, skip, host)| {
            ph.sim_secs[i] = host;
            (r, skip)
        });
        done += 1;
    }
    Ok(())
}

/// A fresh store directory for one pass.
fn fresh_store(work: &Path, pass: usize) -> PathBuf {
    let dir = work.join(format!("served-store-{}-{pass}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Σ bytes of the result entries directly under `dir`.
fn store_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|rd| {
            rd.filter_map(Result::ok)
                .filter(|e| e.path().extension().is_some_and(|x| x == "json"))
                .filter_map(|e| e.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// One pass: cold then warm over a fresh store, which is deleted after.
/// Traced passes also time `ResultStore::load` on every entry while the
/// store still exists.
pub fn pass(specs: &[PointSpec], work: &Path, pass_no: usize, tracer: &Tracer) -> Pass<Extra> {
    let dir = fresh_store(work, pass_no);
    let (cold, cold_ph) = phase(specs, &dir, tracer, "pass.served_cold");
    let (warm, warm_ph) = phase(specs, &dir, tracer, "pass.served_warm");
    let mut extra = Extra {
        store_bytes: store_bytes(&dir),
        ..Extra::default()
    };
    if tracer.enabled() {
        let store = ResultStore::new(&dir);
        for (i, s) in specs.iter().enumerate() {
            tracer.time("serve.ResultStore::load", None, Some(i as u32), || {
                store.load(&s.key())
            });
        }
    }
    let _ = std::fs::remove_dir_all(&dir);

    for (i, (c, w)) in cold.iter().zip(&warm).enumerate() {
        let same = match (c, w) {
            (Ok((c, _)), Ok((w, _))) => c == w,
            _ => false,
        };
        if !same {
            extra.warm_mismatch.push(i as u32);
        }
    }
    let points = cold
        .into_iter()
        .enumerate()
        .map(|(i, r)| {
            let (result, skip) = match r {
                Ok((r, s)) => (Ok(Arc::new(r)), s),
                Err(e) => (Err(e), SkipStats::default()),
            };
            PointRec {
                idx: i as u32,
                workload: i / SystemKind::ALL.len(),
                kind: SystemKind::ALL[i % SystemKind::ALL.len()],
                secs: cold_ph.sim_secs[i],
                result,
                skip,
            }
        })
        .collect();
    extra.cold = cold_ph;
    extra.warm = warm_ph;
    Pass {
        host_s: extra.cold.host_s,
        points,
        extra,
    }
}

/// The `served-tiny` workload.
pub struct Served {
    /// The run's seed, which every point's workload key carries.
    pub seed: u64,
    /// Where each pass's store is made (and deleted).
    pub work_dir: PathBuf,
}

impl Served {
    fn specs(&self, ws: &[Arc<Workload>]) -> Vec<PointSpec> {
        specs(ws, seeded(Self::SCALE, self.seed))
    }
}

impl Bench for Served {
    type Extra = Extra;
    const NAME: &'static str = "served-tiny";
    const WORKLOADS: &'static [&'static str] = &FIG04_NAMES;
    const SCALE: &'static str = "tiny";
    const WARM_UP: bool = true;
    const LAYER_PREFIX: &'static str = "serve";

    fn pass(&self, ws: &[Arc<Workload>], tracer: &Tracer, pass_no: usize) -> Pass<Extra> {
        pass(&self.specs(ws), &self.work_dir, pass_no, tracer)
    }

    /// A point's time is submit → `Done` in the cold phase.
    fn calls_ms(&self, pass: &Pass<Extra>) -> Vec<(usize, f64)> {
        pass.extra
            .cold
            .latency
            .iter()
            .enumerate()
            .map(|(i, s)| (i, s * 1e3))
            .collect()
    }

    /// The fastest `Daemon::start`, over a fresh or populated store.
    fn more_setup_s(&self, passes: &[&Pass<Extra>]) -> f64 {
        passes
            .iter()
            .flat_map(|p| [p.extra.cold.start_s, p.extra.warm.start_s])
            .fold(f64::INFINITY, f64::min)
    }

    /// Every pass executes each point cold and hits disk for each warm,
    /// warm equals cold, and cold equals in-process `simulate` (run
    /// outside every timed region). Reports the warm-phase latency.
    fn check(
        &self,
        ws: &[Arc<Workload>],
        passes: &Passes<Extra>,
        _cfg: &Cfg,
        check: &mut Checker,
        _notes: &mut Vec<String>,
    ) -> Vec<Metric> {
        let all = passes.all();
        let n = all[0].points.len() as u64;
        for (pi, p) in all.iter().enumerate() {
            let x = &p.extra;
            check.attempted += n;
            for &i in &x.warm_mismatch {
                check.fail(format!(
                    "pass {pi}: warm result of point {i} differs from cold"
                ));
            }
            if x.cold.stats.executed != n || x.warm.stats.disk_hits != n {
                check.problem(format!(
                    "pass {pi}: {} executed cold, {} disk hits warm (want {n} each)",
                    x.cold.stats.executed, x.warm.stats.disk_hits
                ));
            }
        }

        let params = SimParams::default();
        let jobs = matrix(ws.len(), &SystemKind::ALL);
        let reference: Vec<Result<RunResult, String>> =
            run_parallel(&jobs, THREADS, |&(_, wi, kind)| {
                simulate(kind, &ws[wi], &params)
            });
        for (p, r) in all[0].points.iter().zip(&reference) {
            check.attempted += 1;
            match (&p.result, r) {
                (Ok(a), Ok(b)) if **a == *b => {}
                (_, Err(e)) => check.fail(format!("in-process {}: {e}", point_name(ws, p))),
                _ => check.fail(format!(
                    "served {} differs from in-process simulate",
                    point_name(ws, p)
                )),
            }
        }

        let warm_ms: Vec<Vec<f64>> = passes
            .plain
            .iter()
            .map(|p| p.extra.warm.latency.iter().map(|s| s * 1e3).collect())
            .collect();
        let (p50, tail, pct) = summary(&fastest_per_point(&warm_ms));
        let n_warm = warm_ms.len() * n as usize;
        vec![
            Metric::new("warm_point_p50_ms", "ms", p50, n_warm)
                .with_note("submit → Done on a disk hit, each point's fastest pass"),
            Metric::new("warm_point_tail_ms", "ms", tail, n_warm)
                .with_note(format!("p{pct} of {n} points, each point's fastest pass")),
        ]
    }

    fn layers(
        &self,
        ws: &[Arc<Workload>],
        traced: &[Pass<Extra>],
        cfg: &Cfg,
        tracer: &Tracer,
        check: &mut Checker,
    ) -> Vec<Metric> {
        layer_metrics(traced, ws, &self.specs(ws), cfg, tracer, check)
    }
}

/// Runs every point in-process with the daemon's default checkpoint
/// cadence and times `ResultStore::store_checkpoint` on every checkpoint
/// it takes, into a scratch store. Returns the states for the snap probe.
/// A run that fails fails its point.
fn checkpoint_probe(
    ws: &[Arc<Workload>],
    specs: &[PointSpec],
    cfg: &Cfg,
    tracer: &Tracer,
    check: &mut Checker,
) -> (Vec<SysState>, f64) {
    let dir = cfg
        .work_dir
        .join(format!("served-ckpt-{}", std::process::id()));
    let store = ResultStore::new(&dir);
    let params = SimParams {
        checkpoint_every: CHECKPOINT_EVERY,
        ..SimParams::default()
    };
    let states = Mutex::new(Vec::new());
    let jobs = matrix(ws.len(), &SystemKind::ALL);
    let runs: Vec<(f64, Result<(), String>)> = run_parallel(&jobs, THREADS, |&(idx, wi, kind)| {
        let key = specs[idx as usize].key();
        let mut secs = 0.0;
        let mut save = |s: &SysState| {
            secs += tracer
                .time(
                    "serve.ResultStore::store_checkpoint",
                    None,
                    Some(idx),
                    || store.store_checkpoint(&key, s),
                )
                .1;
            states.lock().expect("states lock").push(s.clone());
        };
        let out = simulate_with_stats_resumable(kind, &ws[wi], &params, None, &mut save);
        (secs, out.map(|_| ()))
    });
    let _ = std::fs::remove_dir_all(&dir);
    for (&(_, wi, kind), (_, out)) in jobs.iter().zip(&runs) {
        check.attempted += 1;
        if let Err(e) = out {
            check.fail(format!("checkpointed {} on {kind}: {e}", ws[wi].name));
        }
    }
    let secs = runs.iter().map(|r| r.0).sum();
    (states.into_inner().expect("states lock"), secs)
}

fn layer_metrics(
    traced: &[Pass<Extra>],
    ws: &[Arc<Workload>],
    specs: &[PointSpec],
    cfg: &Cfg,
    tracer: &Tracer,
    check: &mut Checker,
) -> Vec<Metric> {
    let p = &traced[0];
    let x = &p.extra;
    let n = specs.len();
    let ok = || {
        p.points
            .iter()
            .filter_map(|x| x.result.as_deref().ok().map(|r| (x, r)))
    };
    let kinds = per_kind(ok().map(|(x, r)| (x.kind, x.secs, r.uncore_cycles)));
    let sim_s: f64 = x.cold.sim_secs.iter().sum();
    let lat_s: f64 = x.cold.latency.iter().sum();
    let mut m = per_kind_metrics(&kinds, "the served cold runs (worker-reported time)");
    m.extend(skip_metrics(
        sim_s,
        crate::common::sum_skip(p.points.iter().map(|x| &x.skip)),
        "the served cold runs",
    ));
    m.extend(mem_metrics(ok().map(|(_, r)| r)));
    m.extend(obs_metrics(
        ok().map(|(x, r)| (x.idx, r)),
        tracer,
        check,
        "served-tiny",
    ));

    let rebuild: f64 = specs
        .iter()
        .enumerate()
        .map(|(i, s)| {
            tracer
                .time(
                    "workloads.WorkloadSpec::build",
                    None,
                    Some(i as u32),
                    || s.workload.build(),
                )
                .1
        })
        .sum();
    let (states, ckpt_s) = checkpoint_probe(ws, specs, cfg, tracer, check);
    let spans = tracer.spans();
    let loads = total_of(&spans, "serve.ResultStore::load") / traced.len() as f64;
    m.extend([
        Metric::new(
            "workloads.rebuild_ms_per_point",
            "ms",
            rebuild * 1e3 / n as f64,
            n,
        )
        .with_note("WorkloadSpec::build, as a worker rebuilds each point"),
        Metric::new("serve.sim_share", "fraction", sim_s / lat_s, n)
            .with_note("Σ worker host_secs / Σ cold submit→Done"),
        Metric::new(
            "serve.overhead_ms_per_point",
            "ms",
            (lat_s - sim_s) * 1e3 / n as f64,
            n,
        ),
        Metric::new(
            "serve.ckpt_save_ms",
            "ms",
            ckpt_s * 1e3 / states.len().max(1) as f64,
            states.len(),
        )
        .with_note("ResultStore::store_checkpoint per checkpoint"),
        Metric::new("serve.store_load_ms", "ms", loads * 1e3 / n as f64, n)
            .with_note("ResultStore::load per stored result"),
        Metric::new(
            "serve.store_bytes_per_point",
            "bytes",
            x.store_bytes as f64 / n as f64,
            n,
        ),
        Metric::new("serve.executed", "count", x.cold.stats.executed as f64, 1)
            .with_note("cold phase"),
        Metric::new("serve.disk_hits", "count", x.warm.stats.disk_hits as f64, 1)
            .with_note("warm phase"),
        Metric::new(
            "serve.memo_hits",
            "count",
            (x.cold.stats.memo_hits + x.warm.stats.memo_hits) as f64,
            1,
        ),
        Metric::new(
            "serve.coalesced",
            "count",
            (x.cold.stats.coalesced + x.warm.stats.coalesced) as f64,
            1,
        ),
    ]);
    m.extend(snap_metrics(
        snap_round_trip(&states, tracer),
        states.len(),
        "every checkpoint at the daemon's cadence",
    ));
    m.push(isa_probe(ws, tracer, check));
    m
}
