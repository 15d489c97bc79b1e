//! Point execution, shared by both worker tiers and the in-process sweep.
//!
//! [`run_exact_point`] is the one checkpointed runner for an exact point:
//! optionally resume from the store's persisted checkpoint, write a fresh
//! blob at every checkpoint boundary, and yield mid-run when the caller
//! asks. [`run_one_point`] is what a fabric worker — an in-daemon thread
//! or a spawned worker process — calls on a wire spec: it rebuilds the
//! workload, runs sampled points serially, and hands exact points to the
//! runner with resume always on (that is what makes worker death and
//! eviction cheap: whoever picks the point up next continues from the
//! last blob). The in-process sweep calls the runner directly, resuming
//! only under `--resume` and never yielding.
//!
//! [`worker_main`] is the process-tier entry: connect back to the
//! daemon, say hello on a main and a control connection, then loop
//! executing [`Msg::Assign`]ments until told to shut down (or the daemon
//! goes away).

use crate::proto::{self, Msg, ProtoError, EVICT_BYTE};
use crate::spec::PointSpec;
use crate::store::ResultStore;
use bvl_sim::{
    simulate_preemptible, simulate_sampled, CkptControl, RunResult, SimOutcome, SimParams,
    SysState, SystemKind,
};
use bvl_workloads::Workload;
use std::io::{self, Read};
use std::net::TcpStream;
use std::time::Instant;

/// What one completed point reports back.
#[derive(Debug, Clone, PartialEq)]
pub struct PointOutcome {
    /// The (checked) simulation result.
    pub result: RunResult,
    /// Clock-domain edges processed cycle-by-cycle in this execution.
    pub edges_run: u64,
    /// Clock-domain edges batch-skipped in this execution.
    pub edges_skipped: u64,
    /// Host seconds spent simulating.
    pub host_secs: f64,
    /// True when the run resumed from a persisted checkpoint.
    pub resumed: bool,
    /// True when a checkpoint blob existed but was unusable (undecodable
    /// or fingerprint-mismatched), so the point restarted from cycle 0.
    pub restarted_from_zero: bool,
}

/// How one [`run_one_point`] or [`run_exact_point`] call ended.
#[derive(Debug)]
pub enum PointRun {
    /// Ran to completion.
    Finished(Box<PointOutcome>),
    /// Yielded at a checkpoint (the blob is persisted in the store);
    /// the point should be re-queued and resumed elsewhere.
    Yielded {
        /// Uncore cycle of the yielded checkpoint.
        cycle: u64,
    },
}

/// Executes one wire-spec point against `store`.
///
/// Sampled points (params carry a sampling config) run the serial sampled
/// pipeline, which has no mid-run checkpoint to yield at; a killed worker
/// simply re-runs them. Exact points go to [`run_exact_point`] with
/// resume on.
///
/// # Errors
///
/// Simulation failures (budget exceeded, output check failed, unknown
/// workload name) — *not* checkpoint problems, which self-heal.
pub fn run_one_point(
    spec: &PointSpec,
    store: &ResultStore,
    on_checkpoint: &mut dyn FnMut(u64) -> bool,
) -> Result<PointRun, String> {
    let workload = spec.workload.build()?;
    let params = &spec.params;
    if params.sampling.is_none() {
        let key = spec.key();
        return run_exact_point(
            spec.system,
            &workload,
            params,
            &key,
            store,
            true,
            on_checkpoint,
        );
    }
    let start = Instant::now();
    let (result, skip) = simulate_sampled(spec.system, &workload, params)?;
    Ok(PointRun::Finished(Box::new(PointOutcome {
        result,
        edges_run: skip.edges_run,
        edges_skipped: skip.edges_skipped,
        host_secs: start.elapsed().as_secs_f64(),
        resumed: false,
        restarted_from_zero: false,
    })))
}

/// Simulates one exact point whose checkpoints live in `store` under
/// `key`.
///
/// With `resume`, the run continues from any persisted blob for `key`;
/// an unusable blob (undecodable, or fingerprint-mismatched because the
/// parameters changed) is reported and the point restarts from cycle 0
/// (the `SnapError` miss path) — it never fails. Whenever
/// `params.checkpoint_every` is armed, each checkpoint is persisted and
/// then `on_checkpoint(cycle)` fires; returning `true` orders a yield at
/// that very checkpoint. A finished run deletes its blob. The result
/// entry itself is the caller's to store: only the caller knows whether
/// a resumed result may be persisted.
///
/// # Errors
///
/// Simulation failures (budget exceeded, output check failed).
pub fn run_exact_point(
    system: SystemKind,
    workload: &Workload,
    params: &SimParams,
    key: &str,
    store: &ResultStore,
    resume: bool,
    on_checkpoint: &mut dyn FnMut(u64) -> bool,
) -> Result<PointRun, String> {
    let start = Instant::now();
    let mut save = |state: &SysState| {
        store.store_checkpoint(key, state);
        if on_checkpoint(state.uncore_cycle()) {
            CkptControl::Yield
        } else {
            CkptControl::Continue
        }
    };

    let mut restarted_from_zero = false;
    if let Some(state) = resume.then(|| store.load_checkpoint(key)).flatten() {
        match simulate_preemptible(system, workload, params, Some(&state), &mut save) {
            Ok(out) => return Ok(finish(out, store, key, start, true, false)),
            Err(e) => {
                eprintln!(
                    "{key}: checkpoint at cycle {} not resumable ({e}); \
                     restarting from cycle 0",
                    state.uncore_cycle()
                );
                restarted_from_zero = true;
            }
        }
    }
    let out = simulate_preemptible(system, workload, params, None, &mut save)?;
    Ok(finish(out, store, key, start, false, restarted_from_zero))
}

fn finish(
    out: SimOutcome,
    store: &ResultStore,
    key: &str,
    start: Instant,
    resumed: bool,
    restarted_from_zero: bool,
) -> PointRun {
    match out {
        SimOutcome::Finished { result, stats } => {
            store.remove_checkpoint(key);
            PointRun::Finished(Box::new(PointOutcome {
                result: *result,
                edges_run: stats.edges_run,
                edges_skipped: stats.edges_skipped,
                host_secs: start.elapsed().as_secs_f64(),
                resumed,
                restarted_from_zero,
            }))
        }
        SimOutcome::Yielded { state } => PointRun::Yielded {
            cycle: state.uncore_cycle(),
        },
    }
}

/// Polls a non-blocking control connection for an eviction order.
/// Returns `true` when [`EVICT_BYTE`] (or EOF — a vanished daemon) is
/// seen.
fn control_says_evict(control: &mut TcpStream) -> bool {
    let mut buf = [0u8; 16];
    match control.read(&mut buf) {
        Ok(0) => true, // daemon hung up; stop working promptly
        Ok(n) => buf[..n].contains(&EVICT_BYTE),
        Err(e) if e.kind() == io::ErrorKind::WouldBlock => false,
        Err(_) => true,
    }
}

/// The process-tier worker loop: connect to the daemon at `addr`
/// (possibly on another host), identify with `token`, and execute
/// assignments against the store at `store_dir` until shut down.
/// When `secret` is given, both connections run the [`crate::auth`]
/// handshake before their hello — which also interoperates with an
/// open loopback daemon (it acks the hello without a challenge).
/// Returns when the daemon says [`Msg::Shutdown`] or closes the
/// connection.
///
/// # Errors
///
/// Connection setup or handshake failures (a wrong secret is a typed
/// rejection, surfaced here as an error string); once the loop is
/// running, daemon disappearance is a clean return, not an error.
pub fn worker_main(
    addr: &str,
    token: u64,
    store_dir: &str,
    secret: Option<&[u8]>,
) -> Result<(), String> {
    let store = ResultStore::new(store_dir);
    let mut main = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    main.set_nodelay(true).ok();
    if let Some(secret) = secret {
        crate::auth::client_handshake(&mut main, secret).map_err(|e| format!("auth: {e}"))?;
    }
    proto::write_msg(&mut main, &Msg::WorkerHello { token }).map_err(|e| format!("hello: {e}"))?;
    let mut control = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    if let Some(secret) = secret {
        crate::auth::client_handshake(&mut control, secret)
            .map_err(|e| format!("control auth: {e}"))?;
    }
    proto::write_msg(&mut control, &Msg::ControlHello { token })
        .map_err(|e| format!("control hello: {e}"))?;
    control
        .set_nonblocking(true)
        .map_err(|e| format!("control nonblocking: {e}"))?;

    loop {
        let msg = match proto::read_msg(&mut main) {
            Ok(m) => m,
            Err(e) if e.is_clean_eof() => return Ok(()),
            Err(ProtoError::Io(_)) | Err(ProtoError::Truncated) => return Ok(()),
            Err(e) => return Err(format!("read: {e}")),
        };
        match msg {
            Msg::Assign { spec } => {
                // Drain any eviction byte left over from a previous
                // assignment's race (evicted right as it finished). Only
                // actual bytes are drained — EOF/errors are left for the
                // in-run poll, which treats them as an eviction.
                let mut drain = [0u8; 16];
                while matches!(control.read(&mut drain), Ok(n) if n > 0) {}
                let mut cb = |cycle: u64| {
                    let _ = proto::write_msg(&mut main, &Msg::Progress { cycle });
                    control_says_evict(&mut control)
                };
                let reply = match run_one_point(&spec, &store, &mut cb) {
                    Ok(PointRun::Finished(out)) => Msg::WorkerDone {
                        result: out.result,
                        edges_run: out.edges_run,
                        edges_skipped: out.edges_skipped,
                        host_secs: out.host_secs,
                        resumed: out.resumed,
                    },
                    Ok(PointRun::Yielded { cycle }) => Msg::WorkerYielded { cycle },
                    Err(error) => Msg::WorkerFailed { error },
                };
                if proto::write_msg(&mut main, &reply).is_err() {
                    return Ok(()); // daemon vanished
                }
            }
            Msg::Shutdown => return Ok(()),
            other => return Err(format!("unexpected message for a worker: {other:?}")),
        }
    }
}
