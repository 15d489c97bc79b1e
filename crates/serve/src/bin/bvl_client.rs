//! Command-line fabric client: submit one point, print the result.
//!
//! ```text
//! bvl-client ADDR --system KEY --workload NAME --scale NAME
//!            [--gather-locality N] [--sampled] [--no-skip]
//!            [--secret-file F] [--priority high|normal|low]
//! bvl-client ADDR --stats [--secret-file F]
//! bvl-client ADDR --shutdown [--secret-file F]
//! ```
//!
//! The result prints as a JSON object with one key per `RunResult`
//! field (stats as `[path, value]` pairs), so `bvl-client | jq` works.
//! `--stats` prints the daemon's utilization line.

use bvl_serve::{auth, Client, PointSpec, Priority, WorkloadSpec};
use bvl_sim::{SamplingParams, SimParams, SystemKind};
use bvl_workloads::Scale;
use std::path::PathBuf;
use std::process::ExitCode;

fn usage() -> ! {
    eprintln!(
        "usage: bvl-client ADDR --system KEY --workload NAME --scale NAME\n\
         \x20                   [--gather-locality N] [--sampled] [--no-skip]\n\
         \x20                   [--secret-file F] [--priority high|normal|low]\n\
         \x20      bvl-client ADDR --stats [--secret-file F]\n\
         \x20      bvl-client ADDR --shutdown [--secret-file F]"
    );
    std::process::exit(2);
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(addr) = args.first().cloned() else {
        usage()
    };
    let mut system: Option<String> = None;
    let mut workload: Option<String> = None;
    let mut scale_name = "default".to_string();
    let mut gather_locality: Option<u64> = None;
    let mut sampled = false;
    let mut no_skip = false;
    let mut shutdown = false;
    let mut stats = false;
    let mut secret_file: Option<PathBuf> = None;
    let mut priority = Priority::Normal;

    let mut it = args.iter().skip(1);
    while let Some(arg) = it.next() {
        let mut val = || it.next().cloned().unwrap_or_else(|| usage());
        match arg.as_str() {
            "--system" => system = Some(val()),
            "--workload" => workload = Some(val()),
            "--scale" => scale_name = val(),
            "--gather-locality" => {
                gather_locality = Some(val().parse().unwrap_or_else(|_| usage()));
            }
            "--sampled" => sampled = true,
            "--no-skip" => no_skip = true,
            "--shutdown" => shutdown = true,
            "--stats" => stats = true,
            "--secret-file" => secret_file = Some(PathBuf::from(val())),
            "--priority" => priority = Priority::parse(&val()).unwrap_or_else(|| usage()),
            _ => usage(),
        }
    }

    let secret = match &secret_file {
        Some(path) => match auth::read_secret_file(path) {
            Ok(s) => Some(s),
            Err(e) => {
                eprintln!("bvl-client: {e}");
                return ExitCode::FAILURE;
            }
        },
        None => None,
    };
    let mut client = match Client::connect_with_secret(&addr, secret.as_deref()) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("bvl-client: connect {addr}: {e}");
            return ExitCode::FAILURE;
        }
    };
    client.set_priority(priority);

    if stats {
        return match client.stats() {
            Ok(report) => {
                println!("{}", report.utilization_line());
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("bvl-client: stats: {e}");
                ExitCode::FAILURE
            }
        };
    }

    if shutdown {
        return match client.shutdown() {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("bvl-client: shutdown: {e}");
                ExitCode::FAILURE
            }
        };
    }

    let (Some(system), Some(workload)) = (system, workload) else {
        usage()
    };
    let Some(kind) = SystemKind::ALL
        .iter()
        .copied()
        .find(|k| k.label() == system)
    else {
        eprintln!(
            "bvl-client: unknown system `{system}` (one of: 1L 1b 1bIV 1b-4L 1bIV-4L 1bDV 1b-4VL)"
        );
        return ExitCode::FAILURE;
    };
    let Some(scale) = Scale::by_name(&scale_name) else {
        eprintln!("bvl-client: unknown scale `{scale_name}` (tiny/default/large)");
        return ExitCode::FAILURE;
    };
    let (spec_workload, workload_key) = match gather_locality {
        Some(locality) => (
            WorkloadSpec::Gather { locality, scale },
            format!("gather-loc{locality}@{scale_name}"),
        ),
        None => (
            WorkloadSpec::Named {
                name: workload.clone(),
                scale,
            },
            format!("{workload}@{scale_name}"),
        ),
    };
    let params = SimParams {
        no_skip,
        sampling: sampled.then(SamplingParams::default),
        ..SimParams::default()
    };
    let spec = PointSpec {
        system: kind,
        workload_key,
        workload: spec_workload,
        params,
    };
    match client.run_points(std::slice::from_ref(&spec)) {
        Ok(results) => {
            let r = &results[0];
            let text = serde_json::to_string_pretty(&r.result).expect("encode result");
            println!("{text}");
            eprintln!(
                "cache_hit={} resumed={} host_secs={:.3}",
                r.cache_hit, r.resumed, r.host_secs
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("bvl-client: {e}");
            ExitCode::FAILURE
        }
    }
}
