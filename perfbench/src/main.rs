//! `perfbench --workload <name|all> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one benchmark workload from the checkout root and prints every
//! metric by name, unit and sample count; the last line of standard
//! output is the machine-readable result. A traced run (`--trace 1`)
//! also writes per-layer JSON and a Chrome trace under `.perfbench_out/`.
//! `--workload all` runs every workload in turn, each in its own child
//! process so that each has its own peak RSS.

use bvl_perfbench::common::{Cfg, THREADS};
use bvl_perfbench::metrics::{render, result_line};
use bvl_perfbench::spans::{chrome_json, layers_json, Tracer};
use bvl_perfbench::{finish_layers, run_workload, WORKLOADS};
use std::process::ExitCode;

fn usage(msg: &str) -> ExitCode {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload <{}|all> --seed <n> --seconds <s> --trace <0|1>",
        WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, false);
    for pair in args.chunks(2) {
        let [flag, value] = pair else {
            return usage("every flag takes a value");
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => seconds = value.parse::<f64>().ok().filter(|s| *s > 0.0),
            "--trace" => trace = value == "1",
            _ => return usage(&format!("unknown flag {flag}")),
        }
    }
    let (Some(workload), Some(seed), Some(seconds)) = (workload, seed, seconds) else {
        return usage("--workload, --seed and --seconds are required");
    };
    if workload == "all" {
        return run_all(&args);
    }
    if !WORKLOADS.contains(&workload.as_str()) {
        return usage(&format!("unknown workload {workload}"));
    }
    let root = std::env::current_dir().expect("current directory");
    let cfg = Cfg {
        seed,
        seconds,
        trace,
        work_dir: root.join(".perfbench_tmp"),
        root: root.clone(),
    };
    if let Err(e) = std::fs::create_dir_all(&cfg.work_dir) {
        eprintln!("perfbench: cannot create {}: {e}", cfg.work_dir.display());
        return ExitCode::FAILURE;
    }
    let tracer = if trace { Tracer::on() } else { Tracer::off() };
    let out = run_workload(&workload, &cfg, &tracer).expect("known workload");
    let _ = std::fs::remove_dir(&cfg.work_dir);

    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "perfbench {workload}: seed {seed}, {seconds} s, {THREADS} worker threads on {cores} available; \
         pass wall times untraced {:?}, traced {:?}",
        out.plain_host, out.traced_host
    );
    println!("end to end:\n{}", render(&out.e2e));
    println!("{workload} only:\n{}", render(&out.extra));
    let layers = trace.then(|| finish_layers(&out, &tracer, &workload));
    if let Some(layers) = &layers {
        println!("per layer (traced passes):\n{}", render(layers));
        let dir = root.join(".perfbench_out");
        let stem = dir.join(format!("{workload}-seed{seed}"));
        let spans = tracer.spans();
        let written = std::fs::create_dir_all(&dir)
            .and_then(|()| std::fs::write(stem.with_extension("layers.json"), layers_json(&spans)))
            .and_then(|()| std::fs::write(stem.with_extension("trace.json"), chrome_json(&spans)));
        match written {
            Ok(()) => println!(
                "wrote {} spans to {}.{{layers,trace}}.json",
                spans.len(),
                stem.display()
            ),
            Err(e) => eprintln!("perfbench: writing traces: {e}"),
        }
    }
    for note in &out.notes {
        println!("{note}");
    }
    let c = &out.check;
    let failed_frac = c.failed as f64 / c.attempted.max(1) as f64;
    println!(
        "checks: {} attempted, {} failed, failed_frac {failed_frac}",
        c.attempted, c.failed
    );
    for p in c.problems.iter().take(20) {
        println!("  FAILED {p}");
    }
    let metrics = layers.unwrap_or_else(|| out.e2e.clone());
    println!(
        "{}",
        result_line(c.correct(), c.attempted.max(1), c.failed, &metrics)
    );
    ExitCode::SUCCESS
}

/// Runs every workload as a child process with the same arguments and
/// waits for each; fails if any child does.
fn run_all(args: &[String]) -> ExitCode {
    let exe = std::env::current_exe().expect("own executable");
    let mut ok = true;
    for w in WORKLOADS {
        let child_args = args.chunks(2).flat_map(|p| match p[0].as_str() {
            "--workload" => ["--workload", w],
            _ => [p[0].as_str(), p[1].as_str()],
        });
        match std::process::Command::new(&exe).args(child_args).status() {
            Ok(s) if s.success() => {}
            Ok(s) => {
                eprintln!("perfbench: {w} exited with {s}");
                ok = false;
            }
            Err(e) => {
                eprintln!("perfbench: cannot run {w}: {e}");
                ok = false;
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
