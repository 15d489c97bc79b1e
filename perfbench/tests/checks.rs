//! Checks on the benchmark's own bookkeeping, run at `tiny` scale.
//!
//! `cargo test --release --manifest-path perfbench/Cargo.toml`

use bvl_perfbench::common::{
    build_set, common_e2e, per_kind, seeded, Speed, FIG04_NAMES, PROBE_REF_S, THREADS,
};
use bvl_perfbench::metrics::{valid_name, valid_unit};
use bvl_perfbench::spans::{total_of, Tracer};
use bvl_perfbench::stats::{beyond, tail_percentile, TAIL_MIN_BEYOND};
use bvl_perfbench::{exact, sampled, served, END_TO_END, PER_LAYER, TIMED, WORKLOADS};
use bvl_sim::SystemKind;
use std::collections::HashSet;
use std::path::Path;

#[test]
fn tail_is_the_highest_percentile_with_ten_beyond() {
    assert_eq!(tail_percentile(126), 92);
    assert_eq!(tail_percentile(55), 81);
    assert_eq!(tail_percentile(1000), 99);
    for n in 20..3000 {
        let p = tail_percentile(n);
        assert!(
            beyond(n, p) >= TAIL_MIN_BEYOND,
            "n={n}: p{p} has too few beyond"
        );
        if p < 99 {
            assert!(
                beyond(n, p + 1) < TAIL_MIN_BEYOND,
                "n={n}: p{} also has ten beyond",
                p + 1
            );
        }
    }
    // Too few samples for any tail: the median stands in.
    assert_eq!(tail_percentile(5), 50);
    assert_eq!(tail_percentile(0), 50);
}

fn names_in(doc: &serde_json::Value, key: &str) -> Vec<(String, String)> {
    doc.get(key)
        .and_then(|v| v.as_array())
        .unwrap_or_else(|| panic!("BENCHMARK.json has no `{key}` list"))
        .iter()
        .map(|m| {
            let s = |k: &str| m.get(k).and_then(|x| x.as_str()).expect(k).to_string();
            (s("name"), s("unit"))
        })
        .collect()
}

#[test]
fn metric_names_are_valid_unique_and_match_benchmark_json() {
    let all: Vec<(&str, &str)> = END_TO_END.iter().chain(PER_LAYER.iter()).copied().collect();
    let mut seen = HashSet::new();
    for (name, unit) in &all {
        assert!(valid_name(name), "bad metric name {name}");
        assert!(valid_unit(unit), "bad unit {unit} of {name}");
        assert!(seen.insert(*name), "duplicate metric {name}");
    }
    assert!(!valid_name("-starts-with-dash"));
    assert!(!valid_name("has space"));
    assert!(!valid_name(&"x".repeat(65)));

    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let doc = serde_json::from_str(&std::fs::read_to_string(&path).expect("BENCHMARK.json"))
        .expect("BENCHMARK.json parses");
    let owned = |v: &[(&str, &str)]| -> Vec<(String, String)> {
        v.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(names_in(&doc, "end_to_end"), owned(&END_TO_END));
    assert_eq!(names_in(&doc, "per_layer"), owned(&PER_LAYER));
    let workloads: Vec<String> = doc
        .get("workloads")
        .and_then(|v| v.as_array())
        .expect("workloads")
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(|n| n.as_str())
                .expect("name")
                .to_string()
        })
        .collect();
    assert_eq!(workloads, TIMED);
    assert!(TIMED.iter().all(|w| WORKLOADS.contains(w)));
}

#[test]
fn sampling_phases_and_per_kind_time_account_for_point_time() {
    let tracer = Tracer::on();
    let dp: Vec<&str> = bvl_perfbench::common::DP_NAMES[..4].to_vec();
    let (ws, _) = build_set(&dp, seeded("tiny", 7), &Tracer::off(), None);
    let pass = sampled::pass(&ws, &tracer);
    assert!(pass.points.iter().all(|p| p.result.is_ok()));

    let spans = tracer.spans();
    let phases: f64 = [
        "sampling.plan_sampled",
        "sampling.run_sample_window",
        "sampling.combine_sampled",
    ]
    .iter()
    .map(|n| total_of(&spans, n))
    .sum();
    let points: f64 = pass.points.iter().map(|p| p.secs).sum();
    assert!(phases > 0.0);
    assert!(
        phases <= points * (1.0 + 1e-9),
        "phases {phases} > points {points}"
    );
    assert!(points <= pass.host_s * THREADS as f64 * (1.0 + 1e-9));

    let kinds = per_kind(pass.points.iter().map(|p| (p.kind, p.secs, 1)));
    let by_kind: f64 = kinds.iter().map(|k| k.0).sum();
    assert!((by_kind - points).abs() <= points * 1e-9);
    for (k, (secs, n)) in SystemKind::ALL.iter().zip(kinds) {
        let expect = if sampled::KINDS.contains(k) {
            dp.len() as u64
        } else {
            0
        };
        assert_eq!(n, expect, "{k}");
        assert_eq!(secs > 0.0, expect > 0, "{k}");
    }
}

#[test]
fn exact_per_kind_time_sums_to_point_time_and_e2e_metrics_are_the_listed_ones() {
    let (ws, _) = build_set(&["vvadd", "bfs"], seeded("tiny", 7), &Tracer::off(), None);
    let pass = exact::pass(&ws, &Tracer::off());
    assert_eq!(pass.points.len(), 2 * SystemKind::ALL.len());
    let speed = Speed::of(&[PROBE_REF_S]);
    let e2e = common_e2e(std::slice::from_ref(&pass), 1.0, 1.0, 1, speed, |p| {
        p.points
            .iter()
            .enumerate()
            .map(|(i, x)| (i, x.secs * 1e3))
            .collect()
    });
    assert!(e2e.iter().map(|m| (m.name.as_str(), m.unit)).eq(END_TO_END));
    let points: f64 = pass.points.iter().map(|p| p.secs).sum();
    let kinds = per_kind(
        pass.points
            .iter()
            .map(|p| (p.kind, p.secs, p.result.as_ref().expect("ok").uncore_cycles)),
    );
    let by_kind: f64 = kinds.iter().map(|k| k.0).sum();
    assert!((by_kind - points).abs() <= points * 1e-9);
    assert!(kinds.iter().all(|k| k.1 > 0));
}

#[test]
fn served_cold_executes_every_point_and_warm_hits_disk_for_every_point() {
    let scale = seeded("tiny", 7);
    let (ws, _) = build_set(&FIG04_NAMES, scale, &Tracer::off(), None);
    let specs = served::specs(&ws, scale);
    assert_eq!(specs.len(), 126);
    let work = Path::new(env!("CARGO_TARGET_TMPDIR")).join("served-counts");
    let pass = served::pass(&specs, &work, 0, &Tracer::off());
    assert!(pass.points.iter().all(|p| p.result.is_ok()));
    assert_eq!(pass.extra.cold.stats.executed, 126);
    assert_eq!(pass.extra.warm.stats.disk_hits, 126);
    assert!(pass.extra.warm_mismatch.is_empty());
    // The pass removes its store.
    assert!(std::fs::read_dir(&work).map_or(true, |mut d| d.next().is_none()));
}
