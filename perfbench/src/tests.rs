//! The benchmark's own tests, in short mode (two-second runs: the
//! shortest in which a traced run has an untraced and a traced block to
//! pair).

use std::collections::BTreeSet;

use crate::{workloads, Report, END_TO_END, PER_LAYER, WORKLOADS};

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

fn short_run(name: &str, seed: u64, trace: bool) -> Report {
    let w = WORKLOADS
        .iter()
        .find(|w| w.name == name)
        .expect("workload exists");
    workloads::run(w, seed, 2, trace).expect("short run completes")
}

fn names(rep: &Report) -> BTreeSet<&'static str> {
    rep.metrics.iter().map(|(n, _)| *n).collect()
}

fn assert_emits(rep: &Report, table: &[(&str, &str)]) {
    let emitted = names(rep);
    for (name, _) in table {
        assert!(emitted.contains(name), "metric {name} not emitted");
    }
    let line = rep.result_line(table);
    for (name, unit) in table {
        let field = format!("\"{name}\": {{\"value\": ");
        assert!(line.contains(&field), "{name} missing from the result line");
        assert!(
            line[line.find(&field).unwrap()..].contains(&format!("\"unit\": \"{unit}\"")),
            "{name} lacks its unit"
        );
    }
}

/// The run's result line for `table` passes every correctness check,
/// and so every metric in it has a measured value.
fn assert_correct(rep: &Report, table: &[(&str, &str)]) {
    let line = rep.result_line(table);
    assert!(line.starts_with("{\"correct\": true, "), "{line}");
}

#[test]
fn benchmark_json_lists_every_metric_with_its_unit() {
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
        let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
        assert!(
            BENCHMARK_JSON.contains(&entry),
            "BENCHMARK.json lacks {entry}"
        );
    }
    for w in &WORKLOADS {
        assert!(BENCHMARK_JSON.contains(&format!("\"name\": \"{}\"", w.name)));
    }
    let entries = BENCHMARK_JSON.matches("\"name\":").count();
    assert_eq!(
        entries,
        WORKLOADS.len() + END_TO_END.len() + PER_LAYER.len()
    );
}

#[test]
fn chain_run_emits_every_metric_and_passes_its_gates() {
    let rep = short_run("g4_chain", 1, false);
    assert_emits(&rep, &END_TO_END);
    assert_correct(&rep, &END_TO_END);
    assert!(rep.attempted > 0);
    let traced = short_run("g4_chain", 1, true);
    assert_emits(&traced, &PER_LAYER);
    assert_correct(&traced, &PER_LAYER);
}

#[test]
fn lossy_run_emits_every_metric_and_passes_its_gates() {
    let rep = short_run("lossy_reconfig", 1, true);
    assert_emits(&rep, &PER_LAYER);
    assert_emits(&rep, &END_TO_END);
    assert_correct(&rep, &PER_LAYER);
    assert_correct(&rep, &END_TO_END);
}

#[test]
fn a_metric_without_samples_fails_the_run() {
    let mut rep = Report {
        attempted: 3,
        ..Report::default()
    };
    rep.set("setup_s", 0.001);
    rep.set("goodput_mbps", f64::NAN);
    let line = rep.result_line(&END_TO_END[..3]);
    assert!(
        line.starts_with("{\"correct\": false, \"attempted\": 5, \"failed\": 2, "),
        "{line}"
    );
    assert!(
        line.contains("\"goodput_mbps\": {\"value\": null"),
        "{line}"
    );
    assert!(
        line.contains("\"cpu_s_per_gb\": {\"value\": null"),
        "{line}"
    );
}

#[test]
fn another_seed_keeps_the_metric_set() {
    let a = short_run("g32_dense_chain", 1, false);
    let b = short_run("g32_dense_chain", 2, false);
    assert_eq!(names(&a), names(&b));
}
