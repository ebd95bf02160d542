//! Fast self-test of the benchmark at tiny sizes: coloring(5),
//! matching(5) and a one-second (about 20-job) service mix.
//!
//! `cargo test --release --offline --manifest-path perfbench/Cargo.toml`

use std::collections::HashMap;
use std::path::PathBuf;
use stsyn_obs::Json;
use stsyn_perfbench::naming::{self, Instance};
use stsyn_perfbench::{mix, synth, Outcome, Workload};

fn tiny(name: &str) -> Workload {
    match name {
        "coloring-scan" => Workload::Synth(Instance::new("coloring", 5, 0)),
        "matching-scc" => Workload::Synth(Instance::new("matching", 5, 0)),
        "service-mix" => Workload::Mix(stsyn_perfbench::mix_pool()),
        other => panic!("no workload {other}"),
    }
}

fn scratch(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("perfbench-selftest").join(name)
}

/// Run a tiny workload; `label` keeps concurrently running tests out of
/// each other's state and trace files.
fn run(name: &str, traced: bool, refs: &HashMap<String, String>, label: &str) -> Outcome {
    let trace = traced.then(|| scratch(&format!("{label}-trace-{name}.ndjson")));
    match tiny(name) {
        // Seconds 0: the minimum number of repetitions.
        Workload::Synth(inst) => synth::run(&inst, 7, 0.0, trace.as_deref(), refs),
        Workload::Mix(pool) => mix::run(&pool, 7, 1.0, trace.as_deref(), refs, &scratch(label)),
    }
}

/// `(name, unit)` of every metric in one `BENCHMARK.json` section.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let doc = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
    doc.get(section)
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).and_then(Json::as_str).unwrap().to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

fn printed(out: &Outcome, traced: bool) -> Vec<(String, String)> {
    let line = Json::parse(&out.result_line(traced)).unwrap();
    match line.get("metrics") {
        Some(Json::Obj(pairs)) => pairs
            .iter()
            .map(|(k, v)| (k.clone(), v.get("unit").and_then(Json::as_str).unwrap().to_string()))
            .collect(),
        other => panic!("no metrics object: {other:?}"),
    }
}

#[test]
fn workloads_match_the_declaration() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let doc = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
    let names: Vec<&str> = doc
        .get("workloads")
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).unwrap())
        .collect();
    assert_eq!(names, stsyn_perfbench::WORKLOADS);
    for name in names {
        assert!(stsyn_perfbench::workload(name).is_some(), "{name}");
    }
}

#[test]
fn every_workload_prints_every_metric_and_checks_out() {
    let refs = naming::references();
    for name in stsyn_perfbench::WORKLOADS {
        for traced in [false, true] {
            let out = run(name, traced, &refs, "clean");
            assert!(out.correct(), "{name} traced={traced}: {:?}", out.failures);
            let section = if traced { "per_layer" } else { "end_to_end" };
            assert_eq!(printed(&out, traced), declared(section), "{name} {section}");
            if traced {
                let b = out.breakdown.as_ref().expect("traced run has a breakdown");
                assert!(b.jobs > 0, "{name}: no traced jobs");
                assert!(b.sums(), "{name}: layers do not add up to the total: {b:?}");
            } else {
                for m in out.metrics(false) {
                    assert!(m.value > 0.0, "{name}: {} is {}", m.name, m.value);
                }
            }
        }
    }
}

#[test]
fn a_corrupted_digest_is_a_failure() {
    let mut refs = naming::references();
    refs.insert("coloring-5".into(), "0000000000000000".into());
    let out = run("coloring-scan", false, &refs, "corrupt");
    assert_eq!(out.failed, out.attempted, "{:?}", out.failures);
    assert!(!out.correct() && out.ok_frac() < 1.0);

    for inst in stsyn_perfbench::mix_pool() {
        refs.insert(inst.key(), "0000000000000000".into());
    }
    let out = run("service-mix", false, &refs, "corrupt");
    assert!(out.attempted > 0 && out.failed == out.attempted, "{:?}", out.failures);
}

#[test]
fn pool_references_are_one_shot_digests() {
    let refs = naming::references();
    for inst in stsyn_perfbench::mix_pool() {
        let text = synth::canonical_emitted(&inst).unwrap();
        assert_eq!(refs.get(&inst.key()), Some(&naming::digest(&text)), "{}", inst.key());
    }
}
