//! The benchmark's own tests: deterministic inputs, a tiny-scale run of
//! every workload through its correctness gates, the layer replay's
//! revenue against the service's, and agreement with `BENCHMARK.json`.

use maps_simulator::alloc::TrackingAllocator;
use mapsbench::run::generate;
use mapsbench::{layers, run, serve, Options, Report, Scale, Workload};
use serde_json::Value;
use std::path::{Path, PathBuf};

#[global_allocator]
static ALLOC: TrackingAllocator = TrackingAllocator::new();

fn work_dir(tag: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("work")
        .join(format!("test-{tag}-{}", std::process::id()))
}

fn tiny_run(workload: Workload, trace: bool) -> Report {
    run(&Options {
        workload,
        seed: 11,
        seconds: 0.05,
        trace,
        scale: Scale::Tiny,
        work_dir: work_dir(&format!("{}-{trace}", workload.name())),
    })
}

/// The metric names `BENCHMARK.json` lists under `key`.
fn declared(key: &str) -> Vec<String> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let json: Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
    let Some(Value::Array(metrics)) = json.get(key) else {
        panic!("BENCHMARK.json has no {key} list");
    };
    metrics
        .iter()
        .map(|m| match m.get("name") {
            Some(Value::String(name)) => name.clone(),
            other => panic!("metric without a name: {other:?}"),
        })
        .collect()
}

#[test]
fn every_declared_workload_runs() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let json: Value = serde_json::from_str(&std::fs::read_to_string(path).unwrap()).unwrap();
    let Some(Value::Array(workloads)) = json.get("workloads") else {
        panic!("BENCHMARK.json has no workloads");
    };
    for w in workloads {
        let Some(Value::String(name)) = w.get("name") else {
            panic!("workload without a name");
        };
        assert!(Workload::parse(name).is_some(), "unknown workload {name}");
    }
}

#[test]
fn same_seed_same_stream_other_seed_other_stream() {
    for workload in Workload::ALL {
        let digest = |seed| {
            generate(workload, Scale::Full, seed)
                .iter()
                .map(|s| s.digest())
                .collect::<Vec<u64>>()
        };
        let a = digest(5);
        assert_eq!(
            a,
            digest(5),
            "{}: same seed, different input",
            workload.name()
        );
        assert_ne!(a, digest(6), "{}: other seed, same input", workload.name());
    }
}

#[test]
fn churn_stream_has_its_declared_shape() {
    let stream = &generate(Workload::ChurnDurable, Scale::Full, 3)[0];
    assert_eq!(stream.epochs.len(), 100);
    let events: u64 = stream.epochs.iter().map(|e| e.len() as u64).sum();
    assert_eq!(stream.malformed, events / 1000, "0.1% malformed");
    let malformed = stream
        .epochs
        .iter()
        .flatten()
        .filter(|e| serve::is_malformed(e))
        .count() as u64;
    assert_eq!(malformed, stream.malformed);
}

#[test]
fn tiny_runs_pass_their_gates_and_report_every_declared_metric() {
    let end_to_end = declared("end_to_end");
    let per_layer = declared("per_layer");
    for workload in Workload::ALL {
        for (trace, names) in [(false, &end_to_end), (true, &per_layer)] {
            let report = tiny_run(workload, trace);
            assert!(
                report.correct,
                "{} trace={trace}: {:?}",
                workload.name(),
                report.mismatches
            );
            assert_eq!(report.failed, 0);
            assert!(report.attempted > 0);
            let reported: Vec<&str> = report.metrics.iter().map(|m| m.name).collect();
            assert_eq!(
                reported,
                names.iter().map(String::as_str).collect::<Vec<_>>(),
                "{} trace={trace}: reported metrics differ from BENCHMARK.json",
                workload.name()
            );
            if trace {
                assert!(report.get("replay.coverage").unwrap() >= 0.9);
            } else {
                for m in &report.metrics {
                    assert!(
                        m.value > 0.0,
                        "{} {} is {}",
                        workload.name(),
                        m.name,
                        m.value
                    );
                }
            }
        }
    }
}

#[test]
fn layer_replay_revenue_equals_service_revenue() {
    for workload in Workload::ALL {
        for stream in generate(workload, Scale::Tiny, 21) {
            let pass = serve::serial(&stream, false, true);
            assert_eq!(pass.failed, 0);
            let replay = layers::replay(
                &stream,
                maps_simulator::SimOptions::default().max_edges_per_task,
            );
            assert_eq!(
                replay.revenue.to_bits(),
                pass.revenue.to_bits(),
                "{}: replay revenue {} vs service {}",
                workload.name(),
                replay.revenue,
                pass.revenue
            );
            assert_eq!(replay.matched, pass.matched, "{}", workload.name());
            assert!(pass.matched > 0, "{}: nothing matched", workload.name());
        }
    }
}
