//! The benchmark's own checks: seeded inputs are reproducible and the
//! metric names it prints are the ones `BENCHMARK.json` declares.

use servebench::inputs::{workloads, Inputs, MUTATIONS};
use servebench::{END_TO_END, PER_LAYER};

#[test]
fn same_seed_gives_byte_identical_inputs() {
    for workload in workloads() {
        let first = Inputs::generate(&workload, 7).to_bytes();
        let second = Inputs::generate(&workload, 7).to_bytes();
        assert!(
            first == second,
            "{}: inputs differ under one seed",
            workload.name
        );
    }
}

#[test]
fn another_seed_changes_the_inputs() {
    for workload in workloads() {
        let a = Inputs::generate(&workload, 7).to_bytes();
        let b = Inputs::generate(&workload, 8).to_bytes();
        assert!(a != b, "{}: seed does not reach the inputs", workload.name);
    }
}

/// Every scripted mutation is valid against the class set before it, so a
/// run can expect none to be refused.
#[test]
fn mutation_scripts_only_touch_live_classes() {
    use servebench::inputs::MutationOp;
    use std::collections::BTreeSet;
    for workload in workloads() {
        let inputs = Inputs::generate(&workload, 3);
        assert_eq!(inputs.ops.len(), MUTATIONS);
        let mut live: BTreeSet<String> = inputs.labels.iter().cloned().collect();
        for op in &inputs.ops {
            match op {
                MutationOp::Register { label, attributes } => {
                    assert!(*attributes < inputs.extra_attributes.rows());
                    assert!(live.insert(label.clone()), "{label} registered twice");
                }
                MutationOp::Update { label, attributes } => {
                    assert!(*attributes < inputs.extra_attributes.rows());
                    assert!(live.contains(label), "update of absent {label}");
                }
                MutationOp::Remove { label } => {
                    assert!(live.remove(label), "removal of absent {label}");
                    assert!(!live.is_empty());
                }
                MutationOp::Observe { label, row } => {
                    assert!(*row < inputs.queries.len());
                    assert!(live.contains(label), "observe of absent {label}");
                }
                MutationOp::Flush | MutationOp::SetThreshold { .. } => {}
            }
        }
    }
}

/// Pulls the `"name"` values out of one array of `BENCHMARK.json`.
fn declared(json: &str, key: &str) -> Vec<String> {
    let start = json
        .find(&format!("\"{key}\""))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no `{key}`"));
    let rest = &json[start..];
    let body = &rest[rest.find('[').expect("array opens")..rest.find(']').expect("array closes")];
    body.split("\"name\"")
        .skip(1)
        .map(|item| {
            let value = &item[item.find('"').expect("name value") + 1..];
            value[..value.find('"').expect("name ends")].to_string()
        })
        .collect()
}

#[test]
fn printed_metric_names_match_benchmark_json() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let names = |list: &[(&str, &str)]| list.iter().map(|(n, _)| n.to_string()).collect::<Vec<_>>();
    assert_eq!(declared(&json, "end_to_end"), names(END_TO_END));
    assert_eq!(declared(&json, "per_layer"), names(PER_LAYER));
    let workloads: Vec<String> = workloads().iter().map(|w| w.name.to_string()).collect();
    assert_eq!(declared(&json, "workloads"), workloads);
}
