//! Self-test of the benchmark at tiny sizes:
//! `cargo test --release --manifest-path perfbench/Cargo.toml`.

use crate::bench::{run, Config, Fault, Outcome, Scale, Workload, END_TO_END, PER_LAYER};
use crate::result_json;

const ALL: [Workload; 4] = [
    Workload::PdOpen,
    Workload::PdCold,
    Workload::Fleet,
    Workload::Opt,
];

fn tiny(workload: Workload, trace: bool, fault: Option<Fault>) -> Outcome {
    let cfg = Config {
        workload,
        seed: 7,
        seconds: 0.0,
        trace,
        scale: Scale::Tiny,
        fault,
        trace_dir: None,
    };
    run(&cfg).expect("tiny run")
}

#[test]
fn every_metric_is_emitted_with_its_unit() {
    let spec = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json beside the benchmark's directory");
    let listed = |name: &str, unit: &str| {
        spec.contains(&format!("\"name\": \"{name}\", \"unit\": \"{unit}\""))
    };
    for &(name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
        assert!(
            listed(name, unit),
            "{name} [{unit}] is not in BENCHMARK.json"
        );
    }
    assert_eq!(
        spec.matches("\"unit\":").count(),
        END_TO_END.len() + PER_LAYER.len()
    );

    for w in ALL {
        for trace in [false, true] {
            let out = tiny(w, trace, None);
            assert!(out.correct(), "{w:?} trace={trace}: {:?}", out.problems);
            assert!(out.attempted > 0 && out.failed == 0);
            let expected = if trace {
                &PER_LAYER[..]
            } else {
                &END_TO_END[..]
            };
            let got: Vec<(&str, &str)> = out.metrics.iter().map(|m| (m.0, m.2)).collect();
            assert_eq!(got, expected, "{w:?} trace={trace}");
            assert!(out.metrics.iter().all(|m| m.1.is_finite()));
            let line = result_json(&out);
            assert!(
                line.starts_with("{\"correct\": true, \"attempted\": "),
                "{line}"
            );
            for &(name, unit) in expected {
                assert!(
                    line.contains(&format!("\"{name}\": {{\"value\": ")),
                    "{name} missing"
                );
                assert!(line.contains(&format!("\"unit\": \"{unit}\"")));
            }
        }
    }
}

#[test]
fn deterministic_values_repeat_exactly() {
    let counts = [
        "pd.open_arrivals",
        "pd.facilities",
        "opt.nodes_expanded",
        "opt.ratio_opt",
    ];
    for w in ALL {
        let (a, b) = (tiny(w, false, None), tiny(w, false, None));
        let ratio = |o: &Outcome| o.metric("ratio_dual").unwrap().to_bits();
        assert_eq!(ratio(&a), ratio(&b), "{w:?} ratio_dual");
        let (a, b) = (tiny(w, true, None), tiny(w, true, None));
        for name in counts {
            let (x, y) = (a.metric(name).unwrap(), b.metric(name).unwrap());
            assert_eq!(x.to_bits(), y.to_bits(), "{w:?} {name}");
        }
        assert!(a.metric("pd.facilities").unwrap() > 0.0);
    }
    let opt = tiny(Workload::Opt, true, None);
    assert!(opt.metric("opt.nodes_expanded").unwrap() >= 3.0);
    assert!(opt.metric("opt.ratio_opt").unwrap() >= 1.0);
}

#[test]
fn corrupted_cost_trips_the_check() {
    for w in ALL {
        for trace in [false, true] {
            let out = tiny(w, trace, Some(Fault::CorruptCost));
            assert!(
                !out.correct(),
                "{w:?} trace={trace}: corruption went unnoticed"
            );
            assert!(out.problems.iter().any(|p| p.contains("costs differ")));
            assert!(result_json(&out).starts_with("{\"correct\": false"));
        }
    }
    let fleet = tiny(Workload::Fleet, false, Some(Fault::CorruptCost));
    assert!(fleet
        .problems
        .iter()
        .any(|p| p.contains("server cost differs")));
}

#[test]
fn uncertified_solve_trips_the_check() {
    for trace in [false, true] {
        let out = tiny(Workload::Opt, trace, Some(Fault::Uncertify));
        assert!(!out.correct());
        assert!(out.failed > 0, "uncertified solves count as failed");
        assert!(out.problems.iter().any(|p| p.contains("not certified")));
    }
}
