//! The benchmark's own checks: reproducible inputs, failure accounting,
//! the tail rule, and the metric names against `BENCHMARK.json`.

use dvs_perfbench::metrics::{Report, END_TO_END, PER_LAYER};
use dvs_perfbench::ops::{run_pass, traced_op, traced_prepare, LayerCounts};
use dvs_perfbench::stats::{quantile, tail_rank};
use dvs_perfbench::trace::Tracer;
use dvs_perfbench::workload::{plan, setup, setup_only, Workload};
use dvs_sweep::json::{self, Json};

#[test]
fn the_same_seed_gives_identical_inputs() {
    let fingerprints = |seed| {
        setup(Workload::VariantsX1, seed)
            .inputs
            .iter()
            .map(|i| (i.profile.name, i.fingerprint, i.gates))
            .collect::<Vec<_>>()
    };
    let a = fingerprints(3);
    assert_eq!(a.len(), 78, "39 profiles under two supply pairs");
    assert_eq!(a, fingerprints(3));
    let other = fingerprints(4);
    assert!(
        a.iter().zip(&other).any(|(x, y)| x.1 != y.1),
        "the seed salts the generator"
    );
}

#[test]
fn workloads_have_their_declared_op_counts() {
    for (w, ops, inputs) in [
        (Workload::OptimiseX10, 156, 78),
        (Workload::VariantsX1, 234, 78),
    ] {
        let (o, k) = plan(w, 0);
        assert_eq!((o.len(), k.len()), (ops, inputs), "{}", w.name());
    }
}

#[test]
fn a_known_failing_op_is_counted_not_fatal() {
    let w = Workload::OptimiseX10;
    let s = setup_only(w, 0, |op| {
        op.scenario.profile.name == "alu2"
            && matches!(op.scenario.variant.name, "deep-low-vdd" | "paper")
    });
    let ids: Vec<String> = s.ops.iter().map(|o| o.id()).collect();
    assert_eq!(ids, ["alu2.x10/paper/s0", "alu2.x10/deep-low-vdd/s0"]);

    // untraced: the failing op is recorded with its message, the pass goes on
    let records = run_pass(&s, w, 0, None);
    assert_eq!(records.len(), 2);
    assert!(records[0].outcome.is_ok());
    let message = records[1].outcome.as_ref().unwrap_err();
    assert!(message.contains("Dscale broke an invariant"), "{message}");

    // traced: the same op fails the same way
    let tr = Tracer::new();
    let prepared: Vec<_> = s
        .inputs
        .iter()
        .map(|input| {
            let lib = s.lib(input.voltages);
            let net = dvs_synth::mcnc::generate_scaled(input.profile, lib, w.scale(), 0);
            traced_prepare(
                &tr,
                net,
                lib,
                input.relax.unwrap(),
                &mut LayerCounts::default(),
            )
        })
        .collect();
    for (i, p) in prepared.iter().enumerate() {
        let reference = s.inputs[i].prepared.as_ref().unwrap();
        assert_eq!(
            p.tspec_ns, reference.tspec_ns,
            "step-by-step matches prepare"
        );
    }
    let traced = traced_op(&tr, &s, &prepared, w, 1, None);
    assert_eq!(traced.outcome.as_ref().unwrap_err(), message);
    let ok = traced_op(&tr, &s, &prepared, w, 0, None);
    assert_eq!(ok.mismatches, Vec::<String>::new());
    assert_eq!(ok.outcome, records[0].outcome);
}

#[test]
fn the_tail_is_the_highest_percentile_with_ten_samples_beyond_it() {
    // 39 ops: the 29th smallest has exactly ten beyond it
    assert_eq!(tail_rank(39), 29.0 / 39.0);
    assert_eq!(tail_rank(11), 1.0 / 11.0);
    // ten or fewer: no percentile qualifies, fall back to the median
    assert_eq!(tail_rank(10), 0.5);
    assert_eq!(tail_rank(3), 0.5);
    // the estimate sits on the 29th order statistic's neighbourhood
    let v: Vec<f64> = (1..=39).map(f64::from).collect();
    let t = quantile(&v, tail_rank(v.len()));
    assert!((t - 29.0).abs() < 1.0, "{t}");
    assert!(quantile(&v, 0.5) < t && t < 39.0);
}

fn declared(doc: &Json, key: &str) -> Vec<(String, String)> {
    doc.get(key)
        .and_then(Json::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json lacks `{key}`"))
        .iter()
        .map(|m| {
            let field = |f| {
                m.get(f)
                    .and_then(Json::as_str)
                    .unwrap_or_default()
                    .to_owned()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

#[test]
fn every_printed_metric_is_declared_in_benchmark_json() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let doc = json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).unwrap();
    let names = |t: &[(&str, &str)]| {
        t.iter()
            .map(|&(n, u)| (n.to_owned(), u.to_owned()))
            .collect::<Vec<_>>()
    };
    assert_eq!(declared(&doc, "end_to_end"), names(END_TO_END));
    assert_eq!(declared(&doc, "per_layer"), names(PER_LAYER));
    let workloads: Vec<String> = doc
        .get("workloads")
        .and_then(Json::as_array)
        .unwrap()
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).unwrap().to_owned())
        .collect();
    let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(workloads, ours);

    // the result line prints exactly the declared table, with units
    for table in [END_TO_END, PER_LAYER] {
        let mut r = Report::new(table);
        for (i, (name, _)) in table.iter().enumerate() {
            r.set(name, i as f64 + 0.5);
        }
        let line = json::parse(&r.result_line(true, 3, 1)).unwrap();
        assert_eq!(line.get("attempted").and_then(Json::as_u64), Some(3));
        assert_eq!(line.get("failed").and_then(Json::as_u64), Some(1));
        let Some(Json::Obj(metrics)) = line.get("metrics") else {
            panic!("metrics object");
        };
        let printed: Vec<(String, String)> = metrics
            .iter()
            .map(|(n, m)| {
                (
                    n.clone(),
                    m.get("unit").and_then(Json::as_str).unwrap().to_owned(),
                )
            })
            .collect();
        assert_eq!(printed, names(table));
    }
}

#[test]
#[should_panic(expected = "not declared")]
fn an_undeclared_metric_is_refused() {
    Report::new(END_TO_END).set("latency_ms", 1.0);
}
