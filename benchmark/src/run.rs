//! The two kinds of run: the untraced, timed run that yields the
//! end-to-end metrics, and the traced run that yields the per-layer
//! ledger.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use dvs_obs::Recorder;
use dvs_sweep::{mean, write_results, ScenarioResult};
use dvs_synth::mcnc;

use crate::machine;
use crate::metrics::{Report, END_TO_END, PER_LAYER};
use crate::ops::{
    closed_loop, panic_message, run_pass, traced_op, traced_prepare, LayerCounts, OpNumbers,
};
use crate::stats;
use crate::trace::{self, Span, Tracer};
use crate::workload::{self, fingerprint, Setup, Workload};

/// Set-ups per timed run; `setup_s` is their median.
pub const SETUPS: usize = 3;

/// Passes per timed run at the least, so that every op's latency is the
/// best of two samples taken a pass apart.
pub const MIN_PASSES: usize = 2;

/// What a run prints: metrics, op counts, and the failures by op id.
pub struct Outcome {
    /// The metric values.
    pub report: Report,
    /// Ops run.
    pub attempted: usize,
    /// Ops that panicked or failed a check.
    pub failed: usize,
    /// `false` when any output check failed.
    pub correct: bool,
    /// `(op id, message)` of every failed op.
    pub failures: Vec<(String, String)>,
    /// Extra lines for the human-readable summary.
    pub notes: Vec<String>,
}

impl Outcome {
    fn new(report: Report) -> Self {
        Outcome {
            report,
            attempted: 0,
            failed: 0,
            correct: true,
            failures: Vec::new(),
            notes: Vec::new(),
        }
    }

    fn fail(&mut self, id: String, message: String, check: bool) {
        self.failed += 1;
        self.correct &= !check;
        self.failures.push((id, message));
    }
}

/// A check failure inside `run_op` (as opposed to a panic of the flow).
fn is_check(message: &str) -> bool {
    message.starts_with("check: ")
}

fn install(rec: &Option<Arc<Recorder>>) {
    if let Some(r) = rec {
        dvs_obs::set_subscriber(Some(r.clone()));
    }
}

fn uninstall(rec: &Option<Arc<Recorder>>) {
    if rec.is_some() {
        dvs_obs::set_subscriber(None);
    }
}

/// `true` when two setups generated identical circuits.
fn same_inputs(a: &Setup, b: &Setup) -> bool {
    a.inputs.len() == b.inputs.len()
        && a.inputs
            .iter()
            .zip(&b.inputs)
            .all(|(x, y)| x.fingerprint == y.fingerprint && x.gates == y.gates)
}

/// The untraced run. One set-up, the first pass over the ops, then — for
/// the sweep workloads — the sweep document of that pass, as `dvs-sweep`
/// writes it; then the other [`SETUPS`]` - 1` set-ups, and more passes
/// until `seconds` have passed ([`MIN_PASSES`] at least). Every later pass
/// must repeat the first pass's numbers. Timings take the best pass (per
/// op for the latencies), which keeps a shared host's slow spells out of
/// the figures; the document and set-ups between the passes space each
/// op's samples apart in time. One sweep is the best pass plus the
/// document.
pub fn timed(w: Workload, seed: u64, seconds: f64, out: &Path) -> Outcome {
    let mut o = Outcome::new(Report::new(END_TO_END));
    let timed_setup = || {
        let t = Instant::now();
        let s = workload::setup(w, seed);
        (s, t.elapsed().as_secs_f64())
    };
    let (setup, first_setup_s) = timed_setup();
    let mut setup_s = vec![first_setup_s];

    let mut records = Vec::new();
    let (mut pass_wall, mut pass_cpu) = (Vec::new(), Vec::new());
    let (mut doc_wall, mut doc_cpu) = (0.0, 0.0);
    let t0 = Instant::now();
    for pass in 0.. {
        let cpu = machine::process_cpu_s();
        let t = Instant::now();
        let rec = w.is_sweep().then(|| Arc::new(Recorder::new()));
        install(&rec);
        let mut ran = run_pass(&setup, w, pass, rec.as_deref());
        uninstall(&rec);
        if let Some(r) = &rec {
            let _ = r.drain();
        }
        pass_wall.push(t.elapsed().as_secs_f64());
        pass_cpu.push(machine::process_cpu_s() - cpu);
        if pass == 0 && w.is_sweep() {
            let cpu = machine::process_cpu_s();
            let t = Instant::now();
            let rows: Vec<ScenarioResult> = ran.iter().filter_map(|r| r.row.clone()).collect();
            let path = out.join(format!("sweep-{}-s{seed}.json", w.name()));
            match catch_unwind(AssertUnwindSafe(|| write_results(&path, &rows, true))) {
                Ok(Ok(())) => {}
                Ok(Err(e)) => o.fail("sweep-document".into(), format!("writing: {e}"), true),
                Err(p) => o.fail("sweep-document".into(), panic_message(p.as_ref()), true),
            }
            (doc_wall, doc_cpu) = (t.elapsed().as_secs_f64(), machine::process_cpu_s() - cpu);
        }
        ran.iter_mut().for_each(|r| r.row = None);
        records.extend(ran);
        if pass == 0 {
            for _ in 1..SETUPS {
                let (again, s) = timed_setup();
                setup_s.push(s);
                if !same_inputs(&setup, &again) {
                    o.correct = false;
                    o.notes
                        .push("set-up: the same seed generated different circuits".into());
                }
            }
        }
        if pass + 1 >= MIN_PASSES && t0.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }

    // every pass must repeat the first pass's numbers; an op's latency is
    // its best pass; failed ops count in `failed`, not in the latencies
    let n = setup.ops.len();
    let mut first: Vec<Option<&Result<OpNumbers, String>>> = vec![None; n];
    let mut best_ms = vec![f64::NAN; n];
    let mut gates = 0usize;
    let mut log = String::from("pass\top\twall_ms\toutcome\n");
    for r in &records {
        o.attempted += 1;
        let id = setup.ops[r.op].id();
        let repeat_ok = match first[r.op] {
            None => {
                first[r.op] = Some(&r.outcome);
                true
            }
            Some(f) => *f == r.outcome,
        };
        let ms = match (&r.outcome, repeat_ok) {
            (Err(e), _) => {
                o.fail(id.clone(), e.clone(), is_check(e));
                f64::INFINITY
            }
            (Ok(_), false) => {
                o.fail(
                    id.clone(),
                    "numbers differ from the first pass".into(),
                    true,
                );
                f64::INFINITY
            }
            (Ok(numbers), true) => {
                if r.pass == 0 {
                    gates += numbers.gates;
                }
                r.wall_s * 1e3
            }
        };
        let prev = best_ms[r.op];
        best_ms[r.op] = if ms.is_infinite() || prev.is_infinite() {
            f64::INFINITY
        } else {
            prev.min(ms)
        };
        let status = r.outcome.as_ref().map_or_else(|e| e.as_str(), |_| "ok");
        let _ = writeln!(log, "{}\t{id}\t{:.3}\t{status}", r.pass, r.wall_s * 1e3);
    }
    let improvements: Vec<[f64; 3]> = first
        .iter()
        .filter_map(|f| f.and_then(|r| r.as_ref().ok()))
        .map(OpNumbers::improvements)
        .collect();
    let mean_of = |k: usize| mean(improvements.iter().map(|i| i[k]));
    let latency_ms: Vec<f64> = best_ms.into_iter().filter(|ms| ms.is_finite()).collect();
    let tail_q = stats::tail_rank(latency_ms.len());
    let best = |v: &[f64]| v.iter().copied().fold(f64::INFINITY, f64::min);
    o.notes.push(format!(
        "samples: {} completed ops of {n}, best of {} pass(es) each; tail = p{:.1}; pass wall {:?} s; document {doc_wall:.3} s",
        latency_ms.len(),
        pass_wall.len(),
        100.0 * tail_q,
        pass_wall,
    ));
    let path = out.join(format!("ops-{}-s{seed}.tsv", w.name()));
    if let Err(e) = std::fs::write(&path, log) {
        o.notes.push(format!("writing {}: {e}", path.display()));
    }

    let m = &mut o.report;
    m.set("gates_per_s", gates as f64 / (best(&pass_wall) + doc_wall));
    m.set("op_p50_ms", stats::quantile(&latency_ms, 0.5));
    m.set("op_tail_ms", stats::quantile(&latency_ms, tail_q));
    m.set("cpu_s", best(&pass_cpu) + doc_cpu);
    m.set("setup_s", stats::median(&setup_s));
    m.set("peak_rss_mb", machine::peak_rss_mb());
    m.set("cvs_pct", mean_of(0));
    m.set("dscale_pct", mean_of(1));
    m.set("gscale_pct", mean_of(2));
    o
}

/// Sum of span durations by name, ns.
fn by_name(spans: &[Span]) -> HashMap<&'static str, u64> {
    let mut m = HashMap::new();
    for s in spans {
        *m.entry(s.name).or_insert(0) += s.dur_ns();
    }
    m
}

/// Per `op` span: `(op, wall_ns, layer_ns, bench_ns)` — its wall, the part
/// its layer children cover, and the part spent in the benchmark's own
/// checks and bookkeeping (`bench.*` children).
fn op_cover(spans: &[Span]) -> Vec<(u32, u64, u64, u64)> {
    let mut children: HashMap<u32, (u64, u64)> = HashMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            let e = children.entry(p).or_default();
            if s.name.starts_with("bench.") {
                e.1 += s.dur_ns();
            } else {
                e.0 += s.dur_ns();
            }
        }
    }
    spans
        .iter()
        .filter(|s| s.name == "op")
        .map(|s| {
            let (layer, bench) = children.get(&s.id).copied().unwrap_or_default();
            (
                s.op.expect("op spans carry their op"),
                s.dur_ns(),
                layer,
                bench,
            )
        })
        .collect()
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The traced run: one untraced reference pass, then the same ops once
/// more step by step under the benchmark's spans, with the output checks.
/// The spans are written to `out` when the run ends.
pub fn traced(w: Workload, seed: u64, out: &Path) -> Outcome {
    let mut o = Outcome::new(Report::new(PER_LAYER));
    let setup = workload::setup(w, seed);
    let n = setup.ops.len();

    // the untraced reference pass
    let rec = w.is_sweep().then(|| Arc::new(Recorder::new()));
    install(&rec);
    let base = run_pass(&setup, w, 0, rec.as_deref());
    uninstall(&rec);

    let tr = Tracer::new();
    let mut counts = LayerCounts::default();

    // optimise_x10: the set-up's preparations again, step by step
    let prepared = if w.is_sweep() {
        Vec::new()
    } else {
        let libs: Vec<_> = setup
            .libs
            .iter()
            .map(|(v, _)| {
                (
                    *v,
                    tr.span("celllib.build", || {
                        dvs_celllib::compass::compass_library(*v)
                    }),
                )
            })
            .collect();
        let preps = dvs_pool::run_indexed(&setup.inputs, 2, |_, input| {
            tr.span("setup.prepare", || {
                let lib = &libs
                    .iter()
                    .find(|(v, _)| *v == input.voltages)
                    .expect("lib")
                    .1;
                let mut c = LayerCounts::default();
                let net = tr.span("synth.generate", || {
                    mcnc::generate_scaled(input.profile, lib, w.scale(), seed)
                });
                let mut bad = Vec::new();
                if tr.span("bench.check_input", || fingerprint(&net)) != input.fingerprint {
                    bad.push("generated circuit differs from the set-up's".to_owned());
                }
                let relax = input.relax.expect("prepared inputs carry their relaxation");
                let p = traced_prepare(&tr, net, lib, relax, &mut c);
                let reference = input.prepared.as_ref().expect("prepared during set-up");
                if p.tspec_ns != reference.tspec_ns {
                    bad.push(format!(
                        "step-by-step tspec {} ns, prepare gives {} ns",
                        p.tspec_ns, reference.tspec_ns
                    ));
                }
                if fingerprint(&p.network) != fingerprint(&reference.network) {
                    bad.push("step-by-step preparation differs from prepare".to_owned());
                }
                (p, c, bad)
            })
        });
        preps
            .into_iter()
            .zip(&setup.inputs)
            .map(|((p, c, bad), input)| {
                counts.add(&c);
                for b in bad {
                    o.correct = false;
                    o.notes.push(format!("set-up {}: {b}", input.profile.name));
                }
                p
            })
            .collect()
    };

    let trec = w.is_sweep().then(|| Arc::new(Recorder::new()));
    install(&trec);
    let ops = closed_loop(n, w.workers(), |i| {
        traced_op(&tr, &setup, &prepared, w, i, trec.as_deref())
    });
    uninstall(&trec);

    let mut doc_bytes = 0usize;
    if let Some(r) = &trec {
        let rows: Vec<ScenarioResult> = ops.iter().filter_map(|(_, _, t)| t.row.clone()).collect();
        let doc = tr.span("sweep.render", || {
            let mut text = dvs_sweep::to_json(&rows, true).render();
            text.push('\n');
            text
        });
        if let Err(e) = tr.span("sweep.validate", || dvs_sweep::json::validate(&doc)) {
            o.fail("sweep-document".into(), format!("invalid JSON: {e}"), true);
        }
        let path = out.join(format!("sweep-{}-s{seed}-traced.json", w.name()));
        if let Err(e) = tr.span("sweep.write", || std::fs::write(&path, &doc)) {
            o.fail("sweep-document".into(), format!("writing: {e}"), true);
        }
        doc_bytes = doc.len();
        let _ = tr.span("obs.drain", || r.drain());
    }

    // every op counts twice: once untraced, once traced
    for r in &base {
        o.attempted += 1;
        if let Err(e) = &r.outcome {
            o.fail(setup.ops[r.op].id(), e.clone(), is_check(e));
        }
    }
    for ((i, _, t), b) in ops.iter().zip(&base) {
        o.attempted += 1;
        let id = setup.ops[*i].id();
        counts.add(&t.counts);
        let mut problems = t.mismatches.clone();
        if t.outcome != b.outcome {
            problems.push("traced numbers differ from the untraced run's".into());
        }
        if !problems.is_empty() {
            o.fail(id, format!("check: {}", problems.join("; ")), true);
        } else if let Err(e) = &t.outcome {
            o.fail(id, e.clone(), false);
        }
    }

    let spans = tr.take();
    let path = out.join(format!("spans-{}-s{seed}.json", w.name()));
    if let Err(e) = std::fs::write(&path, trace::render(&spans)) {
        o.notes.push(format!("writing {}: {e}", path.display()));
    }

    let ns = by_name(&spans);
    let ns_of = |name: &str| ns.get(name).copied().unwrap_or(0) as f64;
    let ms = |name: &str| ns_of(name) / 1e6;
    let cover = op_cover(&spans);
    let (mut wall, mut layer, mut bench, mut untraced) = (0.0, 0.0, 0.0, 0.0);
    let mut worst = (f64::INFINITY, 0u32);
    for &(op, w_ns, l_ns, b_ns) in &cover {
        let own = (w_ns - b_ns) as f64;
        wall += w_ns as f64;
        layer += l_ns as f64;
        bench += b_ns as f64;
        untraced += base[op as usize].wall_s * 1e9;
        let c = ratio(l_ns as f64, own);
        if c < worst.0 {
            worst = (c, op);
        }
    }
    let coverage_pct = 100.0 * ratio(layer, wall - bench);
    let overhead_pct = 100.0 * (ratio(wall - bench, untraced) - 1.0);
    o.notes.push(format!(
        "coverage: {coverage_pct:.2}% of traced op wall (worst op {} at {:.2}%); {} span(s) -> {}",
        setup
            .ops
            .get(worst.1 as usize)
            .map_or_else(String::new, |op| op.id()),
        100.0 * worst.0,
        spans.len(),
        path.display(),
    ));

    let c = &counts.counters;
    let m = &mut o.report;
    m.set("celllib.build_ms", ms("celllib.build"));
    m.set("synth.generate_ms", ms("synth.generate"));
    m.set("synth.electrical_ms", ms("synth.electrical"));
    m.set("synth.electrical_bumps", counts.electrical_bumps as f64);
    m.set("synth.min_delay_ms", ms("synth.min_delay"));
    m.set(
        "synth.min_delay_ns_per_gate",
        ratio(ns_of("synth.min_delay"), counts.prepared_gates as f64),
    );
    m.set("synth.min_delay_upsized", counts.min_delay_upsized as f64);
    m.set("synth.recover_area_ms", ms("synth.recover_area"));
    m.set("synth.recover_area_steps", counts.recover_area_steps as f64);
    m.set("sta.analyze_ms", ms("sta.analyze"));
    m.set(
        "sta.analyze_ns_per_node",
        ratio(ns_of("sta.analyze"), counts.analyzed_nodes as f64),
    );
    m.set("sta.events", c.sta_events as f64);
    m.set("sta.full_analyses", c.full_analyses as f64);
    m.set("sta.rebuilds_avoided", c.rebuilds_avoided as f64);
    m.set("power.measure_ms", ms("power.measure"));
    m.set("power.resims", c.power_resims as f64);
    m.set("power.full_power", c.full_power as f64);
    m.set("power.full_power_avoided", c.full_power_avoided as f64);
    m.set("core.session_new_ms", ms("core.session_new"));
    m.set("core.cvs_ms", ms("core.cvs"));
    m.set("core.dscale_ms", ms("core.dscale"));
    m.set("core.gscale_ms", ms("core.gscale"));
    m.set("core.rollback_ms", ms("core.rollback"));
    m.set("core.audit_ms", ms("core.audit"));
    m.set("core.final_power_ms", ms("core.final_power"));
    m.set("core.dscale.iterations", counts.dscale_iterations as f64);
    m.set("core.dscale.converters", counts.dscale_converters as f64);
    m.set("core.gscale.iterations", counts.gscale_iterations as f64);
    m.set("core.gscale.resized", counts.gscale_resized as f64);
    m.set("core.rail_edits", c.rail_edits as f64);
    m.set("core.size_edits", c.size_edits as f64);
    m.set(
        "core.gscale.degenerate_ratio",
        ratio(counts.gscale_degenerate as f64, counts.flows as f64),
    );
    m.set("flow.separators", counts.separators as f64);
    m.set("flow.separator_ms", ms("flow.separator"));
    m.set("flow.separator_nodes", counts.separator_nodes as f64);
    m.set("flow.augmenting_paths", counts.augmenting_paths as f64);
    m.set(
        "flow.found_ratio",
        ratio(counts.separators_found as f64, counts.separators as f64),
    );
    m.set("pool.par_tasks", c.par_tasks as f64);
    m.set("pool.par_batches", c.par_batches as f64);
    m.set("sweep.grid_ms", ms("sweep.grid"));
    m.set("sweep.render_ms", ms("sweep.render"));
    m.set("sweep.validate_ms", ms("sweep.validate"));
    m.set("sweep.doc_bytes", doc_bytes as f64);
    m.set("obs.rollup_ms", ms("obs.rollup"));
    m.set("obs.drain_ms", ms("obs.drain"));
    m.set("obs.trace_overhead_pct", overhead_pct);
    m.set("obs.coverage_pct", coverage_pct);
    o
}
