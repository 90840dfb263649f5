//! Running ops: the untraced closed loop that the end-to-end metrics time,
//! and the traced replica that drives each layer through its public
//! functions, in `run_scenario`/`run_circuit` order, under the
//! benchmark's own spans.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use dvs_celllib::{compass, Library};
use dvs_core::{run_circuit, AlgoReport, CircuitRun, CpuTimer, FlowConfig, FlowSession};
use dvs_flow::SeparatorProblem;
use dvs_netlist::{Network, Rail};
use dvs_obs::Recorder;
use dvs_sta::Timing;
use dvs_sweep::{run_grid_obs, AlgoSummary, ScenarioResult};
use dvs_synth::{
    electrical_correction, mcnc, recover_area, size_for_min_delay, total_area, Prepared,
};

use crate::trace::Tracer;
use crate::workload::{fingerprint, single_grid, Setup, Workload};

/// The numbers one op produces, clocks excluded: what must repeat
/// exactly across runs and between the traced and untraced paths.
#[derive(Debug, Clone, PartialEq)]
pub struct OpNumbers {
    /// Logic gates of the prepared circuit.
    pub gates: usize,
    /// Timing constraint, ns.
    pub tspec_ns: f64,
    /// Power before optimisation, µW.
    pub org_pwr_uw: f64,
    /// CVS, Dscale and Gscale results (CPU time zeroed).
    pub algos: [AlgoSummary; 3],
}

impl OpNumbers {
    fn new(gates: usize, tspec_ns: f64, org_pwr_uw: f64, reports: [&AlgoReport; 3]) -> Self {
        OpNumbers {
            gates,
            tspec_ns,
            org_pwr_uw,
            algos: reports.map(|r| AlgoSummary {
                cpu_s: 0.0,
                ..AlgoSummary::from(r)
            }),
        }
    }

    fn from_run(run: &CircuitRun) -> Self {
        Self::new(
            run.gates,
            run.tspec_ns,
            run.org_pwr_uw,
            [&run.cvs, &run.dscale, &run.gscale],
        )
    }

    fn from_scenario(r: &ScenarioResult) -> Self {
        let zero = |a: &AlgoSummary| AlgoSummary {
            cpu_s: 0.0,
            ..a.clone()
        };
        OpNumbers {
            gates: r.gates,
            tspec_ns: r.tspec_ns,
            org_pwr_uw: r.org_pwr_uw,
            algos: [zero(&r.cvs), zero(&r.dscale), zero(&r.gscale)],
        }
    }

    /// Improvement of CVS, Dscale and Gscale over the original power, %.
    pub fn improvements(&self) -> [f64; 3] {
        self.algos.clone().map(|a| a.improvement_pct)
    }

    /// Self-consistency of one op's numbers; the first violation found.
    fn consistency(&self, input_gates: usize) -> Result<(), String> {
        if self.gates != input_gates {
            return Err(format!(
                "{} gates reported, {input_gates} generated",
                self.gates
            ));
        }
        if !(self.org_pwr_uw.is_finite() && self.org_pwr_uw > 0.0) {
            return Err(format!("original power {} uW", self.org_pwr_uw));
        }
        for (name, a) in ["cvs", "dscale", "gscale"].iter().zip(&self.algos) {
            let expect = (self.org_pwr_uw - a.power_uw) / self.org_pwr_uw * 100.0;
            if !a.power_uw.is_finite() || a.improvement_pct != expect {
                return Err(format!(
                    "{name}: improvement {}% does not match power {} uW",
                    a.improvement_pct, a.power_uw
                ));
            }
        }
        Ok(())
    }
}

/// One finished op of the untraced loop.
#[derive(Debug, Clone)]
pub struct OpRecord {
    /// Index into [`Setup::ops`].
    pub op: usize,
    /// Pass over the op list (0 for the first).
    pub pass: usize,
    /// Wall time of the op, s.
    pub wall_s: f64,
    /// The numbers, or the panic / check message that failed the op.
    pub outcome: Result<OpNumbers, String>,
    /// The scenario row for the sweep document (sweep workloads only).
    pub row: Option<ScenarioResult>,
}

/// The message of a caught panic.
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| (*s).to_owned()))
        .unwrap_or_else(|| "panic with a non-string payload".to_owned())
}

fn flow_config(w: Workload, cfg: &FlowConfig) -> FlowConfig {
    FlowConfig {
        circuit_jobs: w.circuit_jobs(),
        ..cfg.clone()
    }
}

/// Runs op `i` the way the product runs it: a sweep scenario through
/// `run_grid_obs`, or a bare `run_circuit` call. A panic fails the op.
fn run_op(
    setup: &Setup,
    w: Workload,
    i: usize,
    rec: Option<&Recorder>,
) -> (Result<OpNumbers, String>, Option<ScenarioResult>) {
    let op = &setup.ops[i];
    let input = &setup.inputs[op.input];
    let ran = catch_unwind(AssertUnwindSafe(|| {
        if w.is_sweep() {
            let mut rows = run_grid_obs(&single_grid(&op.scenario), 1, rec, |_| {});
            let row = rows.pop().expect("a single-cell grid runs one scenario");
            (OpNumbers::from_scenario(&row), Some(row))
        } else {
            let prepared = input.prepared.as_ref().expect("prepared during set-up");
            let lib = setup.lib(input.voltages);
            let cfg = flow_config(w, &op.scenario.variant.config);
            let run = run_circuit(op.scenario.profile.name, prepared, lib, &cfg);
            (OpNumbers::from_run(&run), None)
        }
    }));
    match ran {
        Ok((numbers, row)) => match numbers.consistency(input.gates) {
            Ok(()) => (Ok(numbers), row),
            Err(e) => (Err(format!("check: {e}")), None),
        },
        Err(payload) => (Err(panic_message(payload.as_ref())), None),
    }
}

/// Runs `f(i)` once for every op index `0..n` on `workers` closed-loop
/// workers (each claims its next op only when its last one finished).
/// Returns `(index, wall seconds, value)` in index order.
pub(crate) fn closed_loop<T: Send>(
    n: usize,
    workers: usize,
    f: impl Fn(usize) -> T + Sync,
) -> Vec<(usize, f64, T)> {
    let next = AtomicUsize::new(0);
    let done = Mutex::new(Vec::with_capacity(n));
    let worker = || loop {
        let i = next.fetch_add(1, Ordering::Relaxed);
        if i >= n {
            break;
        }
        let t = Instant::now();
        let value = f(i);
        let wall = t.elapsed().as_secs_f64();
        done.lock().expect("loop poisoned").push((i, wall, value));
    };
    if workers <= 1 {
        worker();
    } else {
        std::thread::scope(|s| {
            for _ in 0..workers {
                s.spawn(worker);
            }
        });
    }
    let mut done = done.into_inner().expect("loop poisoned");
    done.sort_by_key(|d| d.0);
    done
}

/// One untraced pass over the workload's ops.
pub fn run_pass(setup: &Setup, w: Workload, pass: usize, rec: Option<&Recorder>) -> Vec<OpRecord> {
    closed_loop(setup.ops.len(), w.workers(), |i| run_op(setup, w, i, rec))
        .into_iter()
        .map(|(op, wall_s, (outcome, row))| OpRecord {
            op,
            pass,
            wall_s,
            outcome,
            row,
        })
        .collect()
}

/// Counts and sizes gathered by the traced path, summed over ops.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerCounts {
    /// Logic gates of the prepared circuits.
    pub prepared_gates: u64,
    /// Drive bumps made by electrical correction.
    pub electrical_bumps: u64,
    /// Size steps added by minimum-delay sizing.
    pub min_delay_upsized: u64,
    /// Down-sizing steps of area recovery.
    pub recover_area_steps: u64,
    /// Nodes of the networks given to the traced `Timing::analyze` calls.
    pub analyzed_nodes: u64,
    /// Dscale MWIS iterations.
    pub dscale_iterations: u64,
    /// Level converters Dscale left in the network.
    pub dscale_converters: u64,
    /// Gscale boundary pushes.
    pub gscale_iterations: u64,
    /// Gates Gscale resized.
    pub gscale_resized: u64,
    /// Ops whose Gscale ended with exactly the CVS result.
    pub gscale_degenerate: u64,
    /// Ops that completed the flow.
    pub flows: u64,
    /// The phases' `FlowCounters` deltas, summed.
    pub counters: dvs_core::FlowCounters,
    /// Separator problems replayed.
    pub separators: u64,
    /// Their nodes.
    pub separator_nodes: u64,
    /// Problems for which a finite separator exists.
    pub separators_found: u64,
    /// Augmenting paths of the found separators.
    pub augmenting_paths: u64,
}

impl LayerCounts {
    /// Adds `o` into `self`.
    pub fn add(&mut self, o: &LayerCounts) {
        let c = &mut self.counters;
        let d = &o.counters;
        c.rail_edits += d.rail_edits;
        c.size_edits += d.size_edits;
        c.converters_inserted += d.converters_inserted;
        c.converters_removed += d.converters_removed;
        c.sta_events += d.sta_events;
        c.full_analyses += d.full_analyses;
        c.hot_rebuilds += d.hot_rebuilds;
        c.rebuilds_avoided += d.rebuilds_avoided;
        c.full_power += d.full_power;
        c.power_resims += d.power_resims;
        c.full_power_avoided += d.full_power_avoided;
        c.checkpoints += d.checkpoints;
        c.rollbacks += d.rollbacks;
        c.par_tasks += d.par_tasks;
        c.par_batches += d.par_batches;
        self.prepared_gates += o.prepared_gates;
        self.electrical_bumps += o.electrical_bumps;
        self.min_delay_upsized += o.min_delay_upsized;
        self.recover_area_steps += o.recover_area_steps;
        self.analyzed_nodes += o.analyzed_nodes;
        self.dscale_iterations += o.dscale_iterations;
        self.dscale_converters += o.dscale_converters;
        self.gscale_iterations += o.gscale_iterations;
        self.gscale_resized += o.gscale_resized;
        self.gscale_degenerate += o.gscale_degenerate;
        self.flows += o.flows;
        self.separators += o.separators;
        self.separator_nodes += o.separator_nodes;
        self.separators_found += o.separators_found;
        self.augmenting_paths += o.augmenting_paths;
    }
}

fn size_census(net: &Network) -> u64 {
    net.gate_ids()
        .map(|g| net.node(g).size().index() as u64)
        .sum()
}

/// `prepare`, one step at a time: electrical correction, minimum-delay
/// sizing, area recovery against the relaxed budget, and the final
/// analysis that fixes the constraint.
pub fn traced_prepare(
    tr: &Tracer,
    mut net: Network,
    lib: &Library,
    relax: f64,
    counts: &mut LayerCounts,
) -> Prepared {
    assert!(relax >= 1.0, "slack factor must be ≥ 1");
    counts.electrical_bumps +=
        tr.span("synth.electrical", || electrical_correction(&mut net, lib)) as u64;
    let before = tr.span("bench.size_census", || size_census(&net));
    let tmin_ns = tr.span("synth.min_delay", || size_for_min_delay(&mut net, lib));
    counts.min_delay_upsized += tr.span("bench.size_census", || size_census(&net)) - before;
    let budget = relax * tmin_ns;
    counts.recover_area_steps +=
        tr.span("synth.recover_area", || recover_area(&mut net, lib, budget)) as u64;
    let achieved = tr.span("sta.analyze", || {
        Timing::analyze(&net, lib, budget).critical_delay_ns(&net)
    });
    counts.analyzed_nodes += net.node_count() as u64;
    counts.prepared_gates += net.logic_gate_count() as u64;
    Prepared {
        network: net,
        tmin_ns,
        tspec_ns: achieved.max(tmin_ns) + 1e-9,
    }
}

/// Power of `net` from a fresh simulation, the way `measure_power` gets it.
fn scratch_power(net: &Network, lib: &Library, cfg: &FlowConfig) -> f64 {
    let acts = dvs_power::simulate(net, lib, cfg.sim_vectors, cfg.sim_seed);
    dvs_power::estimate(net, lib, &acts, cfg.fclk_mhz).total_uw
}

#[allow(clippy::too_many_arguments)]
fn algo_report(
    net: &Network,
    lib: &Library,
    power: f64,
    org_pwr: f64,
    area_org: f64,
    converters: usize,
    resized: usize,
    sta: dvs_core::FlowCounters,
) -> AlgoReport {
    let logic = net.logic_gate_count();
    let low = net
        .gate_ids()
        .filter(|&g| !net.node(g).is_converter() && net.node(g).rail() == Rail::Low)
        .count();
    AlgoReport {
        power_uw: power,
        improvement_pct: (org_pwr - power) / org_pwr * 100.0,
        low_gates: low,
        low_ratio: if logic == 0 {
            0.0
        } else {
            low as f64 / logic as f64
        },
        converters,
        resized,
        area_increase: (total_area(net, lib) - area_org) / area_org,
        cpu: Duration::ZERO,
        sta,
    }
}

/// The output checks on a phase's final network: it meets the constraint
/// under a fresh analysis, and the reported power equals a from-scratch
/// `measure_power` exactly.
fn check_phase(
    tr: &Tracer,
    phase: &str,
    sess: &FlowSession<'_>,
    cfg: &FlowConfig,
    reported_uw: f64,
    mismatches: &mut Vec<String>,
) {
    let (net, lib, tspec) = (sess.network(), sess.library(), sess.tspec_ns());
    let slack = tr.span("bench.check_timing", || {
        Timing::analyze(net, lib, tspec).worst_po_slack()
    });
    if slack < -1e-6 {
        mismatches.push(format!("{phase}: final network misses tspec by {slack} ns"));
    }
    let fresh = tr.span("bench.check_power", || {
        dvs_core::measure_power(net, lib, cfg)
    });
    if fresh != reported_uw {
        mismatches.push(format!(
            "{phase}: reported {reported_uw} uW, measure_power gives {fresh} uW"
        ));
    }
}

/// What a traced flow returns besides its numbers.
struct TracedFlow {
    /// The op's numbers.
    numbers: OpNumbers,
    /// The three phase reports (for the sweep document row).
    reports: [AlgoReport; 3],
    /// Gscale's separator problems, captured for the replay.
    problems: Vec<SeparatorProblem>,
}

/// `run_circuit`, one public call at a time: the original power, a
/// session with a checkpoint, then CVS, Dscale and Gscale from that
/// checkpoint, each audited and measured, with the output checks after
/// each phase. Panics exactly where `run_circuit` would.
fn traced_flow(
    tr: &Tracer,
    prepared: &Prepared,
    lib: &Library,
    cfg: &FlowConfig,
    counts: &mut LayerCounts,
    mismatches: &mut Vec<String>,
) -> TracedFlow {
    cfg.assert_valid();
    let tspec = prepared.tspec_ns;
    let area_org = tr.span("core.report", || total_area(&prepared.network, lib));
    let org_pwr = tr.span("power.measure", || {
        scratch_power(&prepared.network, lib, cfg)
    });
    let (mut sess, base) = tr.span("core.session_new", || {
        let mut sess = FlowSession::new(prepared.network.clone(), lib, tspec);
        let base = sess.checkpoint();
        (sess, base)
    });

    // CVS
    let c0 = *sess.counters();
    tr.span("core.cvs", || sess.run_cvs(cfg.guard_ns));
    let cvs_sta = sess.counters().since(&c0);
    tr.span("core.audit", || sess.audit(false))
        .expect("CVS broke an invariant");
    let cvs_pwr = tr.span("core.final_power", || sess.measure_power(cfg));
    let cvs = tr.span("core.report", || {
        algo_report(
            sess.network(),
            lib,
            cvs_pwr,
            org_pwr,
            area_org,
            0,
            0,
            cvs_sta,
        )
    });
    check_phase(tr, "cvs", &sess, cfg, cvs_pwr, mismatches);

    // Dscale
    let c0 = *sess.counters();
    tr.span("core.rollback", || sess.rollback(base));
    let d_out = tr.span("core.dscale", || sess.run_dscale(cfg));
    let d_sta = sess.counters().since(&c0);
    tr.span("core.audit", || sess.audit(true))
        .expect("Dscale broke an invariant");
    let d_pwr = tr.span("core.final_power", || sess.measure_power(cfg));
    let dscale = tr.span("core.report", || {
        algo_report(
            sess.network(),
            lib,
            d_pwr,
            org_pwr,
            area_org,
            d_out.converters,
            0,
            d_sta,
        )
    });
    check_phase(tr, "dscale", &sess, cfg, d_pwr, mismatches);

    // Gscale, with its separator problems captured for the flow replay
    let c0 = *sess.counters();
    tr.span("core.rollback", || sess.rollback(base));
    sess.capture_separators(true);
    let g_out = tr.span("core.gscale", || sess.run_gscale(cfg));
    let problems = sess.take_captured_separators();
    let g_sta = sess.counters().since(&c0);
    tr.span("core.audit", || sess.audit(false))
        .expect("Gscale broke an invariant");
    let g_pwr = tr.span("core.final_power", || sess.measure_power(cfg));
    let gscale = tr.span("core.report", || {
        algo_report(
            sess.network(),
            lib,
            g_pwr,
            org_pwr,
            area_org,
            0,
            g_out.resized.len(),
            g_sta,
        )
    });
    check_phase(tr, "gscale", &sess, cfg, g_pwr, mismatches);

    let numbers = tr.span("core.report", || {
        OpNumbers::new(
            prepared.network.logic_gate_count(),
            tspec,
            org_pwr,
            [&cvs, &dscale, &gscale],
        )
    });
    tr.span("core.session_drop", move || drop(sess));
    let mut c = LayerCounts {
        dscale_iterations: d_out.iterations as u64,
        dscale_converters: d_out.converters as u64,
        gscale_iterations: g_out.iterations as u64,
        gscale_resized: g_out.resized.len() as u64,
        gscale_degenerate: u64::from(
            gscale.power_uw == cvs.power_uw && gscale.low_gates == cvs.low_gates,
        ),
        flows: 1,
        ..LayerCounts::default()
    };
    for sta in [cvs_sta, d_sta, g_sta] {
        c.add(&LayerCounts {
            counters: sta,
            ..LayerCounts::default()
        });
    }
    counts.add(&c);
    TracedFlow {
        numbers,
        reports: [cvs, dscale, gscale],
        problems,
    }
}

/// Replays captured separator problems through `min_vertex_separator`.
fn replay_separators(
    tr: &Tracer,
    op: u32,
    problems: &[SeparatorProblem],
    counts: &mut LayerCounts,
) {
    tr.op_span("bench.replay", op, || {
        for p in problems {
            let found = tr.span("flow.separator", || dvs_flow::min_vertex_separator(p));
            counts.separators += 1;
            counts.separator_nodes += p.n as u64;
            if let Some(r) = found {
                counts.separators_found += 1;
                counts.augmenting_paths += r.paths;
            }
        }
    });
}

/// One op of the traced pass.
pub struct TracedOp {
    /// The numbers, or the panic message.
    pub outcome: Result<OpNumbers, String>,
    /// Output-check mismatches (each fails the op).
    pub mismatches: Vec<String>,
    /// The sweep document row (sweep workloads, on success).
    pub row: Option<ScenarioResult>,
    /// Layer counts of this op.
    pub counts: LayerCounts,
}

/// Runs op `i` step by step under an `op` span. `prepared` holds the
/// traced preparations of the inputs (`optimise_x10`).
pub fn traced_op(
    tr: &Tracer,
    setup: &Setup,
    prepared: &[Prepared],
    w: Workload,
    i: usize,
    rec: Option<&Recorder>,
) -> TracedOp {
    let op = &setup.ops[i];
    let input = &setup.inputs[op.input];
    let mut counts = LayerCounts::default();
    let mut mismatches = Vec::new();
    let mut problems = Vec::new();
    let ran = catch_unwind(AssertUnwindSafe(|| {
        tr.op_span("op", i as u32, || {
            if !w.is_sweep() {
                let lib = setup.lib(input.voltages);
                let cfg = flow_config(w, &op.scenario.variant.config);
                let flow = traced_flow(
                    tr,
                    &prepared[op.input],
                    lib,
                    &cfg,
                    &mut counts,
                    &mut mismatches,
                );
                problems = flow.problems;
                return (flow.numbers, None);
            }
            // run_scenario_obs, step by step
            let wall = Instant::now();
            let cpu = CpuTimer::start();
            let sc = tr.span("sweep.grid", || {
                single_grid(&op.scenario)
                    .expand()
                    .pop()
                    .expect("one scenario")
            });
            let mark = rec.map(|r| tr.span("obs.rollup", || r.mark()));
            let scenario = tr.span("obs.span", || dvs_obs::span_with("scenario", || sc.id()));
            let lib = tr.span("celllib.build", || {
                compass::compass_library(sc.variant.voltages)
            });
            let net = tr.span("synth.generate", || {
                mcnc::generate_scaled(sc.profile, &lib, sc.scale, sc.seed)
            });
            if tr.span("bench.check_input", || fingerprint(&net)) != input.fingerprint {
                mismatches.push("generated circuit differs from the set-up's".to_owned());
            }
            let prepared = traced_prepare(tr, net, &lib, sc.variant.relax, &mut counts);
            let cfg = flow_config(w, &sc.variant.config);
            let flow = traced_flow(tr, &prepared, &lib, &cfg, &mut counts, &mut mismatches);
            tr.span("synth.drop", move || drop(prepared));
            tr.span("celllib.drop", move || drop(lib));
            tr.span("obs.span", move || drop(scenario));
            let obs = match (rec, mark) {
                (Some(r), Some(m)) => tr.span("obs.rollup", || {
                    let obs = r.rollup_since(&m);
                    drop(m);
                    obs
                }),
                _ => Default::default(),
            };
            let [cvs, dscale, gscale] = &flow.reports;
            let row = tr.span("sweep.row", || ScenarioResult {
                id: sc.id(),
                circuit: sc.profile.name.to_owned(),
                scale: sc.scale,
                variant: sc.variant.name.to_owned(),
                seed: sc.seed,
                gates: flow.numbers.gates,
                tspec_ns: flow.numbers.tspec_ns,
                org_pwr_uw: flow.numbers.org_pwr_uw,
                cvs: AlgoSummary::from(cvs),
                dscale: AlgoSummary::from(dscale),
                gscale: AlgoSummary::from(gscale),
                wall_s: wall.elapsed().as_secs_f64(),
                cpu_s: cpu.elapsed().as_secs_f64(),
                obs,
            });
            problems = flow.problems;
            (flow.numbers, Some(row))
        })
    }));
    replay_separators(tr, i as u32, &problems, &mut counts);
    match ran {
        Ok((numbers, row)) => {
            if let Err(e) = numbers.consistency(input.gates) {
                mismatches.push(e);
            }
            TracedOp {
                outcome: Ok(numbers),
                mismatches,
                row,
                counts,
            }
        }
        Err(payload) => TracedOp {
            outcome: Err(panic_message(payload.as_ref())),
            mismatches,
            row: None,
            counts,
        },
    }
}
