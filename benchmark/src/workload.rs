//! The named workloads: which operations each one runs, and the set-up
//! that makes their inputs from the workload seed.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

use dvs_celllib::{compass, Library, VoltagePair};
use dvs_netlist::Network;
use dvs_sweep::{ConfigVariant, Grid, Scenario};
use dvs_synth::mcnc::{self, Profile, PROFILES};
use dvs_synth::{prepare, Prepared};

/// A named workload. All are closed loops: a worker starts its next op
/// only when its last one has finished.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The 39 paper profiles at ×10, prepared during set-up with two
    /// libraries; each op is one `run_circuit` call under one of four
    /// configs.
    OptimiseX10,
    /// The 39 profiles × all six variants at ×1; each op is a sweep
    /// scenario on one of two workers, then the sweep document.
    VariantsX1,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` declares them.
    pub const ALL: [Workload; 2] = [Self::OptimiseX10, Self::VariantsX1];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Self::OptimiseX10 => "optimise_x10",
            Self::VariantsX1 => "variants_x1",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Closed-loop workers (concurrent ops).
    pub fn workers(self) -> usize {
        match self {
            Self::VariantsX1 => 2,
            _ => 1,
        }
    }

    /// Intra-circuit threads handed to the flow (`--circuit-jobs`).
    pub fn circuit_jobs(self) -> usize {
        match self {
            Self::OptimiseX10 => 2,
            _ => 1,
        }
    }

    /// `true` when each op is a whole sweep scenario, followed at the end
    /// by the sweep document (rather than a bare `run_circuit` call).
    pub fn is_sweep(self) -> bool {
        !matches!(self, Self::OptimiseX10)
    }

    /// Structural scale factor of the generated circuits.
    pub fn scale(self) -> usize {
        match self {
            Self::OptimiseX10 => 10,
            Self::VariantsX1 => 1,
        }
    }

    fn variants(self) -> Vec<ConfigVariant> {
        let named = |n: &str| ConfigVariant::named(n).expect("built-in variant");
        match self {
            Self::OptimiseX10 => ["paper", "lean-area", "wide-area", "deep-low-vdd"]
                .into_iter()
                .map(named)
                .collect(),
            Self::VariantsX1 => ConfigVariant::all(),
        }
    }
}

/// One generated circuit: a profile under one library (and, for
/// `optimise_x10`, prepared with one clock relaxation).
#[derive(Debug, Clone)]
pub struct Input {
    /// The synthesis profile.
    pub profile: &'static Profile,
    /// Supply pair of the library it was generated against.
    pub voltages: VoltagePair,
    /// Clock relaxation of its preparation (`optimise_x10` only; the
    /// sweep workloads prepare inside each op).
    pub relax: Option<f64>,
    /// [`fingerprint`] of the generated (unprepared) network.
    pub fingerprint: u64,
    /// Logic gates.
    pub gates: usize,
    /// The prepared circuit, when `relax` is set.
    pub prepared: Option<Prepared>,
}

/// One operation: a scenario and the index of its input.
#[derive(Debug, Clone)]
pub struct Op {
    /// Profile, scale, variant and seed.
    pub scenario: Scenario,
    /// Index into [`Setup::inputs`].
    pub input: usize,
}

impl Op {
    /// The op id, e.g. `alu2.x10/deep-low-vdd/s0`.
    pub fn id(&self) -> String {
        self.scenario.id()
    }
}

/// Everything a workload needs before its first op.
pub struct Setup {
    /// One library per distinct supply pair.
    pub libs: Vec<(VoltagePair, Library)>,
    /// The generated circuits.
    pub inputs: Vec<Input>,
    /// The ops, in grid order.
    pub ops: Vec<Op>,
}

impl Setup {
    /// The library built for `voltages`.
    pub fn lib(&self, voltages: VoltagePair) -> &Library {
        &self
            .libs
            .iter()
            .find(|(v, _)| *v == voltages)
            .expect("a library per supply pair")
            .1
    }
}

/// The single-cell grid that runs exactly `sc`.
pub(crate) fn single_grid(sc: &Scenario) -> Grid {
    Grid {
        profiles: vec![sc.profile],
        scales: vec![sc.scale],
        variants: vec![sc.variant.clone()],
        seeds: vec![sc.seed],
    }
}

/// What identifies an input: profile, supply pair and, when it is
/// prepared during set-up, relaxation.
pub type InputKey = (&'static Profile, VoltagePair, Option<f64>);

/// The workload's ops for `seed` and the keys of the inputs they share.
pub fn plan(w: Workload, seed: u64) -> (Vec<Op>, Vec<InputKey>) {
    let grid = Grid {
        profiles: PROFILES.iter().collect(),
        scales: vec![w.scale()],
        variants: w.variants(),
        seeds: vec![seed],
    };
    let mut keys: Vec<InputKey> = Vec::new();
    let ops = grid
        .expand()
        .into_iter()
        .map(|sc| {
            let relax = (!w.is_sweep()).then_some(sc.variant.relax);
            let key = (sc.profile, sc.variant.voltages, relax);
            let input = keys.iter().position(|k| *k == key).unwrap_or_else(|| {
                keys.push(key);
                keys.len() - 1
            });
            Op {
                scenario: sc,
                input,
            }
        })
        .collect();
    (ops, keys)
}

/// Builds the workload's inputs from `seed`, on two threads: the libraries,
/// every generated circuit (the seed is the generator salt) and, for
/// `optimise_x10`, its preparation.
pub fn setup(w: Workload, seed: u64) -> Setup {
    setup_only(w, seed, |_| true)
}

/// [`setup`] restricted to the ops `keep` accepts (and their inputs).
pub fn setup_only(w: Workload, seed: u64, keep: impl Fn(&Op) -> bool) -> Setup {
    let (mut ops, all_keys) = plan(w, seed);
    ops.retain(keep);
    let mut keys = Vec::new();
    for op in &mut ops {
        let key = all_keys[op.input];
        op.input = keys.iter().position(|k| *k == key).unwrap_or_else(|| {
            keys.push(key);
            keys.len() - 1
        });
    }
    let mut libs: Vec<(VoltagePair, Library)> = Vec::new();
    for &(_, v, _) in &keys {
        if !libs.iter().any(|(lv, _)| *lv == v) {
            libs.push((v, compass::compass_library(v)));
        }
    }
    let scale = w.scale();
    let setup = Setup {
        libs,
        inputs: Vec::new(),
        ops,
    };
    let inputs = dvs_pool::run_indexed(&keys, 2, |_, &(profile, voltages, relax)| {
        let lib = setup.lib(voltages);
        let net = mcnc::generate_scaled(profile, lib, scale, seed);
        Input {
            profile,
            voltages,
            relax,
            fingerprint: fingerprint(&net),
            gates: net.logic_gate_count(),
            prepared: relax.map(|r| prepare(net, lib, r)),
        }
    });
    Setup { inputs, ..setup }
}

/// A structural hash of a network: names, cells, sizes, rails, fanins and
/// outputs. Equal networks hash equal within one build of the benchmark.
pub fn fingerprint(net: &Network) -> u64 {
    let mut h = DefaultHasher::new();
    net.name().hash(&mut h);
    for id in net.node_ids() {
        let node = net.node(id);
        node.name().hash(&mut h);
        node.is_gate().hash(&mut h);
        if node.is_gate() {
            node.cell().hash(&mut h);
            node.size().hash(&mut h);
            node.rail().hash(&mut h);
            node.fanins().hash(&mut h);
        }
    }
    net.primary_outputs().hash(&mut h);
    h.finish()
}
