//! Golden hashes of the classic engine's output.
//!
//! The conformance and differential suites compare the engines with each
//! other; these pins compare the classic engine with itself over time, so
//! a scheduler rewrite (or the deletion of either engine) keeps a
//! reference. Each value is an FNV-1a hash of a `Debug` rendering, so any
//! change to an RNG draw, a batch order, a trace event, a final state, a
//! counter or a measured float moves it.

use ftbarrier_core::sim::{measure_phases, PhaseExperiment, TopologySpec};
use ftbarrier_core::testkit::run_classic;

/// FNV-1a (64-bit): a dependency-free fingerprint for pinned outputs.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn hash_debug(value: &impl std::fmt::Debug) -> u64 {
    fnv1a(format!("{value:?}").as_bytes())
}

/// The nine conformance families, at the sizes `tests/conformance.rs` uses.
const FAMILIES: [TopologySpec; 9] = [
    TopologySpec::Ring { n: 8 },
    TopologySpec::Tree { n: 16, arity: 2 },
    TopologySpec::DoubleTree { n: 8, arity: 2 },
    TopologySpec::MbRing { n: 8 },
    TopologySpec::Dissemination { n: 8, radix: 2 },
    TopologySpec::Dissemination { n: 16, radix: 4 },
    TopologySpec::Dissemination { n: 6, radix: 2 },
    TopologySpec::Hypercube { n: 8 },
    TopologySpec::Butterfly { n: 8 },
];

/// Hashes of `run_classic` (incremental scheduler, detectable-fault rate
/// 0.3) for each family × seeds 1–3: the trace hash, the final-state hash
/// and the run's `[actions_executed, commits_dropped, faults]`.
type Pin = (u64, u64, [u64; 3]);
const PINNED_CLASSIC: [[Pin; 3]; 9] = [
    // ring
    [
        (15868927451912124815, 1778001996080389985, [744, 0, 11]),
        (8872351473147826427, 14498439827790917793, [744, 0, 6]),
        (469705923230897911, 4969894999555823388, [752, 2, 10]),
    ],
    // tree
    [
        (9596055833381312820, 142256154548125034, [1607, 1, 7]),
        (7070935500113104367, 13836399851770953809, [1608, 0, 12]),
        (9008031571963979988, 4911102392460522289, [1608, 0, 14]),
    ],
    // double tree
    [
        (16530514630494211488, 8898938347357242971, [1268, 1, 11]),
        (18329803310593252708, 7678175720583821782, [1256, 1, 12]),
        (17307199866771565229, 11720601925837299079, [1253, 2, 9]),
    ],
    // mb ring
    [
        (9257217972444918098, 13115617752457445201, [1129, 1, 12]),
        (13255180509895369509, 17281376697898903266, [1099, 1, 13]),
        (2242683515924205559, 8699351441002903564, [1091, 1, 13]),
    ],
    // dissemination radix 2
    [
        (8300953625132914557, 3159029807640505898, [2752, 2, 11]),
        (12258776810961497357, 6961951298370682104, [2768, 3, 15]),
        (4258351298562178470, 976594840651066692, [2775, 5, 11]),
    ],
    // dissemination radix 4
    [
        (5771326264318577679, 8729301594287042569, [4298, 4, 10]),
        (2392505360340695877, 10547933137351362802, [4301, 9, 14]),
        (16696230301136330224, 14975570158171125457, [4291, 0, 9]),
    ],
    // dissemination n = 6
    [
        (422996240170620531, 13424625420512728427, [2099, 0, 14]),
        (15822473582762083847, 5207240421086553554, [2123, 13, 21]),
        (3776154906319655961, 17909068991602737150, [2084, 8, 11]),
    ],
    // hypercube
    [
        (11065380034631856042, 8898938347357242971, [1268, 1, 11]),
        (8404194400145536964, 5668531468416166555, [1264, 1, 12]),
        (12356146051653626002, 17602340548914599394, [1253, 2, 9]),
    ],
    // butterfly
    [
        (4138221666836799191, 3159029807640505898, [2753, 2, 11]),
        (11173744017453387108, 6961951298370682104, [2768, 3, 15]),
        (5100624182165058998, 976594840651066692, [2775, 5, 11]),
    ],
];

#[test]
fn classic_runs_match_the_pinned_hashes() {
    let mut got = [[(0, 0, [0; 3]); 3]; 9];
    for (f, &spec) in FAMILIES.iter().enumerate() {
        for seed in 1..=3u64 {
            let (trace, state, stats) = run_classic(spec, seed, 0.3, false);
            assert!(stats[2] > 0, "{} seed {seed}: no fault fired", spec.label());
            got[f][seed as usize - 1] = (hash_debug(&trace), hash_debug(&state), stats);
        }
    }
    assert_eq!(
        got, PINNED_CLASSIC,
        "classic engine left its pinned outputs:\n{got:?}"
    );
}

/// The benchmark's `sim_tree_faults` configuration: a binary tree of
/// 16 384 processes, c = 0.01, f = 0.2, 8 phases per cell.
fn tree_experiment(seed: u64) -> PhaseExperiment {
    PhaseExperiment {
        topology: TopologySpec::Tree {
            n: 16_384,
            arity: 2,
        },
        n_phases: 8,
        c: 0.01,
        f: 0.2,
        seed,
        target_phases: 8,
        work_split: None,
    }
}

/// Hashes of the `PhaseMeasurement` of seeds 1–3.
const PINNED_TREE: [u64; 3] = [499202991231216589, 6453250183125584391, 7751404944128427157];

#[test]
fn tree_measurements_match_the_pinned_hashes() {
    let got: Vec<u64> = (1..=3)
        .map(|seed| {
            let m = measure_phases(&tree_experiment(seed));
            assert_eq!(m.violations, 0, "seed {seed}");
            assert!(m.faults > 0, "seed {seed}: no fault fired");
            hash_debug(&m)
        })
        .collect();
    assert_eq!(
        got, PINNED_TREE,
        "tree measurements left their pinned outputs"
    );
}
