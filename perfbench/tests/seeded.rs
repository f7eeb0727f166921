//! Seeded generation: the same seed gives byte-identical inputs, the seeds
//! the benchmark is run with keep every known answer, and a run records
//! its seed.

use octo_clone::CloneParams;
use octo_corpus::all_pairs;
use octo_ir::printer::print_program;
use octopocs::{expand_scan, verify, PipelineConfig, ScanTarget, SoftwarePairInput};
use perfbench::gen::{scan_inputs, table2_cases, Case};
use perfbench::stats::{median, percentile};

/// Seeds the known-answer tests cover.
const SEEDS: std::ops::RangeInclusive<u64> = 1..=10;

fn printed(cases: &[Case]) -> Vec<String> {
    cases
        .iter()
        .map(|c| format!("{}\n{}", c.job.name, print_program(&c.job.t)))
        .collect()
}

fn verdict(case: &Case) -> &'static str {
    let input = SoftwarePairInput {
        s: &case.job.s,
        t: &case.job.t,
        poc: &case.job.poc,
        shared: &case.job.shared,
    };
    verify(&input, &PipelineConfig::default())
        .verdict
        .type_label()
}

fn fleet(seed: u64) -> Vec<String> {
    scan_inputs(seed)
        .1
        .iter()
        .map(|f| format!("{}\n{}", f.target.name, print_program(&f.target.t)))
        .collect()
}

#[test]
fn same_seed_gives_byte_identical_inputs() {
    for seed in [1, 7, 1 << 40] {
        assert_eq!(printed(&table2_cases(seed)), printed(&table2_cases(seed)));
        assert_eq!(fleet(seed), fleet(seed));
    }
}

#[test]
fn different_seeds_give_different_inputs() {
    assert_ne!(printed(&table2_cases(1)), printed(&table2_cases(2)));
    assert_ne!(fleet(1), fleet(2));
}

#[test]
fn table2_seeds_keep_every_known_answer() {
    for seed in SEEDS {
        for case in table2_cases(seed) {
            assert_eq!(
                verdict(&case),
                case.expected.label(),
                "seed {seed}: {}",
                case.job.name
            );
        }
    }
}

#[test]
fn scan_seeds_retrieve_every_positive_and_no_decoy() {
    let pairs = all_pairs();
    for seed in SEEDS {
        let (sources, fleet) = scan_inputs(seed);
        assert_eq!(fleet.len(), 90);
        let targets: Vec<ScanTarget> = fleet.iter().map(|f| f.target.clone()).collect();
        let expansion = expand_scan(&sources, &targets, &CloneParams::default());
        for (f, pair) in fleet.iter().zip(pairs.iter().flat_map(|p| [p; 6])) {
            let name = format!("idx{:02} => {}", pair.idx, f.target.name);
            let job = expansion.jobs.iter().find(|j| j.name == name);
            if f.positive {
                let job = job.unwrap_or_else(|| panic!("seed {seed}: {name} not retrieved"));
                assert!(pair.shared.iter().all(|s| job.shared.contains(s)), "{name}");
            } else {
                let suffix = format!(" => {}", f.target.name);
                assert!(
                    !expansion.jobs.iter().any(|j| j.name.ends_with(&suffix)),
                    "seed {seed}: decoy {} expanded",
                    f.target.name
                );
            }
        }
    }
}

#[test]
fn percentiles_come_from_raw_samples() {
    let samples = [5.0, 1.0, 3.0, 2.0, 4.0];
    assert_eq!(percentile(&samples, 0.5), 3.0);
    assert_eq!(percentile(&samples, 0.99), 5.0);
    assert_eq!(percentile(&samples, 0.0), 1.0);
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    // Every percentile is one of the observed values.
    let many: Vec<f64> = (1..=1000).map(f64::from).collect();
    assert_eq!(percentile(&many, 0.99), 990.0);
}

#[test]
fn a_run_records_its_seed_and_ends_with_the_result_line() {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", "table2", "--seed", "7", "--seconds", "1"])
        .args(["--trace", "0", "--daemon", "octopocsd-is-unused-here"])
        .output()
        .expect("run perfbench");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(stdout.contains("seed 7"), "{stdout}");
    let last = stdout.lines().last().expect("a result line");
    let doc = octo_serve::json::parse_json(last).expect("result line is JSON");
    let keys: Vec<&str> = doc
        .as_object()
        .expect("an object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(doc.get("correct").and_then(|v| v.as_bool()), Some(true));
    assert!(doc.get("metrics").and_then(|m| m.get("setup_s")).is_some());
}

#[test]
fn a_bad_flag_is_refused_without_a_result_line() {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", "table2", "--seed", "x"])
        .output()
        .expect("run perfbench");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
}
