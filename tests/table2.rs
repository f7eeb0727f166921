//! Integration test: the full pipeline reproduces Table II of the paper.
//!
//! For every one of the 15 software pairs, `octopocs::verify` must produce
//! the classification the paper reports: six Type-I, three Type-II, five
//! Type-III, one Failure — with `poc'` generated exactly for the nine
//! triggered rows, and every generated `poc'` actually crashing `T` inside
//! the shared code with the row's vulnerability class.

use octo_corpus::{all_pairs, Expected};
use octopocs::{verify, PipelineConfig, SoftwarePairInput};

fn verify_pair(pair: &octo_corpus::SoftwarePair) -> octopocs::VerificationReport {
    let input = SoftwarePairInput {
        s: &pair.s,
        t: &pair.t,
        poc: &pair.poc,
        shared: &pair.shared,
    };
    verify(&input, &PipelineConfig::default())
}

#[test]
fn table2_every_row_matches_the_paper() {
    for pair in all_pairs() {
        let t0 = std::time::Instant::now();
        let report = verify_pair(&pair);
        eprintln!(
            "Idx-{:<2} {:<24} -> {:<8} ({:.2}s)",
            pair.idx,
            pair.t_name,
            report.verdict.type_label(),
            t0.elapsed().as_secs_f64()
        );
        assert_eq!(
            report.verdict.type_label(),
            pair.expected.label(),
            "Idx-{} ({} → {}): expected {}, got {} [{:?}]",
            pair.idx,
            pair.s_name,
            pair.t_name,
            pair.expected.label(),
            report.verdict.type_label(),
            report.verdict,
        );
        assert_eq!(
            report.verdict.poc_generated(),
            pair.expected.poc_generated(),
            "Idx-{}: poc' column mismatch",
            pair.idx
        );
        assert_eq!(
            report.verdict.verified(),
            pair.expected.verified(),
            "Idx-{}: verification column mismatch",
            pair.idx
        );
    }
}

#[test]
fn generated_pocs_crash_t_inside_shared_code() {
    for pair in all_pairs() {
        if !pair.expected.poc_generated() {
            continue;
        }
        let report = verify_pair(&pair);
        let poc_prime = report
            .poc_prime()
            .unwrap_or_else(|| panic!("Idx-{}: no poc' produced", pair.idx));
        let mut vm = octo_vm::Vm::new(&pair.t, poc_prime.bytes());
        let out = vm.run();
        let crash = out
            .crash()
            .unwrap_or_else(|| panic!("Idx-{}: poc' does not crash T", pair.idx));
        let shared = pair.t.resolve_names(pair.shared.iter().map(String::as_str));
        assert!(
            crash.backtrace.any_in(&shared),
            "Idx-{}: poc' crash outside ℓ: {crash}",
            pair.idx
        );
        // The crash class matches the propagated vulnerability's class.
        match pair.cwe {
            "CWE-119" | "CWE-190" | "CWE-835" => {
                assert_eq!(crash.kind.class(), pair.cwe, "Idx-{}", pair.idx)
            }
            _ => {}
        }
    }
}

#[test]
fn original_poc_fails_on_type_ii_targets() {
    // The motivation of the paper: for Type-II rows the *original* PoC
    // does not trigger the propagated vulnerability in T (e.g. mutool
    // "can receive only a PDF file as input").
    for pair in all_pairs() {
        if pair.expected != Expected::TypeII {
            continue;
        }
        let out = octo_vm::Vm::new(&pair.t, pair.poc.bytes()).run();
        let shared = pair.t.resolve_names(pair.shared.iter().map(String::as_str));
        let crashed_in_shared = out
            .crash()
            .map(|c| c.backtrace.any_in(&shared))
            .unwrap_or(false);
        assert!(
            !crashed_in_shared,
            "Idx-{}: original poc should NOT crash T, got {out:?}",
            pair.idx
        );
    }
}

#[test]
fn original_poc_already_works_on_type_i_targets() {
    // Conversely, Type-I means the original guiding input fits T: the
    // original PoC itself triggers the propagated vulnerability.
    for pair in all_pairs() {
        if pair.expected != Expected::TypeI {
            continue;
        }
        let out = octo_vm::Vm::new(&pair.t, pair.poc.bytes()).run();
        let shared = pair.t.resolve_names(pair.shared.iter().map(String::as_str));
        let crashed_in_shared = out
            .crash()
            .map(|c| c.backtrace.any_in(&shared))
            .unwrap_or(false);
        assert!(
            crashed_in_shared,
            "Idx-{}: original poc should crash the Type-I target, got {out:?}",
            pair.idx
        );
    }
}

#[test]
fn reformed_poc_bytes_match_the_golden_file() {
    // The verdict goldens pin labels only; this pins every generated
    // `poc'` byte, so a solver change that picks a different model for
    // any triggered row shows up here.
    let golden = include_str!("golden/poc_prime.txt");
    let mut lines = String::new();
    for pair in all_pairs() {
        if let Some(poc_prime) = verify_pair(&pair).poc_prime() {
            let hex: String = poc_prime
                .bytes()
                .iter()
                .map(|b| format!("{b:02x}"))
                .collect();
            lines.push_str(&format!("idx{:02} {hex}\n", pair.idx));
        }
    }
    assert_eq!(lines, golden, "reformed PoC bytes drifted from the golden");
}
