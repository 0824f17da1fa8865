//! Integration test: the paper's Table I and Table II are reproduced in
//! shape by the experiment harness (lower trial counts than the binaries, so
//! the suite stays fast, but every qualitative claim of the tables is
//! checked).

use lrb_bench::run_probability_experiment;
use lrb_core::analysis::independent_roulette_probabilities;
use lrb_core::parallel::{
    IndependentRouletteSelector, LogBiddingSelector, ParallelLogBiddingSelector,
};
use lrb_core::{Fitness, Selector};

fn selectors() -> Vec<Box<dyn Selector>> {
    vec![
        Box::new(IndependentRouletteSelector),
        Box::new(LogBiddingSelector::default()),
        Box::new(ParallelLogBiddingSelector),
    ]
}

#[test]
fn table1_logarithmic_matches_exact_and_independent_does_not() {
    let fitness = Fitness::table1();
    let report = run_probability_experiment("Table I", &fitness, &selectors(), 120_000, 42);

    let independent = &report.columns[0];
    let log_sequential = &report.columns[1];
    let log_rayon = &report.columns[2];

    // The logarithmic bidding columns agree with F_i (chi-square does not
    // reject, max deviation small)…
    for column in [log_sequential, log_rayon] {
        assert!(column.exact);
        assert!(
            column.max_abs_deviation < 0.006,
            "{}: {}",
            column.name,
            column.max_abs_deviation
        );
        assert!(
            column.p_value > 0.001,
            "{}: p = {}",
            column.name,
            column.p_value
        );
    }
    // …while the independent roulette is rejected decisively and shows the
    // paper's qualitative pattern: small indices starved, index 9 inflated
    // from 0.2 to ≈ 0.39.
    assert!(independent.p_value < 1e-12);
    assert!(independent.frequencies[1] < 1e-4);
    assert!(independent.frequencies[2] < 1e-3);
    assert!(independent.frequencies[9] > 0.35 && independent.frequencies[9] < 0.45);
    // Index 0 has zero fitness: nobody may ever select it.
    for column in &report.columns {
        assert_eq!(column.frequencies[0], 0.0, "{}", column.name);
    }
}

#[test]
fn table1_empirical_independent_column_matches_the_closed_form() {
    let fitness = Fitness::table1();
    let analytic = independent_roulette_probabilities(&fitness);
    let report = run_probability_experiment(
        "Table I",
        &fitness,
        &[Box::new(IndependentRouletteSelector) as Box<dyn Selector>],
        150_000,
        7,
    );
    let empirical = &report.columns[0].frequencies;
    for i in 0..fitness.len() {
        assert!(
            (empirical[i] - analytic[i]).abs() < 0.005,
            "index {i}: empirical {} vs analytic {}",
            empirical[i],
            analytic[i]
        );
    }
    // And the specific values the paper prints for the independent column.
    assert!((analytic[5] - 0.038787).abs() < 5e-4);
    assert!((analytic[9] - 0.393536).abs() < 5e-4);
}

#[test]
fn table2_index_zero_is_selected_by_log_bidding_but_never_by_independent() {
    let fitness = Fitness::table2();
    let report = run_probability_experiment("Table II", &fitness, &selectors(), 80_000, 11);

    let independent = &report.columns[0];
    let log_sequential = &report.columns[1];

    // Exact probability of processor 0 is 1/199 ≈ 0.005025 (as in the paper).
    assert!((report.exact[0] - 0.005025).abs() < 1e-5);
    // The logarithmic bidding reproduces it within Monte-Carlo noise.
    assert!((log_sequential.frequencies[0] - 0.005025).abs() < 0.002);
    // The independent roulette never selects it (analytic ≈ 1.58e-32).
    assert_eq!(independent.frequencies[0], 0.0);
    assert!(report.independent_analytic[0] < 1e-30);
    // The remaining indices are fine for both (all equal fitness 2).
    assert!((log_sequential.frequencies[5] - 0.010050).abs() < 0.002);
    assert!((independent.frequencies[5] - 0.010101).abs() < 0.002);
}

#[test]
fn reports_render_and_serialise() {
    let fitness = Fitness::table2();
    let report = run_probability_experiment("Table II", &fitness, &selectors(), 2_000, 3);
    let text = report.render(10);
    assert!(text.contains("Table II"));
    let json = report.to_json();
    assert!(json.contains("\"workload\""));
    assert!(json.contains("independent-roulette-sequential"));
}
