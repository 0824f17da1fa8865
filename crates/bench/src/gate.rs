//! The one gate rule of the quick perf-smoke binaries.
//!
//! A timing gate compares two arms of one workload — instrumented against
//! uninstrumented, pipelined against serial, patch against rebuild — and
//! reads the **median** of [`GATE_PAIRS`] pair ratios. Each pair runs both
//! arms back to back, so slow frequency and scheduler drift cancel inside
//! it, and [`alternate`] flips which arm runs first from pair to pair, so
//! neither arm always runs warm or late. A median of seven cannot be moved
//! by one or two hiccuping pairs, where a best-of-N read passes however
//! slow the other pairs are.
//!
//! A gate's threshold is a constant between 0.8× and 1.0× of the median
//! recorded on the 2-vCPU recording host, so a 20 % regression trips it
//! (margin ≤ 1.25). The recorded median is the middle one of three
//! recording runs, and all three must clear the bar; a comparison whose
//! runs cannot all clear a bar at 0.8× is reported, not gated. Functional checks ride along as
//! [`GateMargin::conformance`] margins, and [`verdict`] turns the margins
//! into the exit code: no gate is advisory, retried or host-dependent.

use std::process::ExitCode;

use serde::Serialize;

/// Pairs per timing gate; odd, so the median is one measured pair.
pub const GATE_PAIRS: usize = 7;

/// The middle value of `values` (an odd count, such as [`GATE_PAIRS`]).
pub fn median(values: &[f64]) -> f64 {
    assert!(values.len() % 2 == 1, "a gate median needs an odd count");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[sorted.len() / 2]
}

/// Run both arms of pair number `pair`: `a` first on even pairs, `b`
/// first on odd ones. Returns `(a's result, b's result)` either way.
pub fn alternate<A, B>(pair: usize, a: impl FnOnce() -> A, b: impl FnOnce() -> B) -> (A, B) {
    if pair.is_multiple_of(2) {
        let a = a();
        (a, b())
    } else {
        let b = b();
        (a(), b)
    }
}

/// One gate's measured-vs-threshold outcome, recorded in the `margins`
/// array of every `BENCH_*.json` baseline.
#[derive(Debug, Clone, Serialize)]
pub struct GateMargin {
    /// Which gate (stable identifier, e.g. `"fenwick_patch_speedup"`).
    pub gate: String,
    /// The measured value.
    pub measured: f64,
    /// The pass threshold.
    pub threshold: f64,
    /// Headroom as a ratio: > 1.0 means the gate passed with that much
    /// slack (1.25 = a 20 % regression reaches the bar), 1.0 is exactly
    /// at the bar.
    pub margin: f64,
    /// Whether the measured value clears the threshold.
    pub passed: bool,
}

impl GateMargin {
    /// A gate that passes when `measured >= threshold` (speedups and
    /// throughput ratios). `margin` is `measured / threshold`.
    pub fn at_least(gate: &str, measured: f64, threshold: f64) -> Self {
        Self {
            gate: gate.to_string(),
            measured,
            threshold,
            margin: measured / threshold,
            passed: measured >= threshold,
        }
    }

    /// A functional check: `measured`/`threshold` encode pass as 1.0 vs
    /// 1.0.
    pub fn conformance(gate: &str, passed: bool) -> Self {
        let measured = if passed { 1.0 } else { 0.0 };
        Self {
            gate: gate.to_string(),
            measured,
            threshold: 1.0,
            margin: measured,
            passed,
        }
    }

    /// One human line for the margin block.
    fn describe(&self) -> String {
        format!(
            "  gate {:<34} measured {:>12.4} vs {:>10.4}  margin {:>6.2}x  [{}]",
            self.gate,
            self.measured,
            self.threshold,
            self.margin,
            if self.passed { "pass" } else { "FAIL" },
        )
    }
}

/// End a quick binary: print the margin block, then `report` as pretty
/// JSON when one is given (the `--json 1` document), then `OK` or the
/// failing gates. The exit code is success exactly when every margin
/// passed.
pub fn verdict<R: Serialize>(margins: &[GateMargin], report: Option<&R>) -> ExitCode {
    println!("\ngate margins (measured vs threshold):");
    for margin in margins {
        println!("{}", margin.describe());
    }
    if let Some(report) = report {
        println!(
            "{}",
            serde_json::to_string_pretty(report).expect("report serialisation cannot fail")
        );
    }
    let failed: Vec<&str> = margins
        .iter()
        .filter(|margin| !margin.passed)
        .map(|margin| margin.gate.as_str())
        .collect();
    if failed.is_empty() {
        println!("OK");
        ExitCode::SUCCESS
    } else {
        eprintln!("FAIL: {}", failed.join(", "));
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;

    #[test]
    fn at_least_margins_are_headroom_ratios() {
        let margin = GateMargin::at_least("speedup", 6.0, 5.0);
        assert!(margin.passed);
        assert!((margin.margin - 1.2).abs() < 1e-12);
        let failing = GateMargin::at_least("speedup", 4.0, 5.0);
        assert!(!failing.passed);
        assert!(failing.margin < 1.0);
    }

    #[test]
    fn conformance_is_binary() {
        assert!(GateMargin::conformance("chi2", true).passed);
        let failing = GateMargin::conformance("chi2", false);
        assert!(!failing.passed);
        assert_eq!(failing.margin, 0.0);
    }

    #[test]
    fn median_of_an_odd_count_is_the_middle_value() {
        assert_eq!(median(&[3.0, 0.5, 9.0, 1.0, 2.0, 7.0, 4.0]), 3.0);
        assert_eq!(median(&[1.5]), 1.5);
    }

    #[test]
    fn alternate_flips_the_arm_order_every_pair() {
        let log = RefCell::new(Vec::new());
        for pair in 0..4 {
            let results = alternate(
                pair,
                || {
                    log.borrow_mut().push((pair, 'a'));
                    'a'
                },
                || {
                    log.borrow_mut().push((pair, 'b'));
                    'b'
                },
            );
            assert_eq!(results, ('a', 'b'), "results come back in arm order");
        }
        assert_eq!(
            log.into_inner(),
            [
                (0, 'a'),
                (0, 'b'),
                (1, 'b'),
                (1, 'a'),
                (2, 'a'),
                (2, 'b'),
                (3, 'b'),
                (3, 'a'),
            ]
        );
    }

    #[test]
    fn the_verdict_fails_when_exactly_one_margin_fails() {
        let passing = [
            GateMargin::at_least("speedup", 6.0, 5.0),
            GateMargin::conformance("exporters", true),
            GateMargin::at_least("overhead", 0.99, 0.8),
        ];
        assert_eq!(verdict::<GateMargin>(&passing, None), ExitCode::SUCCESS);
        let mut one_failing = passing.clone();
        one_failing[1] = GateMargin::conformance("exporters", false);
        assert_eq!(
            verdict(&one_failing, Some(&one_failing[0])),
            ExitCode::FAILURE
        );
    }
}
