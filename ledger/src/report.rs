//! What a run reports: named metric values, the op tally behind
//! `attempted` / `failed`, and the result line the driver reads.

use crate::json::escape;
use crate::replay::Csv;
use crate::spec;
use std::path::Path;

/// Ops attempted and failed. An op fails when it exits non-zero, times
/// out, returns an unexpected HTTP status or produces wrong bytes.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Tally {
    /// Count one op; `what` names it if it failed.
    pub fn op(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.failures.push(what());
        }
    }

    /// Count one op whose output `got` must equal `want` byte for byte.
    pub fn same_bytes(&mut self, got: &[u8], want: &[u8], what: impl FnOnce() -> String) {
        self.op(got == want, || {
            format!(
                "{}: {} bytes differ from the expected {}",
                what(),
                got.len(),
                want.len()
            )
        });
    }

    /// Compare `outputs` with the checked-in expectation for
    /// (`workload`, world `seed`), when there is one.
    pub fn against_expected(
        &mut self,
        expected: Option<&Path>,
        workload: &str,
        seed: u64,
        outputs: &[Csv],
    ) {
        let Some(dir) = expected.map(|e| e.join(workload).join(format!("seed{seed}"))) else {
            return;
        };
        if !dir.is_dir() {
            return;
        }
        for csv in outputs {
            let path = dir.join(csv.file);
            match std::fs::read(&path) {
                Ok(want) => self.same_bytes(&csv.bytes, &want, || {
                    format!("{} vs {}", csv.file, path.display())
                }),
                Err(e) => self.op(false, || format!("reading {}: {e}", path.display())),
            }
        }
    }
}

pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    /// How many measurements the value summarizes.
    pub samples: usize,
}

#[derive(Default)]
pub struct Report {
    pub tally: Tally,
    pub metrics: Vec<Metric>,
    /// Human-facing context lines (raw walls, tail percentiles,
    /// dominance ratios); not part of the contract.
    pub notes: Vec<String>,
}

impl Report {
    pub fn metric(&mut self, name: &'static str, value: f64, samples: usize) {
        self.metrics.push(Metric {
            name,
            value,
            samples,
        });
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    pub fn correct(&self) -> bool {
        self.tally.failed == 0
    }

    fn unit_of(name: &str) -> &'static str {
        spec::end_to_end(name)
            .map(|m| m.unit)
            .or_else(|| spec::layer(name).map(|m| m.unit))
            .unwrap_or("?")
    }

    /// The metrics object shared by the result line and the run record.
    fn metrics_json(&self) -> String {
        let fields: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    number(m.value),
                    Self::unit_of(m.name)
                )
            })
            .collect();
        format!("{{{}}}", fields.join(", "))
    }

    /// The last line of standard output: exactly `correct`,
    /// `attempted`, `failed` and `metrics`.
    pub fn result_line(&self) -> String {
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.correct(),
            self.tally.attempted,
            self.tally.failed,
            self.metrics_json()
        )
    }

    /// One line of a run-record file: the result line plus which run
    /// it was, for `ledger compare`.
    pub fn record_line(&self, workload: &str, seed: u64, trace: bool) -> String {
        let result = self.result_line();
        format!(
            "{{\"workload\": \"{}\", \"seed\": {seed}, \"trace\": {trace}, {}",
            escape(workload),
            &result[1..]
        )
    }

    /// Every metric by name, with unit and sample count.
    pub fn print_human(&self) {
        for line in &self.notes {
            println!("# {line}");
        }
        for m in &self.metrics {
            println!(
                "{:<44} {:>16} {:<6} n={}",
                m.name,
                number(m.value),
                Self::unit_of(m.name),
                m.samples
            );
        }
        for f in &self.tally.failures {
            println!("FAILED: {f}");
        }
        println!(
            "fail_ratio {} / {} = {}",
            self.tally.failed,
            self.tally.attempted,
            self.tally.failed as f64 / self.tally.attempted.max(1) as f64
        );
    }
}

/// A JSON number with all the digits measured. Non-finite values have
/// no JSON form; they mean a broken measurement and surface as such.
fn number(x: f64) -> String {
    assert!(x.is_finite(), "metric value {x} is not a number");
    format!("{x}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Value;

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut r = Report::default();
        r.tally.op(true, String::new);
        r.metric(spec::SETUP_S, 0.8127, 1);
        r.metric(spec::UNIT_MS, 1.2034, 3);
        let v = Value::parse(&r.result_line()).unwrap();
        let keys: Vec<_> = v.as_object().unwrap().keys().cloned().collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        assert_eq!(v.get("correct").and_then(Value::as_bool), Some(true));
        assert_eq!(v.get("attempted").and_then(Value::as_f64), Some(1.0));
        let m = v.get("metrics").unwrap().get(spec::UNIT_MS).unwrap();
        assert_eq!(m.get("value").and_then(Value::as_f64), Some(1.2034));
        assert_eq!(m.get("unit").and_then(Value::as_str), Some("ms"));
        let rec = Value::parse(&r.record_line("case-study", 42, false)).unwrap();
        assert_eq!(rec.get("seed").and_then(Value::as_f64), Some(42.0));
    }

    /// Seed 42 of sweep-dispatch is held to the repository's own golden
    /// fixtures; the copies under `expected/` exist because the
    /// benchmark keeps its files in its own directory.
    #[test]
    fn sweep_dispatch_expectations_are_the_repository_goldens() {
        let here = Path::new(env!("CARGO_MANIFEST_DIR"));
        for file in ["fig8a_ases.csv", "fig8b_isps.csv"] {
            let Ok(golden) = std::fs::read(here.join("../tests/fixtures/golden").join(file)) else {
                eprintln!("skipped: no tests/fixtures/golden next to the benchmark");
                return;
            };
            let copy = std::fs::read(here.join("expected/sweep-dispatch/seed42").join(file));
            assert_eq!(copy.unwrap(), golden, "{file}");
        }
    }

    /// Corrupting one expected file must fail the run.
    #[test]
    fn a_corrupted_expected_file_is_a_failed_op() {
        let scratch = crate::proc::Scratch::new().unwrap();
        let root = scratch.fresh("expected").unwrap();
        let dir = root.join("case-study").join("seed42");
        std::fs::create_dir_all(&dir).unwrap();
        let csv = Csv {
            file: "fig3_rounds.csv",
            bytes: b"round,new ISPs\n1,34\n".to_vec(),
        };
        std::fs::write(dir.join(csv.file), &csv.bytes).unwrap();

        let mut clean = Tally::default();
        clean.against_expected(Some(&root), "case-study", 42, std::slice::from_ref(&csv));
        assert_eq!((clean.attempted, clean.failed), (1, 0));
        // No expectation checked in for this seed: nothing to compare.
        clean.against_expected(Some(&root), "case-study", 7, std::slice::from_ref(&csv));
        assert_eq!(clean.attempted, 1);

        std::fs::write(dir.join(csv.file), b"round,new ISPs\n1,35\n").unwrap();
        let mut corrupted = Tally::default();
        corrupted.against_expected(Some(&root), "case-study", 42, std::slice::from_ref(&csv));
        assert_eq!((corrupted.attempted, corrupted.failed), (1, 1));
        std::fs::remove_file(dir.join(csv.file)).unwrap();
        corrupted.against_expected(Some(&root), "case-study", 42, std::slice::from_ref(&csv));
        assert_eq!(corrupted.failed, 2, "a missing expected file fails too");
    }
}
