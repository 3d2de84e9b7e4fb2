//! Results as data: the line the driver reads, the `result.json` a full run
//! writes, and `compare`, which judges one result set against another.

use crate::metrics::{self, Better};
use crate::run::RunResult;
use serde::{Deserialize, Serialize};
use serde_json::Value;
use std::fmt::Write as _;

/// Version of the benchmark: results are comparable only within one.
pub const VERSION: &str = env!("CARGO_PKG_VERSION");

/// One metric of one workload, with its spread over the repetitions.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MetricRow {
    pub name: String,
    /// `end_to_end` or `per_layer`.
    pub kind: String,
    pub unit: String,
    /// `lower` or `higher`.
    pub better: String,
    /// The median over the repetitions.
    pub value: f64,
    /// First and third quartile over the repetitions.
    pub q1: f64,
    pub q3: f64,
    pub min: f64,
    pub max: f64,
}

/// Everything one workload reported, untraced and traced passes merged.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkloadRows {
    pub name: String,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<MetricRow>,
    pub notes: Vec<String>,
}

/// One complete set of runs: every workload, both passes, one commit.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ResultSet {
    pub version: String,
    pub commit: String,
    pub seed: u64,
    pub seconds: f64,
    /// `full` or `smoke`.
    pub scale: String,
    /// Worker threads of the block workloads.
    pub threads: u64,
    /// Worker threads of the node workloads.
    pub threads_node: u64,
    pub workloads: Vec<WorkloadRows>,
}

fn object(entries: Vec<(&str, Value)>) -> Value {
    Value::Object(
        entries
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn text(s: &str) -> Value {
    Value::String(s.to_string())
}

fn uint(v: u64) -> Value {
    Value::UInt(v as u128)
}

impl MetricRow {
    /// `(q3 - q1) / value`: the spread between the repetitions' quartiles as
    /// a share of the median.
    pub fn relative_spread(&self) -> f64 {
        if self.value == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.value.abs()
        }
    }
}

impl WorkloadRows {
    /// The rows of one run.
    pub fn from_run(result: &RunResult) -> Self {
        WorkloadRows {
            name: result.workload.to_string(),
            correct: result.correct,
            attempted: result.attempted,
            failed: result.failed,
            metrics: result
                .metrics
                .iter()
                .map(|metric| MetricRow {
                    name: metric.def.name.to_string(),
                    kind: if metric.def.bound.is_some() {
                        "end_to_end"
                    } else {
                        "per_layer"
                    }
                    .to_string(),
                    unit: metric.def.unit.to_string(),
                    better: metric.def.better.as_str().to_string(),
                    value: metric.spread.median,
                    q1: metric.spread.q1,
                    q3: metric.spread.q3,
                    min: metric.spread.min,
                    max: metric.spread.max,
                })
                .collect(),
            notes: result.notes.clone(),
        }
    }

    /// Folds another pass over the same workload into this one.
    pub fn absorb(&mut self, other: WorkloadRows) {
        self.correct &= other.correct;
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.metrics.extend(other.metrics);
        self.notes.extend(other.notes);
    }

    /// `failed / attempted`.
    pub fn failed_share(&self) -> f64 {
        crate::stats::ratio(self.failed as f64, self.attempted as f64)
    }
}

/// The one JSON object the driver reads as the last line of standard output:
/// exactly `correct`, `attempted`, `failed` and `metrics`.
pub fn contract_line(result: &RunResult) -> String {
    let metrics = result
        .metrics
        .iter()
        .map(|metric| {
            (
                metric.def.name.to_string(),
                object(vec![
                    ("value", Value::Float(metric.spread.median)),
                    ("unit", text(metric.def.unit)),
                ]),
            )
        })
        .collect();
    let line = object(vec![
        ("correct", Value::Bool(result.correct)),
        ("attempted", uint(result.attempted)),
        ("failed", uint(result.failed)),
        ("metrics", Value::Object(metrics)),
    ]);
    serde_json::to_string(&line).expect("every metric is finite")
}

impl ResultSet {
    /// One JSON document, one workload per line so diffs stay readable.
    pub fn to_text(&self) -> String {
        let Value::Object(entries) = self.to_value() else {
            unreachable!("a result set serializes as an object");
        };
        let mut out = String::from("{\n");
        for (key, value) in &entries {
            if key == "workloads" {
                continue;
            }
            let value = serde_json::to_string(value).expect("results are finite");
            let _ = writeln!(out, "  \"{key}\": {value},");
        }
        out.push_str("  \"workloads\": [\n");
        for (index, workload) in self.workloads.iter().enumerate() {
            let line = serde_json::to_string(workload).expect("results are finite");
            let comma = if index + 1 < self.workloads.len() {
                ","
            } else {
                ""
            };
            let _ = writeln!(out, "    {line}{comma}");
        }
        out.push_str("  ]\n}\n");
        out
    }

    pub fn from_text(text: &str) -> Result<Self, String> {
        serde_json::from_str(text).map_err(|err| err.to_string())
    }

    /// The human-readable table: every metric by name, with its unit.
    pub fn table(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "benchmark {} @ {} | seed {} | {} s timed per run | {} scale | T={} T_node={}",
            self.version,
            self.commit,
            self.seed,
            self.seconds,
            self.scale,
            self.threads,
            self.threads_node
        );
        for workload in &self.workloads {
            let _ = writeln!(
                out,
                "\n== {} | correct {} | attempted {} | failed {} (failed_share {:.6})",
                workload.name,
                workload.correct,
                workload.attempted,
                workload.failed,
                workload.failed_share()
            );
            for note in &workload.notes {
                let _ = writeln!(out, "   ! {note}");
            }
            for metric in &workload.metrics {
                let _ = writeln!(
                    out,
                    "   {:<42} {:>16.4} {:<6} quartiles [{:.4} .. {:.4}] range [{:.4} .. {:.4}] {}",
                    metric.name,
                    metric.value,
                    metric.unit,
                    metric.q1,
                    metric.q3,
                    metric.min,
                    metric.max,
                    metric.kind
                );
            }
        }
        out
    }
}

/// The verdict on one end-to-end metric of one workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Same,
    Worse,
    /// The spread over the repetitions exceeds the bound: no claim either way.
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judges `candidate` against `base` for a metric with regression `bound`.
pub fn verdict(base: &MetricRow, candidate: &MetricRow, better: Better, bound: f64) -> Verdict {
    if base.relative_spread().max(candidate.relative_spread()) > bound {
        return Verdict::Unresolved;
    }
    let change = crate::stats::ratio(candidate.value - base.value, base.value.abs());
    let worsening = match better {
        Better::Lower => change,
        Better::Higher => -change,
    };
    if worsening > bound {
        Verdict::Worse
    } else if worsening < -bound {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

/// What `compare` found.
#[derive(Debug, Clone, PartialEq)]
pub struct Comparison {
    /// The printed report.
    pub report: String,
    pub worse: usize,
    pub unresolved: usize,
    /// Workloads whose failed share rose.
    pub more_failures: usize,
}

impl Comparison {
    /// No metric got worse and no workload fails more.
    pub fn passed(&self) -> bool {
        self.worse == 0 && self.more_failures == 0
    }
}

/// Compares `candidate` (B) against `base` (A). Refuses result sets that were
/// not taken under the same conditions.
pub fn compare(base: &ResultSet, candidate: &ResultSet) -> Result<Comparison, String> {
    let conditions = |set: &ResultSet| {
        format!(
            "version {} seed {} seconds {} scale {} T={} T_node={}",
            set.version, set.seed, set.seconds, set.scale, set.threads, set.threads_node
        )
    };
    if conditions(base) != conditions(candidate) {
        return Err(format!(
            "not comparable:\n  A: {}\n  B: {}",
            conditions(base),
            conditions(candidate)
        ));
    }
    let mut comparison = Comparison {
        report: format!(
            "A = {} (base of every ratio), B = {} | {}\n",
            base.commit,
            candidate.commit,
            conditions(base)
        ),
        worse: 0,
        unresolved: 0,
        more_failures: 0,
    };
    let out = &mut comparison.report;
    for a in &base.workloads {
        let Some(b) = candidate.workloads.iter().find(|b| b.name == a.name) else {
            return Err(format!("workload {} is missing from B", a.name));
        };
        let _ = writeln!(
            out,
            "\n== {} | failed_share A {:.6} B {:.6}",
            a.name,
            a.failed_share(),
            b.failed_share()
        );
        if b.failed_share() > a.failed_share() {
            comparison.more_failures += 1;
            let _ = writeln!(out, "   ! B fails more than A");
        }
        for row_a in &a.metrics {
            let Some(row_b) = b.metrics.iter().find(|row| row.name == row_a.name) else {
                return Err(format!(
                    "{}: metric {} is missing from B",
                    a.name, row_a.name
                ));
            };
            let ratio = crate::stats::ratio(row_b.value, row_a.value);
            let spread = 100.0 * row_a.relative_spread().max(row_b.relative_spread());
            let judged = metrics::end_to_end(&row_a.name).and_then(|def| Some((def, def.bound?)));
            let verdict = match judged {
                Some((def, bound)) => {
                    let verdict = verdict(row_a, row_b, def.better, bound);
                    match verdict {
                        Verdict::Worse => comparison.worse += 1,
                        Verdict::Unresolved => comparison.unresolved += 1,
                        Verdict::Better | Verdict::Same => {}
                    }
                    format!("{} (bound {:.0}%)", verdict.as_str(), 100.0 * bound)
                }
                None => "-".to_string(),
            };
            let _ = writeln!(
                out,
                "   {:<42} A {:>14.4} B {:>14.4} {:<6} B/A {:>7.4} spread {:>6.2}% {}",
                row_a.name, row_a.value, row_b.value, row_a.unit, ratio, spread, verdict
            );
        }
    }
    let _ = writeln!(
        out,
        "\n{} worse, {} unresolved, {} workloads failing more",
        comparison.worse, comparison.unresolved, comparison.more_failures
    );
    Ok(comparison)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(name: &str, value: f64, min: f64, max: f64) -> MetricRow {
        let def = metrics::end_to_end(name);
        MetricRow {
            name: name.to_string(),
            kind: if def.is_some() {
                "end_to_end"
            } else {
                "per_layer"
            }
            .to_string(),
            unit: def.map_or("ns", |def| def.unit).to_string(),
            better: def.map_or("lower", |def| def.better.as_str()).to_string(),
            value,
            q1: min,
            q3: max,
            min,
            max,
        }
    }

    fn set(commit: &str, tps: MetricRow, failed: u64) -> ResultSet {
        ResultSet {
            version: VERSION.to_string(),
            commit: commit.to_string(),
            seed: 1,
            seconds: 10.0,
            scale: "full".to_string(),
            threads: 2,
            threads_node: 1,
            workloads: vec![WorkloadRows {
                name: "p2p-lowconf".to_string(),
                correct: failed == 0,
                attempted: 12_000,
                failed,
                metrics: vec![tps, row("scheduler.task_ns_solo", 41.5, 41.5, 41.5)],
                notes: vec!["rep 0: a \"quoted\" note".to_string()],
            }],
        }
    }

    #[test]
    fn result_json_round_trips() {
        let original = set(
            "abc1234",
            row("committed_tps", 7424.197091645032, 7301.5, 7498.25),
            0,
        );
        let parsed = ResultSet::from_text(&original.to_text()).unwrap();
        assert_eq!(parsed, original);
        // Whole floats survive as floats, not as integers.
        let whole = set("abc1234", row("committed_tps", 7000.0, 7000.0, 7000.0), 3);
        assert_eq!(ResultSet::from_text(&whole.to_text()).unwrap(), whole);
        assert!(ResultSet::from_text("{\"version\": 1}").is_err());
    }

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        let tps = |value: f64, spread: f64| {
            row(
                "committed_tps",
                value,
                value * (1.0 - spread / 2.0),
                value * (1.0 + spread / 2.0),
            )
        };
        let v = |a: &MetricRow, b: &MetricRow| verdict(a, b, Better::Higher, 0.10);
        assert_eq!(v(&tps(1000.0, 0.02), &tps(1050.0, 0.02)), Verdict::Same);
        assert_eq!(v(&tps(1000.0, 0.02), &tps(1200.0, 0.02)), Verdict::Better);
        assert_eq!(v(&tps(1000.0, 0.02), &tps(850.0, 0.02)), Verdict::Worse);
        assert_eq!(
            v(&tps(1000.0, 0.02), &tps(850.0, 0.30)),
            Verdict::Unresolved,
            "a spread wider than the bound resolves nothing"
        );
        // Lower-is-better flips the direction.
        let ms = |value: f64| row("commit_latency_ms_p50", value, value, value);
        assert_eq!(
            verdict(&ms(10.0), &ms(12.0), Better::Lower, 0.10),
            Verdict::Worse
        );
        assert_eq!(
            verdict(&ms(10.0), &ms(8.0), Better::Lower, 0.10),
            Verdict::Better
        );
    }

    #[test]
    fn compare_fails_on_worse_or_more_failures_and_refuses_mismatched_conditions() {
        let base = set("aaa", row("committed_tps", 1000.0, 990.0, 1010.0), 0);
        let same = compare(
            &base,
            &set("bbb", row("committed_tps", 1040.0, 1030.0, 1050.0), 0),
        )
        .unwrap();
        assert!(same.passed());
        assert!(same.report.contains("B/A"), "ratios name their base");
        assert!(same.report.contains("base of every ratio"));

        let slower = compare(
            &base,
            &set("bbb", row("committed_tps", 800.0, 790.0, 810.0), 0),
        )
        .unwrap();
        assert_eq!((slower.worse, slower.passed()), (1, false));

        let failing = compare(
            &base,
            &set("bbb", row("committed_tps", 1000.0, 990.0, 1010.0), 5),
        )
        .unwrap();
        assert_eq!((failing.more_failures, failing.passed()), (1, false));

        let noisy = compare(
            &base,
            &set("bbb", row("committed_tps", 800.0, 600.0, 1000.0), 0),
        )
        .unwrap();
        assert_eq!((noisy.unresolved, noisy.worse), (1, 0));

        let mut other_seed = base.clone();
        other_seed.seed = 2;
        assert!(compare(&base, &other_seed)
            .unwrap_err()
            .contains("not comparable"));
    }
}
