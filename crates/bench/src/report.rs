//! Output helpers: aligned comparison tables + JSON result files, plus the
//! per-cell outcome bookkeeping that keeps a sweep alive when individual
//! runs diverge.

use e2gcl::pipeline::{GraphClassificationRun, NodeClassificationRun};
use serde::de::DeserializeOwned;
use serde::Serialize;
use std::path::Path;

/// One measured cell next to its paper reference.
#[derive(Clone, Debug, Serialize)]
pub struct Cell {
    /// Our measured mean (%) or value.
    pub measured: f32,
    /// Our measured std, if applicable.
    pub std: Option<f32>,
    /// The paper's reported value, if applicable.
    pub paper: Option<f32>,
    /// True when every run of the cell failed; renders as `FAILED`.
    #[serde(default, skip_serializing_if = "std::ops::Not::not")]
    pub failed: bool,
}

impl Cell {
    /// A measured-only cell.
    pub fn measured(measured: f32) -> Cell {
        Cell {
            measured,
            std: None,
            paper: None,
            failed: false,
        }
    }

    /// Measured ± std against a paper value.
    pub fn vs(measured: f32, std: f32, paper: f32) -> Cell {
        Cell {
            measured,
            std: Some(std),
            paper: Some(paper),
            failed: false,
        }
    }

    /// A cell whose every run failed.
    pub fn failed() -> Cell {
        Cell {
            measured: f32::NAN,
            std: None,
            paper: None,
            failed: true,
        }
    }

    fn render(&self) -> String {
        if self.failed {
            return "FAILED".to_string();
        }
        let mut s = match self.std {
            Some(std) => format!("{:5.2}±{:4.2}", self.measured, std),
            None => format!("{:8.2}", self.measured),
        };
        if let Some(p) = self.paper {
            s.push_str(&format!(" ({p:5.2})"));
        }
        s
    }
}

/// Outcome of one sweep cell (one model on one dataset).
#[derive(Clone, Debug, Serialize)]
pub enum CellOutcome {
    /// Every run finished.
    Ok,
    /// Some runs diverged (and were recorded, not retried into success);
    /// the cell's aggregate covers the surviving runs.
    Diverged {
        /// How many runs failed.
        failed_runs: usize,
    },
    /// No run survived, or the cell never produced a result.
    Failed(String),
}

/// Classifies a node-classification sweep cell.
pub fn outcome_of(run: &NodeClassificationRun) -> CellOutcome {
    outcome_from_counts(run.accuracies.len(), &run.failed_runs)
}

/// Classifies a graph-classification sweep cell.
pub fn graph_outcome_of(run: &GraphClassificationRun) -> CellOutcome {
    outcome_from_counts(run.accuracies.len(), &run.failed_runs)
}

fn outcome_from_counts(ok_runs: usize, failed: &[(u64, e2gcl::TrainError)]) -> CellOutcome {
    if failed.is_empty() {
        CellOutcome::Ok
    } else if ok_runs == 0 {
        let (seed, err) = &failed[0];
        CellOutcome::Failed(format!("all runs failed; first (seed {seed}): {err}"))
    } else {
        CellOutcome::Diverged {
            failed_runs: failed.len(),
        }
    }
}

/// Collects per-cell outcomes across a sweep so the binaries can finish the
/// whole grid and report problems at the end instead of aborting.
#[derive(Clone, Debug, Default, Serialize)]
pub struct SweepSummary {
    cells: Vec<(String, CellOutcome)>,
}

impl SweepSummary {
    /// An empty summary.
    pub fn new() -> SweepSummary {
        SweepSummary::default()
    }

    /// Records the outcome of one cell, e.g. `record("GRACE/cora-sim", ...)`.
    pub fn record(&mut self, label: impl Into<String>, outcome: CellOutcome) {
        self.cells.push((label.into(), outcome));
    }

    /// True if any cell diverged or failed.
    pub fn has_problems(&self) -> bool {
        self.cells
            .iter()
            .any(|(_, o)| !matches!(o, CellOutcome::Ok))
    }

    /// Prints the failure summary (or a clean bill of health).
    pub fn print(&self) {
        let problems: Vec<_> = self
            .cells
            .iter()
            .filter(|(_, o)| !matches!(o, CellOutcome::Ok))
            .collect();
        if problems.is_empty() {
            println!(
                "[all {} cells completed without numeric failures]",
                self.cells.len()
            );
            return;
        }
        println!(
            "
=== failure summary ({} of {} cells affected) ===",
            problems.len(),
            self.cells.len()
        );
        for (label, outcome) in problems {
            match outcome {
                CellOutcome::Diverged { failed_runs } => {
                    println!("  {label}: {failed_runs} run(s) diverged; aggregate uses the rest")
                }
                CellOutcome::Failed(reason) => println!("  {label}: FAILED — {reason}"),
                CellOutcome::Ok => unreachable!(),
            }
        }
    }
}

/// Prints an aligned table: one row per model, one column per dataset.
/// Paper values appear in parentheses.
pub fn print_table(title: &str, columns: &[&str], rows: &[(String, Vec<Cell>)]) {
    println!("\n=== {title} ===");
    print!("{:<14}", "");
    for c in columns {
        print!("{c:>20}");
    }
    println!();
    for (name, cells) in rows {
        print!("{name:<14}");
        for cell in cells {
            print!("{:>20}", cell.render());
        }
        println!();
    }
    println!("(parenthesised values are the paper's; see EXPERIMENTS.md)");
}

/// Prints an `(x, series...)` block — the textual form of a figure.
pub fn print_series(title: &str, x_label: &str, series_names: &[&str], points: &[(f64, Vec<f32>)]) {
    println!("\n=== {title} ===");
    print!("{x_label:>12}");
    for s in series_names {
        print!("{s:>14}");
    }
    println!();
    for (x, ys) in points {
        print!("{x:>12.4}");
        for y in ys {
            print!("{y:>14.4}");
        }
        println!();
    }
}

/// Writes any serialisable result to `target/bench-results/<name>.json` so
/// downstream tooling can re-plot without re-running. A failed write is
/// reported on stderr; the run's printed output is the primary record.
pub fn write_json<T: Serialize>(name: &str, value: &T) {
    let path = Path::new("target/bench-results").join(format!("{name}.json"));
    if let Err(e) = write_record(path, value) {
        eprintln!("{e}");
    }
}

/// Writes `value` as pretty JSON to `path`, creating its parent directory.
/// The single writer behind [`write_json`] and the committed `BENCH_*.json`
/// records, whose bins exit non-zero on the returned error.
pub fn write_record<T: Serialize>(path: impl AsRef<Path>, value: &T) -> Result<(), String> {
    let path = path.as_ref();
    let json = serde_json::to_string_pretty(value)
        .map_err(|e| format!("serialising {}: {e}", path.display()))?;
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    }
    std::fs::write(path, json).map_err(|e| format!("writing {}: {e}", path.display()))?;
    println!("[results written to {}]", path.display());
    Ok(())
}

/// Reads and parses a committed `BENCH_*.json` record into the schema `T`
/// that a quick-mode gate inspects (fields `T` does not name are ignored).
/// Errors read `"<path>: <io error>"` or `"<path> does not parse: <why>"`.
pub fn read_committed<T: DeserializeOwned>(path: &str) -> Result<T, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    serde_json::from_str(&text).map_err(|e| format!("{path} does not parse: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cell_rendering() {
        assert_eq!(Cell::measured(81.5).render(), "   81.50");
        let c = Cell::vs(81.53, 0.42, 84.06);
        assert!(c.render().contains("81.53"));
        assert!(c.render().contains("84.06"));
        assert_eq!(Cell::failed().render(), "FAILED");
    }

    #[test]
    fn sweep_summary_classifies_cells() {
        let mut s = SweepSummary::new();
        s.record("a", CellOutcome::Ok);
        assert!(!s.has_problems());
        s.record("b", CellOutcome::Diverged { failed_runs: 1 });
        s.record("c", CellOutcome::Failed("boom".into()));
        assert!(s.has_problems());
        s.print();
    }

    #[test]
    fn outcomes_follow_run_counts() {
        use e2gcl::TrainError;
        let failed = vec![(3u64, TrainError::NonFiniteLoss { epoch: 1 })];
        assert!(matches!(outcome_from_counts(2, &[]), CellOutcome::Ok));
        assert!(matches!(
            outcome_from_counts(1, &failed),
            CellOutcome::Diverged { failed_runs: 1 }
        ));
        match outcome_from_counts(0, &failed) {
            CellOutcome::Failed(reason) => assert!(reason.contains("seed 3"), "{reason}"),
            other => panic!("wrong outcome {other:?}"),
        }
    }

    /// A fresh directory under the system temp dir for one test.
    fn temp_dir(test: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("e2gcl-report-{test}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn write_json_roundtrip() {
        #[derive(Serialize)]
        struct T {
            a: u32,
        }
        let dir = temp_dir("roundtrip");
        let path = dir.join("nested").join("unit-test.json");
        write_record(&path, &T { a: 3 }).expect("the record is written");
        let s = std::fs::read_to_string(&path).expect("the record exists");
        assert!(s.contains("\"a\": 3"), "{s}");
        // Under a file, the parent directory cannot be created.
        let err = write_record(path.join("x.json"), &T { a: 4 }).expect_err("parent is a file");
        assert!(
            err.starts_with(&format!("creating {}: ", path.display())),
            "{err}"
        );
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[derive(serde::Deserialize)]
    struct Committed {
        cases: Vec<u32>,
    }

    #[test]
    fn read_committed_reports_missing_and_unparsable_files() {
        let dir = temp_dir("committed");
        std::fs::create_dir_all(&dir).expect("temp dir");
        let missing = dir.join("BENCH_missing.json");
        let missing = missing.to_str().expect("utf-8 temp path");
        let err = read_committed::<Committed>(missing)
            .err()
            .expect("missing file");
        assert!(err.starts_with(&format!("{missing}: ")), "{err}");

        let garbled = dir.join("BENCH_garbled.json");
        std::fs::write(&garbled, "{ not json").expect("write");
        let garbled = garbled.to_str().expect("utf-8 temp path");
        let err = read_committed::<Committed>(garbled)
            .err()
            .expect("unparsable file");
        assert!(
            err.starts_with(&format!("{garbled} does not parse: ")),
            "{err}"
        );

        let good = dir.join("BENCH_good.json");
        std::fs::write(&good, r#"{"cases": [1, 2], "extra": true}"#).expect("write");
        let parsed = read_committed::<Committed>(good.to_str().expect("utf-8")).expect("parses");
        assert_eq!(parsed.cases, vec![1, 2]);
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }
}
