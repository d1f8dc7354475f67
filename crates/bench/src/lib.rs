//! Shared harness for the table/figure reproduction binaries.
//!
//! Every `src/bin/tableN.rs` / `src/bin/figN.rs` binary uses this crate for:
//! * [`Profile`] — `--profile quick|paper` run sizing (dataset scale,
//!   epochs, repetition counts);
//! * [`registry`] — the model zoo keyed by the names the paper's tables use;
//! * [`mod@reference`] — the paper-reported values, printed side by side
//!   with our measurements (`EXPERIMENTS.md` records the comparison);
//! * [`report`] — aligned-table printing and JSON result emission.

pub mod flags;
pub mod reference;
pub mod registry;
pub mod report;

use e2gcl::prelude::*;
use flags::{FlagError, FlagSet};
use std::str::FromStr;

/// Sizing of a reproduction run.
#[derive(Clone, Debug)]
pub struct Profile {
    /// `"quick"` or `"paper"`.
    pub name: String,
    /// Scale applied to the five small datasets.
    pub scale: f64,
    /// Scale applied to arxiv-sim / products-sim (Table V).
    pub large_scale: f64,
    /// Pre-training epochs.
    pub epochs: usize,
    /// Repetitions (pre-train + split) per cell.
    pub runs: usize,
}

impl Profile {
    /// The fast smoke profile (used for the recorded bench outputs).
    pub fn quick() -> Profile {
        Profile {
            name: "quick".into(),
            scale: 0.25,
            large_scale: 0.15,
            epochs: 15,
            runs: 2,
        }
    }

    /// The full protocol (paper-sized graphs, 10 repetitions).
    pub fn paper() -> Profile {
        Profile {
            name: "paper".into(),
            scale: 1.0,
            large_scale: 1.0,
            epochs: 60,
            runs: 10,
        }
    }

    /// Parses `--profile quick|paper` (default quick) plus the `--scale`,
    /// `--runs` and `--epochs` overrides from the process arguments. An
    /// unknown flag or a malformed value is a usage error (exit 2).
    pub fn from_args() -> Profile {
        let argv: Vec<String> = std::env::args().skip(1).collect();
        Profile::parse(&argv).unwrap_or_else(|e| flags::exit_usage(e))
    }

    /// [`Profile::from_args`] over an explicit argument vector.
    pub fn parse(argv: &[String]) -> Result<Profile, FlagError> {
        let flags = FlagSet::new()
            .valued("profile")
            .valued("scale")
            .valued("runs")
            .valued("epochs")
            .parse(argv)?;
        let mut profile = flags.get_parse("profile", Profile::quick())?;
        profile.scale = flags.get_parse("scale", profile.scale)?;
        profile.runs = flags.get_parse("runs", profile.runs)?;
        profile.epochs = flags.get_parse("epochs", profile.epochs)?;
        Ok(profile)
    }

    /// The shared training configuration for this profile.
    pub fn train_config(&self) -> TrainConfig {
        TrainConfig {
            epochs: self.epochs,
            ..TrainConfig::default()
        }
    }

    /// Walk models (DeepWalk / Node2Vec) do far more work per "epoch"; the
    /// convention is a handful of passes.
    pub fn walk_config(&self) -> TrainConfig {
        TrainConfig {
            epochs: (self.epochs / 8).max(2),
            ..TrainConfig::default()
        }
    }

    /// Generates one of the five small datasets at this profile's scale.
    pub fn dataset(&self, name: &str, seed: u64) -> NodeDataset {
        let s = spec(name).expect("bench binaries use registered dataset names");
        NodeDataset::generate(&s, self.scale, seed)
    }

    /// Generates one of the two large datasets (Table V) at this profile's
    /// large-graph scale.
    pub fn large_dataset(&self, name: &str, seed: u64) -> NodeDataset {
        let s = spec(name).expect("bench binaries use registered dataset names");
        NodeDataset::generate(&s, self.large_scale, seed)
    }
}

impl FromStr for Profile {
    type Err = String;

    fn from_str(name: &str) -> Result<Profile, String> {
        match name {
            "quick" => Ok(Profile::quick()),
            "paper" => Ok(Profile::paper()),
            other => Err(format!(
                "unknown profile '{other}' (accepted: quick, paper)"
            )),
        }
    }
}

/// Shared driver for the E²GCL ablation tables (VI, VII, VIII): runs each
/// variant over the five small datasets and prints measured-vs-paper cells.
pub fn e2gcl_ablation_table(
    profile: &Profile,
    title: &str,
    variants: &[(String, E2gclModel)],
    paper: &[(&str, [f32; 5])],
    json_name: &str,
) {
    use e2gcl::pipeline::run_node_classification;
    assert_eq!(variants.len(), paper.len(), "variant/paper row mismatch");
    let datasets: Vec<NodeDataset> = reference::SMALL_DATASETS
        .iter()
        .map(|n| profile.dataset(n, 100))
        .collect();
    let cfg = profile.train_config();
    let mut rows = Vec::new();
    let mut json: Vec<(String, String, f32, f32, f32)> = Vec::new();
    let mut summary = report::SweepSummary::new();
    for ((name, model), (_, paper_vals)) in variants.iter().zip(paper) {
        let mut cells = Vec::new();
        for (di, data) in datasets.iter().enumerate() {
            let label = format!("{name}/{}", data.name);
            match run_node_classification(model, data, &cfg, profile.runs, 0) {
                Ok(run) if !run.accuracies.is_empty() => {
                    summary.record(label, report::outcome_of(&run));
                    cells.push(report::Cell::vs(
                        100.0 * run.mean,
                        100.0 * run.std,
                        paper_vals[di],
                    ));
                    json.push((
                        name.clone(),
                        data.name.clone(),
                        100.0 * run.mean,
                        100.0 * run.std,
                        paper_vals[di],
                    ));
                }
                Ok(run) => {
                    summary.record(label, report::outcome_of(&run));
                    cells.push(report::Cell::failed());
                }
                Err(err) => {
                    summary.record(label, report::CellOutcome::Failed(err.to_string()));
                    cells.push(report::Cell::failed());
                }
            }
            eprintln!("  done: {name} on {}", data.name);
        }
        rows.push((name.clone(), cells));
    }
    report::print_table(title, &reference::SMALL_DATASETS, &rows);
    summary.print();
    report::write_json(json_name, &json);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profiles_differ() {
        let q = Profile::quick();
        let p = Profile::paper();
        assert!(q.scale < p.scale);
        assert!(q.runs < p.runs);
        assert!(q.epochs < p.epochs);
    }

    #[test]
    fn walk_config_reduces_epochs() {
        let p = Profile::paper();
        assert!(p.walk_config().epochs < p.train_config().epochs);
        assert!(Profile::quick().walk_config().epochs >= 2);
    }

    fn argv(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn profile_flags_parse_and_typos_are_errors() {
        let p = Profile::parse(&argv(&["--profile", "paper", "--runs=3", "--scale", "0.5"]))
            .expect("valid argv");
        assert_eq!((p.name.as_str(), p.runs, p.epochs), ("paper", 3, 60));
        assert_eq!(p.scale, 0.5);
        assert_eq!(Profile::parse(&[]).expect("defaults").name, "quick");
        // FlagSet tolerates the `--bench` flag of cargo's bench harness.
        assert!(Profile::parse(&argv(&["--bench"])).is_ok());
        match Profile::parse(&argv(&["--qick"])) {
            Err(FlagError::Unknown { flag, .. }) => assert_eq!(flag, "--qick"),
            other => panic!("expected Unknown, got {other:?}"),
        }
        match Profile::parse(&argv(&["--profile", "bogus"])) {
            Err(FlagError::BadValue { flag, value, .. }) => {
                assert_eq!((flag.as_str(), value.as_str()), ("--profile", "bogus"));
            }
            other => panic!("expected BadValue, got {other:?}"),
        }
        assert!(matches!(
            Profile::parse(&argv(&["--epochs", "many"])),
            Err(FlagError::BadValue { .. })
        ));
    }

    #[test]
    fn dataset_scaling_applies() {
        let q = Profile::quick();
        let d = q.dataset("cora-sim", 0);
        assert!((d.num_nodes() as f64 - 2708.0 * q.scale).abs() < 2.0);
    }
}
