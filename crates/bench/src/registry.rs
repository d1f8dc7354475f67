//! Model zoo keyed by the names the paper's tables use.

use e2gcl::models::adgcl::AdgclModel;
use e2gcl::models::bgrl::{AfgrlModel, BgrlModel};
use e2gcl::models::dgi::DgiModel;
use e2gcl::models::gae::{GaeModel, VgaeModel};
use e2gcl::models::grace::GraceModel;
use e2gcl::models::mvgrl::MvgrlModel;
use e2gcl::models::walks::WalkModel;
use e2gcl::prelude::*;

/// Instantiates a contrastive model by its table name.
///
/// Unknown names return [`TrainError::UnknownModel`] listing every accepted
/// name.
pub fn model(name: &str) -> Result<Box<dyn ContrastiveModel>, TrainError> {
    Ok(match name {
        "E2GCL" => Box::new(E2gclModel::default()),
        "GRACE" => Box::new(GraceModel::grace()),
        "GCA" => Box::new(GraceModel::gca()),
        "MVGRL" => Box::new(MvgrlModel::default()),
        "BGRL" => Box::new(BgrlModel::default()),
        "AFGRL" => Box::new(AfgrlModel::default()),
        "DGI" => Box::new(DgiModel),
        "GAE" => Box::new(GaeModel),
        "VGAE" => Box::new(VgaeModel::default()),
        "ADGCL" => Box::new(AdgclModel::default()),
        "DW" => Box::new(WalkModel::deepwalk()),
        "N2V" => Box::new(WalkModel::node2vec()),
        other => {
            return Err(TrainError::UnknownModel {
                name: other.to_string(),
                valid: MODEL_NAMES.iter().map(|s| s.to_string()).collect(),
            })
        }
    })
}

/// True if this model is a random-walk method (gets the reduced-epoch
/// config; see `Profile::walk_config`).
pub fn is_walk_model(name: &str) -> bool {
    matches!(name, "DW" | "N2V")
}

/// Every name [`model`] accepts: the self-supervised rows of Table IV, top
/// to bottom, then ADGCL.
const MODEL_NAMES: &[&str] = &[
    "DW", "N2V", "GAE", "VGAE", "DGI", "BGRL", "AFGRL", "MVGRL", "GRACE", "GCA", "E2GCL", "ADGCL",
];

/// The strongest baselines used in Fig. 3 / Table V / Table IX comparisons.
pub fn strong_baseline_names() -> Vec<&'static str> {
    vec!["AFGRL", "BGRL", "MVGRL", "GRACE", "GCA"]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_registered_name_constructs() {
        for &n in MODEL_NAMES {
            let m = model(n).unwrap();
            // Registry name must match the table name the paper prints
            // (walk models use the paper's abbreviations).
            match n {
                "DW" => assert_eq!(m.name(), "DeepWalk"),
                "N2V" => assert_eq!(m.name(), "Node2Vec"),
                other => assert_eq!(m.name(), other),
            }
        }
        for n in strong_baseline_names() {
            let _ = model(n).unwrap();
        }
    }

    #[test]
    fn unknown_model_errors_and_lists_valid_names() {
        let Err(err) = model("GPT") else {
            panic!("expected an unknown-model error");
        };
        assert!(err.to_string().contains("E2GCL"), "{err}");
        // The list names every accepted model, ADGCL included, and nothing
        // else.
        let TrainError::UnknownModel { valid, .. } = err else {
            panic!("expected an unknown-model error, got {err}");
        };
        assert!(valid.iter().any(|n| n == "ADGCL"), "{valid:?}");
        for n in &valid {
            assert!(model(n).is_ok(), "listed name {n} does not construct");
        }
    }
}
