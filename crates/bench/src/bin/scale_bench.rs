//! Mini-batch scaling benchmark: epoch wall time and peak RSS versus node
//! count for the neighbour-sampled training path (DESIGN.md §13).
//!
//! Trains E²GCL (all-anchor selection) and GRACE on `products-sim-1m` at
//! ascending scales with the same mini-batch settings the CLI exposes
//! (`--minibatch --batch-nodes --fanout`), recording per-epoch wall time
//! and process memory after each case.
//!
//! ```sh
//! cargo run -p e2gcl-bench --bin scale_bench --release              # full sweep
//! cargo run -p e2gcl-bench --bin scale_bench --release -- --quick   # CI smoke
//! ```
//!
//! Full mode writes `BENCH_scale.json` at the repo root (tracked in git).
//! Quick mode runs only the smallest scale, writes to
//! `target/bench-results/`, and fails (non-zero exit) if any quick case
//! errors or if the committed `BENCH_scale.json` is missing, unparsable, or
//! empty.
//!
//! Memory caveat: `peak_rss_mb` is the process high-water mark
//! (`VmHWM` from `/proc/self/status`), which only ratchets upward — cases
//! run smallest-first precisely so each case's recorded peak reflects the
//! largest graph touched *so far*. Only the last case of a model pair at
//! each scale gives the honest peak for that scale.

use e2gcl::models::grace::GraceModel;
use e2gcl::prelude::*;
use e2gcl_bench::flags::{exit_usage, FlagSet};
use e2gcl_bench::report;
use serde::Serialize;
use std::time::Instant;

/// Mini-batch geometry used for every case (mirrors the CLI defaults for a
/// million-node run: `--minibatch true --batch-nodes 2048 --fanout 3`).
const BATCH_NODES: usize = 2048;
const FANOUT: usize = 3;

#[derive(Serialize)]
struct ScaleCase {
    model: String,
    dataset: String,
    /// `minibatch` or `fullbatch` — whether the case trains through the
    /// neighbour-sampled path or one whole-graph epoch step.
    training: String,
    /// Contrastive loss strategy name (`full`, `smallneg`, `localized`).
    loss: String,
    scale: f64,
    nodes: usize,
    edges: usize,
    /// Dataset generation wall time (shared by the models at this scale;
    /// recorded on the first model's row, 0.0 on the rest).
    gen_s: f64,
    epochs: usize,
    /// Selection preprocessing (Alg. 2) wall time.
    selection_s: f64,
    /// Total pre-training wall time, selection and final full-graph
    /// inference included.
    total_s: f64,
    /// `(total_s - selection_s) / epochs` — the steady-state cost of one
    /// mini-batch epoch (plus the amortised final inference pass).
    epoch_s: f64,
    final_loss: f32,
    /// Process RSS (MB) after this case.
    rss_mb: Option<f64>,
    /// Process peak RSS (MB) so far — a high-water mark, see module docs.
    peak_rss_mb: Option<f64>,
}

#[derive(Serialize)]
struct ScaleDump {
    name: String,
    mode: String,
    batch_nodes: usize,
    fanout: usize,
    cases: Vec<ScaleCase>,
}

/// `(VmRSS, VmHWM)` in MB from `/proc/self/status` (`None` off-Linux).
fn memory_mb() -> (Option<f64>, Option<f64>) {
    let Ok(text) = std::fs::read_to_string("/proc/self/status") else {
        return (None, None);
    };
    let grab = |key: &str| {
        text.lines()
            .find(|l| l.starts_with(key))
            .and_then(|l| l.split_whitespace().nth(1))
            .and_then(|v| v.parse::<f64>().ok())
            .map(|kb| kb / 1024.0)
    };
    (grab("VmRSS:"), grab("VmHWM:"))
}

fn all_anchor_e2gcl() -> E2gclModel {
    // Every Alg. 2 selector ends in `assign_weights`, an |V| x budget
    // nearest-representative pass that is super-linear at a million nodes —
    // and the mini-batch step visits anchors uniformly, ignoring importance
    // weights. `All` keeps preprocessing O(1) so the sweep measures pure
    // mini-batch training throughput.
    E2gclModel::new(E2gclConfig {
        selector: SelectorKind::All,
        ..E2gclConfig::default()
    })
}

fn run_case(
    model: &dyn ContrastiveModel,
    data: &NodeDataset,
    scale: f64,
    gen_s: f64,
    cfg: &TrainConfig,
) -> Result<ScaleCase, String> {
    let training = if cfg.minibatch.is_some() {
        "minibatch"
    } else {
        "fullbatch"
    };
    let t = Instant::now();
    let out = model
        .pretrain(&data.graph, &data.features, cfg, &mut SeedRng::new(0))
        .map_err(|e| format!("{} ({training}) at scale {scale}: {e}", model.name()))?;
    let total_s = t.elapsed().as_secs_f64();
    let selection_s = out.selection_time.as_secs_f64();
    let (rss_mb, peak_rss_mb) = memory_mb();
    Ok(ScaleCase {
        model: model.name(),
        dataset: data.name.clone(),
        training: training.to_string(),
        loss: cfg.loss.name().to_string(),
        scale,
        nodes: data.num_nodes(),
        edges: data.graph.num_edges(),
        gen_s,
        epochs: cfg.epochs,
        selection_s,
        total_s,
        epoch_s: (total_s - selection_s) / cfg.epochs.max(1) as f64,
        final_loss: out.loss_curve.last().copied().unwrap_or(f32::NAN),
        rss_mb,
        peak_rss_mb,
    })
}

fn minibatch_cfg(epochs: usize) -> TrainConfig {
    TrainConfig {
        epochs,
        minibatch: Some(MinibatchConfig {
            batch_nodes: BATCH_NODES,
            fanout: Some(FANOUT),
        }),
        ..TrainConfig::default()
    }
}

/// The headline this PR adds: a **full-batch** E²GCL epoch at the
/// million-node tier, feasible in RAM only because the small-negative-set
/// loss replaces the O(n²) similarity with O(n·k).
fn fullbatch_smallneg_cfg(epochs: usize) -> TrainConfig {
    TrainConfig {
        epochs,
        minibatch: None,
        loss: LossStrategy::SmallNeg { negatives: 256 },
        ..TrainConfig::default()
    }
}

/// The subset of the committed `BENCH_scale.json` the CI gate inspects.
#[derive(serde::Deserialize)]
struct BaselineDump {
    cases: Vec<BaselineCase>,
}

#[derive(serde::Deserialize)]
struct BaselineCase {
    model: String,
    nodes: usize,
    #[serde(default)]
    training: String,
    #[serde(default)]
    loss: String,
}

fn check_committed_baseline(path: &str) -> Result<(), String> {
    let dump: BaselineDump = report::read_committed(path)?;
    if dump.cases.is_empty() {
        return Err(format!("{path}: empty cases array"));
    }
    // The headline claims: both supported models were benchmarked at the
    // million-node tier through the mini-batch path, and E²GCL completed a
    // full-batch million-node epoch with the small-negative-set loss.
    for model in ["E2GCL", "GRACE"] {
        if !dump
            .cases
            .iter()
            .any(|c| c.model == model && c.nodes >= 900_000)
        {
            return Err(format!("{path}: no {model} case at >= 900k nodes"));
        }
    }
    if !dump.cases.iter().any(|c| {
        c.model == "E2GCL"
            && c.nodes >= 900_000
            && c.training == "fullbatch"
            && c.loss == "smallneg"
    }) {
        return Err(format!(
            "{path}: no full-batch smallneg E2GCL case at >= 900k nodes"
        ));
    }
    Ok(())
}

fn print_case(c: &ScaleCase) {
    println!(
        "{:<8} [{}/{}] scale {:<5} {:>9} nodes {:>10} edges  gen {:>7.1}s  sel {:>6.1}s  \
         {:>6.1}s/epoch  loss {:>8.4}  rss {:>8} MB (peak {:>8} MB)",
        c.model,
        c.training,
        c.loss,
        c.scale,
        c.nodes,
        c.edges,
        c.gen_s,
        c.selection_s,
        c.epoch_s,
        c.final_loss,
        c.rss_mb.map_or_else(|| "?".into(), |m| format!("{m:.0}")),
        c.peak_rss_mb
            .map_or_else(|| "?".into(), |m| format!("{m:.0}")),
    );
}

fn main() {
    let flags = FlagSet::new().switch("quick").parse_env();
    let quick = flags.is_set("quick");
    let mode = if quick { "quick" } else { "full" };
    println!("scale_bench — mode: {mode} (batch_nodes {BATCH_NODES}, fanout {FANOUT})");

    // (scale of products-sim-1m, epochs); ascending so the RSS high-water
    // mark stays interpretable (module docs).
    let sweep: Vec<(f64, usize)> = if quick {
        vec![(0.01, 1)]
    } else {
        vec![(0.01, 2), (0.1, 2), (1.0, 1)]
    };

    let data_spec = spec("products-sim-1m").unwrap_or_else(|e| exit_usage(e));

    let mut cases: Vec<ScaleCase> = Vec::new();
    let mut failed = false;
    for &(scale, epochs) in &sweep {
        let t = Instant::now();
        let data = NodeDataset::generate(&data_spec, scale, 0);
        let mut gen_s = t.elapsed().as_secs_f64();
        println!(
            "-- {} @ scale {scale}: {} nodes / {} edges generated in {gen_s:.1}s",
            data.name,
            data.num_nodes(),
            data.graph.num_edges()
        );
        let e2gcl = all_anchor_e2gcl();
        let grace = GraceModel::grace();
        let models: [&dyn ContrastiveModel; 2] = [&e2gcl, &grace];
        for model in models {
            match run_case(model, &data, scale, gen_s, &minibatch_cfg(epochs)) {
                Ok(c) => {
                    print_case(&c);
                    cases.push(c);
                }
                Err(e) => {
                    eprintln!("FAIL: {e}");
                    failed = true;
                }
            }
            gen_s = 0.0; // attribute generation cost once per scale
        }
        // Full-batch E²GCL with the small-negative-set loss: the whole
        // point of the sub-quadratic kernels is that this case now fits in
        // RAM at the million-node tier. One epoch — enough to prove the
        // memory/wall-time claim without doubling the sweep.
        let fullbatch_here = if quick { true } else { scale >= 1.0 };
        if fullbatch_here {
            match run_case(&e2gcl, &data, scale, 0.0, &fullbatch_smallneg_cfg(1)) {
                Ok(c) => {
                    print_case(&c);
                    cases.push(c);
                }
                Err(e) => {
                    eprintln!("FAIL: {e}");
                    failed = true;
                }
            }
        }
    }

    let dump = ScaleDump {
        name: "scale_bench".to_string(),
        mode: mode.to_string(),
        batch_nodes: BATCH_NODES,
        fanout: FANOUT,
        cases,
    };
    report::write_json(
        if quick {
            "scale_bench_quick"
        } else {
            "scale_bench"
        },
        &dump,
    );

    if quick {
        if let Err(e) = check_committed_baseline("BENCH_scale.json") {
            eprintln!("FAIL: {e}");
            failed = true;
        }
        if failed {
            std::process::exit(1);
        }
        println!("quick-mode checks passed (mini-batch cases ran; BENCH_scale.json ok)");
    } else {
        if failed {
            std::process::exit(1);
        }
        if let Err(e) = report::write_record("BENCH_scale.json", &dump) {
            eprintln!("{e}");
            std::process::exit(1);
        }
    }
}
