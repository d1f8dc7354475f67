//! Engine-scratch benchmark: measures the two promises of the
//! `EpochDriver` + workspace refactor.
//!
//! 1. **Zero steady-state allocations** — once a `GcnWorkspace` is warm,
//!    another `forward_with`/`backward_with` round allocates no `Matrix`
//!    buffers (the allocating `forward`/`backward` pair is the baseline).
//! 2. **Reduced wall-time** — the workspace hot path beats the allocating
//!    path, and a full `pretrain` run reports its steady-state per-epoch
//!    allocation count.
//!
//! ```sh
//! cargo run -p e2gcl-bench --bin engine_scratch --release
//! ```

use e2gcl::prelude::*;
use e2gcl_graph::norm;
use e2gcl_linalg::alloc_stats::matrix_allocs;
use e2gcl_nn::{GcnEncoder, GcnWorkspace};
use std::time::Instant;

const ROUNDS: usize = 50;

fn main() {
    let data = NodeDataset::generate(&spec("cora-sim").unwrap(), 0.5, 11);
    let n = data.num_nodes();
    let adj = norm::normalized_adjacency(&data.graph);
    let x = &data.features;
    let cfg = TrainConfig::default();
    let mut rng = SeedRng::new(3);
    let encoder = GcnEncoder::new(&cfg.encoder_dims(x.cols()), &mut rng);
    let d_out = Matrix::zeros(n, cfg.embed_dim);
    println!(
        "GCN forward+backward hot path — {n} nodes, dims {:?}, {ROUNDS} rounds",
        cfg.encoder_dims(x.cols())
    );

    // Allocating baseline: fresh activations, cache, and gradients per round.
    let before = matrix_allocs();
    let t0 = Instant::now();
    for _ in 0..ROUNDS {
        let (_h, cache) = encoder.forward(&adj, x);
        let grads = encoder.backward(&adj, &cache, &d_out);
        std::hint::black_box(&grads);
    }
    let alloc_time = t0.elapsed();
    let alloc_allocs = matrix_allocs() - before;

    // Workspace path: one warm-up round, then measure the steady state.
    let mut ws = GcnWorkspace::new();
    encoder.forward_with(&adj, x, &mut ws);
    encoder.backward_with(&adj, &mut ws, &d_out);
    let before = matrix_allocs();
    let t0 = Instant::now();
    for _ in 0..ROUNDS {
        encoder.forward_with(&adj, x, &mut ws);
        encoder.backward_with(&adj, &mut ws, &d_out);
        std::hint::black_box(ws.grads());
    }
    let ws_time = t0.elapsed();
    let ws_allocs = matrix_allocs() - before;

    println!(
        "  allocating forward/backward: {:>8.2?}  ({:.1} Matrix allocs/round)",
        alloc_time,
        alloc_allocs as f64 / ROUNDS as f64
    );
    println!(
        "  workspace   forward/backward: {:>8.2?}  ({:.1} Matrix allocs/round)",
        ws_time,
        ws_allocs as f64 / ROUNDS as f64
    );
    println!(
        "  speedup {:.2}x, allocations removed per round: {}",
        alloc_time.as_secs_f64() / ws_time.as_secs_f64(),
        (alloc_allocs - ws_allocs) / ROUNDS as u64
    );

    // Steady-state per-epoch allocations of a full engine-driven pretrain:
    // run E and 2E epochs; the delta isolates the per-epoch cost from setup.
    let short = TrainConfig {
        epochs: 10,
        ..TrainConfig::default()
    };
    let long = TrainConfig {
        epochs: 20,
        ..TrainConfig::default()
    };
    let models: [(&str, Box<dyn ContrastiveModel>); 5] = [
        ("GRACE", Box::new(e2gcl::models::grace::GraceModel::grace())),
        ("E2GCL", Box::new(E2gclModel::default())),
        ("DGI", Box::new(e2gcl::models::dgi::DgiModel)),
        (
            "MVGRL",
            Box::new(e2gcl::models::mvgrl::MvgrlModel::default()),
        ),
        (
            "MVGRL-FP",
            Box::new(e2gcl::models::mvgrl::MvgrlModel::new(
                e2gcl::models::mvgrl::MvgrlConfig {
                    extra_feature_perturb: Some(0.2),
                    ..Default::default()
                },
            )),
        ),
    ];
    for (name, model) in &models {
        let allocs_for = |cfg: &TrainConfig| {
            let before = matrix_allocs();
            let t0 = Instant::now();
            model
                .pretrain(&data.graph, x, cfg, &mut SeedRng::new(5))
                .expect("pretrain");
            (matrix_allocs() - before, t0.elapsed())
        };
        let (a_short, _) = allocs_for(&short);
        let (a_long, t_long) = allocs_for(&long);
        let per_epoch = (a_long - a_short) as f64 / (long.epochs - short.epochs) as f64;
        println!(
            "{name}: {per_epoch:.1} Matrix allocs/epoch steady-state \
             ({} total over {} epochs, {:.2?})",
            a_long, long.epochs, t_long
        );
    }
}
