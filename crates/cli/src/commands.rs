//! CLI subcommand implementations.
//!
//! Each command declares the flags it accepts and parses its arguments
//! with [`crate::args::parse`], so a misspelled flag is a usage error
//! (exit 2) naming the accepted set instead of being silently ignored.

use crate::args::{parse, COMMON, IVF};
use e2gcl::prelude::*;
use e2gcl_bench::flags::Flags;
use e2gcl_bench::registry;
use e2gcl_datasets::registry::all_node_specs;
use e2gcl_selector::greedy::GreedySelector;
use e2gcl_selector::NodeSelector;
use e2gcl_serve::{
    run_latency_bench, run_load, run_overload_bench, Artifact, ArtifactMeta, BatchServer,
    BenchOptions, EmbeddingStore, InductiveEngine, IvfConfig, IvfIndex, LoadGenOptions,
    MicroBatcher, OverloadOptions, RuntimeConfig, SchedulerConfig, ServeFaultPlan,
};
use e2gcl_views::{ViewConfig, ViewGenerator};
use serde::Serialize;
use std::error::Error;
use std::path::Path;

/// A command's outcome; any error is reported as a usage error (exit 2).
type CliResult<T> = Result<T, Box<dyn Error>>;

/// `e2gcl datasets`
pub fn datasets() -> i32 {
    println!(
        "{:<14} {:>9} {:>12} {:>8} {:>9} {:>8}   stands in for",
        "name", "nodes", "edges", "degree", "features", "classes"
    );
    for s in all_node_specs() {
        println!(
            "{:<14} {:>9} {:>12} {:>8.2} {:>9} {:>8}   {}",
            s.name,
            s.sim_nodes,
            "(generated)",
            s.sim_avg_degree,
            s.sim_features,
            s.sim_classes,
            s.paper_name
        );
    }
    println!(
        "\ngraph-classification analogs: nci1-sim, ptcmr-sim, proteins-sim\n\
         (all generated on demand; use --scale to shrink)"
    );
    0
}

struct Common {
    data: NodeDataset,
    model: Box<dyn ContrastiveModel>,
    cfg: TrainConfig,
    seed: u64,
    scale: f64,
}

fn common(args: &Flags) -> CliResult<Common> {
    let dataset = args.get("dataset", "cora-sim");
    let scale: f64 = args.get_parse("scale", 0.25)?;
    if !scale.is_finite() || scale <= 0.0 {
        return Err(format!("--scale must be finite and > 0, got {scale}").into());
    }
    let seed: u64 = args.get_parse("seed", 0)?;
    let epochs: usize = args.get_parse("epochs", 30)?;
    let data = NodeDataset::generate(&spec(&dataset)?, scale, seed);
    let model = registry::model(&args.get("model", "E2GCL"))?;
    let checkpoint = args.get("checkpoint", "");
    let checkpoint_every: usize = args.get_parse("checkpoint-every", 5)?;
    let resume: bool = args.get_parse("resume", false)?;
    if resume && checkpoint.is_empty() {
        return Err("--resume true requires --checkpoint <path>".into());
    }
    let durable = if checkpoint.is_empty() {
        None
    } else {
        Some(DurableConfig {
            path: checkpoint,
            every_epochs: checkpoint_every,
            resume,
        })
    };
    let use_minibatch: bool = args.get_parse("minibatch", false)?;
    let batch_nodes: usize = args.get_parse("batch-nodes", 1024)?;
    // 0 means "keep the whole neighbourhood" (no fanout cap).
    let fanout: usize = args.get_parse("fanout", 0)?;
    let minibatch = use_minibatch.then_some(MinibatchConfig {
        batch_nodes,
        fanout: (fanout > 0).then_some(fanout),
    });
    let loss_name = args.get("loss", "full");
    let negatives: usize = args.get_parse("negatives", 256)?;
    let loss_hops: usize = args.get_parse("loss-hops", 2)?;
    let loss = match loss_name.as_str() {
        "full" => LossStrategy::Full,
        "smallneg" => LossStrategy::SmallNeg { negatives },
        "localized" => LossStrategy::Localized { hops: loss_hops },
        other => {
            return Err(format!(
                "unknown --loss '{other}'; valid strategies: full, smallneg, localized \
                 (smallneg takes --negatives, localized takes --loss-hops)"
            )
            .into())
        }
    };
    let cfg = TrainConfig {
        epochs,
        durable,
        minibatch,
        loss,
        ..TrainConfig::default()
    };
    cfg.validate()?;
    Ok(Common {
        data,
        model,
        cfg,
        seed,
        scale,
    })
}

/// Pre-trains `c.model` and packages the frozen encoder + embeddings as a
/// saveable [`Artifact`]. Fails for models that do not expose an encoder
/// (e.g. random-walk baselines).
fn train_artifact(c: &Common) -> CliResult<Artifact> {
    let out = c.model.pretrain(
        &c.data.graph,
        &c.data.features,
        &c.cfg,
        &mut SeedRng::new(c.seed),
    )?;
    let encoder = out.encoder.ok_or_else(|| {
        format!(
            "model {} does not expose a frozen encoder; artifact saving \
             needs an encoder-based model (e.g. E2GCL, GRACE, GCA)",
            c.model.name()
        )
    })?;
    Ok(Artifact {
        meta: ArtifactMeta {
            model: c.model.name(),
            dataset: c.data.name.clone(),
            scale: c.scale,
            seed: c.seed,
        },
        config: c.cfg.clone(),
        encoder,
        embeddings: out.embeddings,
    })
}

/// Regenerates the dataset an artifact was trained on (datasets are
/// deterministic in `(spec, scale, seed)`, so the artifact only stores the
/// recipe, not the graph).
fn dataset_of(meta: &ArtifactMeta) -> CliResult<NodeDataset> {
    Ok(NodeDataset::generate(
        &spec(&meta.dataset)?,
        meta.scale,
        meta.seed,
    ))
}

fn run_or_usage(result: CliResult<i32>) -> i32 {
    match result {
        Ok(code) => code,
        Err(e) => {
            eprintln!("error: {e}");
            2
        }
    }
}

/// `e2gcl pretrain`
pub fn pretrain(argv: &[String]) -> i32 {
    run_or_usage((|| {
        let args = parse(argv, &[COMMON, &["out"]])?;
        let c = common(&args)?;
        let out_path = args.get("out", "embeddings.json");
        eprintln!(
            "pre-training {} on {} ({} nodes, {} edges)...",
            c.model.name(),
            c.data.name,
            c.data.num_nodes(),
            c.data.graph.num_edges()
        );
        let out = c.model.pretrain(
            &c.data.graph,
            &c.data.features,
            &c.cfg,
            &mut SeedRng::new(c.seed),
        )?;
        #[derive(Serialize)]
        struct Dump {
            model: String,
            dataset: String,
            seed: u64,
            epochs: usize,
            total_secs: f64,
            embedding_dim: usize,
            embeddings: Vec<Vec<f32>>,
        }
        let dump = Dump {
            model: c.model.name(),
            dataset: c.data.name.clone(),
            seed: c.seed,
            epochs: c.cfg.epochs,
            total_secs: out.total_time.as_secs_f64(),
            embedding_dim: out.embeddings.cols(),
            embeddings: (0..out.embeddings.rows())
                .map(|v| out.embeddings.row(v).to_vec())
                .collect(),
        };
        std::fs::write(
            &out_path,
            serde_json::to_string(&dump).map_err(|e| e.to_string())?,
        )
        .map_err(|e| format!("writing {out_path}: {e}"))?;
        println!(
            "wrote {} embeddings ({} dims) to {out_path} in {:.2}s",
            dump.embeddings.len(),
            dump.embedding_dim,
            dump.total_secs
        );
        Ok(0)
    })())
}

/// `e2gcl evaluate`
pub fn evaluate(argv: &[String]) -> i32 {
    run_or_usage((|| {
        let args = parse(argv, &[COMMON, &["runs"]])?;
        let c = common(&args)?;
        let runs: usize = args.get_parse("runs", 5)?;
        let run = e2gcl::pipeline::run_node_classification(
            c.model.as_ref(),
            &c.data,
            &c.cfg,
            runs,
            c.seed,
        )?;
        println!(
            "{} on {}: {:.2} ± {:.2} % over {} successful runs \
             (selection {:.2}s, total {:.2}s per run)",
            run.model,
            run.dataset,
            100.0 * run.mean,
            100.0 * run.std,
            run.accuracies.len(),
            run.selection_secs,
            run.total_secs
        );
        for (seed, err) in &run.failed_runs {
            eprintln!("run with seed {seed} failed: {err}");
        }
        if run.accuracies.is_empty() {
            return Err("every run failed".into());
        }
        Ok(0)
    })())
}

/// `e2gcl select`
pub fn select(argv: &[String]) -> i32 {
    run_or_usage((|| {
        let args = parse(argv, &[COMMON, &["ratio"]])?;
        let c = common(&args)?;
        let ratio: f64 = args.get_parse("ratio", 0.4)?;
        let budget = ((c.data.num_nodes() as f64) * ratio).round() as usize;
        let t0 = std::time::Instant::now();
        let sel = GreedySelector::default().select(
            &c.data.graph,
            &c.data.features,
            budget,
            &mut SeedRng::new(c.seed),
        );
        let secs = t0.elapsed().as_secs_f64();
        let mut per_class = vec![0usize; c.data.num_classes];
        for &v in &sel.nodes {
            per_class[c.data.labels[v]] += 1;
        }
        println!(
            "selected {} / {} nodes (r = {ratio}) in {secs:.3}s",
            sel.nodes.len(),
            c.data.num_nodes()
        );
        println!("per-class counts: {per_class:?}");
        let max_w = sel.weights.iter().cloned().fold(0.0f32, f32::max);
        println!(
            "λ weights: sum {:.0}, max {max_w:.0}",
            sel.weights.iter().sum::<f32>()
        );
        println!(
            "first 20 selected: {:?}",
            &sel.nodes[..sel.nodes.len().min(20)]
        );
        Ok(0)
    })())
}

/// `e2gcl linkpred`
pub fn linkpred(argv: &[String]) -> i32 {
    run_or_usage((|| {
        let args = parse(argv, &[COMMON])?;
        let c = common(&args)?;
        let mut rng = SeedRng::new(c.seed);
        let split = e2gcl_datasets::split::EdgeSplit::random(&c.data.graph, &mut rng.fork("split"));
        eprintln!(
            "pre-training {} on the training graph ({} of {} edges kept)...",
            c.model.name(),
            split.train_pos.len(),
            c.data.graph.num_edges()
        );
        let out = c
            .model
            .pretrain(&split.train_graph, &c.data.features, &c.cfg, &mut rng)?;
        let acc = e2gcl::eval::link_prediction_accuracy(&out.embeddings, &split, c.seed);
        println!(
            "{} on {}: link-prediction accuracy {:.2} % ({} test edges)",
            c.model.name(),
            c.data.name,
            100.0 * acc,
            split.test_pos.len()
        );
        Ok(0)
    })())
}

/// `e2gcl graphcls`
pub fn graphcls(argv: &[String]) -> i32 {
    run_or_usage((|| {
        let args = parse(
            argv,
            &[&["dataset", "scale", "seed", "epochs", "runs", "model"]],
        )?;
        let dataset = args.get("dataset", "nci1-sim");
        let scale: f64 = args.get_parse("scale", 0.25)?;
        if !scale.is_finite() || scale <= 0.0 {
            return Err(format!("--scale must be finite and > 0, got {scale}").into());
        }
        let seed: u64 = args.get_parse("seed", 0)?;
        let epochs: usize = args.get_parse("epochs", 30)?;
        let runs: usize = args.get_parse("runs", 3)?;
        let g_spec = e2gcl_datasets::graph_dataset::graph_spec(&dataset)?;
        let data = e2gcl_datasets::GraphDataset::generate(&g_spec, scale, seed);
        let model = registry::model(&args.get("model", "E2GCL"))?;
        let cfg = TrainConfig {
            epochs,
            ..TrainConfig::default()
        };
        cfg.validate()?;
        let run =
            e2gcl::pipeline::run_graph_classification(model.as_ref(), &data, &cfg, runs, seed)?;
        println!(
            "{} on {} ({} graphs): {:.2} ± {:.2} %",
            model.name(),
            data.name,
            data.len(),
            100.0 * run.mean,
            100.0 * run.std
        );
        for (seed, err) in &run.failed_runs {
            eprintln!("run with seed {seed} failed: {err}");
        }
        Ok(0)
    })())
}

/// `e2gcl view`
pub fn view(argv: &[String]) -> i32 {
    run_or_usage((|| {
        let args = parse(argv, &[COMMON, &["node", "tau", "eta"]])?;
        let c = common(&args)?;
        let node: usize = args.get_parse("node", 0)?;
        let tau: f32 = args.get_parse("tau", 1.0)?;
        let eta: f32 = args.get_parse("eta", 0.6)?;
        if node >= c.data.num_nodes() {
            return Err(format!(
                "--node {node} out of range (dataset has {} nodes)",
                c.data.num_nodes()
            )
            .into());
        }
        let generator = ViewGenerator::new(
            &c.data.graph,
            &c.data.features,
            ViewConfig::default(),
            &mut SeedRng::new(c.seed),
        );
        let v = generator.sample_ego_view(node, tau, eta, &mut SeedRng::new(c.seed ^ 1));
        println!(
            "ego view of node {node} (τ = {tau}, η = {eta}): {} nodes, {} edges",
            v.nodes.len(),
            v.graph.num_edges()
        );
        println!("member nodes: {:?}", v.nodes);
        let changed = (0..v.nodes.len())
            .map(|local| {
                let global = v.nodes[local];
                v.features
                    .row(local)
                    .iter()
                    .zip(c.data.features.row(global))
                    .filter(|(a, b)| (**a - **b).abs() > 1e-9)
                    .count()
            })
            .sum::<usize>();
        println!("perturbed feature entries: {changed}");
        Ok(0)
    })())
}

/// `e2gcl train`
pub fn train(argv: &[String]) -> i32 {
    run_or_usage((|| {
        let args = parse(argv, &[COMMON, &["save", "fault-torn-write"]])?;
        let c = common(&args)?;
        let save_path = args.get("save", "model.e2gcl");
        let torn_keep: usize = args.get_parse("fault-torn-write", 0)?;
        eprintln!(
            "training {} on {} ({} nodes, {} edges)...",
            c.model.name(),
            c.data.name,
            c.data.num_nodes(),
            c.data.graph.num_edges()
        );
        let artifact = train_artifact(&c)?;
        if torn_keep > 0 {
            artifact.save_torn(Path::new(&save_path), torn_keep)?;
            return Err(format!(
                "simulated crash: torn artifact write left {torn_keep} bytes at {save_path}"
            )
            .into());
        }
        artifact.save(Path::new(&save_path))?;
        let bytes = std::fs::metadata(&save_path).map(|m| m.len()).unwrap_or(0);
        println!(
            "saved artifact to {save_path}: {} encoder, {} x {} embeddings, {} params, {bytes} bytes",
            artifact.encoder.kind(),
            artifact.embeddings.rows(),
            artifact.embeddings.cols(),
            artifact
                .encoder
                .params()
                .iter()
                .map(|m| m.rows() * m.cols())
                .sum::<usize>()
        );
        Ok(0)
    })())
}

/// Loads an artifact; errors name the file kind ("artifact quarantined to
/// …", "artifact io error: …").
fn load_artifact(path: &str) -> CliResult<Artifact> {
    Artifact::load(Path::new(path)).map_err(|e| format!("artifact {e}").into())
}

/// Builds (or loads and validates) an IVF index for `store` from the
/// shared `--nlist` / `--nprobe` / `--train-sample` / `--kmeans-iters` /
/// `--index-seed` / `--index-path` flags.
fn ivf_for_store(args: &Flags, store: &EmbeddingStore, seed: u64) -> CliResult<IvfIndex> {
    let index_path = args.get("index-path", "");
    let nprobe: usize = args.get_parse("nprobe", 0)?; // 0 = keep index default
    let mut index = if !index_path.is_empty() && Path::new(&index_path).exists() {
        let mut ix = IvfIndex::load(Path::new(&index_path)).map_err(|e| format!("index {e}"))?;
        ix.pack(store)?;
        eprintln!("loaded ivf index from {index_path}: {} lists", ix.nlist());
        ix
    } else {
        let defaults = IvfConfig::for_rows(store.len());
        let cfg = IvfConfig {
            nlist: args.get_parse("nlist", defaults.nlist)?,
            nprobe: defaults.nprobe,
            train_sample: args.get_parse("train-sample", defaults.train_sample)?,
            kmeans_iters: args.get_parse("kmeans-iters", defaults.kmeans_iters)?,
            seed: args.get_parse("index-seed", seed)?,
        };
        let t0 = std::time::Instant::now();
        let ix = IvfIndex::build(store, cfg)?;
        eprintln!(
            "built ivf index: {} lists over {} rows in {:.2}s",
            ix.nlist(),
            store.len(),
            t0.elapsed().as_secs_f64()
        );
        if !index_path.is_empty() {
            ix.save(Path::new(&index_path))?;
            eprintln!("saved ivf index to {index_path}");
        }
        ix
    };
    if nprobe > 0 {
        index.set_nprobe(nprobe);
    }
    Ok(index)
}

/// `e2gcl query`
pub fn query(argv: &[String]) -> i32 {
    run_or_usage((|| {
        let args = parse(argv, &[IVF, &["artifact", "node", "k", "mode", "index"]])?;
        let path = args.get("artifact", "model.e2gcl");
        let node: usize = args.get_parse("node", 0)?;
        let k: usize = args.get_parse("k", 10)?;
        let mode = args.get("mode", "stored");
        let index_kind = args.get("index", "none");
        let artifact = load_artifact(&path)?;
        eprintln!(
            "loaded {path}: {} on {} (scale {}, seed {}), {} x {} embeddings",
            artifact.meta.model,
            artifact.meta.dataset,
            artifact.meta.scale,
            artifact.meta.seed,
            artifact.embeddings.rows(),
            artifact.embeddings.cols()
        );
        let store = EmbeddingStore::new(artifact.embeddings.clone());
        let q: Vec<f32> = match mode.as_str() {
            "stored" => store.embedding(node)?.to_vec(),
            "inductive" => {
                let data = dataset_of(&artifact.meta)?;
                let engine =
                    InductiveEngine::new(artifact.encoder.clone(), data.graph, data.features)?;
                engine.embed_node(node)?
            }
            other => return Err(format!("unknown --mode '{other}' (stored | inductive)").into()),
        };
        let hits = match index_kind.as_str() {
            "none" => store.top_k(&q, k)?,
            "ivf" => {
                let index = ivf_for_store(&args, &store, artifact.meta.seed)?;
                eprintln!(
                    "searching via ivf ({} lists, probing {})",
                    index.nlist(),
                    index.nprobe()
                );
                index.search(&store, &q, k)?
            }
            other => return Err(format!("unknown --index '{other}' (none | ivf)").into()),
        };
        if hits.is_empty() {
            return Err("store returned no hits".into());
        }
        println!("top-{k} cosine neighbours of node {node} ({mode} embedding):");
        for (rank, (u, score)) in hits.iter().enumerate() {
            println!("  {:>3}. node {u:>6}  score {score:+.4}", rank + 1);
        }
        Ok(0)
    })())
}

/// `e2gcl build-index`
pub fn build_index(argv: &[String]) -> i32 {
    run_or_usage((|| {
        let args = parse(
            argv,
            &[&[
                "artifact",
                "out",
                "recall-k",
                "recall-queries",
                "nlist",
                "nprobe",
                "train-sample",
                "kmeans-iters",
                "index-seed",
            ]],
        )?;
        let path = args.get("artifact", "model.e2gcl");
        let out = args.get("out", "model.ivf");
        let recall_k: usize = args.get_parse("recall-k", 10)?;
        let recall_queries: usize = args.get_parse("recall-queries", 64)?;
        let artifact = load_artifact(&path)?;
        let store = EmbeddingStore::new(artifact.embeddings.clone());
        let defaults = IvfConfig::for_rows(store.len());
        let cfg = IvfConfig {
            nlist: args.get_parse("nlist", defaults.nlist)?,
            nprobe: args.get_parse("nprobe", defaults.nprobe)?,
            train_sample: args.get_parse("train-sample", defaults.train_sample)?,
            kmeans_iters: args.get_parse("kmeans-iters", defaults.kmeans_iters)?,
            seed: args.get_parse("index-seed", artifact.meta.seed)?,
        };
        let t0 = std::time::Instant::now();
        let index = IvfIndex::build(&store, cfg)?;
        let build_secs = t0.elapsed().as_secs_f64();
        // Evenly spaced stored rows make a deterministic recall probe the
        // CI gate can threshold on.
        let m = recall_queries.min(store.len()).max(1);
        let queries: Vec<usize> = (0..m).map(|i| i * store.len() / m).collect();
        let recall = index.measure_recall(&store, &queries, recall_k)?;
        index.save(Path::new(&out))?;
        let bytes = std::fs::metadata(&out).map(|m| m.len()).unwrap_or(0);
        println!(
            "built ivf index over {} x {} rows: {} lists, nprobe {}, \
             {build_secs:.2}s build, {bytes} bytes -> {out}",
            store.len(),
            store.dim(),
            index.nlist(),
            index.nprobe()
        );
        println!(
            "recall@{recall_k} over {} stored queries: {recall:.4}",
            queries.len()
        );
        Ok(0)
    })())
}

/// Shape of the `serve-bench` report. It shares its section names with the
/// committed `BENCH_serve.json`, which only `serve_latency` writes.
#[derive(Serialize)]
struct ServeBenchDump {
    name: String,
    model: String,
    dataset: String,
    num_nodes: usize,
    store_rows: usize,
    embedding_dim: usize,
    #[serde(skip_serializing_if = "Option::is_none")]
    index: Option<IvfConfig>,
    batches: Vec<e2gcl_serve::BatchBenchReport>,
    overload: e2gcl_serve::OverloadReport,
    #[serde(skip_serializing_if = "Option::is_none")]
    loadgen: Option<e2gcl_serve::LoadGenReport>,
}

/// `e2gcl serve-bench`
pub fn serve_bench(argv: &[String]) -> i32 {
    run_or_usage((|| {
        let args = parse(
            argv,
            &[
                COMMON,
                IVF,
                &[
                    "artifact",
                    "rounds",
                    "k",
                    "json",
                    "burst",
                    "overload-rounds",
                    "queue-cap",
                    "deadline-us",
                    "inductive-fail-every",
                    "index",
                    "target-qps",
                    "loadgen-requests",
                    "max-batch",
                    "max-wait-us",
                ],
            ],
        )?;
        let path = args.get("artifact", "");
        let rounds: usize = args.get_parse("rounds", 50)?;
        let k: usize = args.get_parse("k", 10)?;
        let json_path = args.get("json", "target/bench-results/serve_bench.json");
        let burst: usize = args.get_parse("burst", 64)?;
        let overload_rounds: usize = args.get_parse("overload-rounds", 30)?;
        let queue_cap: usize = args.get_parse("queue-cap", 32)?;
        let deadline_us: u64 = args.get_parse("deadline-us", 0)?;
        let inductive_fail_every: usize = args.get_parse("inductive-fail-every", 7)?;
        let index_kind = args.get("index", "none");
        let target_qps: f64 = args.get_parse("target-qps", 0.0)?;
        let loadgen_requests: usize = args.get_parse("loadgen-requests", 2000)?;
        let max_batch: usize = args.get_parse("max-batch", 64)?;
        let max_wait_us: u64 = args.get_parse("max-wait-us", 500)?;
        let (artifact, data) = if path.is_empty() {
            let c = common(&args)?;
            eprintln!(
                "no --artifact given; pre-training {} on {} first...",
                c.model.name(),
                c.data.name
            );
            let artifact = train_artifact(&c)?;
            (artifact, c.data)
        } else {
            let artifact = load_artifact(&path)?;
            let data = dataset_of(&artifact.meta)?;
            (artifact, data)
        };
        let mut server =
            BatchServer::from_artifact(&artifact, data.graph.clone(), data.features.clone())?;
        let index_cfg = match index_kind.as_str() {
            "none" => None,
            "ivf" => {
                let index = ivf_for_store(&args, server.store(), artifact.meta.seed)?;
                let cfg = index.config();
                server = server.with_index(index)?;
                Some(cfg)
            }
            other => return Err(format!("unknown --index '{other}' (none | ivf)").into()),
        };
        let opts = BenchOptions {
            rounds,
            k,
            ..BenchOptions::default()
        };
        let mut rng = SeedRng::new(artifact.meta.seed ^ 0x5e7e);
        let reports = run_latency_bench(&mut server, &opts, &mut rng);
        println!(
            "{:>6} {:>7} {:>11} {:>11} {:>11} {:>12}",
            "batch", "rounds", "p50(us)", "p95(us)", "p99(us)", "qps"
        );
        for r in &reports {
            println!(
                "{:>6} {:>7} {:>11.1} {:>11.1} {:>11.1} {:>12.0}",
                r.batch_size,
                r.rounds,
                r.latency.p50_us,
                r.latency.p95_us,
                r.latency.p99_us,
                r.throughput_qps
            );
        }
        // Overload section: a second server with a bounded queue, deadlines
        // and a seed-scoped fault plan, saturated past capacity to measure
        // shed counts, degraded answers and tail latency under pressure.
        let runtime = RuntimeConfig {
            queue_capacity: queue_cap,
            default_deadline_us: (deadline_us > 0).then_some(deadline_us),
            high_water: queue_cap,
            ..RuntimeConfig::default()
        };
        let plan = ServeFaultPlan {
            only_seed: Some(artifact.meta.seed),
            inductive_fail_every,
            inductive_fail_attempts: 0,
            ..ServeFaultPlan::default()
        };
        let mut overload_server = BatchServer::from_artifact(&artifact, data.graph, data.features)?
            .with_runtime(runtime)
            .with_fault_plan(plan);
        let overload_opts = OverloadOptions {
            rounds: overload_rounds,
            burst,
            k,
            ..OverloadOptions::default()
        };
        let mut overload_rng = SeedRng::new(artifact.meta.seed ^ 0x0e4e);
        let overload = run_overload_bench(&mut overload_server, &overload_opts, &mut overload_rng);
        println!(
            "overload: offered {} admitted {} shed(overload) {} shed(deadline) {} \
             degraded {} retries {} failed {}",
            overload.offered,
            overload.admitted,
            overload.shed_overload,
            overload.shed_deadline,
            overload.degraded,
            overload.retries,
            overload.failed
        );
        println!(
            "overload: backpressure {}/{} rounds (throttled {}), saturated p99 {:.1} us",
            overload.backpressure_rounds,
            overload_rounds,
            overload.throttled_rounds,
            overload.latency.p99_us
        );
        // Closed-loop load generation through the micro-batcher at the
        // requested offered rate (skipped when --target-qps is 0).
        let loadgen = if target_qps > 0.0 {
            let scheduler = SchedulerConfig {
                max_batch,
                max_wait_us,
            };
            let mut batcher = MicroBatcher::new(scheduler);
            let lg_opts = LoadGenOptions {
                target_qps,
                requests: loadgen_requests,
                k,
                inductive_every: 0,
                seed: artifact.meta.seed ^ 0x10ad,
            };
            let report = run_load(&mut server, &mut batcher, &lg_opts);
            println!(
                "loadgen: target {:.0} qps, achieved {:.0} qps, {}/{} answered, \
                 {} batches (mean {:.1}), p50 {:.1} us p99 {:.1} us",
                report.target_qps,
                report.achieved_qps,
                report.answered,
                report.offered,
                report.batches,
                report.mean_batch,
                report.latency.p50_us,
                report.latency.p99_us
            );
            Some(report)
        } else {
            None
        };
        let dump = ServeBenchDump {
            name: "serve_latency".to_string(),
            model: artifact.meta.model.clone(),
            dataset: artifact.meta.dataset.clone(),
            num_nodes: artifact.embeddings.rows(),
            store_rows: artifact.embeddings.rows(),
            embedding_dim: artifact.embeddings.cols(),
            index: index_cfg,
            batches: reports,
            overload,
            loadgen,
        };
        if let Some(dir) = Path::new(&json_path).parent() {
            std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        }
        std::fs::write(
            &json_path,
            serde_json::to_string_pretty(&dump).map_err(|e| e.to_string())?,
        )
        .map_err(|e| format!("writing {json_path}: {e}"))?;
        println!("wrote {json_path}");
        Ok(0)
    })())
}

/// `e2gcl kernels` — report the dense-kernel dispatch state: detected CPU
/// features, the active dispatch path and its fixed tile shapes, and where
/// the path came from (`E2GCL_KERNEL_CONFIG` or detection).
pub fn kernels(argv: &[String]) -> i32 {
    run_or_usage((|| {
        parse(argv, &[])?;
        use e2gcl_linalg::dispatch::{self, ShapeClass};
        let path = dispatch::current_path();
        println!(
            "cpu features:  [{}]",
            dispatch::detected_features().join(" ")
        );
        println!("dispatch path: {path}");
        println!("source:        {}", dispatch::active_source());
        println!(
            "tiles:         tall={:?} square={:?} spmm grain={}",
            path.tiles(ShapeClass::TallSkinny),
            path.tiles(ShapeClass::Square),
            path.spmm_grain()
        );
        Ok(0)
    })())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(args: &str) -> Vec<String> {
        args.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn misspelled_flags_are_usage_errors_naming_the_accepted_set() {
        assert_eq!(select(&argv("--scale 0.05 --ratoi 0.1")), 2);
        assert_eq!(pretrain(&argv("--epoch 3")), 2);
        assert_eq!(query(&argv("--artifact=model.e2gcl --nodes 5")), 2);
        assert_eq!(kernels(&argv("--bench")), 2);
        assert_eq!(kernels(&argv("--tune x")), 2);
        assert_eq!(select(&argv("--scale 0.05 --ratio 0.1")), 0);
        let err = parse(&argv("--ratoi 0.1"), &[COMMON, &["ratio"]]).unwrap_err();
        let msg = err.to_string();
        assert!(
            msg.contains("--ratio") && msg.contains("--loss-hops"),
            "{msg}"
        );
    }
}
