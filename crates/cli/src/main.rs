//! `e2gcl` — command-line interface for the E²GCL reproduction.
//!
//! ```text
//! e2gcl datasets                               list the dataset analogs
//! e2gcl pretrain  --dataset cora-sim [...]     pre-train, save embeddings
//! e2gcl evaluate  --dataset cora-sim [...]     pre-train + linear probe
//! e2gcl select    --dataset cora-sim [...]     run the Alg. 2 selector
//! e2gcl view      --dataset cora-sim --node 5  sample an Alg. 3 ego view
//! e2gcl train     --save model.e2gcl [...]     pre-train, save a serving artifact
//! e2gcl query     --artifact model.e2gcl [...] top-k similarity over an artifact
//! e2gcl build-index --artifact model.e2gcl     build + save a deterministic IVF index
//! e2gcl serve-bench [...]                      batch-serving latency percentiles
//! e2gcl kernels                                kernel dispatch state
//! ```
//!
//! Options accept both `--flag value` and `--flag=value`; an option a
//! command does not accept is a usage error (exit 2).

mod args;
mod commands;

fn main() {
    // Fail fast on an invalid E2GCL_KERNEL_CONFIG (an unknown value, or
    // `avx2` on a host without AVX2+FMA) instead of silently running on the
    // fallback kernels.
    if let Some(err) = e2gcl_linalg::dispatch::startup_error() {
        eprintln!("e2gcl: kernel config error: {err}");
        eprintln!("{}", e2gcl_linalg::dispatch::CONFIG_USAGE);
        std::process::exit(2);
    }
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let code = match argv.first().map(String::as_str) {
        Some("datasets") => commands::datasets(),
        Some("pretrain") => commands::pretrain(&argv[1..]),
        Some("evaluate") => commands::evaluate(&argv[1..]),
        Some("select") => commands::select(&argv[1..]),
        Some("view") => commands::view(&argv[1..]),
        Some("linkpred") => commands::linkpred(&argv[1..]),
        Some("graphcls") => commands::graphcls(&argv[1..]),
        Some("train") => commands::train(&argv[1..]),
        Some("query") => commands::query(&argv[1..]),
        Some("build-index") => commands::build_index(&argv[1..]),
        Some("serve-bench") => commands::serve_bench(&argv[1..]),
        Some("kernels") => commands::kernels(&argv[1..]),
        Some("help") | Some("--help") | Some("-h") | None => {
            print_usage();
            0
        }
        Some(other) => {
            eprintln!("unknown command '{other}'\n");
            print_usage();
            2
        }
    };
    std::process::exit(code);
}

fn print_usage() {
    println!(
        "e2gcl — Efficient and Expressive Contrastive Learning on GNNs (ICDE 2024 reproduction)

USAGE:
    e2gcl <command> [options]

COMMANDS:
    datasets    list available dataset analogs and their statistics
    pretrain    pre-train a model and write node embeddings to JSON
    evaluate    pre-train + evaluate with the paper's linear-probe protocol
    select      run the Alg. 2 representative-node selector
    view        sample one Alg. 3 positive ego view for a node
    linkpred    pre-train on training edges, evaluate link prediction
    graphcls    pre-train on a multi-graph collection, classify graphs
    train       pre-train and save a serving artifact (encoder + embeddings)
    query       answer top-k similarity queries against a saved artifact
    build-index build a deterministic IVF ANN index over an artifact's store
    serve-bench measure batch-serving latency percentiles (p50/p95/p99)
    kernels     show dense-kernel dispatch state (CPU features, path, tiles)
    help        show this message

ENVIRONMENT:
    E2GCL_KERNEL_CONFIG  scalar | avx2 — forces the dense-kernel dispatch
                         path; unset picks avx2 where the host has AVX2+FMA,
                         else scalar

Options are `--flag value` or `--flag=value`; a flag the command does not
accept is a usage error (exit 2) that lists the accepted flags.

COMMON OPTIONS (pretrain, evaluate, select, view, linkpred, train, serve-bench):
    --dataset <name>     dataset analog (default cora-sim; see `e2gcl datasets`)
    --scale <f64>        fraction of the analog's full size (default 0.25)
    --model <name>       E2GCL | GRACE | GCA | MVGRL | BGRL | AFGRL | DGI |
                         GAE | VGAE | ADGCL | DW | N2V      (default E2GCL)
    --epochs <n>         pre-training epochs (default 30)
    --seed <u64>         RNG seed (default 0)
    --checkpoint <path>  durable training checkpoint path (off by default)
    --checkpoint-every <n>  epochs between durable checkpoints (default 5)
    --resume <bool>      resume from --checkpoint if present (default false)
    --minibatch <bool>   neighbour-sampled mini-batch training — E2GCL and
                         GRACE/GCA only (default false)
    --batch-nodes <n>    seed nodes per mini-batch (default 1024)
    --fanout <n>         neighbours kept per node per hop; 0 = unlimited
                         (default 0)
    --loss <name>        contrastive loss strategy: full | smallneg |
                         localized — E2GCL and GRACE/GCA only (default full)
    --negatives <k>      smallneg: representative negatives per epoch
                         (default 256)
    --loss-hops <h>      localized: negative neighbourhood radius (default 2)

PRETRAIN:
    --out <path>         output JSON path (default embeddings.json)

EVALUATE:
    --runs <n>           probe repetitions (default 5)

SELECT:
    --ratio <f64>        node budget ratio r (default 0.4)

VIEW:
    --node <n>           target node id (default 0)
    --tau <f32>          neighbour sampling ratio (default 1.0)
    --eta <f32>          feature perturbation scale (default 0.6)

GRAPHCLS (also --scale, --model, --epochs, --seed):
    --dataset <name>     nci1-sim | ptcmr-sim | proteins-sim (default nci1-sim)
    --runs <n>           probe repetitions (default 3)

TRAIN:
    --save <path>        artifact output path (default model.e2gcl)
    --fault-torn-write <bytes>  fault injection: write only the first
                         <bytes> bytes of the artifact (no atomic rename),
                         then exit non-zero — simulates a crash mid-save

QUERY:
    --artifact <path>    artifact to load (default model.e2gcl)
    --node <n>           query node id (default 0)
    --k <n>              neighbours to return (default 10)
    --mode <m>           stored | inductive (default stored)
    --index <kind>       none | ivf — route top-k through an ANN index
                         (default none = exact brute force)
    --nprobe <n>         ivf: inverted lists scanned per query, 0 = index
                         default (default 0)
    --index-path <path>  ivf: load the index from <path> if it exists,
                         otherwise build and save it there (a build takes
                         the BUILD-INDEX --nlist, --train-sample,
                         --kmeans-iters and --index-seed flags)

BUILD-INDEX:
    --artifact <path>    artifact whose embeddings to index (default model.e2gcl)
    --out <path>         index output path (default model.ivf)
    --nlist <n>          inverted lists (default ~sqrt(rows), clamped)
    --nprobe <n>         default lists scanned per query
    --train-sample <n>   rows sampled for k-means training
    --kmeans-iters <n>   Lloyd iterations
    --index-seed <u64>   quantizer seed (default: artifact seed)
    --recall-k <n>       k for the printed recall probe (default 10)
    --recall-queries <n> stored queries in the recall probe (default 64)

SERVE-BENCH:
    --artifact <path>    artifact to serve (omit to train a fresh model first)
    --rounds <n>         batches per batch size (default 50)
    --k <n>              top-k per query (default 10)
    --json <path>        machine-readable report
                         (default target/bench-results/serve_bench.json)
    --index <kind>       none | ivf — attach an ANN index to the server
                         (default none; accepts the QUERY ivf flags)
    --target-qps <f64>   closed-loop load-generator section at this offered
                         rate through the micro-batcher, 0 = skip (default 0)
    --loadgen-requests <n>  requests in the load-generator trial (default 2000)
    --max-batch <n>      micro-batcher: flush at this many requests (default 64)
    --max-wait-us <n>    micro-batcher: max coalescing wait (default 500)
    --burst <n>          overload section: requests per burst (default 64)
    --overload-rounds <n>  overload section: bursts offered (default 30)
    --queue-cap <n>      bounded admission queue + high-water mark (default 32)
    --deadline-us <n>    per-request deadline budget, 0 = none (default 0)
    --inductive-fail-every <n>  inject a persistent inductive fault on every
                         n-th query to exercise degradation (default 7)

KERNELS:
    takes no options; prints the CPU features, the dispatch path, where it
    came from (E2GCL_KERNEL_CONFIG or detection) and its fixed tile shapes"
    );
}
