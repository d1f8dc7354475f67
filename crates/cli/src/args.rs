//! The CLI's argument parsing: the flag groups the commands share and
//! [`parse`], which checks an argument vector against them with the bench
//! bins' [`FlagSet`].

use e2gcl_bench::flags::{FlagError, FlagSet, Flags};

/// Flags of every command that builds its dataset, model and training
/// config through `commands::common`.
pub const COMMON: &[&str] = &[
    "dataset",
    "scale",
    "model",
    "epochs",
    "seed",
    "checkpoint",
    "checkpoint-every",
    "resume",
    "minibatch",
    "batch-nodes",
    "fanout",
    "loss",
    "negatives",
    "loss-hops",
];

/// Flags of `commands::ivf_for_store`, shared by `query` and `serve-bench`.
pub const IVF: &[&str] = &[
    "index-path",
    "nprobe",
    "nlist",
    "train-sample",
    "kmeans-iters",
    "index-seed",
];

/// Parses `argv` against the union of the flag `groups`; every CLI flag
/// takes a value, as `--flag value` or `--flag=value`.
pub fn parse(argv: &[String], groups: &[&[&'static str]]) -> Result<Flags, FlagError> {
    groups
        .iter()
        .flat_map(|group| group.iter())
        .fold(FlagSet::default(), |set, name| set.valued(name))
        .parse(argv)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &[&str]) -> Vec<String> {
        s.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn parses_pairs_with_defaults() {
        let a = parse(
            &argv(&["--dataset", "cora-sim", "--epochs", "5"]),
            &[COMMON],
        )
        .unwrap();
        assert_eq!(a.get("dataset", "x"), "cora-sim");
        assert_eq!(a.get("model", "fallback"), "fallback");
        assert_eq!(a.get_parse("epochs", 0usize).unwrap(), 5);
        assert_eq!(a.get_parse("seed", 7u64).unwrap(), 7);
    }

    #[test]
    fn parses_equals_syntax_and_mixes() {
        let a = parse(
            &argv(&["--dataset=cora-sim", "--epochs", "5", "--scale=0.1"]),
            &[COMMON],
        )
        .unwrap();
        assert_eq!(a.get("dataset", "x"), "cora-sim");
        assert_eq!(a.get_parse("epochs", 0usize).unwrap(), 5);
        assert_eq!(a.get_parse("scale", 0.0f64).unwrap(), 0.1);
        // Values may themselves contain '=' (only the first splits).
        let b = parse(&argv(&["--checkpoint=run=1.ckpt"]), &[COMMON]).unwrap();
        assert_eq!(b.get("checkpoint", ""), "run=1.ckpt");
        // An explicitly empty value is allowed with '='.
        let c = parse(&argv(&["--out="]), &[COMMON, &["out"]]).unwrap();
        assert_eq!(c.get("out", "default"), "");
    }

    #[test]
    fn rejects_malformed() {
        assert!(parse(&argv(&["positional"]), &[COMMON]).is_err());
        assert!(parse(&argv(&["--dataset"]), &[COMMON]).is_err());
        assert!(parse(&argv(&["--flag", "1"]), &[COMMON]).is_err());
        let a = parse(&argv(&["--epochs", "abc"]), &[COMMON]).unwrap();
        assert!(a.get_parse("epochs", 0usize).is_err());
    }
}
