//! `tiera-bench` — the deterministic smokes that have no successor in
//! `benchmark/`.
//!
//! ```text
//! tiera-bench chaos [--quick] [--seed N] [--out PATH]
//! tiera-bench cluster-chaos [--quick] [--seed N] [--out PATH]
//! tiera-bench rpc-smoke [--quick]
//! ```
//!
//! `chaos` drives the deterministic chaos scenarios at one seed;
//! `cluster-chaos` runs the node-fault matrix (kill, partition,
//! rejoin-stale, kill-during-rebalance × two seeds). Both build a
//! replayable JSON summary — printed to stdout, or written to `--out
//! PATH` — validate it, and exit non-zero on an invariant violation.
//! `rpc-smoke` runs a fast end-to-end round trip of the RPC plane (echo, a
//! full pipeline window, batches, and the legacy v1 framing) against a
//! live in-process server.
//!
//! Nothing here measures wall-clock: that is `benchmark/` (the referee
//! `BENCHMARK.json` names), and the paper's figures are the virtual-time
//! `experiments` binary.

use std::process::ExitCode;

use tiera_bench::{chaos_report, cluster_bench, rpc_smoke};

const USAGE: &str = "usage:\n  tiera-bench chaos [--quick] [--seed N] [--out PATH]\n  tiera-bench cluster-chaos [--quick] [--seed N] [--out PATH]\n  tiera-bench rpc-smoke [--quick]";

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Command {
    Chaos,
    ClusterChaos,
    RpcSmoke,
}

#[derive(Debug, PartialEq, Eq)]
struct Flags {
    quick: bool,
    seed: u64,
    out: Option<String>,
}

/// The one argument parser: a subcommand, then `--quick`, `--seed N` and
/// `--out PATH` in any order (`rpc-smoke` reports nothing, so it takes
/// only `--quick`). `None` means "print usage and fail".
fn parse(args: &[String]) -> Option<(Command, Flags)> {
    let (name, rest) = args.split_first()?;
    let command = match name.as_str() {
        "chaos" => Command::Chaos,
        "cluster-chaos" => Command::ClusterChaos,
        "rpc-smoke" => Command::RpcSmoke,
        _ => return None,
    };
    let reports = command != Command::RpcSmoke;
    let mut flags = Flags {
        quick: false,
        seed: 1,
        out: None,
    };
    let mut rest = rest.iter();
    while let Some(arg) = rest.next() {
        match arg.as_str() {
            "--quick" => flags.quick = true,
            "--seed" if reports => flags.seed = rest.next()?.parse().ok()?,
            "--out" if reports => flags.out = Some(rest.next()?.clone()),
            _ => return None,
        }
    }
    Some((command, flags))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, flags)) = parse(&args) else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    // The lockcheck sanitizer adds a per-acquisition graph walk; its own
    // suite (`cargo test --features tiera-support/lockcheck`) is where it
    // runs. A `tiera-bench` built with it is a mis-built binary.
    if tiera_support::sync::LOCKCHECK {
        eprintln!(
            "tiera-bench: this binary was built with the `lockcheck` feature; \
             refusing to run (rebuild without --features lockcheck)"
        );
        return ExitCode::FAILURE;
    }
    let name = &args[0]; // the subcommand `parse` accepted
    let Flags { quick, seed, out } = flags;
    if command == Command::RpcSmoke {
        return match rpc_smoke::rpc_smoke() {
            Ok(()) => {
                eprintln!("rpc-smoke: ok (pipelined echo, pipeline window, batches, v1 framing)");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("rpc-smoke: {e}");
                ExitCode::FAILURE
            }
        };
    }
    eprintln!(
        "{name}: seed={seed}{} (replay with: tiera-bench {name} --seed {seed})",
        if quick { " (quick mode)" } else { "" }
    );
    let (report, verdict) = if command == Command::Chaos {
        let report = chaos_report::run(&chaos_report::Options { quick, seed });
        let verdict = chaos_report::validate(&report);
        (report, verdict)
    } else {
        let report = cluster_bench::run_matrix(&cluster_bench::MatrixOptions { quick, seed });
        let verdict = cluster_bench::validate_matrix(&report);
        (report, verdict)
    };
    match out {
        Some(path) => {
            if let Err(e) = std::fs::write(&path, report.to_pretty()) {
                eprintln!("write {path}: {e}");
                return ExitCode::FAILURE;
            }
            eprintln!("wrote {path}");
        }
        None => println!("{}", report.to_pretty()),
    }
    match verdict {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("{name} run failed invariants: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_accepts_the_three_subcommands_and_nothing_else() {
        let ok = |command, quick, seed, out: Option<&str>| {
            Some((
                command,
                Flags {
                    quick,
                    seed,
                    out: out.map(String::from),
                },
            ))
        };
        // `None`: the CLI prints usage and exits non-zero.
        for (line, expected) in [
            (
                "chaos --quick --seed 7 --out p",
                ok(Command::Chaos, true, 7, Some("p")),
            ),
            ("chaos", ok(Command::Chaos, false, 1, None)),
            (
                "cluster-chaos --out q --seed 9",
                ok(Command::ClusterChaos, false, 9, Some("q")),
            ),
            ("rpc-smoke --quick", ok(Command::RpcSmoke, true, 1, None)),
            ("", None),
            ("chaos --seed", None),
            ("chaos --seed seven", None),
            ("chaos --bogus", None),
            ("cluster-chaos --out", None),
            ("rpc-smoke --seed 1", None),
            ("rpc-smoke --out p", None),
            // The retired first bench generation.
            ("hotpath", None),
            ("metastore --quick", None),
            ("tco --quick", None),
            ("cluster --quick", None),
            ("check report.json", None),
        ] {
            let args: Vec<String> = line.split_whitespace().map(String::from).collect();
            assert_eq!(parse(&args), expected, "`tiera-bench {line}`");
        }
    }
}
