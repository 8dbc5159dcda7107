//! Seeded benchmark of the ABC-FHE client pipeline and gateway.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <upload-n16|download-n16|gateway-closed-n13> --seed <n> \
//!     --seconds <s> --trace <0|1> [--log-n <k>] [--trace-out <path>]
//! ```
//!
//! Prints the host fingerprint, one row per metric, and as the last
//! line one JSON object `{"correct", "attempted", "failed", "metrics"}`:
//! the end-to-end metrics untraced (`--trace 0`), the per-layer metrics
//! traced (`--trace 1`, spans written to `--trace-out`). Exits 1 when
//! an output check fails and 2 on a usage or set-up error. See
//! `perfbench/README.md` for the workloads and metric definitions.

mod client;
mod gateway;
mod gauge;
mod report;
mod stats;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;

/// The parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Ring-degree override for smoke runs.
    pub log_n: Option<u32>,
    /// Deliberately corrupts one output before it is checked, to prove
    /// the checks catch it.
    pub corrupt: bool,
    pub trace_out: Option<PathBuf>,
}

impl Args {
    fn parse(mut argv: impl Iterator<Item = String>) -> Result<Self, String> {
        let mut args = Args {
            workload: String::new(),
            seed: 1,
            seconds: 10.0,
            trace: false,
            log_n: None,
            corrupt: false,
            trace_out: None,
        };
        while let Some(flag) = argv.next() {
            if flag == "--corrupt-output" {
                args.corrupt = true;
                continue;
            }
            let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
            match flag.as_str() {
                "--workload" => args.workload = value,
                "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
                "--seconds" => {
                    args.seconds = value.parse().map_err(|e| bad(&e))?;
                    if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                        return Err(bad(&"must be in (0, 600]"));
                    }
                }
                "--trace" => {
                    args.trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad(&"must be 0 or 1")),
                    }
                }
                "--log-n" => args.log_n = Some(value.parse().map_err(|e| bad(&e))?),
                "--trace-out" => args.trace_out = Some(PathBuf::from(value)),
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        Ok(args)
    }

    /// Where a traced run writes its spans.
    pub fn trace_path(&self) -> PathBuf {
        self.trace_out.clone().unwrap_or_else(|| {
            PathBuf::from(format!(
                "perfbench/out/trace-{}-seed{}.jsonl",
                self.workload, self.seed
            ))
        })
    }
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("usage error: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = match args.workload.as_str() {
        "upload-n16" => client::upload(&args),
        "download-n16" => client::download(&args),
        "gateway-closed-n13" => gateway::run(&args),
        other => Err(format!(
            "unknown workload {other:?} (upload-n16, download-n16, gateway-closed-n13)"
        )),
    };
    match outcome {
        Ok(out) => {
            if out.print(args.trace) {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("benchmark error: {e}");
            ExitCode::from(2)
        }
    }
}
