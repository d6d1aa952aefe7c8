//! `eslev-perfbench`: end-to-end and per-layer benchmark of the ESL-EV
//! engine over three RFID workloads. See README.md for the metric map.
//!
//! ```text
//! eslev-perfbench --workload <e1_dedup|seq_modes|e1_disorder>
//!     --seed <n> --seconds <s> --trace <0|1> --rate <tuples/s>
//!     [--scale full|smoke] [--rustc <version>] [--git-rev <rev>]
//!     [--spans <path>]
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
//! metrics are the end-to-end ones, with `--trace 1` the per-layer ones.

mod gen;
mod replay;
mod run;
mod stats;
mod sut;
mod trace;

// Counts allocations for the `*.allocs_per_tuple` metrics; a pass-through
// to the system allocator outside `count_alloc::measure`.
#[global_allocator]
static GLOBAL: eslev_bench::count_alloc::CountingAlloc = eslev_bench::count_alloc::CountingAlloc;

use sut::Workload;

/// Parsed command line.
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub rate: f64,
    pub smoke: bool,
    pub rustc: String,
    pub git_rev: String,
    pub spans: Option<std::path::PathBuf>,
}

const USAGE: &str = "usage: eslev-perfbench --workload <e1_dedup|seq_modes|e1_disorder> \
--seed <n> --seconds <s> --trace <0|1> --rate <tuples/s> [--scale full|smoke] \
[--rustc <version>] [--git-rev <rev>] [--spans <path>]";

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut rate = None;
    let mut smoke = false;
    let mut rustc = "unknown".to_string();
    let mut git_rev = "unknown".to_string();
    let mut spans = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(Workload::parse(&v).ok_or(format!("unknown workload `{v}`"))?);
            }
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = Some(value()?.parse().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not `{v}`")),
                })
            }
            "--rate" => rate = Some(value()?.parse().map_err(|e| format!("--rate: {e}"))?),
            "--scale" => {
                smoke = match value()?.as_str() {
                    "full" => false,
                    "smoke" => true,
                    v => return Err(format!("--scale takes full or smoke, not `{v}`")),
                }
            }
            "--rustc" => rustc = value()?,
            "--git-rev" => git_rev = value()?,
            "--spans" => spans = Some(value()?.into()),
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    let seconds: f64 = seconds.ok_or("--seconds is required")?;
    let rate: f64 = rate.ok_or("--rate is required")?;
    if !(seconds > 0.0 && rate > 0.0) {
        return Err("--seconds and --rate must be positive".to_string());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
        rate,
        smoke,
        rustc,
        git_rev,
        spans,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    match run::run(&args) {
        Ok(result) => println!("{result}"),
        Err(e) => {
            eprintln!("benchmark failed: {e}");
            std::process::exit(1);
        }
    }
}
