//! `exp` — runs one experiment of the paper's §7 evaluation and prints its
//! table.
//!
//! ```text
//! exp <experiment> [--quick] [--jobs=N] [--trace-out=PATH]
//!     [--metrics-csv=PATH] [--metrics-interval=CYCLES]
//!     [--runner-json=PATH | --no-runner-json]
//! exp profile_bsp [...] [--app=NAME] [--ops=N] [--json=PATH]
//! ```
//!
//! Experiments: `fig11`–`fig14`, `ablation_flush`,
//! `ablation_writethrough`, `ablation_idt_pairs`, `ablation_inflight`,
//! `ablation_banks` and `profile_bsp` (see `pbm_bench::experiments`).
//! A bad command line prints `error: …` and exits 2.

use pbm_bench::{cli, experiments};

fn main() {
    let (exp, opts) = cli::or_exit(experiments::parse(&cli::args()));
    if let Err(e) = exp.run(&opts, &mut std::io::stdout().lock()) {
        cli::die(&format!("cannot write the {} table: {e}", exp.name));
    }
}
