//! Every experiment's quick-scale output, byte for byte: each renders at
//! `--quick --jobs=1` into a string and must equal
//! `tests/golden/<name>-quick.txt`. `profile_bsp`'s per-cell host
//! wall-clock (`wall=…`) is the one nondeterministic field; it is masked
//! as `wall=_` on both sides.

use pbm_bench::experiments::{self, EXPERIMENTS};

fn mask_wall(text: &str) -> String {
    let words = text.split(' ');
    let masked = words.map(|w| if w.starts_with("wall=") { "wall=_" } else { w });
    masked.collect::<Vec<_>>().join(" ")
}

#[test]
fn every_experiment_matches_its_quick_golden() {
    for exp in &EXPERIMENTS {
        let args = [exp.name, "--quick", "--jobs=1", "--no-runner-json"].map(String::from);
        let (exp, opts) = experiments::parse(&args).expect("valid command line");
        let mut out = Vec::new();
        exp.run(&opts, &mut out).expect("render into memory");
        let got = String::from_utf8(out).expect("utf-8 table");
        let path = format!(
            "{}/tests/golden/{}-quick.txt",
            env!("CARGO_MANIFEST_DIR"),
            exp.name
        );
        let want = std::fs::read_to_string(&path).expect("golden file");
        assert_eq!(
            mask_wall(&got),
            mask_wall(&want),
            "{} drifted from {path}",
            exp.name
        );
    }
}
