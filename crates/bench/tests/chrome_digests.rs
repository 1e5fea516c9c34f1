//! Chrome trace export pin. Every quick fig11 cell runs traced and
//! sampled (the sampler at `exp`'s default cadence, so counter tracks are
//! in the document), and its Chrome export's byte length and 64-bit
//! FNV-1a digest are compared with `tests/golden/chrome_digests.txt`. A
//! rewrite of the exporter must leave the file as it is. To refresh after
//! an intended change, copy the rendered text the failure names there.

use pbm_bench::experiments;
use pbm_bench::obs::DEFAULT_METRICS_INTERVAL;
use pbm_obs::chrome::export_chrome_trace;
use pbm_sim::System;
use pbm_types::Cycle;
use std::fmt::Write;

/// 64-bit FNV-1a of `bytes`.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[test]
fn quick_fig11_chrome_exports_match_the_golden() {
    let args = ["fig11", "--quick"].map(String::from);
    let (exp, opts) = experiments::parse(&args).expect("valid command line");
    let mut got = String::new();
    for (config, workload, cfg, wl) in exp.grid(&opts) {
        let mut sys = System::new(cfg, wl.programs.clone()).expect("valid cell");
        wl.apply_preloads(&mut sys);
        sys.enable_tracing();
        sys.enable_metrics(Cycle::new(DEFAULT_METRICS_INTERVAL));
        sys.run();
        let samples = sys.take_metric_samples();
        assert!(!samples.is_empty(), "{config} {workload}: sampled");
        let json = export_chrome_trace(&sys.take_trace_events(), &samples);
        writeln!(
            got,
            "fig11 {config} {workload} bytes={} fnv1a={:016x}",
            json.len(),
            fnv1a(json.as_bytes())
        )
        .expect("write to string");
    }
    let path = format!(
        "{}/tests/golden/chrome_digests.txt",
        env!("CARGO_MANIFEST_DIR")
    );
    let want = std::fs::read_to_string(&path).unwrap_or_default();
    if got != want {
        let fresh =
            std::env::temp_dir().join(format!("pbm-chrome-digests-{}.txt", std::process::id()));
        std::fs::write(&fresh, &got).expect("write rendered digests");
        panic!(
            "Chrome exports drifted from {path}; rendered text in {}",
            fresh.display()
        );
    }
}
