//! Differential sweep over generated programs: every transform pass,
//! alone and in random compositions, against the interpreter oracle.
//!
//! The quick sweep runs in the default test pass. The full
//! acceptance-scale sweep (500 programs) is `#[ignore]`d and run by the
//! CI `test` job via `cargo test -- --ignored`.
//!
//! Any divergence is auto-shrunk and written to `tests/corpus/` as a
//! pretty-printed reproducer before the test fails; fixed bugs stay
//! pinned there and are replayed by `tests/corpus_replay.rs`.

use std::path::PathBuf;

use mempar_difftest::{check_spec, gen_spec, render_reproducer, shrink, CheckReport};

fn corpus_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/corpus")
}

/// Runs the differential check over `seeds`, shrinking and recording
/// any failure, and returns the aggregate tallies.
fn sweep(seeds: std::ops::Range<u64>) -> CheckReport {
    let mut total = CheckReport::default();
    let mut failures = Vec::new();
    for seed in seeds {
        let spec = gen_spec(seed);
        let report = check_spec(&spec);
        total.singles_ok += report.singles_ok;
        total.singles_rejected += report.singles_rejected;
        total.rejections_justified += report.rejections_justified;
        total.rejections_conservative += report.rejections_conservative;
        total.compositions_ok += report.compositions_ok;
        for d in report.divergences {
            let sig = d.signature();
            let small = shrink(&spec, &sig);
            let file = corpus_dir().join(format!("seed-{seed}.repro"));
            let _ = std::fs::create_dir_all(corpus_dir());
            let _ = std::fs::write(&file, render_reproducer(&small, &sig, &d.detail));
            failures.push(format!(
                "seed {seed}: {sig} (reproducer: {})",
                file.display()
            ));
        }
    }
    assert!(
        failures.is_empty(),
        "differential divergences:\n{}",
        failures.join("\n")
    );
    total
}

#[test]
fn quick_differential_sweep() {
    let t = sweep(0..60);
    assert!(t.singles_ok > 60, "too few single-pass applications: {t:?}");
    assert!(t.compositions_ok > 0, "no compositions checked: {t:?}");
}

/// Acceptance-scale sweep: 500 generated programs, every pass applied
/// at every loop nest, ≥100 random pass compositions, every legality
/// rejection probed for soundness. ~minutes; run explicitly or in CI.
#[test]
#[ignore = "acceptance-scale; run via cargo test -- --ignored (CI test job)"]
fn full_differential_sweep() {
    let t = sweep(0..500);
    assert!(t.singles_ok >= 500, "single-pass coverage too low: {t:?}");
    assert!(
        t.compositions_ok >= 100,
        "composition coverage too low: {t:?}"
    );
    assert!(
        t.rejections_justified > 0,
        "no rejection ever probed as load-bearing: {t:?}"
    );
}
