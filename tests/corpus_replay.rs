//! Replays every committed reproducer in `tests/corpus/`.
//!
//! Each `.repro` file was written by the differential harness when a
//! generated program exposed a real bug (see the `# signature:` header
//! and the pretty-printed minimized program inside). The underlying
//! bugs are fixed; this test re-runs the full differential check on
//! each pinned generator seed so the fixes can never silently regress.

use mempar_difftest::{check_spec, gen_spec, reproducer_seed, CORPUS_DIR};

#[test]
fn committed_reproducers_stay_fixed() {
    let mut entries: Vec<_> = std::fs::read_dir(CORPUS_DIR)
        .expect("tests/corpus exists")
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "repro"))
        .collect();
    entries.sort();
    assert!(
        !entries.is_empty(),
        "corpus is empty — reproducers from fixed bugs should be committed"
    );
    let mut regressions = Vec::new();
    for path in &entries {
        let text = std::fs::read_to_string(path).expect("readable reproducer");
        let seed = reproducer_seed(&text)
            .unwrap_or_else(|| panic!("{} lacks a `# seed:` header", path.display()));
        let report = check_spec(&gen_spec(seed));
        if !report.passed() {
            let sigs: Vec<String> = report.divergences.iter().map(|d| d.signature()).collect();
            regressions.push(format!(
                "{} (seed {seed}): {}",
                path.display(),
                sigs.join(", ")
            ));
        }
    }
    assert!(
        regressions.is_empty(),
        "previously fixed bugs regressed:\n{}",
        regressions.join("\n")
    );
}
