//! Self-check: the committed workspace must pass its own analyzer with
//! the committed allowlist — the same gate CI runs. A failure here means
//! either new unvetted code (add the SAFETY comment / domain doc / typed
//! error) or a stale `analysis-allow.toml` entry (delete it).

use std::path::Path;

#[test]
fn live_workspace_is_clean_under_the_committed_allowlist() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root two levels up from crates/analysis");
    let outcome = abc_analysis::run_check(root, &root.join("analysis-allow.toml"))
        .expect("analyzer runs over the workspace");
    assert!(
        outcome.files_scanned > 50,
        "suspiciously few files scanned ({}) — walk broken?",
        outcome.files_scanned
    );
    let diagnostics: Vec<String> = outcome
        .reported
        .iter()
        .map(abc_analysis::Finding::human)
        .chain(outcome.unused_allow.iter().cloned())
        .collect();
    assert!(
        outcome.is_clean(),
        "workspace has unvetted findings or stale allow entries:\n{}",
        diagnostics.join("\n")
    );
    // The allowlist is small and deliberate; every entry must be live.
    assert!(
        !outcome.allowed.is_empty(),
        "expected the sanctioned env read sites to be allowlisted"
    );
    // One parallelism policy: exactly one limb fan-out `thread::scope`
    // and one worker-pool `thread::Builder` in library code, no more.
    let mut threads: Vec<(&str, &str)> = outcome
        .allowed
        .iter()
        .filter(|a| a.finding.rule == "thread-spawn")
        .map(|a| (a.finding.path.as_str(), a.finding.excerpt.as_str()))
        .collect();
    threads.sort();
    assert_eq!(threads.len(), 2, "{threads:?}");
    assert_eq!(threads[0].0, "crates/gateway/src/service.rs");
    assert!(threads[0].1.contains("std::thread::Builder"), "{threads:?}");
    assert_eq!(threads[1].0, "crates/transform/src/rns_ntt.rs");
    assert!(threads[1].1.contains("std::thread::scope"), "{threads:?}");
}
