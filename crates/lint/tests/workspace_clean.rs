//! The real workspace, under the real policy, must have zero findings
//! beyond the checked-in baseline. This is the test that makes
//! `cargo test` enforce the concurrency invariants on every PR.

use nova_lint::check_workspace;
use nova_lint::report::{partition, Baseline};
use nova_lint::rules::RuleConfig;
use std::path::Path;

#[test]
fn workspace_has_no_findings_beyond_the_baseline() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let findings = check_workspace(&root, &RuleConfig::nova()).expect("workspace scan");
    let baseline_src =
        std::fs::read_to_string(root.join("lint-baseline.json")).expect("lint-baseline.json");
    let baseline = Baseline::parse(&baseline_src);
    let (new, _baselined) = partition(&findings, &baseline);
    assert!(
        new.is_empty(),
        "new lint findings — annotate the site (see DESIGN.md §11) or, \
         for accepted debt, re-run with --write-baseline:\n{}",
        new.iter()
            .map(|f| format!("  {}:{} [{}] {}", f.file, f.line, f.rule, f.message))
            .collect::<Vec<_>>()
            .join("\n")
    );
}

/// The allowlist is a review event, so it must not outlive the code it
/// was granted for: every file it names exists and still contains
/// `unsafe` (`sharded.rs` once sat here long after its last block went).
#[test]
fn the_unsafe_allowlist_names_only_files_that_contain_unsafe() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    for file in &RuleConfig::nova().unsafe_allowlist {
        let src = std::fs::read_to_string(root.join(file))
            .unwrap_or_else(|e| panic!("allowlisted {file} is unreadable: {e}"));
        assert!(
            src.contains("unsafe {") || src.contains("unsafe fn"),
            "{file} is allowlisted for unsafe but contains none — drop it from \
             RuleConfig::nova()"
        );
    }
}

#[test]
fn the_walker_sees_the_whole_workspace() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let files = nova_lint::workspace_files(&root).expect("walk");
    let rels: Vec<String> = files
        .iter()
        .map(|p| nova_lint::rel_path(&root, p))
        .collect();
    // Spot-check that the files the policy names are actually scanned —
    // a silent walker regression would make the clean run meaningless.
    for must in [
        "crates/exec/src/join.rs",
        "crates/exec/src/channel.rs",
        "crates/exec/src/metrics.rs",
        "crates/exec/src/affinity.rs",
        "crates/runtime/src/window.rs",
    ] {
        assert!(rels.iter().any(|r| r == must), "walker missed {must}");
    }
    // And that fixtures stay out of real runs.
    assert!(
        rels.iter().all(|r| !r.contains("fixtures")),
        "fixtures leaked into the workspace scan"
    );
}
