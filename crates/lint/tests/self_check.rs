//! The linter's strongest test: the live workspace must pass with the
//! committed allowlist — zero unsuppressed violations, zero allowlist
//! errors, every allowlist entry justified and live.

use lint::{run_workspace, workspace_root};

#[test]
fn live_workspace_is_lint_clean_under_committed_allowlist() {
    let outcome = run_workspace(&workspace_root());
    let mut report = String::new();
    for d in &outcome.diagnostics {
        report.push_str(&format!("{d}\n"));
    }
    for e in &outcome.errors {
        report.push_str(&format!("error: {e}\n"));
    }
    assert!(
        outcome.is_clean(),
        "workspace not lint-clean:\n{report}\n({} violation(s), {} error(s))",
        outcome.diagnostics.len(),
        outcome.errors.len()
    );
    // The walk found a plausible number of sources — guards against a
    // path bug silently scanning nothing and vacuously passing.
    assert!(
        outcome.files_scanned >= 30,
        "only {} files scanned; workspace walk looks broken",
        outcome.files_scanned
    );
}

#[test]
fn every_allowlist_entry_is_justified() {
    let text = std::fs::read_to_string(workspace_root().join("crates/lint/allowlist.txt"))
        .expect("allowlist.txt is checked in");
    let (allow, errors) = lint::Allowlist::parse(&text);
    assert!(errors.is_empty(), "allowlist format errors: {errors:?}");
    for e in &allow.entries {
        assert!(
            e.justification.len() >= 15,
            "allowlist line {}: justification `{}` is too thin to count as written rationale",
            e.file_line,
            e.justification
        );
    }
}

#[test]
fn suppressed_violations_stay_rare() {
    let outcome = run_workspace(&workspace_root());
    assert!(
        outcome.suppressed.len() <= 8,
        "{} suppressed violations — the allowlist is growing; fix code instead",
        outcome.suppressed.len()
    );
}

/// Every (file, function) pair the scope tables name exists in the live
/// tree: a renamed or deleted function would otherwise leave its entry
/// silently checking nothing.
#[test]
fn every_scoped_function_exists_in_the_live_tree() {
    let root = workspace_root();
    let sync_path = (lint::rules::SYNC_PATH_FILE, &lint::rules::SYNC_PATH_FNS[..]);
    for (path, fns) in lint::rules::DELIVERY_SCOPE.into_iter().chain([sync_path]) {
        let text = std::fs::read_to_string(root.join(path))
            .unwrap_or_else(|e| panic!("scope names {path}, which cannot be read: {e}"));
        let file = lint::SourceFile::new("scope", path, lint::FileKind::Lib, &text);
        for name in fns {
            assert!(
                !file.fn_body_spans(&[name]).is_empty(),
                "scope names `{name}` in {path}, which has no such function outside tests"
            );
        }
    }
}
