//! Workspace walking: find, classify, and lint every first-party source
//! file, then fold the committed allowlist into the result.

use std::fs;
use std::path::{Path, PathBuf};

use crate::allowlist::Allowlist;
use crate::diag::Diagnostic;
use crate::rules::{catalog, Rule};
use crate::source::{FileKind, SourceFile};

/// The first-party crates the linter scans (vendored dependency stubs
/// under `vendor/` are third-party API shims and stay out of scope).
pub const CRATES: [&str; 6] = ["histories", "simnet", "dsm", "apps", "bench", "lint"];

/// The outcome of linting the workspace.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Violations not covered by the allowlist — these fail the gate.
    pub diagnostics: Vec<Diagnostic>,
    /// Violations suppressed by a justified allowlist entry.
    pub suppressed: Vec<Diagnostic>,
    /// Allowlist format errors and stale entries — these also fail.
    pub errors: Vec<String>,
    /// Number of source files scanned.
    pub files_scanned: usize,
}

impl Outcome {
    /// Whether the gate passes.
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty() && self.errors.is_empty()
    }
}

/// The workspace root, resolved from this crate's manifest dir so the
/// binary works from any working directory.
pub fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("..").join("..")
}

/// Classify a file by its path relative to the crate directory.
fn classify(rel_in_crate: &str) -> Option<FileKind> {
    if !rel_in_crate.ends_with(".rs") {
        return None;
    }
    if rel_in_crate.starts_with("src/bin/") || rel_in_crate == "src/main.rs" {
        Some(FileKind::Bin)
    } else if rel_in_crate.starts_with("src/") {
        Some(FileKind::Lib)
    } else if rel_in_crate.starts_with("tests/") {
        Some(FileKind::Test)
    } else if rel_in_crate.starts_with("examples/") {
        Some(FileKind::Example)
    } else {
        None
    }
}

/// Recursively collect `.rs` files under `dir`, sorted for deterministic
/// diagnostic order.
fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    let mut paths: Vec<PathBuf> = entries.filter_map(|e| e.ok().map(|e| e.path())).collect();
    paths.sort();
    for p in paths {
        if p.is_dir() {
            // The lint crate's own fixtures are deliberate violations.
            if p.file_name().is_some_and(|n| n == "fixtures") {
                continue;
            }
            collect_rs_files(&p, out);
        } else if p.extension().is_some_and(|e| e == "rs") {
            out.push(p);
        }
    }
}

/// Load and lex every first-party source file under `root`.
pub fn load_sources(root: &Path) -> Vec<SourceFile> {
    let mut sources = Vec::new();
    for crate_name in CRATES {
        let crate_dir = root.join("crates").join(crate_name);
        let mut files = Vec::new();
        collect_rs_files(&crate_dir, &mut files);
        for path in files {
            let Ok(rel) = path.strip_prefix(&crate_dir) else {
                continue;
            };
            let rel_in_crate = rel.to_string_lossy().replace('\\', "/");
            let Some(kind) = classify(&rel_in_crate) else {
                continue;
            };
            let Ok(text) = fs::read_to_string(&path) else {
                continue;
            };
            let rel_path = format!("crates/{crate_name}/{rel_in_crate}");
            sources.push(SourceFile::new(crate_name, &rel_path, kind, &text));
        }
    }
    sources
}

/// Run every rule over every file and apply the allowlist at
/// `crates/lint/allowlist.txt` (a missing file is an empty allowlist).
pub fn run_workspace(root: &Path) -> Outcome {
    let sources = load_sources(root);
    let rules = catalog();
    let mut diags = Vec::new();
    for rule in &rules {
        for file in &sources {
            diags.extend(rule.check(file));
        }
    }
    let allow_text = fs::read_to_string(root.join("crates/lint/allowlist.txt")).unwrap_or_default();
    let (allow, mut errors) = Allowlist::parse(&allow_text);
    let (unsuppressed, suppressed, stale) = allow.apply(diags);
    errors.extend(stale);
    Outcome {
        diagnostics: unsuppressed,
        suppressed,
        errors,
        files_scanned: sources.len(),
    }
}

/// Run the per-rule fixture harness: each rule's `violation.rs` must
/// fire at least one diagnostic and its `clean.rs` must fire none. A rule
/// that checks several unrelated patterns may ship further pairs named
/// `violation_<what>.rs` / `clean_<what>.rs`, held to the same standard,
/// so each pattern is pinned by a fixture that contains nothing else.
/// A rule with a scoped [`crate::rules::Exemption`] must additionally
/// ship an `exempt.rs` that fires under the rule's normal context and
/// stays silent when lexed under the exempt path — pinning both sides
/// of the waiver boundary.
/// Returns human-readable failures (empty = all fixtures behave).
pub fn run_fixture_harness(root: &Path) -> Vec<String> {
    let mut failures = Vec::new();
    for rule in catalog() {
        let dir = root
            .join("crates/lint/fixtures")
            .join(rule.name().replace('-', "_"));
        if let Some(exemption) = rule.exemption() {
            let path = dir.join("exempt.rs");
            match fs::read_to_string(&path) {
                Err(e) => failures.push(format!(
                    "[{}] rule declares an exemption but has no exempt.rs fixture ({}): {e}",
                    rule.name(),
                    path.display()
                )),
                Ok(text) => {
                    let (crate_name, rel_path, kind) = rule.fixture_context();
                    let normal = SourceFile::new(crate_name, rel_path, kind, &text);
                    if rule.check(&normal).is_empty() {
                        failures.push(format!(
                            "[{}] exempt.rs stayed silent under the normal context — \
                             it must demonstrate what the exemption waives",
                            rule.name()
                        ));
                    }
                    for prefix in exemption.path_prefixes {
                        let exempt_path = format!("{prefix}.rs");
                        let exempt = SourceFile::new(crate_name, &exempt_path, kind, &text);
                        if !rule.check(&exempt).is_empty() {
                            failures.push(format!(
                                "[{}] exempt.rs fired under exempt path {exempt_path}",
                                rule.name()
                            ));
                        }
                    }
                }
            }
        }
        let mut cases = vec!["violation.rs".to_string(), "clean.rs".to_string()];
        let extra = fs::read_dir(&dir).into_iter().flatten().flatten();
        cases.extend(
            extra
                .map(|e| e.file_name().to_string_lossy().into_owned())
                .filter(|n| n.ends_with(".rs"))
                .filter(|n| n.starts_with("violation_") || n.starts_with("clean_")),
        );
        cases.sort();
        for case in &cases {
            let want_fire = case.starts_with("violation");
            let path = dir.join(case);
            let text = match fs::read_to_string(&path) {
                Ok(t) => t,
                Err(e) => {
                    failures.push(format!(
                        "[{}] missing fixture {}: {e}",
                        rule.name(),
                        path.display()
                    ));
                    continue;
                }
            };
            let (crate_name, rel_path, kind) = rule.fixture_context_for(case);
            let file = SourceFile::new(crate_name, rel_path, kind, &text);
            let fired = !rule.check(&file).is_empty();
            if fired != want_fire {
                failures.push(format!(
                    "[{}] fixture {case}: expected {} but rule {}",
                    rule.name(),
                    if want_fire {
                        "violations"
                    } else {
                        "no violations"
                    },
                    if fired { "fired" } else { "stayed silent" },
                ));
            }
        }
    }
    failures
}

/// Run a single rule (by name) over one file on disk, treating it under
/// that rule's fixture context. Used by the `--rule` CLI mode.
pub fn run_single_rule(rule_name: &str, file_path: &Path) -> Result<Vec<Diagnostic>, String> {
    let rule: Box<dyn Rule> = catalog()
        .into_iter()
        .find(|r| r.name() == rule_name)
        .ok_or_else(|| format!("unknown rule `{rule_name}` (see --list)"))?;
    let text =
        fs::read_to_string(file_path).map_err(|e| format!("{}: {e}", file_path.display()))?;
    let case = file_path.file_name().map(|n| n.to_string_lossy());
    let (crate_name, rel_path, kind) = rule.fixture_context_for(case.as_deref().unwrap_or(""));
    Ok(rule.check(&SourceFile::new(crate_name, rel_path, kind, &text)))
}
