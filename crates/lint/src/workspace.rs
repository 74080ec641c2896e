//! Workspace discovery and the full-run driver: find every Rust source and
//! manifest under the repository root, lint them in two phases (per-file
//! lexical, then workspace-wide semantic), and fold in the baseline.

use crate::baseline;
use crate::rules::{self, Finding, LintConfig};
use std::collections::{BTreeMap, BTreeSet};
use std::io;
use std::path::{Path, PathBuf};

/// Result of a whole-workspace run.
#[derive(Debug, Default)]
pub struct RunResult {
    /// Findings that fail the gate (not suppressed, not baselined).
    pub active: Vec<Finding>,
    /// Findings silenced by a reasoned `lint:allow`.
    pub suppressed: Vec<Finding>,
    /// Findings covered by the committed baseline.
    pub baselined: Vec<Finding>,
    /// Baseline entries that no longer match anything (burned down or moved).
    pub stale_baseline: Vec<String>,
    /// Number of Rust files scanned.
    pub files_scanned: usize,
}

/// Collects the workspace's Rust sources, relative to `root`, sorted.
/// Fixture directories are skipped — they hold deliberately-dirty inputs
/// for the linter's own tests.
pub fn discover_sources(root: &Path) -> io::Result<Vec<PathBuf>> {
    let mut dirs: Vec<PathBuf> = Vec::new();
    for top in ["src", "tests", "examples", "benches"] {
        dirs.push(root.join(top));
    }
    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        for entry in std::fs::read_dir(&crates_dir)? {
            let p = entry?.path();
            if p.is_dir() {
                for sub in ["src", "tests", "examples", "benches"] {
                    dirs.push(p.join(sub));
                }
            }
        }
    }
    let mut files = Vec::new();
    for d in dirs {
        if d.is_dir() {
            walk(&d, &mut files)?;
        }
    }
    let mut rel: Vec<PathBuf> = files
        .into_iter()
        .filter_map(|f| f.strip_prefix(root).ok().map(Path::to_path_buf))
        .collect();
    rel.sort();
    Ok(rel)
}

fn walk(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let p = entry?.path();
        let name = p.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if p.is_dir() {
            if name == "fixtures" || name == "target" {
                continue;
            }
            walk(&p, out)?;
        } else if name.ends_with(".rs") {
            out.push(p);
        }
    }
    Ok(())
}

/// Collects the workspace manifests (root + every crate), sorted.
pub fn discover_manifests(root: &Path) -> io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    if root.join("Cargo.toml").is_file() {
        out.push(PathBuf::from("Cargo.toml"));
    }
    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        for entry in std::fs::read_dir(&crates_dir)? {
            let p = entry?.path();
            let m = p.join("Cargo.toml");
            if m.is_file() {
                out.push(m.strip_prefix(root).unwrap_or(&m).to_path_buf());
            }
        }
    }
    out.sort();
    Ok(out)
}

/// Parses each manifest's `[package] name` and maps the crate's directory
/// prefix (`"crates/minlp/"`; `""` for the root package) to the underscore
/// form of the name (`"hslb_minlp"`). The semantic phase uses this to
/// narrow crate-qualified calls (`hslb_lp::solve`).
pub fn crate_name_map(root: &Path) -> io::Result<BTreeMap<String, String>> {
    let mut map = BTreeMap::new();
    for rel in discover_manifests(root)? {
        let text = std::fs::read_to_string(root.join(&rel))?;
        let mut in_package = false;
        for line in text.lines() {
            let line = line.trim();
            if line.starts_with('[') {
                in_package = line == "[package]";
                continue;
            }
            if !in_package {
                continue;
            }
            if let Some(v) = line.strip_prefix("name") {
                if let Some(v) = v.trim_start().strip_prefix('=') {
                    let name = v.trim().trim_matches('"').replace('-', "_");
                    let rel_s = rel.to_string_lossy().replace('\\', "/");
                    let prefix = rel_s.strip_suffix("Cargo.toml").unwrap_or("").to_string();
                    map.insert(prefix, name);
                    break;
                }
            }
        }
    }
    Ok(map)
}

/// Lints the whole workspace under `root` against `baseline_set`: phase 1
/// runs the lexical rules per file, phase 2 builds the symbol table and
/// call graph and runs the semantic packs, then each file's suppressions
/// are applied to the union (a suppression that silences nothing becomes
/// a `suppression` finding) and the baseline is folded in.
pub fn run(
    root: &Path,
    cfg: &LintConfig,
    baseline_set: &BTreeSet<String>,
) -> io::Result<RunResult> {
    let mut res = RunResult::default();
    let mut all_active: Vec<Finding> = Vec::new();

    // Phase 1: lexical, per file.
    let mut analyses = Vec::new();
    for rel in discover_sources(root)? {
        let text = std::fs::read_to_string(root.join(&rel))?;
        let rel_str = rel.to_string_lossy().replace('\\', "/");
        analyses.push(rules::analyze_file(&rel_str, &text, cfg));
    }
    res.files_scanned = analyses.len();

    // Phase 2: semantic, across files.
    let crate_names = crate_name_map(root)?;
    let semantic = crate::semantic::check(&analyses, &crate_names, cfg);
    let mut semantic_by_path: BTreeMap<String, Vec<Finding>> = BTreeMap::new();
    for f in semantic {
        semantic_by_path.entry(f.path.clone()).or_default().push(f);
    }

    // Merge and apply each file's suppressions to both phases' findings.
    for fa in analyses {
        let mut findings = fa.findings;
        if let Some(extra) = semantic_by_path.remove(&fa.path) {
            findings.extend(extra);
            findings
                .sort_by(|a, b| (a.line, a.rule, &a.snippet).cmp(&(b.line, b.rule, &b.snippet)));
        }
        let (active, suppressed) = rules::apply_suppressions(findings, &fa.suppressions);
        all_active.extend(active);
        all_active.extend(rules::stale_suppressions(
            &fa.path,
            &fa.suppressions,
            &suppressed,
        ));
        res.suppressed.extend(suppressed);
    }

    if cfg.rules.contains(rules::DEP_POLICY) {
        for rel in discover_manifests(root)? {
            let text = std::fs::read_to_string(root.join(&rel))?;
            let rel_str = rel.to_string_lossy().replace('\\', "/");
            all_active.extend(rules::lint_manifest(&rel_str, &text));
        }
    }

    // Fold in the baseline by fingerprint.
    let fps = baseline::fingerprints(&all_active);
    let mut matched: BTreeSet<&str> = BTreeSet::new();
    for (f, fp) in all_active.into_iter().zip(&fps) {
        if baseline_set.contains(fp) {
            matched.insert(fp.as_str());
            res.baselined.push(f);
        } else {
            res.active.push(f);
        }
    }
    res.stale_baseline = baseline_set
        .iter()
        .filter(|b| !matched.contains(b.as_str()))
        .cloned()
        .collect();
    Ok(res)
}

/// Fingerprints for everything the gate currently sees (active + baselined):
/// this is exactly what `--update-baseline` writes.
pub fn current_fingerprints(res: &RunResult) -> Vec<String> {
    let mut all: Vec<Finding> = res
        .active
        .iter()
        .chain(res.baselined.iter())
        .cloned()
        .collect();
    all.sort_by(|a, b| {
        (&a.path, a.line, a.rule, &a.snippet).cmp(&(&b.path, b.line, b.rule, &b.snippet))
    });
    baseline::fingerprints(&all)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A workspace run reports a `lint:allow` that silences nothing as a
    /// `suppression` finding, next to one that still silences its finding.
    #[test]
    fn a_suppression_that_silences_nothing_is_a_finding() {
        let root = std::env::temp_dir().join(format!("hslb-lint-stale-{}", std::process::id()));
        let src = root.join("crates/x/src");
        std::fs::create_dir_all(&src).unwrap();
        std::fs::write(
            root.join("crates/x/Cargo.toml"),
            "[package]\nname = \"x\"\n",
        )
        .unwrap();
        let lib = "pub fn f(a: f64) -> bool {\n    // lint:allow(float-eq): exact zero test\n    a == 0.0\n}\n\n\
                   pub fn g(a: f64) -> f64 {\n    // lint:allow(float-eq): nothing left to excuse\n    a + 1.0\n}\n";
        std::fs::write(src.join("lib.rs"), lib).unwrap();
        let res = run(&root, &LintConfig::default(), &BTreeSet::new());
        std::fs::remove_dir_all(&root).unwrap();
        let res = res.unwrap();
        assert_eq!(res.suppressed.len(), 1);
        let stale: Vec<(&str, u32)> = res
            .active
            .iter()
            .filter(|f| f.rule == rules::SUPPRESSION)
            .map(|f| (f.path.as_str(), f.line))
            .collect();
        assert_eq!(stale, [("crates/x/src/lib.rs", 7)]);
    }
}
