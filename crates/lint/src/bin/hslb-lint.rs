//! CLI for the workspace linter.
//!
//! ```text
//! hslb-lint --workspace                    # lint everything, gate on baseline
//! hslb-lint --workspace --update-baseline  # regenerate lint-baseline.txt
//! hslb-lint --workspace --extend slice-index   # opt into extra rules
//! hslb-lint path/to/file.rs                # lint specific files (no baseline)
//! ```
//!
//! `--update-baseline` is deterministic: identical findings produce a
//! byte-identical `lint-baseline.txt` (sorted fingerprints, fixed header),
//! so regenerating on a clean tree is always a no-op diff.
//!
//! Exit codes: 0 clean, 1 findings, 2 usage/IO error.

use hslb_lint::rules::{self, LintConfig};
use hslb_lint::{baseline, workspace};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

struct Args {
    workspace: bool,
    root: PathBuf,
    baseline_path: Option<PathBuf>,
    update_baseline: bool,
    rules_override: Option<Vec<String>>,
    extend: Vec<String>,
    list_baselined: bool,
    files: Vec<PathBuf>,
}

const USAGE: &str = "\
usage: hslb-lint [--workspace] [--root DIR] [--baseline FILE] [--update-baseline]
                 [--rules r1,r2] [--extend r1,r2] [--list-baselined] [FILES…]

--update-baseline  regenerate lint-baseline.txt deterministically from the
                   current findings

lexical rules:   float-eq panic-in-lib lossy-cast magic-epsilon dep-policy
                 slice-index (default in lp/linalg, opt-in elsewhere)
                 suppression (always on)
semantic rules:  nondet-iteration nondet-reduction ambient-entropy
                 panic-path numeric-provenance
                 (workspace mode only — file mode runs the lexical rules)";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workspace: false,
        root: PathBuf::from("."),
        baseline_path: None,
        update_baseline: false,
        rules_override: None,
        extend: Vec::new(),
        list_baselined: false,
        files: Vec::new(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .ok_or_else(|| format!("{name} requires a value\n{USAGE}"))
        };
        match a.as_str() {
            "--workspace" => args.workspace = true,
            "--root" => args.root = PathBuf::from(value("--root")?),
            "--baseline" => args.baseline_path = Some(PathBuf::from(value("--baseline")?)),
            "--update-baseline" => args.update_baseline = true,
            "--rules" => {
                args.rules_override =
                    Some(value("--rules")?.split(',').map(str::to_owned).collect())
            }
            "--extend" => args
                .extend
                .extend(value("--extend")?.split(',').map(str::to_owned)),
            "--list-baselined" => args.list_baselined = true,
            "--help" | "-h" => return Err(USAGE.to_string()),
            f if !f.starts_with('-') => args.files.push(PathBuf::from(f)),
            other => return Err(format!("unknown flag `{other}`\n{USAGE}")),
        }
    }
    if !args.workspace && args.files.is_empty() {
        return Err(format!("nothing to lint\n{USAGE}"));
    }
    Ok(args)
}

fn build_config(args: &Args) -> Result<LintConfig, String> {
    let mut cfg = LintConfig::default();
    if let Some(over) = &args.rules_override {
        cfg.rules = over.iter().cloned().collect();
        cfg.rules.insert(rules::SUPPRESSION.to_string());
    }
    for r in &args.extend {
        cfg.rules.insert(r.clone());
    }
    for r in &cfg.rules {
        if !rules::ALL_RULES.contains(&r.as_str()) {
            return Err(format!("unknown rule `{r}`\n{USAGE}"));
        }
    }
    Ok(cfg)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let cfg = match build_config(&args) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };

    // File mode: lint the named files, no baseline.
    if !args.workspace {
        let mut n = 0usize;
        for f in &args.files {
            let text = match std::fs::read_to_string(f) {
                Ok(t) => t,
                Err(e) => {
                    eprintln!("hslb-lint: {}: {e}", f.display());
                    return ExitCode::from(2);
                }
            };
            let rel = f.to_string_lossy().replace('\\', "/");
            let (active, _) = rules::lint_source(&rel, &text, &cfg);
            for finding in &active {
                println!("{}", finding.display());
            }
            n += active.len();
        }
        return if n == 0 {
            ExitCode::SUCCESS
        } else {
            println!("hslb-lint: {n} finding(s)");
            ExitCode::FAILURE
        };
    }

    // Workspace mode.
    let t0 = Instant::now();
    let baseline_path = args
        .baseline_path
        .clone()
        .unwrap_or_else(|| args.root.join("lint-baseline.txt"));
    let baseline_set = match baseline::read(&baseline_path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("hslb-lint: reading {}: {e}", baseline_path.display());
            return ExitCode::from(2);
        }
    };
    let res = match workspace::run(&args.root, &cfg, &baseline_set) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("hslb-lint: {e}");
            return ExitCode::from(2);
        }
    };

    if args.update_baseline {
        let fps = workspace::current_fingerprints(&res);
        if let Err(e) = baseline::write(&baseline_path, &fps) {
            eprintln!("hslb-lint: writing {}: {e}", baseline_path.display());
            return ExitCode::from(2);
        }
        println!(
            "hslb-lint: baseline regenerated with {} entr{} at {}",
            fps.len(),
            if fps.len() == 1 { "y" } else { "ies" },
            baseline_path.display()
        );
        return ExitCode::SUCCESS;
    }

    for f in &res.active {
        println!("{}", f.display());
    }
    if args.list_baselined {
        for f in &res.baselined {
            println!("(baselined) {}", f.display());
        }
    }
    for stale in &res.stale_baseline {
        eprintln!(
            "hslb-lint: stale baseline entry (burned down — run --update-baseline): {}",
            stale.replace('\t', " | ")
        );
    }
    println!(
        "hslb-lint: {} active, {} suppressed, {} baselined, {} stale baseline \
         entr{} across {} files in {} ms",
        res.active.len(),
        res.suppressed.len(),
        res.baselined.len(),
        res.stale_baseline.len(),
        if res.stale_baseline.len() == 1 {
            "y"
        } else {
            "ies"
        },
        res.files_scanned,
        t0.elapsed().as_millis()
    );
    if res.active.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
