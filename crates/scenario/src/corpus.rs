//! Corpus loading: a directory of `.ftsc` files → compiled scenarios.
//!
//! The `scenarios/` corpus is the one definition of every chaos
//! campaign; `scenariox` and the tests load it through [`load_corpus`].

use std::fs;
use std::path::{Path, PathBuf};

use crate::ast::Spec;
use crate::compile::{compile, CompiledScenario};
use crate::parse::{parse, render_diags};

/// Loads every `*.ftsc` file directly under `dir`, in sorted path order,
/// and parses and compiles each one. A file's scenario name must equal
/// its file stem, because goldens and trace exports are keyed on it.
///
/// On failure, returns one diagnostic per bad file, each labelled with
/// the file's path (or one naming `dir`, if it cannot be read).
pub fn load_corpus(dir: &Path) -> Result<Vec<(Spec, CompiledScenario)>, Vec<String>> {
    let entries =
        fs::read_dir(dir).map_err(|e| vec![format!("cannot read {}: {e}", dir.display())])?;
    let mut files: Vec<PathBuf> = entries
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "ftsc"))
        .collect();
    files.sort();

    let mut corpus = Vec::new();
    let mut errors = Vec::new();
    for path in files {
        let src = match fs::read_to_string(&path) {
            Ok(s) => s,
            Err(e) => {
                errors.push(format!("cannot read {}: {e}", path.display()));
                continue;
            }
        };
        match parse(&src) {
            Ok(spec) if path.file_stem().is_some_and(|s| s == spec.name.as_str()) => {
                let compiled = compile(&spec);
                corpus.push((spec, compiled));
            }
            Ok(spec) => errors.push(format!(
                "{}: scenario name \"{}\" must match the file stem",
                path.display(),
                spec.name
            )),
            Err(diags) => {
                errors.push(format!(
                    "{} rejected:\n{}",
                    path.display(),
                    render_diags(&diags)
                ));
            }
        }
    }
    if errors.is_empty() {
        Ok(corpus)
    } else {
        Err(errors)
    }
}
