//! Cross-run artifact diff: lists every key that changed between two
//! deterministic exports.
//!
//! ```text
//! benchcmp [--json] [--force] OLD NEW
//! ```
//!
//! `OLD` and `NEW` are JSON files of the same schema: `tlt-metrics/v1`
//! (`--metrics`), `tlt-profile/v1` (`--profile-out`), `tlt-serve/v1`
//! (`serve_grid --serve-out`), or `tlt-spans/v1` (`serve_grid --spans-out`).
//! Nothing is graded: host cost is measured by `perfbench/`.
//!
//! Exit codes: `0` compared, `2` usage error, unreadable/malformed input,
//! or a provenance refusal (different `scale`/`build_profile`/`seeds`)
//! without `--force`.

use bench::benchcmp::{compare, load, Doc};

const USAGE: &str = "usage: benchcmp [--json] [--force] OLD NEW";

struct Opts {
    json: bool,
    force: bool,
    old: String,
    new: String,
}

fn parse_opts(argv: &[String]) -> Result<Opts, String> {
    let (mut json, mut force) = (false, false);
    let mut files = Vec::new();
    for arg in argv {
        match arg.as_str() {
            "--json" => json = true,
            "--force" => force = true,
            "--help" | "-h" => return Err(USAGE.to_string()),
            other if other.starts_with('-') => {
                return Err(format!("unknown flag {other}\n{USAGE}"));
            }
            file => files.push(file.to_string()),
        }
    }
    let [old, new] = <[String; 2]>::try_from(files)
        .map_err(|_| format!("expected exactly two input files\n{USAGE}"))?;
    Ok(Opts {
        json,
        force,
        old,
        new,
    })
}

fn read_doc(path: &str) -> Result<Doc, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    load(&text).map_err(|e| format!("{path}: {e}"))
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_opts(&argv) {
        Ok(o) => o,
        Err(msg) => {
            eprintln!("{msg}");
            std::process::exit(2);
        }
    };
    let (old, new) = match (read_doc(&opts.old), read_doc(&opts.new)) {
        (Ok(o), Ok(n)) => (o, n),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("benchcmp: {e}");
            std::process::exit(2);
        }
    };

    let cmp = compare(&old, &new);
    if let Some(reason) = &cmp.refusal {
        if opts.force {
            eprintln!("warning: comparing anyway (--force): {reason}");
        } else {
            eprintln!("benchcmp: refusing to compare: {reason} (use --force to override)");
            std::process::exit(2);
        }
    }

    if opts.json {
        print!("{}", cmp.to_json());
    } else {
        println!("benchcmp: {} vs {} ({})", opts.old, opts.new, old.schema);
        print!("{}", cmp.render());
    }
}
