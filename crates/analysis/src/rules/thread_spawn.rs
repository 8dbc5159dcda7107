//! Rule 6 — `thread-spawn`.
//!
//! The workspace has one parallelism policy: the RNS limb fan-out in
//! `RnsNttEngine` is the only threading *inside* an operation, and the
//! gateway's worker pool parallelizes whole requests. Threads inside a
//! short transform (stage-chunked workers behind per-stage barriers,
//! batch fan-outs, pipelined producer threads) measured slower than
//! running it on the calling thread, and on the gateway they compete
//! with the other workers for the same cores. The rule flags
//! `thread::scope`, `thread::spawn`, `thread::Builder` and any `Barrier`
//! in non-test library code under `crates/*/src` (binaries in
//! `src/bin/` are drivers, not library code). The two sanctioned sites
//! are allowlisted in `analysis-allow.toml`, each with a justification.

use crate::parse::File;
use crate::report::Finding;

use super::{finding, Ctx};

pub(super) const RULE: &str = "thread-spawn";

fn in_scope(path: &str) -> bool {
    path.starts_with("crates/") && path.contains("/src/") && !path.contains("/src/bin/")
}

pub(super) fn check(_ctx: &Ctx, f: &File, out: &mut Vec<Finding>) {
    if !in_scope(&f.path) {
        return;
    }
    let toks = &f.toks;
    let code: Vec<usize> = (0..toks.len()).filter(|&i| !toks[i].is_comment()).collect();
    for (w, &i) in code.iter().enumerate() {
        let t = &toks[i];
        if f.line_in_test(t.line) {
            continue;
        }
        let what = if t.is_ident("Barrier") {
            "`Barrier`".to_string()
        } else if t.is_ident("thread") {
            // `thread` `:` `:` `scope | spawn | Builder`
            let next = |k: usize| code.get(w + k).map(|&j| &toks[j]);
            match (next(1), next(2), next(3)) {
                (Some(a), Some(b), Some(c))
                    if a.is_punct(':')
                        && b.is_punct(':')
                        && matches!(c.text.as_str(), "scope" | "spawn" | "Builder") =>
                {
                    format!("`thread::{}`", c.text)
                }
                _ => continue,
            }
        } else {
            continue;
        };
        out.push(finding(
            RULE,
            f,
            t.line,
            t.col,
            format!(
                "{what} in library code: the RNS limb fan-out and the gateway worker pool are \
                 the only threading; run single-threaded or justify the site in the allowlist"
            ),
        ));
    }
}
