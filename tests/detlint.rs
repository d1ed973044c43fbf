//! The static determinism lint, run as a tier-1 test.
//!
//! `tests/runtime_determinism.rs` *samples* the determinism contract
//! dynamically; this test enforces it statically over every shipped
//! source file, exactly as `cargo run -p detlint` and the CI gate do:
//! same config (`detlint.toml`), same scan, same rules. It also proves
//! the enforcement is live — re-introducing a violation or deleting any
//! single suppression pragma must fail with a `file:line` diagnostic.

use std::fs;
use std::path::PathBuf;

use detlint::{lint_source, lint_workspace, render_text, Config};

fn workspace_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

fn workspace_config() -> Config {
    Config::load(&workspace_root()).expect("detlint.toml parses")
}

#[test]
fn workspace_is_detlint_clean() {
    let report = lint_workspace(&workspace_root(), &workspace_config()).expect("scan succeeds");
    assert!(
        report.files.len() > 50,
        "scan looks truncated: only {} files",
        report.files.len()
    );
    assert!(report.is_clean(), "\n{}", render_text(&report));
}

#[test]
fn reintroducing_a_violation_fails_with_a_span() {
    let root = workspace_root();
    let config = workspace_config();
    // Append a fresh wall-clock read to a real, currently-clean file and
    // lint the tampered source in memory.
    let rel = "crates/core/src/engine.rs";
    let clean = fs::read_to_string(root.join(rel)).expect("file exists");
    let tampered =
        format!("{clean}\nfn detlint_tamper() {{ let _ = std::time::Instant::now(); }}\n");
    let found = lint_source(rel, &tampered, &config);
    let expected_line = tampered.lines().count() as u32;
    assert!(
        found
            .iter()
            .any(|v| v.rule == "wall-clock" && v.file == rel && v.line == expected_line),
        "tampering went unnoticed: {found:?}"
    );
}

#[test]
fn every_suppression_pragma_is_load_bearing() {
    // Deleting any single `detlint-allow` pragma anywhere in the
    // workspace must resurface at least one violation — i.e. no pragma
    // is stale, and none can be removed without consequence. (The
    // unused-pragma meta rule enforces the same property from the other
    // side: a pragma that suppresses nothing fails the clean scan.)
    let root = workspace_root();
    let config = workspace_config();
    let report = lint_workspace(&root, &config).expect("scan succeeds");
    let mut exercised = 0;
    for rel in &report.files {
        let src = fs::read_to_string(root.join(rel)).expect("file exists");
        let pragma_lines: Vec<u32> = {
            let lexed = detlint::lexer::lex(&src);
            let (pragmas, _) = detlint::pragma::parse_pragmas(&src, &lexed.comments);
            pragmas.iter().map(|p| p.line).collect()
        };
        for line in pragma_lines {
            let mutated: String = src
                .lines()
                .enumerate()
                .map(|(i, l)| {
                    if i + 1 == line as usize {
                        // Defuse the marker; the comment itself stays, so
                        // only the suppression disappears.
                        l.replacen("detlint-allow", "detlint-disabled", 1)
                    } else {
                        l.to_string()
                    }
                })
                .collect::<Vec<_>>()
                .join("\n");
            let found = lint_source(rel, &mutated, &config);
            assert!(
                !found.is_empty(),
                "deleting the pragma at {rel}:{line} went unnoticed"
            );
            exercised += 1;
        }
    }
    assert!(
        exercised >= 20,
        "expected to exercise the workspace's pragmas, found only {exercised}"
    );
}

#[test]
fn desynchronizing_a_real_wire_impl_fails_with_both_spans() {
    // Every type declares its layout once through `wire_struct!` or
    // `wire_enum!`; the hand-written impls left are the containers in
    // `crates/runtime/src/wire.rs`. Tampering with one of them must
    // produce a two-span diagnostic: the violation anchors on one half,
    // and the message carries the other half's own `file:line`.
    let root = workspace_root();
    let config = workspace_config();
    let rel = "crates/runtime/src/wire.rs";
    let clean = fs::read_to_string(root.join(rel)).expect("file exists");
    let tamper = |needle: &str, with: &str| -> String {
        assert_eq!(
            clean.matches(needle).count(),
            1,
            "tamper target moved: {needle}"
        );
        clean.replace(needle, with)
    };

    // Dropping the pair's second read leaves a field encode writes but
    // decode never consumes.
    let found = lint_source(
        rel,
        &tamper(
            "Some((A::decode(r)?, B::decode(r)?))",
            "Some((A::decode(r)?,))",
        ),
        &config,
    );
    let drift = found
        .iter()
        .find(|v| v.rule == "wire-drift" && v.message.contains("field `1`"))
        .unwrap_or_else(|| panic!("desynchronized decode went unnoticed: {found:#?}"));
    assert_eq!(drift.file, rel);
    assert!(drift.snippet.contains("self.1.encode"), "{drift:?}");
    assert!(
        drift.message.contains(&format!("{rel}:")),
        "message lacks the decode half's span: {drift:?}"
    );

    // Dropping `Result`'s `Err` arm leaves a tag encode writes that no
    // decode arm reads.
    let found = lint_source(
        rel,
        &tamper("            1 => Some(Err(E::decode(r)?)),\n", ""),
        &config,
    );
    let drift = found
        .iter()
        .find(|v| v.rule == "wire-drift" && v.message.contains("no `1 =>` arm"))
        .unwrap_or_else(|| panic!("missing decode arm went unnoticed: {found:#?}"));
    assert_eq!(drift.file, rel);
    assert!(drift.snippet.contains("out.push(1)"), "{drift:?}");
    assert!(
        drift.message.contains(&format!("{rel}:")),
        "message lacks the decode half's span: {drift:?}"
    );
}

#[test]
fn json_report_carries_schema_and_per_rule_counts() {
    // CI asserts on this exact layout; pin it from the test side too so
    // a schema change cannot slip past both gates.
    let report = lint_workspace(&workspace_root(), &workspace_config()).expect("scan succeeds");
    let json = detlint::render_json(&report);
    assert!(json.contains("\"schema\": \"hasco-detlint-v2\""), "{json}");
    for rule in [
        "wall-clock",
        "iteration-order",
        "atomics",
        "ambient",
        "panic-safety",
        "wire-drift",
        "lock-discipline",
        "bad-pragma",
        "unused-pragma",
        "unused-allowlist",
    ] {
        assert!(
            json.contains(&format!("\"{rule}\": ")),
            "missing count for {rule}: {json}"
        );
    }
}

#[test]
fn stale_allowlist_entries_are_reported_at_their_toml_line() {
    // An [[allow]] entry that suppresses nothing anywhere must fail the
    // scan, pointing back at its own header line in detlint.toml.
    let mut config = workspace_config();
    let bogus = "\n[[allow]]\nrule = \"wall-clock\"\npath = \"crates/nonexistent.rs\"\nreason = \"stale entry for the unused-allowlist test\"\n";
    config.merge_toml(bogus).expect("well-formed entry");
    let entry_line = config
        .allows
        .iter()
        .find(|a| a.path == "crates/nonexistent.rs")
        .expect("entry merged")
        .line;
    let report = lint_workspace(&workspace_root(), &config).expect("scan succeeds");
    let stale = report
        .violations
        .iter()
        .find(|v| v.rule == "unused-allowlist")
        .unwrap_or_else(|| panic!("stale entry went unnoticed: {}", render_text(&report)));
    assert_eq!(stale.file, "detlint.toml");
    assert_eq!(stale.line, entry_line);
    assert!(stale.message.contains("crates/nonexistent.rs"), "{stale:?}");
}

#[test]
fn binary_and_test_agree_on_the_config() {
    // The checked-in detlint.toml must load, and its allowlist must be
    // non-trivial: the sanctioned clock owner is listed, with a reason.
    let config = workspace_config();
    assert!(config.allowed("wall-clock", "crates/runtime/src/telemetry.rs"));
    assert!(config
        .allows
        .iter()
        .all(|a| !a.reason.trim().is_empty() && a.reason.len() > 10));
    assert!(config.is_ordered_module("crates/runtime/src/cache.rs"));
}
