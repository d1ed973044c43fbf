//! `wire-drift`: every hand-written `impl Wire for T` must keep its
//! `encode` and `decode` halves structurally in sync.
//!
//! For each `impl Wire` recovered by the [item tree](crate::itemtree),
//! the rule extracts two *field sequences*:
//!
//! * the encode side — every `….encode(out)` call, grouped by the
//!   `out.push(TAG)` literal that precedes it (tag-byte enums) or into
//!   one untagged group (structs);
//! * the decode side — every `Path::decode(r)` call, grouped by the
//!   `TAG =>` match arm it sits under, with the `match u8::decode(r)?`
//!   scrutinee read itself excluded.
//!
//! Then it diffs them: an encoded tag with no decode arm, a written
//! field with no matching read (or vice versa), or two fields read in
//! swapped order each produce a diagnostic whose span points at one
//! half and whose message carries the `file:line` of the other.
//!
//! Names are compared only when *both* sides name the value (a field
//! access, a destructured binding, or a struct-literal read) and both
//! names occur on both sides — so loop temporaries (`for v in …` vs
//! `let item = …`) never false-positive, while a genuine reorder of
//! named fields is pinned to the exact pair. Count mismatches are
//! always hard diagnostics. The impls `runtime::wire_struct!` and
//! `runtime::wire_enum!` expand to at their call sites are invisible
//! here; each call site lists its layout once, so its halves pair by
//! construction. Every workspace type declares its layout that way, so
//! the rule guards the macro templates themselves and the hand-written
//! impls left: the primitive and container impls in `runtime::wire`
//! (`Option`, `Vec`, pairs, maps, `Result`) that every declared layout
//! is built from, and the `IndexId` newtype.

use std::collections::BTreeSet;

use super::{FileView, Raw};
use crate::itemtree::ItemTree;
use crate::lexer::Token;

struct Entry {
    name: Option<String>,
    tok: Token,
}

struct Group {
    /// `None` for the untagged (struct) sequence.
    tag: Option<u64>,
    /// The `push(TAG)` literal / `TAG =>` arm / fn keyword token.
    anchor: Token,
    entries: Vec<Entry>,
}

pub(crate) fn run(view: &FileView, tree: &ItemTree, rel_path: &str, out: &mut Vec<Raw>) {
    for item in tree.walk() {
        if item.trait_name() != Some("Wire") {
            continue;
        }
        let (Some(enc), Some(dec)) = (item.fn_named("encode"), item.fn_named("decode")) else {
            continue;
        };
        let (Some(eb), Some(db)) = (enc.body, dec.body) else {
            continue;
        };
        let (Some(&enc_tok), Some(&dec_tok)) =
            (view.active.get(enc.start), view.active.get(dec.start))
        else {
            continue;
        };
        let self_ty = match &item.kind {
            crate::itemtree::ItemKind::Impl { self_ty, .. } => self_ty.clone(),
            _ => continue,
        };
        let eg = encode_groups(view, eb, enc_tok);
        let dg = decode_groups(view, db, dec_tok);

        // Every encoded tag needs an explicit decode arm. (The reverse
        // is allowed: decode may accept tags a newer encoder no longer
        // emits — forward tolerance — and widening reads like bool's
        // `0`/`1` arms have no literal push at all.)
        for g in &eg {
            let Some(tag) = g.tag else { continue };
            if !dg.iter().any(|d| d.tag == Some(tag)) {
                out.push((
                    "wire-drift",
                    g.anchor,
                    format!(
                        "`impl Wire for {self_ty}`: encode writes tag {tag} here but decode \
                         ({rel_path}:{}) has no `{tag} =>` arm — frames carrying this tag can \
                         never decode",
                        dec_tok.line
                    ),
                ));
            }
        }

        for g in &eg {
            if let Some(d) = dg.iter().find(|d| d.tag == g.tag) {
                compare_entries(rel_path, &self_ty, g, d, out);
            }
        }
    }
}

fn describe(e: &Entry) -> String {
    match &e.name {
        Some(n) => format!("field `{n}`"),
        None => "a value".to_string(),
    }
}

fn group_label(g: &Group) -> String {
    match g.tag {
        Some(t) => format!("the tag-{t} arm"),
        None => "the field sequence".to_string(),
    }
}

/// Diffs one encode group against its decode counterpart. One
/// diagnostic per group — the first divergence; everything after it is
/// downstream noise of the same drift.
fn compare_entries(rel_path: &str, self_ty: &str, e: &Group, d: &Group, out: &mut Vec<Raw>) {
    let enc_names: BTreeSet<&str> = e.entries.iter().filter_map(|x| x.name.as_deref()).collect();
    let dec_names: BTreeSet<&str> = d.entries.iter().filter_map(|x| x.name.as_deref()).collect();
    for i in 0..e.entries.len().max(d.entries.len()) {
        match (e.entries.get(i), d.entries.get(i)) {
            (Some(ee), Some(de)) => {
                let (Some(en), Some(dn)) = (ee.name.as_deref(), de.name.as_deref()) else {
                    continue;
                };
                if en != dn && enc_names.contains(dn) && dec_names.contains(en) {
                    out.push((
                        "wire-drift",
                        de.tok,
                        format!(
                            "`impl Wire for {self_ty}`: decode reads `{dn}` at position {} of \
                             {} where encode writes `{en}` ({rel_path}:{}) — the halves \
                             disagree on field order",
                            i + 1,
                            group_label(e),
                            ee.tok.line
                        ),
                    ));
                    return;
                }
            }
            (Some(ee), None) => {
                out.push((
                    "wire-drift",
                    ee.tok,
                    format!(
                        "`impl Wire for {self_ty}`: {} written by encode here has no matching \
                         read in {} of decode ({rel_path}:{}) — every frame desynchronizes \
                         from this field on",
                        describe(ee),
                        group_label(d),
                        d.anchor.line
                    ),
                ));
                return;
            }
            (None, Some(de)) => {
                out.push((
                    "wire-drift",
                    de.tok,
                    format!(
                        "`impl Wire for {self_ty}`: decode reads {} here that encode \
                         ({rel_path}:{}) never writes in {} — every frame desynchronizes \
                         from this read on",
                        describe(de),
                        e.anchor.line,
                        group_label(e)
                    ),
                ));
                return;
            }
            (None, None) => return,
        }
    }
}

/// `out.push(N)` starts a tag group; `x.encode(` appends an entry to
/// the current group. The entry is named when the receiver is a field
/// access (`self.field.encode`, `self.0.encode`) or a bare binding
/// (`label.encode` from a destructured match arm).
fn encode_groups(view: &FileView, (from, to): (usize, usize), fn_tok: Token) -> Vec<Group> {
    let mut groups = vec![Group {
        tag: None,
        anchor: fn_tok,
        entries: Vec::new(),
    }];
    for k in from..to.min(view.active.len()) {
        if view.ident(k) == Some("push")
            && k >= 1
            && view.punct(k - 1) == Some('.')
            && view.punct(k + 1) == Some('(')
            && view.punct(k + 3) == Some(')')
        {
            if let Some(tag) = view.number(k + 2).and_then(parse_tag) {
                groups.push(Group {
                    tag: Some(tag),
                    anchor: view.active[k + 2],
                    entries: Vec::new(),
                });
                continue;
            }
        }
        if view.ident(k) == Some("encode")
            && k >= 2
            && view.punct(k - 1) == Some('.')
            && view.punct(k + 1) == Some('(')
        {
            let name = view
                .ident(k - 2)
                .filter(|n| *n != "self")
                .map(String::from)
                .or_else(|| view.number(k - 2).map(String::from));
            if let Some(last) = groups.last_mut() {
                last.entries.push(Entry {
                    name,
                    tok: view.active[k],
                });
            }
        }
    }
    groups
}

/// `N =>` starts a tag group; `Path::decode(` appends a read to the
/// current group — except the `match u8::decode(r)?` scrutinee, which
/// reads the tag itself. A read is named when bound as `field: …` in a
/// struct literal or assigned `field = …`.
fn decode_groups(view: &FileView, (from, to): (usize, usize), fn_tok: Token) -> Vec<Group> {
    let mut groups = vec![Group {
        tag: None,
        anchor: fn_tok,
        entries: Vec::new(),
    }];
    for k in from..to.min(view.active.len()) {
        if let Some(tag) = view.number(k).and_then(parse_tag) {
            if view.punct(k + 1) == Some('=') && view.punct(k + 2) == Some('>') {
                groups.push(Group {
                    tag: Some(tag),
                    anchor: view.active[k],
                    entries: Vec::new(),
                });
                continue;
            }
        }
        if view.ident(k) != Some("decode")
            || view.punct(k + 1) != Some('(')
            || k < 3
            || view.punct(k - 1) != Some(':')
            || view.punct(k - 2) != Some(':')
            || view.ident(k - 3).is_none()
        {
            continue;
        }
        // Walk back over the whole `a::b::decode` path.
        let mut path_start = k - 3;
        while path_start >= 3
            && view.punct(path_start - 1) == Some(':')
            && view.punct(path_start - 2) == Some(':')
            && view.ident(path_start - 3).is_some()
        {
            path_start -= 3;
        }
        let before = path_start.wrapping_sub(1);
        if view.ident(before) == Some("match") {
            continue; // the tag scrutinee, not a field read
        }
        let name = match view.punct(before) {
            // `field: Path::decode(r)?` — struct-literal read. A single
            // colon only: `::` would have been consumed by the path walk.
            Some(':') if view.punct(before.wrapping_sub(1)) != Some(':') => {
                view.ident(before.wrapping_sub(1)).map(String::from)
            }
            // `field = Path::decode(r)?` — assignment read (`==`, `>=`
            // and friends leave a punct before the `=`, so ident() is
            // None there).
            Some('=') => view.ident(before.wrapping_sub(1)).map(String::from),
            _ => None,
        };
        if let Some(last) = groups.last_mut() {
            last.entries.push(Entry {
                name,
                tok: view.active[k],
            });
        }
    }
    groups
}

/// Parses a tag literal, tolerating suffixes (`0`, `7u8`).
fn parse_tag(text: &str) -> Option<u64> {
    let digits: String = text.chars().take_while(char::is_ascii_digit).collect();
    if digits.is_empty() || digits.len() != text.len() && !text[digits.len()..].starts_with('u') {
        return None;
    }
    digits.parse().ok()
}
