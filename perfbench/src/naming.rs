//! Benchmark inputs: case-study instances rendered as DSL text under a
//! seeded renaming, and the digests that check what comes back.
//!
//! A seed never changes *what* is synthesized, only the identifiers the
//! program reads: every variable and process gets the same seeded prefix
//! (so their relative order, and with it the BDD variable order, is
//! unchanged) and the protocol name gets a seeded suffix. Undoing the
//! renaming on the emitted protocol must give back, byte for byte, the
//! text whose digest `reference.txt` records.

use std::collections::HashMap;
use stsyn_protocol::expr::Expr;
use stsyn_protocol::{printer, Protocol};

/// One case-study instance: a protocol family, its size, and whether
/// convergence is weak or strong.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Instance {
    /// `coloring`, `matching`, `token_ring`, `two_ring` or `mis`.
    pub case: String,
    /// Ring size.
    pub n: usize,
    /// Domain size (token rings only; 0 elsewhere).
    pub d: u32,
    /// Weak instead of strong convergence.
    pub weak: bool,
}

impl Instance {
    /// A strong-convergence instance.
    pub fn new(case: &str, n: usize, d: u32) -> Instance {
        Instance { case: case.to_string(), n, d, weak: false }
    }

    /// Stable key: `case-n[-dD][+weak]`, e.g. `token_ring-5-d4+weak`.
    pub fn key(&self) -> String {
        let mut k = format!("{}-{}", self.case, self.n);
        if self.d != 0 {
            k.push_str(&format!("-d{}", self.d));
        }
        if self.weak {
            k.push_str("+weak");
        }
        k
    }

    /// The protocol and invariant from the case-study crate.
    pub fn build(&self) -> (Protocol, Expr) {
        let d = if self.d == 0 { 3 } else { self.d };
        match self.case.as_str() {
            "coloring" => stsyn_cases::coloring(self.n),
            "matching" => stsyn_cases::matching(self.n),
            "token_ring" => stsyn_cases::token_ring(self.n, d),
            "two_ring" => stsyn_cases::two_ring(self.n, d),
            "mis" => stsyn_cases::mis(self.n),
            other => panic!("unknown case `{other}`"),
        }
    }

    /// The name the reference text carries.
    pub fn canonical_name(&self) -> String {
        self.key().replace(['-', '+'], "_")
    }
}

/// A seeded identifier renaming and its inverse.
#[derive(Debug, Clone)]
pub struct Renaming {
    forward: HashMap<String, String>,
    back: HashMap<String, String>,
}

impl Renaming {
    /// Rename `protocol`'s variables and processes to `<tag>_<name>` and
    /// the protocol `name` to `<name>_<tag>` (its emitted `_SS` form
    /// included).
    pub fn new(protocol: &Protocol, name: &str, tag: &str) -> Renaming {
        let mut forward = HashMap::new();
        for v in protocol.vars() {
            forward.insert(v.name.clone(), format!("{tag}_{}", v.name));
        }
        for p in protocol.processes() {
            forward.insert(p.name.clone(), format!("{tag}_{}", p.name));
        }
        forward.insert(name.to_string(), format!("{name}_{tag}"));
        forward.insert(format!("{name}_SS"), format!("{name}_{tag}_SS"));
        let back = forward.iter().map(|(k, v)| (v.clone(), k.clone())).collect();
        Renaming { forward, back }
    }

    /// A renaming that changes nothing.
    pub fn identity() -> Renaming {
        Renaming { forward: HashMap::new(), back: HashMap::new() }
    }

    /// Rename identifiers in DSL text.
    pub fn apply(&self, text: &str) -> String {
        map_identifiers(text, &self.forward)
    }

    /// Undo the renaming on DSL text (e.g. an emitted protocol).
    pub fn undo(&self, text: &str) -> String {
        map_identifiers(text, &self.back)
    }
}

/// A short identifier-safe tag from random bits.
pub fn tag(bits: u64) -> String {
    format!("q{:07x}", bits & 0x0fff_ffff)
}

fn map_identifiers(text: &str, map: &HashMap<String, String>) -> String {
    let mut out = String::with_capacity(text.len() + text.len() / 4);
    let bytes = text.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i];
        if c.is_ascii_alphabetic() || c == b'_' {
            let start = i;
            while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_') {
                i += 1;
            }
            let ident = &text[start..i];
            out.push_str(map.get(ident).map_or(ident, String::as_str));
        } else if c.is_ascii_digit() {
            // A number run: never the start of an identifier.
            let start = i;
            while i < bytes.len() && bytes[i].is_ascii_alphanumeric() {
                i += 1;
            }
            out.push_str(&text[start..i]);
        } else {
            let ch = text[i..].chars().next().expect("in bounds");
            out.push(ch);
            i += ch.len_utf8();
        }
    }
    out
}

/// The DSL text for `inst`, renamed with `tag` when one is given, and
/// the renaming that undoes it.
pub fn input_text(inst: &Instance, tag: Option<&str>) -> (String, Renaming) {
    let (protocol, invariant) = inst.build();
    let name = inst.canonical_name();
    let text = printer::to_dsl(&name, &protocol, &invariant);
    match tag {
        Some(t) => {
            let r = Renaming::new(&protocol, &name, t);
            (r.apply(&text), r)
        }
        None => (text, Renaming::identity()),
    }
}

/// FNV-1a 64 of the text, as 16 hex digits.
pub fn digest(text: &str) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in text.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{h:016x}")
}

/// Reference digests of the canonical emitted protocols, keyed by
/// [`Instance::key`].
pub fn references() -> HashMap<String, String> {
    include_str!("../reference.txt")
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .filter_map(|l| l.split_once(char::is_whitespace))
        .map(|(k, v)| (k.to_string(), v.trim().to_string()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renaming_round_trips_and_keeps_keywords() {
        let inst = Instance::new("matching", 4, 0);
        let (plain, _) = input_text(&inst, None);
        let (renamed, r) = input_text(&inst, Some("q00abcde"));
        assert_ne!(plain, renamed);
        assert!(renamed.contains("q00abcde_m0") && renamed.contains("process q00abcde_P0"));
        assert!(renamed.contains("left") && renamed.contains("invariant"));
        assert_eq!(r.undo(&renamed), plain);
    }
}
