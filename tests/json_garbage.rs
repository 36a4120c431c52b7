//! The vendored JSON parser reads untrusted bytes: control-socket bodies,
//! on-disk scenario specs and `--resume` checkpoints. Garbage drawn from
//! JSON's own token alphabet must come back as an `Err`, never a panic or
//! a stack overflow, and whatever the parser accepts must survive a
//! write/re-parse round trip. Reads are linear: multi-MiB strings parse in
//! milliseconds.

use proptest::prelude::*;
use serde::Value;
use std::sync::mpsc;
use std::thread;
use std::time::Duration;

/// Scalars, valid on their own.
const SCALARS: [&str; 16] = [
    "0",
    "-0",
    "12",
    "1.5",
    "-0.0",
    "1e3",
    "-2.5E-2",
    "9223372036854775808",
    "null",
    "true",
    "false",
    "\"k\"",
    "\"é\"",
    "\"日本😀\"",
    "\"\\u0041\\n\\\"\"",
    "\"\\u0000\"",
];

/// JSON tokens plus the classic breakers: brackets nested past the depth
/// bound, truncated `\u` escapes, lone surrogates, a bare `-`, numbers out
/// of `f64` range, multi-byte characters, control bytes and stray letters.
fn tokens() -> Vec<String> {
    let breakers = [
        "[",
        "]",
        "{",
        "}",
        ",",
        ":",
        " ",
        "\n",
        "\"",
        "é",
        "😀",
        "\\",
        "\\u",
        "\\u00",
        "\\ud800",
        "\\udc00",
        "\\uD83D\\uDE00",
        "-",
        "1e400",
        "1.",
        ".",
        "e",
        "+",
        "nul",
        "tru",
        "x",
        "\u{0}",
        "18446744073709551616",
    ];
    let mut tokens: Vec<String> = SCALARS
        .iter()
        .chain(&breakers)
        .map(|t| (*t).to_string())
        .collect();
    // Deep enough to overflow the stack of an unbounded recursive parser.
    tokens.push("[".repeat(1 << 16));
    tokens.push("{\"k\":".repeat(1 << 14));
    // Long strings mixing plain runs, escapes and multi-byte characters:
    // one whole, and its body alone for the soup to quote or break.
    let body = MIXED_RUN.repeat(512);
    tokens.push(format!("\"{body}\""));
    tokens.push(body);
    tokens
}

/// A valid string body alternating plain runs, escapes (`\u` included)
/// and multi-byte characters (`é`, `日`, `😀`).
const MIXED_RUN: &str = "ab\\n\\\"é\\\\日\\u0041\\t😀/\\/";

/// A valid document: an array whose contents `ops` build by opening an
/// array or object, closing the innermost one, or writing a scalar.
fn valid_document(ops: &[usize]) -> String {
    let mut out = String::from("[");
    let mut closers = vec![']'];
    // Whether the innermost container is still empty (no comma needed).
    let mut empty = true;
    for &op in ops {
        if op % 4 == 2 && closers.len() > 1 {
            out.push(closers.pop().expect("non-empty"));
            empty = false;
            continue;
        }
        if !empty {
            out.push(',');
        }
        if closers.last() == Some(&'}') {
            out.push_str("\"k\":");
        }
        let (text, closer) = match op % 4 {
            0 => ("[", Some(']')),
            1 => ("{", Some('}')),
            _ => (SCALARS[op / 4 % SCALARS.len()], None),
        };
        out.push_str(text);
        closers.extend(closer);
        empty = closer.is_some();
    }
    out.extend(closers.iter().rev());
    out
}

/// Half token soup (a quarter of it only a few tokens long), half valid
/// documents with one garbage token spliced in at a random byte or, a
/// third of the time, none. Paired with whether the document is valid.
fn documents() -> impl Strategy<Value = (String, bool)> {
    let soup = (0usize..4).prop_flat_map(|k| {
        prop::collection::vec(prop::sample::select(tokens()), 0..4 << (2 * k.min(2)))
            .prop_map(|parts| (parts.concat(), false))
    });
    let mutant = (
        prop::collection::vec(0usize..1000, 0..40),
        any::<prop::sample::Index>(),
        prop::sample::select(tokens()),
        0u32..3,
    )
        .prop_map(|(ops, at, token, splice)| {
            let mut doc = valid_document(&ops);
            if splice != 0 {
                let mut at = at.index(doc.len() + 1);
                while !doc.is_char_boundary(at) {
                    at -= 1;
                }
                doc.insert_str(at, &token);
            }
            (doc, splice == 0)
        });
    (soup, mutant, any::<bool>()).prop_map(|(soup, mutant, pick)| if pick { soup } else { mutant })
}

/// Equality of the JSON data model: the writer prints an integral float
/// without a fraction (`2.0` as `2`), so it re-parses as an integer of the
/// same value.
fn same(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Float(x), Value::Int(n)) | (Value::Int(n), Value::Float(x)) => *x == *n as f64,
        (Value::Float(x), Value::UInt(n)) | (Value::UInt(n), Value::Float(x)) => *x == *n as f64,
        (Value::Seq(a), Value::Seq(b)) => {
            a.len() == b.len() && a.iter().zip(b).all(|(a, b)| same(a, b))
        }
        (Value::Map(a), Value::Map(b)) => {
            a.len() == b.len()
                && a.iter()
                    .zip(b)
                    .all(|((ka, va), (kb, vb))| ka == kb && same(va, vb))
        }
        _ => a == b,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2000))]

    #[test]
    fn garbage_never_panics_and_accepted_values_round_trip(case in documents()) {
        let (doc, valid) = case;
        let parsed = serde_json::from_str::<Value>(&doc);
        prop_assert!(parsed.is_ok() || !valid, "{doc:?} is valid JSON: {parsed:?}");
        let Ok(value) = parsed else {
            return Ok(());
        };
        let written = serde_json::to_string(&value);
        prop_assert!(written.is_ok(), "{doc:?} parsed but does not re-serialize");
        let written = written.unwrap();
        let back: Value = serde_json::from_str(&written)
            .map_err(|e| TestCaseError(format!("{doc:?} wrote {written:?}: {e}")))?;
        prop_assert!(same(&back, &value), "{doc:?} -> {value:?} -> {back:?}");
    }
}

/// Four MiB of document, parsed under a bound no parser that re-reads the
/// rest of the input per string character can meet (that one needs hours
/// for either document below).
const BIG: usize = 4 << 20;
const LINEAR_BOUND: Duration = Duration::from_secs(2);

/// Parse `doc` on a worker thread, waiting at most [`LINEAR_BOUND`]: a
/// parser that goes quadratic fails the test instead of stalling the suite.
fn parse_within_bound<T: serde::Deserialize + Send + 'static>(doc: String) -> T {
    let len = doc.len();
    let (tx, rx) = mpsc::channel();
    let worker = thread::spawn(move || {
        let _ = tx.send(serde_json::from_str::<T>(&doc));
    });
    match rx.recv_timeout(LINEAR_BOUND) {
        Ok(parsed) => {
            worker.join().expect("the parser thread finished");
            parsed.expect("valid JSON")
        }
        Err(_) => panic!("a {len} B document did not parse within {LINEAR_BOUND:?}"),
    }
}

#[test]
fn one_multi_mib_string_parses_in_linear_time() {
    // 10 bytes a repeat: one to four bytes per character.
    let text = "xé日😀".repeat(BIG / 10);
    let back: String = parse_within_bound(format!("\"{text}\""));
    assert_eq!(back, text);
}

#[test]
fn multi_mib_of_short_escaped_strings_parse_in_linear_time() {
    let item = "\"a\\\"é\\n\\u0041\"";
    let n = BIG / (item.len() + 1);
    let back: Vec<String> = parse_within_bound(format!("[{}]", vec![item; n].join(",")));
    assert_eq!(back.len(), n);
    assert!(back.iter().all(|s| s == "a\"é\nA"), "{:?}", back.first());
}
