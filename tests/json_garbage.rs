//! The vendored JSON parser reads untrusted bytes: control-socket bodies,
//! on-disk scenario specs and `--resume` checkpoints. Garbage drawn from
//! JSON's own token alphabet must come back as an `Err`, never a panic or
//! a stack overflow, and whatever the parser accepts must survive a
//! write/re-parse round trip. Reads are linear: multi-MiB strings parse in
//! milliseconds. A type read straight from the text must read as it does
//! from the parsed tree: the same value, or the same error.

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

// ------------------------------------------- text reader against tree route

/// An enum of every variant shape the derive reads.
#[derive(Debug, PartialEq, serde::Serialize, serde::Deserialize)]
enum Shape {
    Empty,
    Point { x: f64, y: Option<u32> },
    Tagged(String),
    Pair(u8, bool),
}

/// A struct of plain, defaulted, skipped and free-form fields.
#[derive(Debug, PartialEq, serde::Serialize, serde::Deserialize)]
struct Probe {
    id: u32,
    #[serde(default)]
    tags: Vec<String>,
    inner: Option<Value>,
    #[serde(skip)]
    memo: u8,
}

/// Valid documents of each target type, the seeds the typed strategy
/// mutates.
fn typed_bases() -> Vec<String> {
    let pod =
        parvagpu::daemon::PodSpec::new("bert-qa", parvagpu::perf::Model::BertLarge, 130.0, 150.0);
    let mut bases: Vec<String> = [
        "[1,2,18446744073709551615]",
        "[]",
        "1.5",
        "-0",
        "null",
        r#""Empty""#,
        r#"{"Point":{"x":1.5,"y":null}}"#,
        r#"{"Point":{"y":3,"x":-2}}"#,
        r#"{"Tagged":"a\"b"}"#,
        r#"{"Pair":[7,true]}"#,
        r#"{"id":4,"tags":["x","y"],"inner":{"k":[1,{"z":null}]}}"#,
        r#"{"name":"x","model":"ResNet-50","slo_ms":100.0,"rate_rps":10.0}"#,
    ]
    .iter()
    .map(|s| (*s).to_string())
    .collect();
    bases.push(serde_json::to_string(&pod).unwrap());
    for name in ["quickstart", "fleet_chaos", "region_failover"] {
        let spec = parvagpu::scenarios::spec_by_name(name).unwrap();
        bases.push(serde_json::to_string(&spec).unwrap());
    }
    bases
}

/// Shuffle `v`'s map entries by `seed`, duplicating some keys after their
/// first occurrence with other values and adding unknown keys: a document
/// every reader must read as it reads `v`.
fn reshuffle(v: &mut Value, seed: &mut u64) {
    let next = |seed: &mut u64| {
        *seed ^= *seed << 13;
        *seed ^= *seed >> 7;
        *seed ^= *seed << 17;
        *seed as usize
    };
    match v {
        Value::Seq(items) => items.iter_mut().for_each(|item| reshuffle(item, seed)),
        Value::Map(entries) => {
            for (_, item) in entries.iter_mut() {
                reshuffle(item, seed);
            }
            if !entries.is_empty() {
                let n = entries.len();
                entries.rotate_left(next(seed) % n);
                let dup = next(seed) % n;
                let key = entries[dup].0.clone();
                let at = dup + 1 + next(seed) % (n - dup);
                entries.insert(at, (key, Value::Str("second".into())));
            }
            let at = next(seed) % (entries.len() + 1);
            entries.insert(at, ("unknown_key".into(), Value::Seq(vec![Value::Null])));
        }
        _ => {}
    }
}

/// A typed base document, as is, reshuffled, or with one garbage token
/// spliced in at a random byte.
fn typed_documents() -> impl Strategy<Value = String> {
    let bases = typed_bases();
    (
        0..bases.len(),
        0u32..3,
        any::<prop::sample::Index>(),
        prop::sample::select(tokens()),
        any::<u64>(),
    )
        .prop_map(move |(base, how, at, token, seed)| {
            let mut doc = bases[base].clone();
            match how {
                0 => {}
                1 => {
                    let mut v: Value = serde_json::from_str(&doc).unwrap();
                    reshuffle(&mut v, &mut (seed | 1));
                    doc = serde_json::to_string(&v).unwrap();
                }
                _ => {
                    let mut at = at.index(doc.len() + 1);
                    while !doc.is_char_boundary(at) {
                        at -= 1;
                    }
                    doc.insert_str(at, &token);
                }
            }
            doc
        })
}

/// `T` read from the text and `T` read from the parsed tree agree: on the
/// value (compared by its JSON), and on the error text whether the
/// document is not JSON or not a `T`.
fn routes_agree<T: serde::Serialize + serde::Deserialize>(doc: &str) -> Result<(), TestCaseError> {
    let render = |t: T| serde_json::to_string(&t).unwrap();
    let text = serde_json::from_str::<T>(doc)
        .map(render)
        .map_err(|e| e.to_string());
    let tree = match serde_json::from_str::<Value>(doc) {
        Ok(v) => T::from_value(&v).map(render).map_err(|e| e.to_string()),
        Err(e) => Err(e.to_string()),
    };
    prop_assert_eq!(
        &text,
        &tree,
        "{} from {:?}",
        std::any::type_name::<T>(),
        doc
    );
    Ok(())
}

fn all_routes_agree(doc: &str) -> Result<(), TestCaseError> {
    routes_agree::<Vec<u64>>(doc)?;
    routes_agree::<Option<f64>>(doc)?;
    routes_agree::<Shape>(doc)?;
    routes_agree::<Probe>(doc)?;
    routes_agree::<parvagpu::daemon::PodSpec>(doc)?;
    routes_agree::<parvagpu::scenarios::ScenarioSpec>(doc)?;
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1000))]

    #[test]
    fn text_reader_agrees_with_the_tree_route_on_garbage(case in documents()) {
        all_routes_agree(&case.0)?;
    }

    #[test]
    fn text_reader_agrees_with_the_tree_route_on_typed_documents(doc in typed_documents()) {
        all_routes_agree(&doc)?;
    }
}

#[test]
fn the_typed_bases_read_as_their_types() {
    let bases = typed_bases();
    assert!(serde_json::from_str::<Vec<u64>>(&bases[0]).is_ok());
    assert_eq!(
        serde_json::from_str::<Option<f64>>("-0").unwrap(),
        Some(0.0)
    );
    assert_eq!(serde_json::from_str::<Value>("-0").unwrap(), Value::Int(0));
    for doc in &bases[5..10] {
        serde_json::from_str::<Shape>(doc).unwrap();
    }
    serde_json::from_str::<Probe>(&bases[10]).unwrap();
    for doc in &bases[11..13] {
        serde_json::from_str::<parvagpu::daemon::PodSpec>(doc).unwrap();
    }
    for doc in &bases[13..] {
        serde_json::from_str::<parvagpu::scenarios::ScenarioSpec>(doc).unwrap();
    }
}

#[test]
fn the_first_of_duplicate_keys_wins() {
    let probe: Probe = serde_json::from_str(r#"{"id":1,"id":2,"inner":null}"#).unwrap();
    assert_eq!(probe.id, 1);
    // A later duplicate is only checked for syntax, never read as a field.
    let probe: Probe = serde_json::from_str(r#"{"id":1,"inner":null,"id":"x"}"#).unwrap();
    assert_eq!(probe.id, 1);
    let err = serde_json::from_str::<Probe>(r#"{"id":"x","inner":null,"id":1}"#).unwrap_err();
    assert_eq!(err.to_string(), "expected integer, got Str(\"x\")");
    let shape: Shape = serde_json::from_str(r#"{"Point":{"x":1,"x":"no","y":2}}"#).unwrap();
    assert_eq!(shape, Shape::Point { x: 1.0, y: Some(2) });
}

#[test]
fn unknown_keys_are_skipped_and_keys_come_in_any_order() {
    let want = Probe {
        id: 9,
        tags: vec!["a".into()],
        inner: Some(Value::Bool(true)),
        memo: 0,
    };
    let ordered = r#"{"id":9,"tags":["a"],"inner":true}"#;
    let shuffled = r#"{"inner":true,"zz":{"deep":[1,{"k":[]}]},"tags":["a"],"memo":5,"id":9}"#;
    assert_eq!(serde_json::from_str::<Probe>(ordered).unwrap(), want);
    assert_eq!(serde_json::from_str::<Probe>(shuffled).unwrap(), want);
    // A missing required key is named; a defaulted one is filled.
    let err = serde_json::from_str::<Probe>(r#"{"tags":[],"inner":null}"#).unwrap_err();
    assert_eq!(err.to_string(), "missing field `id` in `Probe`");
    let bare: Probe = serde_json::from_str(r#"{"inner":null,"id":0}"#).unwrap();
    assert!(bare.tags.is_empty());
}

#[test]
fn nesting_through_a_typed_field_is_bounded() {
    let deep = |levels: usize| {
        format!(
            r#"{{"id":1,"inner":{}{}}}"#,
            "[".repeat(levels),
            "]".repeat(levels)
        )
    };
    // The struct's own map is one level, so its field may nest one fewer.
    let limit = serde_json::MAX_DEPTH - 1;
    assert!(serde_json::from_str::<Probe>(&deep(limit)).is_ok());
    let err = serde_json::from_str::<Probe>(&deep(limit + 1)).unwrap_err();
    let at = r#"{"id":1,"inner":"#.len() + limit;
    assert_eq!(
        err.to_string(),
        format!("nesting deeper than 128 levels at byte {at}")
    );
}

#[test]
fn a_syntax_error_is_reported_before_any_shape_error() {
    // The first field is of the wrong type, but the text breaks later on:
    // the break is the error, at its byte, as when the document was parsed
    // whole before any field was read.
    let err = serde_json::from_str::<Probe>(r#"{"id":"x","tags":[1,}"#).unwrap_err();
    assert_eq!(err.to_string(), "expected a JSON value at byte 20");
    let err = serde_json::from_str::<Vec<u64>>("[\"x\", 1] ]").unwrap_err();
    assert_eq!(
        err.to_string(),
        "trailing characters after JSON value at byte 9"
    );
    let err = serde_json::from_str::<Vec<u64>>("[\"x\", 1]").unwrap_err();
    assert_eq!(err.to_string(), "expected integer, got Str(\"x\")");
}
