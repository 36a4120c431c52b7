//! Checksummed daemon checkpoints.
//!
//! A checkpoint is a single JSON document:
//!
//! ```json
//! {"schema":"parvad/checkpoint/v3","checksum":1234567890,"state":{…}}
//! ```
//!
//! `state` is the full serialized [`crate::Daemon`]; `checksum` is FNV-1a
//! (64-bit) over the compact canonical JSON encoding of `state`. Decoding
//! verifies both the schema tag and the checksum before any field is
//! interpreted, so a truncated, hand-edited or bit-flipped file fails
//! loudly ("checkpoint checksum mismatch") instead of resuming a subtly
//! corrupted simulation. The schema tag changes whenever the state's shape
//! or meaning does, so a checkpoint of another shape is refused by name
//! ("unsupported checkpoint schema") rather than by whichever field first
//! fails to decode. A field added with a default that older checkpoints
//! resume under exactly keeps the tag: v3 checkpoints written before
//! servers recorded their armed batching deadline still load. A checksum only proves the state is the one that was
//! written, not that it is sane: [`crate::run_daemon`] also refuses a
//! state with a zero epoch length or per-service lists of unequal length.
//!
//! Canonical-form note: checksum stability across encode → parse → re-encode
//! relies on the vendored `serde_json` printing every `f64` in shortest
//! round-trip form and keeping map entries in insertion order. Both hold
//! throughout this workspace, so re-serializing the parsed `state` subtree
//! reproduces the exact bytes that were checksummed.

use serde::{Deserialize, Serialize, Value};
use std::path::Path;

/// Schema tag of the current checkpoint format: v3 prices recovery with
/// the fleet's model, so the autoscale policy no longer carries recovery
/// knobs (v2 introduced the unified serving engine: calendar-queue events,
/// no cached perf memos or deployment copy).
pub const SCHEMA: &str = "parvad/checkpoint/v3";

/// FNV-1a, 64-bit — tiny, dependency-free, deterministic.
#[must_use]
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn value_u64(v: &Value) -> Option<u64> {
    match *v {
        Value::Int(n) => u64::try_from(n).ok(),
        Value::UInt(n) => Some(n),
        _ => None,
    }
}

/// Encode `state` into the checkpoint document (pretty-printed JSON).
///
/// # Errors
/// Non-finite floats in the state (not valid JSON).
pub fn encode_checkpoint<T: Serialize>(state: &T) -> Result<String, String> {
    let state = state.to_value();
    let canon = serde_json::to_string(&state).map_err(|e| e.to_string())?;
    let checksum = fnv1a64(canon.as_bytes());
    let doc = Value::Map(vec![
        ("schema".to_string(), Value::Str(SCHEMA.to_string())),
        ("checksum".to_string(), Value::UInt(checksum)),
        ("state".to_string(), state),
    ]);
    serde_json::to_string_pretty(&doc).map_err(|e| e.to_string())
}

/// Decode a checkpoint document, verifying schema and checksum.
///
/// # Errors
/// Unparseable JSON, wrong schema tag, missing fields, checksum mismatch
/// (a corrupted or tampered checkpoint), or a `state` that no longer
/// deserializes into `T`.
pub fn decode_checkpoint<T: Deserialize>(text: &str) -> Result<T, String> {
    let doc: Value =
        serde_json::from_str(text).map_err(|e| format!("checkpoint is not valid JSON: {e}"))?;
    let map = doc
        .as_map()
        .ok_or_else(|| "checkpoint must be a JSON object".to_string())?;
    let schema = match serde::find_field(map, "schema") {
        Some(Value::Str(s)) => s.as_str(),
        _ => return Err("checkpoint has no schema tag".to_string()),
    };
    if schema != SCHEMA {
        return Err(format!(
            "unsupported checkpoint schema {schema:?} (this build reads {SCHEMA:?})"
        ));
    }
    let recorded = serde::find_field(map, "checksum")
        .and_then(value_u64)
        .ok_or_else(|| "checkpoint has no checksum".to_string())?;
    let state =
        serde::find_field(map, "state").ok_or_else(|| "checkpoint has no state".to_string())?;
    let canon = serde_json::to_string(state).map_err(|e| e.to_string())?;
    let actual = fnv1a64(canon.as_bytes());
    if actual != recorded {
        return Err(format!(
            "checkpoint checksum mismatch (recorded {recorded}, computed {actual}): \
             the file is corrupted or was edited; refusing to resume"
        ));
    }
    T::from_value(state).map_err(|e| format!("checkpoint state does not decode: {e}"))
}

/// Write a checkpoint file.
///
/// # Errors
/// Encoding or filesystem errors, as strings.
pub fn save_checkpoint<T: Serialize>(state: &T, path: &Path) -> Result<(), String> {
    let text = encode_checkpoint(state)?;
    std::fs::write(path, text).map_err(|e| format!("writing checkpoint {}: {e}", path.display()))
}

/// Read and verify a checkpoint file.
///
/// # Errors
/// Filesystem errors or any [`decode_checkpoint`] failure, as strings.
pub fn load_checkpoint<T: Deserialize>(path: &Path) -> Result<T, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("reading checkpoint {}: {e}", path.display()))?;
    decode_checkpoint(&text).map_err(|e| format!("checkpoint {}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_vectors() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn round_trip() {
        let state = vec![1u64, 2, 3];
        let text = encode_checkpoint(&state).unwrap();
        let back: Vec<u64> = decode_checkpoint(&text).unwrap();
        assert_eq!(back, state);
    }

    #[test]
    fn tampered_state_is_rejected() {
        let text = encode_checkpoint(&vec![10u64, 20]).unwrap();
        let tampered = text.replace("20", "21");
        assert_ne!(tampered, text, "tamper must hit the state body");
        let err = decode_checkpoint::<Vec<u64>>(&tampered).unwrap_err();
        assert!(err.contains("checksum mismatch"), "unexpected error: {err}");
    }

    #[test]
    fn wrong_schema_is_rejected() {
        let text = encode_checkpoint(&0u64)
            .unwrap()
            .replace(SCHEMA, "parvad/checkpoint/v0");
        let err = decode_checkpoint::<u64>(&text).unwrap_err();
        assert!(err.contains("unsupported checkpoint schema"));
    }

    #[test]
    fn v1_checkpoint_is_refused_by_schema_not_by_field() {
        // A v1 daemon carried the separate streaming engine: its state no
        // longer decodes, but the schema tag must refuse it first, with a
        // checksum that verifies (the tag sits outside the checksum).
        let state = r#"{"engine":{"queue":{"now":0,"seq":0,"entries":[]},"epoch_us":500000}}"#;
        let doc = |schema: &str| {
            format!(
                r#"{{"schema":"{schema}","checksum":{},"state":{state}}}"#,
                fnv1a64(state.as_bytes())
            )
        };
        let err = decode_checkpoint::<crate::Daemon>(&doc("parvad/checkpoint/v1")).unwrap_err();
        assert!(err.contains("unsupported checkpoint schema"), "{err}");
        let err = decode_checkpoint::<crate::Daemon>(&doc(SCHEMA)).unwrap_err();
        assert!(err.contains("does not decode"), "{err}");
    }

    #[test]
    fn v2_checkpoint_is_refused_by_schema_not_by_field() {
        // A v2 daemon priced recovery with four knobs of its own policy.
        // Decoding ignores unknown keys, so only the schema tag stands
        // between a v2 state and a daemon that silently re-prices it.
        let daemon = crate::Daemon::new(
            &[parva_deploy::ServiceSpec::new(
                1,
                parva_perf::Model::ResNet50,
                400.0,
                40.0,
            )],
            parva_serve::ArrivalProcess::Poisson,
            11,
            500_000,
            crate::AutoscalePolicy::default(),
        )
        .unwrap();
        let mut state = daemon.to_value();
        let Value::Map(fields) = &mut state else {
            panic!("daemon state is a map")
        };
        let Some((_, Value::Map(policy))) = fields.iter_mut().find(|(k, _)| k == "policy") else {
            panic!("daemon state has a policy map")
        };
        for (knob, v2_default) in [
            ("control_plane_ms", 50.0),
            ("reflash_ms", 400.0),
            ("link_gib_per_s", 16.0),
            ("copy_gib", 1.0),
        ] {
            policy.push((knob.to_string(), Value::Float(v2_default)));
        }
        let state = serde_json::to_string(&state).unwrap();
        let doc = |schema: &str| {
            format!(
                r#"{{"schema":"{schema}","checksum":{},"state":{state}}}"#,
                fnv1a64(state.as_bytes())
            )
        };
        let err = decode_checkpoint::<crate::Daemon>(&doc("parvad/checkpoint/v2")).unwrap_err();
        assert!(err.contains("unsupported checkpoint schema"), "{err}");
        decode_checkpoint::<crate::Daemon>(&doc(SCHEMA)).unwrap();
    }

    #[test]
    fn garbage_is_rejected_with_clear_errors() {
        for (text, needle) in [
            ("not json at all", "not valid JSON"),
            ("[1,2,3]", "must be a JSON object"),
            ("{\"x\":1}", "no schema tag"),
        ] {
            let err = decode_checkpoint::<u64>(text).unwrap_err();
            assert!(err.contains(needle), "{text} → {err}");
        }
    }
}
