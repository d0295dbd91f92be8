//! The codecs the meta-database and the durable store share are
//! **total** and **stable**.
//!
//! For every codec (value tokens, constraint bodies, data types, whole
//! paged checkpoint files) three properties are checked:
//!
//! 1. **Round trip** — decode(encode(x)) == x.
//! 2. **Fixpoint** — re-encoding the decoded form reproduces the exact
//!    byte string, so checkpoints written by one session are byte-stable
//!    under rewrite by the next (recovery depends on this to compare
//!    states by equality).
//! 3. **Totality under truncation/corruption** — a torn prefix or a
//!    flipped byte is *rejected with an error*, never a panic, and never
//!    decodes to a silently different artefact (a truncated input that
//!    happens to decode must itself be stable). For checkpoints this
//!    extends to structure-aware mutation: a byte changed inside one
//!    frame and re-checksummed, so it gets past the CRC and reaches the
//!    structural decoder, yields a state or a classified error.

use std::sync::OnceLock;

use proptest::prelude::*;

use ridl_brm::{
    ConstraintKind, DataType, Decimal, FactTypeId, ObjectTypeId, RoleOrSublink, RoleRef, Side,
    SublinkId, Value,
};
use ridl_durable::crc::crc32;
use ridl_durable::pagesnap::SNAP2_MAGIC;
use ridl_durable::{decode_paged, encode_base, merge_chain};
use ridl_metadb::serde as mdb;
use ridl_relational::{RelSchema, RelState};
use ridl_workloads::scenario::{self, MappedPopulation};
use ridl_workloads::synth::GenParams;

// ---- strategies (ASCII strings so every byte prefix is valid UTF-8) ----

fn value_strategy() -> impl Strategy<Value = Value> {
    prop_oneof![
        "[ -~]{0,12}".prop_map(Value::Str),
        any::<i64>().prop_map(Value::Int),
        (any::<i64>(), 0u8..6).prop_map(|(m, s)| Value::Num(Decimal::new(m, s))),
        any::<i32>().prop_map(Value::Date),
        any::<bool>().prop_map(Value::Bool),
        (0u64..1000).prop_map(Value::entity),
    ]
}

fn role_strategy() -> impl Strategy<Value = RoleRef> {
    (0u32..50, any::<bool>()).prop_map(|(f, s)| {
        RoleRef::new(
            FactTypeId::from_raw(f),
            if s { Side::Left } else { Side::Right },
        )
    })
}

fn item_strategy() -> impl Strategy<Value = RoleOrSublink> {
    prop_oneof![
        role_strategy().prop_map(RoleOrSublink::Role),
        (0u32..20).prop_map(|s| RoleOrSublink::Sublink(SublinkId::from_raw(s))),
    ]
}

fn constraint_strategy() -> impl Strategy<Value = ConstraintKind> {
    prop_oneof![
        prop::collection::vec(role_strategy(), 1..4)
            .prop_map(|roles| ConstraintKind::Uniqueness { roles }),
        (0u32..30, prop::collection::vec(item_strategy(), 1..4)).prop_map(|(o, items)| {
            ConstraintKind::Total {
                over: ObjectTypeId::from_raw(o),
                items,
            }
        }),
        prop::collection::vec(item_strategy(), 2..5)
            .prop_map(|items| ConstraintKind::Exclusion { items }),
        (
            prop::collection::vec(role_strategy(), 1..3),
            prop::collection::vec(role_strategy(), 1..3)
        )
            .prop_map(|(sub, sup)| ConstraintKind::Subset { sub, sup }),
        (
            prop::collection::vec(role_strategy(), 1..3),
            prop::collection::vec(role_strategy(), 1..3)
        )
            .prop_map(|(a, b)| ConstraintKind::Equality { a, b }),
        (role_strategy(), 0u32..5, proptest::option::of(5u32..10))
            .prop_map(|(role, min, max)| ConstraintKind::Cardinality { role, min, max }),
        (0u32..30, prop::collection::vec(value_strategy(), 0..5)).prop_map(|(o, values)| {
            ConstraintKind::Value {
                over: ObjectTypeId::from_raw(o),
                values,
            }
        }),
    ]
}

fn data_type_strategy() -> impl Strategy<Value = DataType> {
    prop_oneof![
        (0u16..500).prop_map(DataType::Char),
        (0u16..500).prop_map(DataType::VarChar),
        (1u8..30, 0u8..10).prop_map(|(p, s)| DataType::Numeric(p, s)),
        Just(DataType::Integer),
        Just(DataType::Real),
        Just(DataType::Date),
        Just(DataType::Boolean),
        Just(DataType::Surrogate),
    ]
}

fn synth_artifacts() -> &'static Vec<(RelSchema, RelState)> {
    static CACHE: OnceLock<Vec<(RelSchema, RelState)>> = OnceLock::new();
    CACHE.get_or_init(|| {
        (0..3u64)
            .map(|seed| {
                let params = GenParams {
                    seed: 77 + seed,
                    nolots: 5,
                    attrs_per_nolot: (1, 3),
                    mn_facts: 2,
                    sublinks: 1,
                    ..GenParams::default()
                };
                let MappedPopulation { schema, state } = scenario::mapped_population(&params, 3);
                (schema, state)
            })
            .collect()
    })
}

/// Largest char-boundary index ≤ `i` (so arbitrary cut points stay valid
/// UTF-8 even if a workload value smuggles multibyte text in).
fn floor_boundary(s: &str, mut i: usize) -> usize {
    while i > 0 && !s.is_char_boundary(i) {
        i -= 1;
    }
    i
}

/// `(start, len)` of every frame payload in a paged checkpoint
/// (`[len:u32le][crc:u32le][payload]` after the magic).
fn frame_payloads(bytes: &[u8]) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    let mut pos = SNAP2_MAGIC.len();
    while pos < bytes.len() {
        let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap()) as usize;
        out.push((pos + 8, len));
        pos += 8 + len;
    }
    out
}

proptest! {
    /// Value tokens: round trip, byte-stable fixpoint, and total under
    /// truncation — a torn token errs or is itself a stable token.
    #[test]
    fn value_token_fixpoint(v in value_strategy(), cut in 0usize..1000) {
        let enc = mdb::encode_value(&v);
        let dec = mdb::decode_value(&enc).unwrap();
        prop_assert_eq!(&dec, &v);
        prop_assert_eq!(mdb::encode_value(&dec), enc.clone(), "encode not a fixpoint");

        let cut = floor_boundary(&enc, cut % (enc.len() + 1));
        let torn = &enc[..cut];
        if let Ok(v2) = mdb::decode_value(torn) {
            let renc = mdb::encode_value(&v2);
            prop_assert_eq!(
                mdb::decode_value(&renc).unwrap(),
                v2,
                "torn token decoded to an unstable value"
            );
        }
    }

    /// Constraint bodies: round trip, byte-stable fixpoint, truncation
    /// totality.
    #[test]
    fn constraint_body_fixpoint(kind in constraint_strategy(), cut in 0usize..10_000) {
        let enc = mdb::encode_constraint(&kind);
        let dec = mdb::decode_constraint(&enc).unwrap_or_else(|e| panic!("{enc}: {e}"));
        prop_assert_eq!(&dec, &kind, "{}", enc);
        prop_assert_eq!(mdb::encode_constraint(&dec), enc.clone(), "encode not a fixpoint");

        let cut = floor_boundary(&enc, cut % (enc.len() + 1));
        let torn = &enc[..cut];
        if let Ok(k2) = mdb::decode_constraint(torn) {
            let renc = mdb::encode_constraint(&k2);
            prop_assert_eq!(
                mdb::decode_constraint(&renc).unwrap(),
                k2,
                "torn body decoded to an unstable constraint"
            );
        }
    }

    /// Data types: `Display` → `parse_data_type` is a bijection, and the
    /// parser is total on truncated renderings.
    #[test]
    fn data_type_display_roundtrip(dt in data_type_strategy(), cut in 0usize..100) {
        let text = dt.to_string();
        prop_assert_eq!(mdb::parse_data_type(&text).unwrap(), dt);
        let torn = &text[..cut % (text.len() + 1)];
        if let Ok(d2) = mdb::parse_data_type(torn) {
            prop_assert_eq!(mdb::parse_data_type(&d2.to_string()).unwrap(), d2);
        }
    }

    /// The parsers never panic on arbitrary printable garbage.
    #[test]
    fn codecs_are_total_on_garbage(src in "\\PC{0,60}") {
        let _ = mdb::decode_value(&src);
        let _ = mdb::decode_constraint(&src);
        let _ = mdb::parse_data_type(&src);
        let _ = decode_paged(src.as_bytes());
    }

    /// The paged decoder never panics on arbitrary bytes, with or without
    /// a valid magic in front to get them to the frame reader.
    #[test]
    fn paged_decoder_is_total_on_arbitrary_bytes(
        bytes in prop::collection::vec(any::<u8>(), 0..96),
    ) {
        let _ = decode_paged(&bytes);
        let _ = decode_paged(&[SNAP2_MAGIC.as_slice(), &bytes].concat());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Paged checkpoints of mapped populations: `encode_base` →
    /// `decode_paged` → `merge_chain` round-trips epoch, fingerprint and
    /// state, re-encoding the merged state is byte-stable, and every torn
    /// prefix is rejected (the end frame carries the total row count, so
    /// even a cut at a frame boundary is caught).
    #[test]
    fn snapshot_fixpoint_and_torn_prefix(
        art_ix in 0usize..3,
        epoch in 0u64..1u64 << 40,
        fingerprint in any::<u64>(),
        cut in 0usize..1_000_000,
    ) {
        let (_, state) = &synth_artifacts()[art_ix];
        let (enc, geometry, _) = encode_base(epoch, fingerprint, state);
        let snap = decode_paged(&enc).unwrap();
        prop_assert_eq!(snap.epoch, epoch);
        prop_assert_eq!(snap.fingerprint, fingerprint);
        prop_assert_eq!(&snap.geometry, &geometry);
        let merged = merge_chain(snap, vec![]).unwrap();
        prop_assert_eq!(&merged, state);
        prop_assert_eq!(
            encode_base(epoch, fingerprint, &merged).0,
            enc.clone(),
            "checkpoint encode not a fixpoint"
        );

        let cut = cut % enc.len();
        prop_assert!(
            decode_paged(&enc[..cut]).is_err(),
            "torn prefix of {} / {} bytes accepted",
            cut,
            enc.len()
        );
    }

    /// A single flipped byte anywhere in a checkpoint is caught (by a
    /// frame CRC or the magic) and rejected with an error.
    #[test]
    fn snapshot_flipped_byte_rejected(
        art_ix in 0usize..3,
        epoch in 0u64..1u64 << 40,
        pos in 0usize..1_000_000,
        flip in 1u8..255,
    ) {
        let (_, state) = &synth_artifacts()[art_ix];
        let (mut bytes, _, _) = encode_base(epoch, 0xFEED_F00D_u64, state);
        let pos = pos % bytes.len();
        bytes[pos] ^= flip;
        prop_assert!(decode_paged(&bytes).is_err(), "flipped byte at {} accepted", pos);
    }

    /// Structure-aware mutation: one byte inside one frame's payload is
    /// changed and the frame re-checksummed, so the corruption reaches
    /// the structural decoder. The decoder (and a merge of whatever it
    /// accepts) returns a state or a classified error — never a panic.
    #[test]
    fn recrced_frame_mutation_is_classified_not_a_panic(
        art_ix in 0usize..3,
        frame_ix in 0usize..1_000_000,
        offset in 0usize..1_000_000,
        value in any::<u8>(),
    ) {
        let (_, state) = &synth_artifacts()[art_ix];
        let (mut bytes, _, _) = encode_base(3, 0xFEED_F00D_u64, state);
        let frames = frame_payloads(&bytes);
        let (start, len) = frames[frame_ix % frames.len()];
        prop_assume!(len > 0);
        bytes[start + offset % len] = value;
        let crc = crc32(&bytes[start..start + len]);
        bytes[start - 4..start].copy_from_slice(&crc.to_le_bytes());
        if let Ok(snap) = decode_paged(&bytes) {
            let _ = merge_chain(snap, vec![]);
        }
    }
}

/// Deterministic regressions: the exact inputs that used to panic or
/// misparse.
#[test]
fn empty_and_stub_inputs_rejected() {
    assert!(mdb::decode_value("").is_err());
    assert!(mdb::decode_value("N123").is_err(), "mantissa without scale");
    assert!(mdb::decode_value("é").is_err(), "non-ASCII tag");
    assert!(mdb::decode_constraint("").is_err());
    assert!(mdb::parse_data_type("").is_err());
    assert!(mdb::parse_data_type("CHAR(").is_err());
    assert!(decode_paged(b"").is_err());
    let v1 = decode_paged(b"RIDLSNAP 1\n").unwrap_err();
    assert!(v1.0.contains("retired v1"), "v1 stub: {v1}");
}
