//! Property test of the JSON string codec: every Rust `String` — ASCII,
//! control characters, the characters the encoder escapes, and one- to
//! four-byte UTF-8 sequences — survives `Json::Str(s).to_string()` and
//! `Json::parse` unchanged, alone and inside a container.

use marioh_store::Json;
use proptest::prelude::*;

/// Any Unicode scalar value, weighted so that every UTF-8 width and the
/// escaped characters (`"`, `\`, controls) show up in most strings.
fn any_char() -> impl Strategy<Value = char> {
    prop_oneof![
        0u32..0x20,
        0x20u32..0x80,
        (0usize..2).prop_map(|i| ['"' as u32, '\\' as u32][i]),
        0x80u32..0x800,
        0x800u32..0xD800,
        0xE000u32..0x10000,
        0x10000u32..0x110000,
    ]
    .prop_map(|c| char::from_u32(c).expect("surrogates are excluded"))
}

fn any_string() -> impl Strategy<Value = String> {
    proptest::collection::vec(any_char(), 0..48).prop_map(|cs| cs.into_iter().collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn any_string_round_trips(s in any_string()) {
        let encoded = Json::Str(s.clone()).to_string();
        prop_assert_eq!(Json::parse(&encoded), Ok(Json::Str(s.clone())));

        let nested = Json::Obj(vec![(s.clone(), Json::Arr(vec![Json::Str(s)]))]);
        prop_assert_eq!(Json::parse(&nested.to_string()), Ok(nested));
    }
}
