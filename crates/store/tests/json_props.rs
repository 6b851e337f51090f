//! Property tests of the JSON string codec: every Rust `String` — ASCII,
//! control characters, the characters the encoder escapes, and one- to
//! four-byte UTF-8 sequences — survives `Json::Str(s).to_string()` and
//! `Json::parse` unchanged, alone and inside a container, and encodes to
//! exactly the bytes of the per-character escaper the run-copying one
//! replaced.

use marioh_store::Json;
use proptest::prelude::*;

/// Any Unicode scalar value, weighted so that every UTF-8 width and the
/// escaped characters (`"`, `\`, controls) show up in most strings.
fn any_char() -> impl Strategy<Value = char> {
    prop_oneof![
        0u32..0x20,
        0x20u32..0x80,
        0u32..0x20,
        (0usize..3).prop_map(|i| ['"' as u32, '\\' as u32, 0x7f][i]),
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

/// The per-character escaper `Json`'s encoder used before it copied
/// plain runs whole: the oracle for its bytes.
fn escape_per_char(s: &str) -> String {
    use std::fmt::Write;
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32).unwrap(),
            c => write!(out, "{c}").unwrap(),
        }
    }
    out.push('"');
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn encoding_matches_the_per_char_oracle(s in any_string(), key in any_string()) {
        prop_assert_eq!(Json::Str(s.clone()).to_string(), escape_per_char(&s));
        let obj = Json::Obj(vec![(key.clone(), Json::Str(s.clone()))]);
        prop_assert_eq!(
            obj.to_string(),
            format!("{{{}:{}}}", escape_per_char(&key), escape_per_char(&s))
        );
    }
}

#[test]
fn every_control_character_encodes_like_the_oracle() {
    let all: String = (0u32..0x20)
        .chain([0x22, 0x5c, 0x7f, 0xe9, 0x2603, 0x1f600])
        .map(|c| char::from_u32(c).unwrap())
        .collect();
    for c in all.chars() {
        let one = format!("a{c}b");
        assert_eq!(Json::Str(one.clone()).to_string(), escape_per_char(&one));
    }
    assert_eq!(Json::Str(all.clone()).to_string(), escape_per_char(&all));
}
