//! The JSON codec's output is cache-key material: every byte of it feeds a
//! SHA-256 digest, so a writer change that moves one byte orphans every
//! existing cache entry. These properties pin the writer, which copies
//! unescaped runs in bulk, to the straightforward char-by-char reference
//! encoder below, and check that parsing inverts writing.

use proptest::prelude::*;
use serde::Value;

/// The reference encoder.
fn reference_json(v: &Value, out: &mut String) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Int(i) => out.push_str(&i.to_string()),
        Value::UInt(u) => out.push_str(&u.to_string()),
        Value::Float(f) if f.is_nan() => out.push_str("NaN"),
        Value::Float(f) if f.is_infinite() => out.push_str(if *f > 0.0 { "inf" } else { "-inf" }),
        Value::Float(f) => out.push_str(&format!("{f:?}")),
        Value::Str(s) => reference_string(s, out),
        Value::Array(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                reference_json(item, out);
            }
            out.push(']');
        }
        Value::Object(pairs) => {
            out.push('{');
            for (i, (key, value)) in pairs.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                reference_string(key, out);
                out.push(':');
                reference_json(value, out);
            }
            out.push('}');
        }
    }
}

/// The reference string escaper.
fn reference_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

fn reference(v: &Value) -> String {
    let mut out = String::new();
    reference_json(v, &mut out);
    out
}

/// Characters weighted toward the ones the escaper treats specially.
fn any_char() -> impl Strategy<Value = char> {
    prop_oneof![
        prop_oneof![Just('"'), Just('\\'), Just('/'), Just('\u{7f}')],
        (0u32..0x20).prop_map(|c| char::from_u32(c).expect("control character")),
        (0x20u32..0x7f).prop_map(|c| char::from_u32(c).expect("printable ASCII")),
        prop_oneof![
            Just('\u{e9}'),
            Just('\u{20ac}'),
            Just('\u{fffd}'),
            Just('\u{1f600}'),
            Just('\u{10ffff}'),
        ],
        (0x80u32..0x11_0000).prop_map(|c| char::from_u32(c).unwrap_or('\u{fffd}')),
    ]
}

fn any_string() -> impl Strategy<Value = String> {
    proptest::collection::vec(any_char(), 0..24).prop_map(|chars| chars.into_iter().collect())
}

/// Integers with the `i64`/`u64` extremes over-represented.
fn any_int() -> impl Strategy<Value = u64> {
    prop_oneof![
        any::<u64>(),
        any::<u8>().prop_map(u64::from),
        prop_oneof![
            Just(0),
            Just(u64::MAX),
            Just(i64::MAX as u64),
            Just(i64::MIN as u64),
            Just(10_000_000_000_000_000_000),
        ],
    ]
}

/// A negative integer from any bits: the parser reads non-negative
/// integers back as [`Value::UInt`], so only negative ones are `Int`s.
fn negative(int: u64) -> i64 {
    let i = int as i64;
    if i < 0 {
        i
    } else {
        -1 - i
    }
}

/// Finite and infinite floats: raw bit patterns, subnormals, and edge
/// values. NaN is left out because it never equals itself.
fn any_float() -> impl Strategy<Value = f64> {
    prop_oneof![
        any::<u64>().prop_map(f64::from_bits),
        any::<u64>().prop_map(|bits| f64::from_bits(bits & 0x800f_ffff_ffff_ffff)),
        prop_oneof![
            Just(0.0),
            Just(-0.0),
            Just(f64::MIN_POSITIVE),
            Just(5e-324),
            Just(f64::MAX),
            Just(f64::MIN),
            Just(f64::INFINITY),
            Just(f64::NEG_INFINITY),
            Just(0.1),
            Just(1e21),
            Just(1e-7),
        ],
    ]
    .prop_map(|f| if f.is_nan() { 1.5 } else { f })
}

/// One step of building a value tree: a scalar, or opening or closing a
/// container.
type Token = (u8, u64, f64, String);

fn any_token() -> impl Strategy<Value = Token> {
    (0u8..9, any_int(), any_float(), any_string())
}

/// Folds tokens into a tree rooted at an array. Object entries take the
/// token's string as their key.
fn build(tokens: Vec<Token>) -> Value {
    fn attach(stack: &mut [(Option<String>, Value)], key: String, value: Value) {
        match &mut stack.last_mut().expect("the root stays open").1 {
            Value::Array(items) => items.push(value),
            Value::Object(pairs) => pairs.push((key, value)),
            _ => unreachable!("only containers are stacked"),
        }
    }
    let mut stack = vec![(None, Value::Array(Vec::new()))];
    for (op, int, float, text) in tokens {
        let scalar = match op {
            0 => Value::Null,
            1 => Value::Bool(int & 1 == 1),
            2 => Value::Int(negative(int)),
            3 => Value::UInt(int),
            4 => Value::Float(float),
            5 => Value::Str(text.clone()),
            6 => {
                stack.push((Some(text), Value::Array(Vec::new())));
                continue;
            }
            7 => {
                stack.push((Some(text), Value::Object(Vec::new())));
                continue;
            }
            _ if stack.len() > 1 => {
                let (key, value) = stack.pop().expect("an open container");
                attach(&mut stack, key.unwrap_or_default(), value);
                continue;
            }
            _ => continue,
        };
        attach(&mut stack, text, scalar);
    }
    while stack.len() > 1 {
        let (key, value) = stack.pop().expect("an open container");
        attach(&mut stack, key.unwrap_or_default(), value);
    }
    stack.pop().expect("the root").1
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Strings encode exactly as the reference escaper encodes them, and
    /// decode back.
    #[test]
    fn strings_encode_like_the_reference(s in any_string()) {
        let value = Value::Str(s.clone());
        let text = value.to_json();
        prop_assert_eq!(&text, &reference(&value));
        prop_assert_eq!(serde::to_json_string(&s), text.clone());
        prop_assert_eq!(Value::parse_json(&text).unwrap(), value);
    }

    /// Integers and floats, extremes and subnormals included, encode as
    /// the reference does and decode to the same bits.
    #[test]
    fn numbers_encode_like_the_reference(int in any_int(), float in any_float()) {
        for value in [Value::UInt(int), Value::Int(negative(int)), Value::Float(float)] {
            let text = value.to_json();
            prop_assert_eq!(&text, &reference(&value));
            prop_assert_eq!(Value::parse_json(&text).unwrap(), value);
        }
        // Non-negative `Int`s read back as `UInt`s, so only their encoding
        // is compared.
        let signed = Value::Int(int as i64);
        prop_assert_eq!(signed.to_json(), reference(&signed));
        let text = Value::Float(float).to_json();
        let Value::Float(back) = Value::parse_json(&text).unwrap() else {
            panic!("{text} decodes to a float");
        };
        prop_assert_eq!(back.to_bits(), float.to_bits());
    }

    /// Whole trees: byte-identical to the reference, and parse inverts
    /// write.
    #[test]
    fn trees_encode_like_the_reference_and_round_trip(
        tokens in proptest::collection::vec(any_token(), 0..40)
    ) {
        let value = build(tokens);
        let text = value.to_json();
        prop_assert_eq!(&text, &reference(&value));
        prop_assert_eq!(Value::parse_json(&text).unwrap(), value);
    }
}
