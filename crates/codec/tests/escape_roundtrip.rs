//! `parse_json` inverts `json_escape` for every string: whatever a
//! renderer embeds between quotes reads back as the original text.

use proptest::collection::vec;
use proptest::prelude::*;

use octo_codec::{json_escape, parse_json};

/// One character from a class chosen to stress the escaper: JSON
/// specials, control characters, ASCII, the rest of the BMP (surrogates
/// skipped) and astral planes.
fn any_char() -> impl Strategy<Value = char> {
    (0u8..6, any::<u32>()).prop_map(|(class, x)| {
        let code = match class {
            0 => [u32::from('"'), u32::from('\\'), u32::from('/')][(x % 3) as usize],
            1 => x % 0x20,
            2 => 0x20 + x % 0x60,
            3 => 0x80 + x % (0xD800 - 0x80),
            4 => 0xE000 + x % (0x1_0000 - 0xE000),
            _ => 0x1_0000 + x % (0x11_0000 - 0x1_0000),
        };
        char::from_u32(code).expect("surrogates excluded by construction")
    })
}

fn any_string() -> impl Strategy<Value = String> {
    vec(any_char(), 0..40).prop_map(|chars| chars.into_iter().collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn parse_inverts_escape(s in any_string()) {
        let doc = format!("\"{}\"", json_escape(&s));
        let back = parse_json(&doc).map_err(TestCaseError::fail)?;
        prop_assert_eq!(back.as_str(), Some(s.as_str()));
    }
}
