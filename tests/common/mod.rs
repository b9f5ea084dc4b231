//! What the golden suites share: the question pool, the digest and the
//! line-by-line comparison.

use soda::eval::workload;
use soda::warehouse::datagen;

pub fn fnv1a(text: &str) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for byte in text.bytes() {
        hash = (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// The Table-2 keywords followed by the same shapes with other literals of
/// the generated base data in the paper's literals' place, plus the
/// introduction's "Sara Guttinger" and "customers in Zurich" shapes.
pub fn questions() -> Vec<String> {
    let mut out: Vec<String> = workload().iter().map(|q| q.keywords.to_string()).collect();
    let mut fill = |pattern: &str, values: &mut dyn Iterator<Item = String>| {
        out.extend(values.map(|v| pattern.replacen("{}", &v, 1)));
    };
    let owned = |pool: &'static [&'static str]| pool.iter().map(|s| s.to_string());
    let first_word = |s: &str| s.split_whitespace().next().unwrap_or(s).to_string();
    let without_last_word = |s: &str| match s.rsplit_once(' ') {
        Some((head, _)) => head.to_string(),
        None => s.to_string(),
    };
    for pattern in ["{}", "{} given name", "{} birth date"] {
        fill(pattern, &mut owned(datagen::GIVEN_NAMES).skip(1).take(5));
    }
    fill("{}", &mut owned(datagen::ORG_NAMES).skip(1));
    fill(
        "{} agreement",
        &mut owned(datagen::AGREEMENT_NAMES)
            .skip(1)
            .map(|a| first_word(&a)),
    );
    fill(
        "{} trade order",
        &mut datagen::CURRENCIES
            .iter()
            .map(|(code, _)| code.to_string())
            .filter(|code| code != "YEN"),
    );
    fill(
        "trade order investment product {}",
        &mut owned(datagen::PRODUCT_NAMES)
            .skip(1)
            .map(|p| without_last_word(&p)),
    );
    fill(
        "select count() private customers {}",
        &mut owned(datagen::COUNTRIES).skip(1),
    );
    fill(
        "{}",
        &mut owned(datagen::GIVEN_NAMES)
            .zip(owned(datagen::FAMILY_NAMES))
            .take(10)
            .map(|(given, family)| format!("{given} {family}")),
    );
    fill("{}", &mut owned(datagen::FAMILY_NAMES).skip(1).take(8));
    fill("private customers {}", &mut owned(datagen::CITIES));
    out
}

/// Asserts `got` equals the `golden` file's content `want`, naming the first
/// line that differs.
pub fn assert_matches(golden: &str, want: &str, got: &str, shards: usize) {
    for (i, (g, w)) in got.lines().zip(want.lines()).enumerate() {
        assert_eq!(
            g,
            w,
            "line {} of {golden} differs at {shards} shards",
            i + 1
        );
    }
    assert_eq!(
        got.lines().count(),
        want.lines().count(),
        "{golden} has a different number of lines at {shards} shards"
    );
}
