//! Golden canonical forms of the input language, captured before the
//! scanner started borrowing from the input and one grammar walk started
//! driving both the parser and the canonical writer.
//!
//! `tests/golden/canonical_forms.txt` holds one line per input: the input
//! (`Debug`-escaped) and either `=> <canonical form>` — the cache key text
//! of the serving layer — or `!! <error text>`.  The inputs are a fixed list
//! of the grammar's edge cases followed by seeded random sequences over the
//! grammar's vocabulary, separated by single, doubled or missing blanks.
//!
//! Regenerate only on a deliberate change of the input language:
//!
//! ```sh
//! cargo test --test canonical_golden -- --ignored regenerate
//! ```

use std::fmt::Write as _;

use proptest::prelude::*;
use soda::core::{normalize_query, parse_query};

const GOLDEN: &str = "tests/golden/canonical_forms.txt";

/// Seeded inputs after the fixed list.
const SEEDED: usize = 5_200;

/// Every construct of the grammar, the words it treats specially, values in
/// every spelling the value printer rewrites, and text the tokenizer folds.
const VOCABULARY: &[&str] = &[
    "top",
    "Top",
    "10",
    "5",
    "group",
    "by",
    "GROUP BY",
    "between",
    "and",
    "or",
    "AND",
    "valid",
    "at",
    "like",
    "LIKE",
    "select",
    "date",
    "date(1981-04-23)",
    "date(2010-12-31",
    "date(nope)",
    "date()",
    "1981-04-23",
    "2010-13-40",
    "1e3",
    "100000.0",
    "-3",
    "0.5",
    "1e15",
    "inf",
    "NaN",
    ">",
    ">=",
    "<",
    "<=",
    "=",
    "==",
    "!",
    "!=",
    "(",
    ")",
    ",",
    "---",
    "Zürich",
    "İx",
    "trade_order_TD",
    "x-y",
    "gold%",
    "Sara",
    "Guttinger",
    "salary",
    "customers",
    "amount",
    "transaction date",
    "count",
    "sum",
    "avg",
    "min",
    "max",
    "SUM",
    "Count",
    "count()",
    "sum(",
    "avg (",
    "min(amount)",
    "max (a, b c)",
    "(currency, transaction date)",
];

/// Complete constructs only: what a query looks like when no word is left
/// dangling.  On sequences of these the canonical form is a fixed point of
/// canonicalisation; on [`VOCABULARY`] it is not — a keyword such as
/// `1981-04-23` folds to `1981 04 23`, which a preceding `top` then reads as
/// its count, and `İ` lower-cases to `i` plus a combining dot the tokenizer
/// splits on.
const WELL_FORMED: &[&str] = &[
    "Sara Guttinger",
    "trade_order_TD",
    "Zürich",
    "customers",
    "x-y",
    "and",
    "or",
    "select",
    "(",
    ",",
    "top 10",
    "Top 5",
    "> 100000.0",
    "= date(1981-04-23)",
    "!= Basel",
    "== 1e3",
    "<= -3",
    "between 1981-04-23 and date(2010-12-31)",
    "between 1 2",
    "valid at 2006-06-30",
    "like gold%",
    "sum (Amount)",
    "COUNT()",
    "avg(a, b c)",
    "group by (currency, Transaction Date)",
    "group by currency",
];

const GAPS: &[&str] = &[" ", " ", " ", "  ", "", "\t "];

/// The edge cases every reader of the grammar asks about first.
const FIXED: &[&str] = &[
    "",
    "   ",
    "Sara Guttinger",
    "  sara   GUTTINGER ",
    "salary >= 100000 and birthday = date(1981-04-23)",
    "Salary >= 100000.0 and Birthday = 1981-04-23",
    "salary >=",
    "birthday = date(not-a-date)",
    "top 10 wealthy customers",
    "wealthy customers top 10",
    "top 5 customers top 10",
    "top customers",
    "top , 5",
    "a top 5 b",
    "customers and Zurich or financial instruments",
    "customers Zurich financial instruments",
    "sum (Amount) group by (Transaction Date)",
    "SUM(amount) group by (transaction_date)",
    "sum (amount) group by (currency, transaction date)",
    "group by currency",
    "group by",
    "group by ,",
    "group customers",
    "group by (a, ---, b)",
    "group by (a > b)",
    "group by ((a))",
    "select count() private customers Switzerland",
    "transaction count per customer",
    "count sum avg min max",
    "count() sum() avg() min() max()",
    "count (x) sum (x) avg (x) min (x) max (x)",
    "COUNT(x) Sum(x) aVg(x) MIN(x) mAx(x)",
    "max (a, b c, ---)",
    "sum (amount",
    "agreement like gold",
    "agreement like gold%",
    "agreement like",
    "agreement like (",
    "city = Zurich",
    "city = zurich",
    "city == Zürich",
    "city != Basel",
    "city ! Basel",
    "city <> Basel",
    "city => Basel",
    "x > -3 y < 1e3 z <= 0.5 w >= 1e15 v = inf u = NaN",
    "transaction date between date(2010-01-01) and date(2010-12-31) valid at date(2011-01-01)",
    "transaction date between date(2010-01-01) date(2010-12-31)",
    "between 1 2",
    "between and and and",
    "between 1",
    "valid customers",
    "valid at",
    "valid at 2006-06-30",
    "Sara valid at date(2006-06-30)",
    "valid , at 2006-06-30",
    "date",
    "= date",
    "= date(",
    "= date()",
    "= date(1981-04-23",
    "= date (1981-04-23)",
    "---",
    "--- and ---",
    "( ) ,",
    "select",
    "select select",
    "trade_order_TD",
    "Trade Order TD",
    "Zürich İx",
    "a  b\tc",
];

/// SplitMix64 — the golden must not depend on any crate's generator.
struct Rng(u64);

impl Rng {
    fn below(&mut self, bound: usize) -> usize {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        ((z ^ (z >> 31)) % bound as u64) as usize
    }
}

/// Joins `fragments` with the gaps `gap()` picks.
fn assemble<'a>(
    fragments: impl Iterator<Item = &'a str>,
    mut gap: impl FnMut() -> &'static str,
) -> String {
    let mut input = String::new();
    for (i, fragment) in fragments.enumerate() {
        if i > 0 {
            input.push_str(gap());
        }
        input.push_str(fragment);
    }
    input
}

fn inputs() -> Vec<String> {
    let mut out: Vec<String> = FIXED.iter().map(|s| s.to_string()).collect();
    let mut rng = Rng(22);
    for _ in 0..SEEDED {
        let len = 1 + rng.below(6);
        let picks: Vec<&str> = (0..len)
            .map(|_| VOCABULARY[rng.below(VOCABULARY.len())])
            .collect();
        out.push(assemble(picks.into_iter(), || GAPS[rng.below(GAPS.len())]));
    }
    out
}

fn canonical_forms() -> String {
    let mut out = String::new();
    for input in inputs() {
        match normalize_query(&input) {
            Ok(canonical) => writeln!(out, "{input:?} => {canonical}"),
            Err(e) => writeln!(out, "{input:?} !! {e}"),
        }
        .expect("String");
    }
    out
}

#[test]
fn canonical_forms_reproduce_the_golden() {
    let want = include_str!("golden/canonical_forms.txt");
    let got = canonical_forms();
    assert!(want.lines().count() >= 5_000);
    for (i, (g, w)) in got.lines().zip(want.lines()).enumerate() {
        assert_eq!(g, w, "line {} of {GOLDEN} differs", i + 1);
    }
    assert_eq!(got.lines().count(), want.lines().count());
}

/// One to seven fragments of `pool`, separated by draws from `gaps`.
fn sequences(
    pool: &'static [&'static str],
    gaps: &'static [&'static str],
) -> impl Strategy<Value = String> {
    (
        proptest::collection::vec(0..pool.len(), 1..8),
        proptest::collection::vec(0..gaps.len(), 8),
    )
        .prop_map(move |(picks, between)| {
            let mut between = between.into_iter();
            assemble(picks.iter().map(|&i| pool[i]), || {
                gaps[between.next().unwrap_or(0)]
            })
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2_048))]

    /// The parser and the canonical writer are two consumers of one grammar
    /// walk: they accept the same inputs and reject the rest with the same
    /// error.
    #[test]
    fn parser_and_canonical_writer_accept_and_reject_alike(input in sequences(VOCABULARY, GAPS)) {
        let parsed = parse_query(&input).map(|_| ()).map_err(|e| e.to_string());
        let written = normalize_query(&input).map(|_| ()).map_err(|e| e.to_string());
        prop_assert_eq!(parsed, written, "input {:?}", input);
    }

    /// The canonical form of a well-formed query is its own canonical form.
    #[test]
    fn canonical_forms_are_fixed_points(input in sequences(WELL_FORMED, &[" ", "  "])) {
        if let Ok(once) = normalize_query(&input) {
            prop_assert_eq!(normalize_query(&once), Ok(once.clone()), "input {:?}", input);
        }
    }
}

/// Rewrites the golden file from the current parser.  Run by hand only.
#[test]
#[ignore = "rewrites tests/golden/canonical_forms.txt"]
fn regenerate() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    std::fs::write(root.join(GOLDEN), canonical_forms()).expect("writing the golden file");
}
