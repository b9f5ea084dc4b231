//! Seeded inputs: query pools, re-spellings and op sequences.
//!
//! Everything here is a pure function of `--seed`; the program only ever
//! sees the generated strings.  A seed must vary the inputs without varying
//! how hard the workload is, or the spread between seeds would be the
//! workload's, not the program's.  So the *shape* of a pool — which
//! templates it draws on and in which proportion — is fixed; the 512-query
//! pool lets the seed pick the literals (it contains every currency, country
//! and product whatever the seed, and names and dates average out over 512),
//! while the 64-query pools, where one slow literal at a hot Zipf rank would
//! move a whole run, take their literals in a fixed order and leave only the
//! op order to the seed.

use crate::rng::Rng;

/// The literal pools queries are instantiated from.  `calls::literals()`
/// fills them from `soda::warehouse::datagen`, so every literal occurs in
/// the generated base data.
pub struct Literals {
    pub given: Vec<String>,
    pub family: Vec<String>,
    pub organisations: Vec<String>,
    pub agreements: Vec<String>,
    pub currencies: Vec<String>,
    pub products: Vec<String>,
    pub countries: Vec<String>,
    pub cities: Vec<String>,
}

/// One Table-2 query turned into a template: `{}` marks where the paper's
/// literal ("Sara", "YEN", "Lehman XYZ" …) stood.
struct Template {
    pattern: String,
    /// Candidate literals in the order they are handed out.  `None` for a
    /// template without a literal (it contributes exactly one query).
    values: Option<Vec<String>>,
}

/// Q6.0's cut-off dates: any day ≤ 28 of these years (the bulk of the
/// generated trade orders falls inside them).
const DATE_YEARS: std::ops::RangeInclusive<u32> = 2010..=2012;

fn first_word(name: &str) -> String {
    name.split_whitespace().next().unwrap_or(name).to_string()
}

/// Drops the last word ("Lehman XYZ Certificate" → "Lehman XYZ", the
/// paper's spelling of Q8.0).
fn without_last_word(name: &str) -> String {
    let words: Vec<&str> = name.split_whitespace().collect();
    words[..words.len().saturating_sub(1).max(1)].join(" ")
}

/// The template list: the Table-2 keywords handed in by the caller with
/// their literals cut out, plus the two shapes of the paper's introduction
/// ("Sara Guttinger", customers in "Zurich") and the bare family name —
/// needed to reach 512 distinct questions.
fn templates(table2: &[String], lit: &Literals, mut rng: Option<Rng>) -> Vec<Template> {
    // Seeded: this seed's order.  Unseeded: the order of
    // `soda::warehouse::datagen`, whose first entries are the paper's own
    // literals ("Sara", "Credit Suisse", "Switzerland" …).
    let mut shuffled = |values: &[String]| {
        let mut values = values.to_vec();
        if let Some(rng) = &mut rng {
            rng.shuffle(&mut values);
        }
        values
    };
    let given = shuffled(&lit.given);
    let family = shuffled(&lit.family);
    let agreements: Vec<String> = lit.agreements.iter().map(|a| first_word(a)).collect();
    let products: Vec<String> = lit.products.iter().map(|p| without_last_word(p)).collect();

    let mut out: Vec<Template> = Vec::new();
    let mut seen_patterns: Vec<String> = Vec::new();
    for keywords in table2 {
        // (literal in the paper's query, replacement pool)
        let cut: Option<(&str, Vec<String>)> = if keywords.contains("Sara") {
            Some(("Sara", shuffled(&lit.given)))
        } else if keywords.contains("Credit Suisse") {
            Some(("Credit Suisse", shuffled(&lit.organisations)))
        } else if keywords.contains("gold") {
            Some(("gold", shuffled(&agreements)))
        } else if keywords.contains("YEN") {
            Some(("YEN", shuffled(&lit.currencies)))
        } else if keywords.contains("Lehman XYZ") {
            Some(("Lehman XYZ", shuffled(&products)))
        } else if keywords.contains("Switzerland") {
            Some(("Switzerland", shuffled(&lit.countries)))
        } else if keywords.contains("2011-09-01") {
            let mut dates = Vec::new();
            // The paper's own cut-off first (it stays first when unseeded).
            dates.push("2011-09-01".to_string());
            for year in DATE_YEARS {
                for month in 1..=12 {
                    for day in 1..=28 {
                        let date = format!("{year:04}-{month:02}-{day:02}");
                        if date != dates[0] {
                            dates.push(date);
                        }
                    }
                }
            }
            Some(("2011-09-01", shuffled(&dates)))
        } else {
            None
        };
        let (pattern, values) = match cut {
            Some((literal, values)) => (keywords.replacen(literal, "{}", 1), Some(values)),
            None => (keywords.clone(), None),
        };
        // Q3.1 and Q3.2 share their keywords; one template serves both.
        if seen_patterns.contains(&pattern) {
            continue;
        }
        seen_patterns.push(pattern.clone());
        out.push(Template { pattern, values });
    }

    let mut full_names = Vec::with_capacity(given.len() * family.len());
    for g in &given {
        for f in &family {
            full_names.push(format!("{g} {f}"));
        }
    }
    out.push(Template {
        pattern: "{}".to_string(),
        values: Some(shuffled(&full_names)),
    });
    out.push(Template {
        pattern: "{}".to_string(),
        values: Some(family),
    });
    out.push(Template {
        pattern: "private customers {}".to_string(),
        values: Some(shuffled(&lit.cities)),
    });
    out
}

/// `size` distinct queries: the templates are visited round-robin, each
/// handing out its next literal, until the pool is full.  A template whose
/// literals run out (8 currencies, 10 countries) drops out, so large pools
/// contain *every* low-cardinality literal whatever the seed, and the seed
/// only decides among names and dates.  With `seed: None` nothing is
/// shuffled and the pool is the same for every run.
pub fn pool(table2: &[String], lit: &Literals, seed: Option<u64>, size: usize) -> Vec<String> {
    let templates = templates(table2, lit, seed.map(|seed| Rng::new(seed, 1)));
    let mut pool: Vec<String> = Vec::with_capacity(size);
    let mut round = 0;
    while pool.len() < size {
        let before = pool.len();
        for template in &templates {
            if pool.len() == size {
                break;
            }
            let query = match &template.values {
                None if round == 0 => template.pattern.clone(),
                None => continue,
                Some(values) => match values.get(round) {
                    Some(value) => template.pattern.replacen("{}", value, 1),
                    None => continue,
                },
            };
            // "{given}" and "{family}" never collide, but keep the pool's
            // distinctness independent of that.
            if !pool.contains(&query) {
                pool.push(query);
            }
        }
        assert!(
            pool.len() > before,
            "templates exhausted at {} of {size} queries",
            pool.len()
        );
        round += 1;
    }
    pool
}

/// The two re-spellings a pasted or shouted question arrives in; both must
/// canonicalise to the plain spelling's cache key (set-up checks that they
/// hit).
pub fn respell(query: &str, variant: usize) -> String {
    match variant % 3 {
        0 => query.to_string(),
        1 => query.to_uppercase(),
        _ => query.replace(' ', "  "),
    }
}

/// How often a round asks each pool member.  Either way the shares are dealt
/// out exactly, not drawn: two seeds ask the same questions equally often and
/// differ in the order — sampling noise in *which* questions a run happens to
/// draw would otherwise be most of the spread between seeds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Draw {
    /// Every member equally often (`block` must be a multiple of the pool
    /// size).
    Balanced,
    /// Member `i` in proportion to 1/(i+1) — Zipf with exponent 1; rank =
    /// pool position.
    Zipf,
}

/// How many of `block` ops go to each of `pool_size` members: the shares
/// rounded down, the ops left over given to the largest remainders (the
/// lower rank first among equals).
fn deal(block: usize, pool_size: usize, draw: Draw) -> Vec<usize> {
    let weights: Vec<f64> = (1..=pool_size)
        .map(|rank| match draw {
            Draw::Balanced => 1.0,
            Draw::Zipf => 1.0 / rank as f64,
        })
        .collect();
    let total: f64 = weights.iter().sum();
    let exact: Vec<f64> = weights.iter().map(|w| block as f64 * w / total).collect();
    let mut counts: Vec<usize> = exact.iter().map(|e| e.floor() as usize).collect();
    let mut by_remainder: Vec<usize> = (0..pool_size).collect();
    by_remainder
        .sort_by(|&a, &b| (exact[b] - exact[b].floor()).total_cmp(&(exact[a] - exact[a].floor())));
    let left_over = block - counts.iter().sum::<usize>();
    for &member in &by_remainder[..left_over] {
        counts[member] += 1;
    }
    counts
}

/// One round's op sequence as pool indices: `ops / block` blocks, each
/// holding every member its dealt number of times in this seed's order.
pub fn op_sequence(seed: u64, pool_size: usize, ops: usize, block: usize, draw: Draw) -> Vec<u16> {
    let mut rng = Rng::new(seed, 2);
    assert!(pool_size <= u16::MAX as usize);
    assert!(
        block > 0 && ops.is_multiple_of(block),
        "{ops} ops are not whole blocks of {block}"
    );
    let counts = deal(block, pool_size, draw);
    let mut sequence = Vec::with_capacity(ops);
    for _ in 0..ops / block {
        let start = sequence.len();
        for (member, &count) in counts.iter().enumerate() {
            sequence.extend(std::iter::repeat_n(member as u16, count));
        }
        rng.shuffle(&mut sequence[start..]);
    }
    sequence
}

/// FNV-1a over a list of strings, length-prefixed so boundaries count.
pub fn digest<'a>(items: impl IntoIterator<Item = &'a str>) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            hash ^= b as u64;
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for item in items {
        eat(&(item.len() as u64).to_le_bytes());
        eat(item.as_bytes());
    }
    hash
}
