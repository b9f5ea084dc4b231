//! Deterministic, seeded synthetic data generation helpers.
//!
//! The paper's base data is a 220 GB anonymised extract of a production
//! warehouse.  We generate laptop-scale synthetic data instead; what matters
//! for reproducing the experiments is that specific literals the workload
//! queries look for ("Sara", "Credit Suisse", "Zurich", "YEN", "gold",
//! "Lehman XYZ", "Switzerland") occur in the right tables and columns, and
//! that historisation produces multiple versions per entity.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Pool of given names; "Sara" is deliberately present (queries Q2.*).
pub const GIVEN_NAMES: &[&str] = &[
    "Sara", "Peter", "Anna", "Luca", "Nina", "Marco", "Julia", "David", "Laura", "Stefan",
    "Claudia", "Thomas", "Monika", "Andreas", "Petra", "Daniel", "Ursula", "Martin", "Karin",
    "Urs",
];

/// Pool of family names; "Guttinger" is deliberately present (Query 1).
pub const FAMILY_NAMES: &[&str] = &[
    "Guttinger",
    "Meier",
    "Mueller",
    "Schmid",
    "Keller",
    "Weber",
    "Huber",
    "Schneider",
    "Frei",
    "Baumann",
    "Fischer",
    "Brunner",
    "Gerber",
    "Widmer",
    "Zimmermann",
    "Moser",
    "Graf",
    "Wyss",
    "Roth",
    "Suter",
];

/// Pool of cities; "Zurich" is deliberately present (introduction query).
pub const CITIES: &[&str] = &[
    "Zurich",
    "Geneva",
    "Basel",
    "Bern",
    "Lausanne",
    "Lugano",
    "Winterthur",
    "St. Gallen",
    "Lucerne",
    "Zug",
];

/// Pool of countries; "Switzerland" is deliberately present (Q9.0).
pub const COUNTRIES: &[&str] = &[
    "Switzerland",
    "Germany",
    "France",
    "Italy",
    "Austria",
    "Liechtenstein",
    "United Kingdom",
    "United States",
    "Japan",
    "Singapore",
];

/// Pool of organisation names; "Credit Suisse" is deliberately present (Q3.*).
pub const ORG_NAMES: &[&str] = &[
    "Credit Suisse",
    "Helvetia Insurance",
    "Alpine Foods",
    "Swiss Rail Holdings",
    "Lakeside Pharma",
    "Matterhorn Logistics",
    "Edelweiss Media",
    "Glarus Textiles",
    "Rhone Energy",
    "Jungfrau Tourism",
    "Basel Chemicals",
    "Lemanic Shipping",
    "Uetliberg Capital",
    "Sihl Paper",
    "Limmat Engineering",
    "Bellevue Retail",
    "Paradeplatz Consulting",
    "Engadin Resorts",
    "Ticino Vineyards",
    "Aare Construction",
];

/// Pool of legal forms.
pub(crate) const LEGAL_FORMS: &[&str] = &["AG", "GmbH", "SA", "Cooperative", "Foundation"];

/// Pool of currencies; "YEN" is deliberately present (Q7.0).
pub const CURRENCIES: &[(&str, &str)] = &[
    ("CHF", "Swiss Franc"),
    ("USD", "US Dollar"),
    ("EUR", "Euro"),
    ("YEN", "Japanese Yen"),
    ("GBP", "British Pound"),
    ("SGD", "Singapore Dollar"),
    ("SEK", "Swedish Krona"),
    ("AUD", "Australian Dollar"),
];

/// Pool of investment-product names; "Lehman XYZ Certificate" is deliberately
/// present (Q8.0).
pub const PRODUCT_NAMES: &[&str] = &[
    "Lehman XYZ Certificate",
    "Global Equity Fund",
    "Swiss Market Tracker",
    "Emerging Markets Bond",
    "Gold Bullion Note",
    "Tech Growth Basket",
    "Green Energy Fund",
    "Real Estate Income Trust",
    "Dividend Aristocrats Fund",
    "Short Term Money Market",
    "Convertible Bond Fund",
    "High Yield Credit Note",
    "Asia Pacific Equity Fund",
    "Commodity Futures Basket",
    "Inflation Protected Bond",
];

/// Pool of product types.
pub(crate) const PRODUCT_TYPES: &[&str] = &["share", "fund", "hedge fund", "certificate", "bond"];

/// Pool of agreement-name templates; "Gold" appears deliberately (Q4.0) and
/// "Credit Suisse" appears in one agreement name (Q3.2 ambiguity).
pub const AGREEMENT_NAMES: &[&str] = &[
    "Gold Savings Agreement",
    "Credit Suisse Master Agreement",
    "Private Banking Mandate",
    "Custody Agreement",
    "Retirement Savings Plan",
    "Portfolio Management Mandate",
    "Lombard Credit Facility",
    "Mortgage Agreement",
    "Trading Account Agreement",
    "Pension Fund Mandate",
];

/// Pool of street names.
pub(crate) const STREETS: &[&str] = &[
    "Bahnhofstrasse",
    "Paradeplatz",
    "Limmatquai",
    "Seestrasse",
    "Hauptstrasse",
    "Dorfstrasse",
    "Kirchgasse",
    "Marktgasse",
    "Industriestrasse",
    "Bergweg",
];

/// A deterministic random generator wrapper used by the warehouse builders.
#[derive(Debug)]
pub(crate) struct DataGen {
    rng: StdRng,
}

impl DataGen {
    /// Creates a generator from a seed (the same seed always generates the
    /// same warehouse contents).
    pub(crate) fn new(seed: u64) -> Self {
        Self {
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Picks a reference to one element of a slice.
    pub(crate) fn pick<'a, T>(&mut self, pool: &'a [T]) -> &'a T {
        &pool[self.rng.gen_range(0..pool.len())]
    }

    /// Picks an index in `0..n`.
    pub(crate) fn index(&mut self, n: usize) -> usize {
        self.rng.gen_range(0..n)
    }

    /// Random integer in an inclusive range.
    pub(crate) fn int(&mut self, low: i64, high: i64) -> i64 {
        self.rng.gen_range(low..=high)
    }

    /// Random float in a half-open range, rounded to two decimals.
    pub(crate) fn amount(&mut self, low: f64, high: f64) -> f64 {
        (self.rng.gen_range(low..high) * 100.0).round() / 100.0
    }

    /// Random date between two years (inclusive).
    pub(crate) fn date(&mut self, year_low: i32, year_high: i32) -> soda_relation::Date {
        soda_relation::Date::new(
            self.rng.gen_range(year_low..=year_high),
            self.rng.gen_range(1..=12) as u8,
            self.rng.gen_range(1..=28) as u8,
        )
    }

    /// Bernoulli draw.
    pub(crate) fn chance(&mut self, p: f64) -> bool {
        self.rng.gen_bool(p.clamp(0.0, 1.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic_for_a_seed() {
        let mut a = DataGen::new(7);
        let mut b = DataGen::new(7);
        for _ in 0..50 {
            assert_eq!(a.int(0, 1000), b.int(0, 1000));
        }
        let mut c = DataGen::new(8);
        let series_a: Vec<i64> = (0..20).map(|_| DataGen::new(7).int(0, 1000)).collect();
        let series_c: Vec<i64> = (0..20).map(|_| c.int(0, 1000)).collect();
        assert_ne!(series_a, series_c);
    }

    #[test]
    fn pools_contain_the_literals_the_workload_needs() {
        assert!(GIVEN_NAMES.contains(&"Sara"));
        assert!(FAMILY_NAMES.contains(&"Guttinger"));
        assert!(CITIES.contains(&"Zurich"));
        assert!(COUNTRIES.contains(&"Switzerland"));
        assert!(ORG_NAMES.contains(&"Credit Suisse"));
        assert!(CURRENCIES.iter().any(|(c, _)| *c == "YEN"));
        assert!(PRODUCT_NAMES.iter().any(|p| p.contains("Lehman XYZ")));
        assert!(AGREEMENT_NAMES
            .iter()
            .any(|a| a.to_lowercase().contains("gold")));
        assert!(AGREEMENT_NAMES.iter().any(|a| a.contains("Credit Suisse")));
    }

    #[test]
    fn ranges_are_respected() {
        let mut g = DataGen::new(1);
        for _ in 0..100 {
            let v = g.int(5, 10);
            assert!((5..=10).contains(&v));
            let a = g.amount(1.0, 2.0);
            assert!((1.0..2.01).contains(&a));
            let d = g.date(2009, 2012);
            assert!((2009..=2012).contains(&d.year));
        }
    }
}
