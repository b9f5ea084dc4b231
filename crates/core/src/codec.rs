//! Binary encoding of served result pages and their probe dependencies —
//! what the serving layer writes into its persistent page-cache file on a
//! graceful drain and reads back on recovery.
//!
//! Built on the primitive [`Encoder`] / [`Decoder`] pair from
//! [`soda_relation::codec`].  A result's statement is stored once, as the
//! SQL it prints, and parsed back on decode; floats are stored bit-exactly.
//! A reloaded page equals the persisted one whenever every statement on it
//! parses back into itself, which is what the serving layer checks before
//! it persists a page.

use soda_relation::codec::{CodecError, CodecResult, Decoder, Encoder};
use soda_relation::parse_select;

use crate::provenance::Provenance;
use crate::result::{Interpretation, ResultPage, SodaResult};
use crate::shard::ProbeDep;

fn provenance_tag(p: Provenance) -> u8 {
    match p {
        Provenance::DomainOntology => 0,
        Provenance::ConceptualSchema => 1,
        Provenance::LogicalSchema => 2,
        Provenance::PhysicalSchema => 3,
        Provenance::BaseData => 4,
        Provenance::DbPedia => 5,
    }
}

fn provenance_from_tag(tag: u8) -> CodecResult<Provenance> {
    Ok(match tag {
        0 => Provenance::DomainOntology,
        1 => Provenance::ConceptualSchema,
        2 => Provenance::LogicalSchema,
        3 => Provenance::PhysicalSchema,
        4 => Provenance::BaseData,
        5 => Provenance::DbPedia,
        tag => {
            return Err(CodecError::BadTag {
                what: "Provenance",
                tag,
            })
        }
    })
}

fn put_string_list<S: AsRef<str>>(enc: &mut Encoder, items: &[S]) {
    enc.put_usize(items.len());
    for s in items {
        enc.put_str(s.as_ref());
    }
}

/// A length-prefixed list (a [`put_string_list`], the interpretations of a
/// result, the results of a page), each item read by `get`.
fn get_list<'a, T>(
    dec: &mut Decoder<'a>,
    get: fn(&mut Decoder<'a>) -> CodecResult<T>,
) -> CodecResult<Vec<T>> {
    let n = dec.get_usize()?;
    if n > dec.remaining() {
        return Err(CodecError::BadLength);
    }
    let mut items = Vec::with_capacity(n);
    for _ in 0..n {
        items.push(get(dec)?);
    }
    Ok(items)
}

/// Appends one [`Interpretation`] to `enc`.
pub fn encode_interpretation(enc: &mut Encoder, i: &Interpretation) {
    enc.put_str(&i.phrase);
    enc.put_u8(provenance_tag(i.provenance));
    enc.put_str(&i.entry_uri);
}

/// Decodes one [`Interpretation`].
pub fn decode_interpretation(dec: &mut Decoder<'_>) -> CodecResult<Interpretation> {
    Ok(Interpretation {
        phrase: dec.get_name()?,
        provenance: provenance_from_tag(dec.get_u8()?)?,
        entry_uri: dec.get_str()?,
    })
}

/// Appends one [`SodaResult`] to `enc`; its statement is written as its
/// SQL text only.
pub fn encode_result(enc: &mut Encoder, r: &SodaResult) {
    enc.put_str(&r.sql);
    enc.put_f64(r.score);
    put_string_list(enc, &r.tables);
    enc.put_usize(r.interpretation.len());
    for i in &r.interpretation {
        encode_interpretation(enc, i);
    }
    enc.put_bool(r.join_path_complete);
    put_string_list(enc, &r.used_bridges);
    put_string_list(enc, &r.notes);
}

/// Decodes one [`SodaResult`], parsing its statement back from its SQL;
/// SQL that does not parse is [`CodecError::BadSql`].
pub fn decode_result(dec: &mut Decoder<'_>) -> CodecResult<SodaResult> {
    let sql = dec.get_str()?;
    let statement = parse_select(&sql).map_err(|e| CodecError::BadSql(e.to_string()))?;
    let score = dec.get_f64()?;
    let tables = get_list(dec, Decoder::get_name)?;
    let interpretation = get_list(dec, decode_interpretation)?;
    Ok(SodaResult {
        sql,
        statement,
        score,
        tables,
        interpretation,
        join_path_complete: dec.get_bool()?,
        used_bridges: get_list(dec, Decoder::get_name)?,
        notes: get_list(dec, Decoder::get_str)?,
    })
}

/// Appends one [`ResultPage`] to `enc`.
pub fn encode_page(enc: &mut Encoder, page: &ResultPage) {
    enc.put_usize(page.results.len());
    for r in &page.results {
        encode_result(enc, r);
    }
    enc.put_usize(page.page);
    enc.put_usize(page.page_size);
    enc.put_usize(page.total_results);
    enc.put_bool(page.has_next);
}

/// Decodes one [`ResultPage`].
pub fn decode_page(dec: &mut Decoder<'_>) -> CodecResult<ResultPage> {
    Ok(ResultPage {
        results: get_list(dec, decode_result)?,
        page: dec.get_usize()?,
        page_size: dec.get_usize()?,
        total_results: dec.get_usize()?,
        has_next: dec.get_bool()?,
    })
}

/// Appends one [`ProbeDep`] to `enc`.
pub fn encode_probe_dep(enc: &mut Encoder, dep: &ProbeDep) {
    enc.put_str(&dep.phrase);
    enc.put_opt_str(dep.token.as_deref());
}

/// Decodes one [`ProbeDep`].
pub fn decode_probe_dep(dec: &mut Decoder<'_>) -> CodecResult<ProbeDep> {
    Ok(ProbeDep {
        phrase: dec.get_str()?,
        token: dec.get_opt_str()?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{EngineSnapshot, SodaConfig};
    use std::sync::Arc;

    #[test]
    fn served_pages_round_trip_byte_identically() {
        let w = soda_warehouse::minibank::build(42);
        let snapshot = EngineSnapshot::build(
            Arc::new(w.database),
            Arc::new(w.graph),
            SodaConfig::default(),
        );
        for query in ["Sara Guttinger", "wealthy customers", "customers Zurich"] {
            let page = snapshot.search_paged(query, 0, 5).unwrap();
            let mut enc = Encoder::new();
            encode_page(&mut enc, &page);
            let bytes = enc.into_bytes();
            let mut dec = Decoder::new(&bytes);
            let back = decode_page(&mut dec).unwrap();
            assert!(dec.is_empty());
            assert_eq!(back, page, "page for '{query}' must round-trip exactly");
        }
    }

    #[test]
    fn sql_that_does_not_parse_is_bad_sql() {
        let w = soda_warehouse::minibank::build(42);
        let snapshot = EngineSnapshot::build(
            Arc::new(w.database),
            Arc::new(w.graph),
            SodaConfig::default(),
        );
        let mut result = snapshot.search("Sara Guttinger").unwrap().remove(0);
        result.sql = "SELECT FROM WHERE".into();
        let mut enc = Encoder::new();
        encode_result(&mut enc, &result);
        let bytes = enc.into_bytes();
        let decoded = decode_result(&mut Decoder::new(&bytes));
        assert!(matches!(decoded, Err(CodecError::BadSql(_))), "{decoded:?}");
    }

    #[test]
    fn every_provenance_round_trips() {
        for p in [
            Provenance::DomainOntology,
            Provenance::ConceptualSchema,
            Provenance::LogicalSchema,
            Provenance::PhysicalSchema,
            Provenance::BaseData,
            Provenance::DbPedia,
        ] {
            assert_eq!(provenance_from_tag(provenance_tag(p)).unwrap(), p);
        }
        assert!(provenance_from_tag(6).is_err());
    }

    #[test]
    fn probe_deps_round_trip() {
        for dep in [
            ProbeDep {
                phrase: "sara guttinger".into(),
                token: Some("guttinger".into()),
            },
            ProbeDep {
                phrase: "nowhereville".into(),
                token: None,
            },
        ] {
            let mut enc = Encoder::new();
            encode_probe_dep(&mut enc, &dep);
            let bytes = enc.into_bytes();
            let mut dec = Decoder::new(&bytes);
            assert_eq!(decode_probe_dep(&mut dec).unwrap(), dep);
            assert!(dec.is_empty());
        }
    }
}
