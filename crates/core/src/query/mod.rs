//! SODA's input query language: keywords, comparison operators, aggregation
//! operators, `group by`, `top N`, `between` and `date(…)` values (§4.3).

pub(crate) mod ast;
pub(crate) mod normalize;
pub(crate) mod parser;

pub use ast::{QueryTerm, QueryValue, SodaQuery};
pub use normalize::normalize_query;
pub use parser::parse_query;
