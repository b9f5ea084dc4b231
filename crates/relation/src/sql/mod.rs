//! SQL subset: abstract syntax tree, lexer, parser and printer.

pub(crate) mod ast;
pub(crate) mod lexer;
pub(crate) mod parser;
pub(crate) mod printer;
