//! Text syntax for regular path queries.
//!
//! The syntax follows SPARQL property paths restricted to numeric label ids:
//!
//! ```text
//! expr     := alt
//! alt      := concat ('|' concat)*
//! concat   := postfix ('/' postfix)*
//! postfix  := atom ('*' | '+' | '?' | '{' n (',' n)? '}')*
//! atom     := NUMBER | '.' | '(' expr ')'
//! ```
//!
//! `NUMBER` is an edge-label id, `.` matches any label. Whitespace is ignored.
//! A plain k-hop query is written `.{k}`.
//!
//! Repetition bounds are capped at [`MAX_REPEAT`]: the automaton builder
//! expands `e{min,max}` into `max` copies of `e`, so an unbounded count would
//! let a ten-character query allocate billions of NFA states.
//!
//! Nesting is capped at `MAX_NESTING` (128) levels, of open parentheses and
//! of the tree's height, where a postfix operator or a `/` or `|` with two or
//! more operands is a level. Every pass over a parsed query recurses once per
//! level, so a long run of `(` or `*` would otherwise overflow the stack and
//! abort; past the cap, parsing fails at the `(` or operator one level over.

use crate::ast::RpqExpr;
use std::error::Error;
use std::fmt;

/// Largest allowed *expansion* of a repetition: the bound in `{n}` /
/// `{min,max}` multiplied by the expanded size of the repeated
/// sub-expression, so nesting cannot multiply past the cap
/// (`(.{1024}){1024}` is rejected just like `.{1048576}` would be).
///
/// Path queries in practice use single-digit repetition counts; the cap only
/// exists to keep adversarial inputs like `.{1000000000}` from exhausting
/// memory during NFA construction, which expands bounded repeats by copying.
pub const MAX_REPEAT: usize = 1024;

/// Most nesting levels a query may have (see the module docs): far past any
/// real query, far below what overflows a 2 MiB stack in a debug build.
const MAX_NESTING: usize = 128;

/// Error produced when parsing an RPQ string fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseRpqError {
    message: String,
    position: usize,
}

impl ParseRpqError {
    fn new(message: impl Into<String>, position: usize) -> Self {
        ParseRpqError { message: message.into(), position }
    }

    /// Byte offset in the input where the error was detected.
    pub fn position(&self) -> usize {
        self.position
    }
}

impl fmt::Display for ParseRpqError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid regular path query at offset {}: {}", self.position, self.message)
    }
}

impl Error for ParseRpqError {}

/// Parses an RPQ expression from its text form.
///
/// # Errors
///
/// Returns [`ParseRpqError`] when the input is not a valid expression.
///
/// # Examples
///
/// ```
/// use rpq::{parser, RpqExpr};
/// assert_eq!(parser::parse(".{3}")?, RpqExpr::k_hop(3));
/// assert!(parser::parse("1/(2|3)*").is_ok());
/// assert!(parser::parse("1//2").is_err());
/// # Ok::<(), rpq::parser::ParseRpqError>(())
/// ```
pub fn parse(input: &str) -> Result<RpqExpr, ParseRpqError> {
    let mut parser = Parser { chars: input.char_indices().collect(), pos: 0, open: 0 };
    let (expr, _) = parser.parse_alt()?;
    parser.skip_ws();
    if parser.pos < parser.chars.len() {
        return Err(ParseRpqError::new("unexpected trailing input", parser.offset()));
    }
    // The per-construct MAX_REPEAT check bounds each repetition, but
    // concatenating/alternating many maximal repeats still sums; bound the
    // whole expression so NFA construction can never trip its own guard on
    // parsed input.
    let weight = expr.expansion_weight();
    if weight > crate::nfa::MAX_NFA_EXPANSION {
        return Err(ParseRpqError::new(
            format!(
                "query expands to {weight} atoms, exceeding the construction cap of {}",
                crate::nfa::MAX_NFA_EXPANSION
            ),
            0,
        ));
    }
    Ok(expr)
}

struct Parser {
    chars: Vec<(usize, char)>,
    pos: usize,
    /// Parentheses open at the current position.
    open: usize,
}

/// A parsed sub-expression and (an upper bound on) the height of its tree:
/// zero for an atom, one more per enclosing operator.
type Parsed = (RpqExpr, usize);

/// The height of an operator over operands at most `height` high, or an
/// error at `offset` if that is past [`MAX_NESTING`].
fn nest(height: usize, offset: usize) -> Result<usize, ParseRpqError> {
    if height >= MAX_NESTING {
        return Err(ParseRpqError::new(
            format!("expression nests deeper than {MAX_NESTING} levels"),
            offset,
        ));
    }
    Ok(height + 1)
}

impl Parser {
    fn offset(&self) -> usize {
        self.chars
            .get(self.pos)
            .map(|&(o, _)| o)
            .unwrap_or_else(|| self.chars.last().map(|&(o, c)| o + c.len_utf8()).unwrap_or(0))
    }

    fn peek(&self) -> Option<char> {
        self.chars.get(self.pos).map(|&(_, c)| c)
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(c) if c.is_whitespace()) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, expected: char) -> Result<(), ParseRpqError> {
        self.skip_ws();
        match self.peek() {
            Some(c) if c == expected => {
                self.pos += 1;
                Ok(())
            }
            other => Err(ParseRpqError::new(
                format!("expected {expected:?}, found {other:?}"),
                self.offset(),
            )),
        }
    }

    fn parse_alt(&mut self) -> Result<Parsed, ParseRpqError> {
        self.parse_list('|', Self::parse_concat, RpqExpr::alt)
    }

    fn parse_concat(&mut self) -> Result<Parsed, ParseRpqError> {
        self.parse_list('/', Self::parse_postfix, RpqExpr::concat)
    }

    /// One or more `operand`s separated by `sep`, joined by `join`: a level
    /// over its highest operand when there are two or more.
    fn parse_list(
        &mut self,
        sep: char,
        operand: fn(&mut Self) -> Result<Parsed, ParseRpqError>,
        join: fn(Vec<RpqExpr>) -> RpqExpr,
    ) -> Result<Parsed, ParseRpqError> {
        let (first, mut height) = operand(self)?;
        let (mut operands, mut first_sep) = (vec![first], None);
        loop {
            self.skip_ws();
            if self.peek() != Some(sep) {
                break;
            }
            first_sep = first_sep.or(Some(self.offset()));
            self.pos += 1;
            let (next, next_height) = operand(self)?;
            operands.push(next);
            height = height.max(next_height);
        }
        if let Some(offset) = first_sep {
            height = nest(height, offset)?;
        }
        Ok((join(operands), height))
    }

    fn parse_postfix(&mut self) -> Result<Parsed, ParseRpqError> {
        let (mut expr, mut height) = self.parse_atom()?;
        loop {
            self.skip_ws();
            if matches!(self.peek(), Some('*' | '+' | '?' | '{')) {
                height = nest(height, self.offset())?;
            }
            match self.peek() {
                Some('*') => {
                    self.pos += 1;
                    expr = RpqExpr::Star(Box::new(expr));
                }
                Some('+') => {
                    self.pos += 1;
                    expr = RpqExpr::Plus(Box::new(expr));
                }
                Some('?') => {
                    self.pos += 1;
                    expr = RpqExpr::Optional(Box::new(expr));
                }
                Some('{') => {
                    self.pos += 1;
                    self.skip_ws();
                    let min_offset = self.offset();
                    let min = self.parse_bounded_repeat_count(min_offset)?;
                    self.skip_ws();
                    let (max, max_offset) = if self.peek() == Some(',') {
                        self.pos += 1;
                        self.skip_ws();
                        let offset = self.offset();
                        (self.parse_bounded_repeat_count(offset)?, offset)
                    } else {
                        (min, min_offset)
                    };
                    // Validate the bounds *before* consuming the closing
                    // brace, so the reported offset points at the offending
                    // bound instead of past the whole construct.
                    if max < min {
                        return Err(ParseRpqError::new("repetition max below min", max_offset));
                    }
                    // The cap bounds the *total* expansion: nested repeats
                    // multiply, so each construct's `max × inner weight`
                    // must stay within MAX_REPEAT.
                    let weight = expr.expansion_weight().saturating_mul(max.max(1));
                    if weight > MAX_REPEAT {
                        return Err(ParseRpqError::new(
                            format!(
                                "repetition expands to {weight} atoms, exceeding the maximum of {MAX_REPEAT}"
                            ),
                            max_offset,
                        ));
                    }
                    self.expect('}')?;
                    expr = RpqExpr::Repeat { expr: Box::new(expr), min, max };
                }
                _ => break,
            }
        }
        Ok((expr, height))
    }

    fn parse_atom(&mut self) -> Result<Parsed, ParseRpqError> {
        self.skip_ws();
        match self.peek() {
            Some('.') => {
                self.pos += 1;
                Ok((RpqExpr::any(), 0))
            }
            Some('(') => {
                // Each open parenthesis is a level of the parser's own
                // recursion, whatever the tree's height.
                self.open = nest(self.open, self.offset())?;
                self.pos += 1;
                let inner = self.parse_alt()?;
                self.expect(')')?;
                self.open -= 1;
                Ok(inner)
            }
            Some(c) if c.is_ascii_digit() => {
                let n = self.parse_number()?;
                if n > u16::MAX as usize {
                    return Err(ParseRpqError::new("label id exceeds u16::MAX", self.offset()));
                }
                Ok((RpqExpr::label(n as u16), 0))
            }
            other => {
                Err(ParseRpqError::new(format!("expected atom, found {other:?}"), self.offset()))
            }
        }
    }

    /// Parses one `{...}` repetition bound and enforces [`MAX_REPEAT`],
    /// reporting the error at the bound's own offset.
    fn parse_bounded_repeat_count(&mut self, offset: usize) -> Result<usize, ParseRpqError> {
        let count = self.parse_number()?;
        if count > MAX_REPEAT {
            return Err(ParseRpqError::new(
                format!("repetition count {count} exceeds the maximum of {MAX_REPEAT}"),
                offset,
            ));
        }
        Ok(count)
    }

    fn parse_number(&mut self) -> Result<usize, ParseRpqError> {
        self.skip_ws();
        let start = self.pos;
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        if self.pos == start {
            return Err(ParseRpqError::new("expected a number", self.offset()));
        }
        let text: String = self.chars[start..self.pos].iter().map(|&(_, c)| c).collect();
        text.parse::<usize>().map_err(|_| ParseRpqError::new("number out of range", self.offset()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::LabelSpec;
    use graph_store::Label;

    #[test]
    fn parses_k_hop() {
        assert_eq!(parse(".{5}").unwrap(), RpqExpr::k_hop(5));
        assert_eq!(parse(".").unwrap(), RpqExpr::any());
        assert_eq!(parse(" . { 2 } ").unwrap(), RpqExpr::k_hop(2));
    }

    #[test]
    fn parses_labels_and_concat() {
        let e = parse("1/2/3").unwrap();
        assert_eq!(
            e,
            RpqExpr::concat(vec![RpqExpr::label(1), RpqExpr::label(2), RpqExpr::label(3)])
        );
    }

    #[test]
    fn parses_alternation_and_precedence() {
        // '/' binds tighter than '|'.
        let e = parse("1/2|3").unwrap();
        assert_eq!(
            e,
            RpqExpr::alt(vec![
                RpqExpr::concat(vec![RpqExpr::label(1), RpqExpr::label(2)]),
                RpqExpr::label(3)
            ])
        );
    }

    #[test]
    fn parses_postfix_operators() {
        assert_eq!(parse("7*").unwrap(), RpqExpr::Star(Box::new(RpqExpr::label(7))));
        assert_eq!(parse("7+").unwrap(), RpqExpr::Plus(Box::new(RpqExpr::label(7))));
        assert_eq!(parse("7?").unwrap(), RpqExpr::Optional(Box::new(RpqExpr::label(7))));
        assert_eq!(
            parse("(1|2){2,4}").unwrap(),
            RpqExpr::Repeat {
                expr: Box::new(RpqExpr::alt(vec![RpqExpr::label(1), RpqExpr::label(2)])),
                min: 2,
                max: 4
            }
        );
    }

    #[test]
    fn parses_parentheses() {
        let e = parse("(1/2)*").unwrap();
        match e {
            RpqExpr::Star(inner) => {
                assert_eq!(*inner, RpqExpr::concat(vec![RpqExpr::label(1), RpqExpr::label(2)]));
            }
            other => panic!("unexpected parse: {other:?}"),
        }
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in ["", "1//2", "(1", "1)", "{3}", "1{2,1}", ".{", "|1", "1|", "99999999"] {
            assert!(parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn error_reports_position() {
        let err = parse("1/(2|)").unwrap_err();
        assert!(err.position() > 0);
        assert!(err.to_string().contains("offset"));
    }

    #[test]
    fn repetition_counts_are_capped() {
        // The classic OOM input: a billion-state NFA from ten characters.
        let err = parse(".{1000000000}").unwrap_err();
        assert!(err.to_string().contains("exceeds the maximum"));
        assert_eq!(err.position(), 2, "error points at the offending bound");
        // The cap itself is accepted; one past it is not, on either bound.
        assert!(parse(&format!(".{{{MAX_REPEAT}}}")).is_ok());
        assert!(parse(&format!(".{{{}}}", MAX_REPEAT + 1)).is_err());
        let err = parse(&format!(".{{1,{}}}", MAX_REPEAT + 1)).unwrap_err();
        assert_eq!(err.position(), 4);
    }

    #[test]
    fn nested_repetitions_cannot_multiply_past_the_cap() {
        // Each bound is individually within MAX_REPEAT, but the expansions
        // multiply: ((.{1024}){1024}){1024} would build ~2^30 NFA states.
        assert!(parse("((.{1024}){1024}){1024}").is_err());
        let err = parse("(.{64}){64}").unwrap_err(); // 4096 atoms > 1024
        assert!(err.to_string().contains("expands to 4096 atoms"));
        // Small nested products stay legal, as do closures over repeats.
        assert!(parse("(.{4}){4}").is_ok());
        assert!(parse("(.{2}){512}").is_ok()); // exactly the cap
        assert!(parse("((1|2){8})*").is_ok());
    }

    #[test]
    fn concatenated_repeats_cannot_sum_past_the_construction_cap() {
        // Each construct is within MAX_REPEAT, but 1025 concatenated maximal
        // repeats sum past the whole-expression cap — this must be a parse
        // error, not an NFA-construction panic.
        let query = vec![".{1024}"; 1025].join("/");
        let err = parse(&query).unwrap_err();
        assert!(err.to_string().contains("construction cap"), "{err}");
        // A large-but-legal sum still parses (and builds an NFA).
        let legal = [".{1024}"; 4].join("/");
        assert!(parse(&legal).is_ok());
    }

    #[test]
    fn inverted_repetition_range_reports_the_max_bound() {
        // "1{2,1}": the offending max bound "1" sits at byte offset 4; the
        // error used to be raised only after consuming '}' (offset 6).
        let err = parse("1{2,1}").unwrap_err();
        assert!(err.to_string().contains("repetition max below min"));
        assert_eq!(err.position(), 4);
        // Whitespace before the bound does not shift the blame.
        let err = parse("1{2, 1}").unwrap_err();
        assert_eq!(err.position(), 5);
    }

    #[test]
    fn roundtrips_display_output() {
        for text in [".{4}", "1/2", "(1|2)", "(1/2)*", "(.){1,3}"] {
            let e = parse(text).unwrap();
            let reparsed = parse(&e.to_string()).unwrap();
            assert_eq!(e, reparsed, "roundtrip failed for {text}");
        }
    }

    #[test]
    fn label_atoms_use_exact_spec() {
        match parse("42").unwrap() {
            RpqExpr::Atom(LabelSpec::Exact(l)) => assert_eq!(l, Label(42)),
            other => panic!("unexpected parse: {other:?}"),
        }
    }
}
