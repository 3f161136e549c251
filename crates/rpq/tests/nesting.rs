//! The parser's nesting cap: 128 levels, counting open parentheses and the
//! height of the expression tree (a postfix operator, or a `/` or `|` with
//! two or more operands, is one level). Every pass over a parsed query
//! recurses once per level, so a query at the cap must fit the stack of a
//! test thread, and a query past it must be an error, not an abort.

use rpq::{parser, Nfa};

const CAP: usize = 128;

/// Queries `levels` deep in each way the cap counts: open parentheses, a
/// run of postfix operators, and groups of two levels each — a `/` or `|`
/// and a postfix operator — so that the tree outgrows the parentheses.
fn nested(levels: usize) -> [String; 3] {
    let mut groups = String::from("1");
    for group in 0..levels.div_ceil(2) {
        groups = if group % 2 == 0 { format!("({groups}/2)*") } else { format!("({groups}|3)+") };
    }
    let parens = format!("{}1{}", "(".repeat(levels), ")".repeat(levels));
    [parens, format!("1{}", "*".repeat(levels)), groups]
}

#[test]
fn nesting_at_the_cap_survives_every_recursive_pass() {
    // 2 MiB: the stack `cargo test` gives a test thread, in a debug build.
    let passes = std::thread::Builder::new().stack_size(2 << 20).spawn(|| {
        for query in nested(CAP) {
            let normal = parser::parse(&query).expect("a query at the cap parses").normalize();
            assert!(Nfa::from_expr(&normal).state_count() > 1, "{query}");
            assert!(Nfa::from_expr(&normal.reverse()).state_count() > 1, "{query}");
        }
    });
    passes.expect("spawn a test thread").join().expect("no pass overflows the stack");
}

#[test]
fn nesting_past_the_cap_is_an_error_at_the_offending_level() {
    let [parens, stars, groups] = nested(CAP + 1);
    // The (CAP + 1)-th `(` and `*`.
    assert_eq!(parser::parse(&parens).unwrap_err().position(), CAP);
    assert_eq!(parser::parse(&stars).unwrap_err().position(), CAP + 1);
    // The `/` or `|` of the outermost group, one level past the cap.
    let err = parser::parse(&groups).unwrap_err();
    assert_eq!(Some(err.position()), groups.rfind(['/', '|']));
    assert!(err.to_string().contains("nests deeper than 128 levels"), "{err}");
    // Far past the cap: the same errors, not a stack overflow.
    let [parens, stars, _] = nested(100_000);
    assert_eq!(parser::parse(&parens).unwrap_err().position(), CAP);
    assert_eq!(parser::parse(&stars).unwrap_err().position(), CAP + 1);
}
