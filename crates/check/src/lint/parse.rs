//! Token trees over the [`super::lexer`] stream: delimiter-matched
//! grouping plus the bracket-matching table the rules navigate with.
//!
//! The rules themselves mostly walk the *flat* token vector using
//! [`BracketMap`] to jump over balanced groups — that keeps scope
//! analysis (guard lifetimes) linear and simple — while
//! the tree form exists to prove the stream is well-formed and to give
//! the property tests a structural round-trip target.

use super::lexer::{Delim, TokKind, Token};

/// One node of a token tree.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Tree {
    /// A non-delimiter token.
    Leaf(Token),
    /// A delimited group and its contents.
    Group {
        /// Bracket family.
        delim: Delim,
        /// Line of the opening delimiter.
        open_line: u32,
        /// Line of the closing delimiter (flatten reproduces it).
        close_line: u32,
        /// Nested trees between the delimiters.
        children: Vec<Tree>,
    },
}

/// Parse a flat token stream into token trees. Fails with a positioned
/// message on mismatched or unclosed delimiters — workspace sources are
/// always well-formed, so an error here means the lexer mis-tokenized
/// something (a bug the fixtures would catch).
pub fn parse(tokens: &[Token]) -> Result<Vec<Tree>, String> {
    let mut stack: Vec<(Delim, u32, Vec<Tree>)> = Vec::new();
    let mut top: Vec<Tree> = Vec::new();
    for t in tokens {
        match t.kind {
            TokKind::Open(d) => stack.push((d, t.line, std::mem::take(&mut top))),
            TokKind::Close(d) => match stack.pop() {
                Some((open_d, open_line, parent)) if open_d == d => {
                    let children = std::mem::replace(&mut top, parent);
                    top.push(Tree::Group {
                        delim: d,
                        open_line,
                        close_line: t.line,
                        children,
                    });
                }
                Some((open_d, open_line, _)) => {
                    return Err(format!(
                        "line {}: `{}` closes a {open_d:?} opened on line {open_line}",
                        t.line, t.text
                    ))
                }
                None => return Err(format!("line {}: unmatched `{}`", t.line, t.text)),
            },
            _ => top.push(Tree::Leaf(t.clone())),
        }
    }
    if let Some((d, line, _)) = stack.pop() {
        return Err(format!("line {line}: unclosed {d:?}"));
    }
    Ok(top)
}

/// Flatten trees back to the token stream they were parsed from
/// (delimiters re-synthesized). `flatten(parse(t)) == t` for any
/// well-formed stream — the structural half of the round-trip property.
pub fn flatten(trees: &[Tree]) -> Vec<Token> {
    fn walk(trees: &[Tree], out: &mut Vec<Token>) {
        for t in trees {
            match t {
                Tree::Leaf(tok) => out.push(tok.clone()),
                Tree::Group {
                    delim,
                    open_line,
                    close_line,
                    children,
                } => {
                    let (open, close) = match delim {
                        Delim::Paren => ("(", ")"),
                        Delim::Bracket => ("[", "]"),
                        Delim::Brace => ("{", "}"),
                    };
                    out.push(Token {
                        kind: TokKind::Open(*delim),
                        text: open.to_string(),
                        line: *open_line,
                    });
                    walk(children, out);
                    out.push(Token {
                        kind: TokKind::Close(*delim),
                        text: close.to_string(),
                        line: *close_line,
                    });
                }
            }
        }
    }
    let mut out = Vec::new();
    walk(trees, &mut out);
    out
}

/// For each token index, the index of its matching bracket (both
/// directions), or `usize::MAX` for non-delimiter tokens.
pub struct BracketMap(pub Vec<usize>);

impl BracketMap {
    /// Build the matching table; unbalanced tokens map to `usize::MAX`.
    pub fn build(tokens: &[Token]) -> Self {
        let mut map = vec![usize::MAX; tokens.len()];
        let mut stack = Vec::new();
        for (i, t) in tokens.iter().enumerate() {
            match t.kind {
                TokKind::Open(_) => stack.push(i),
                TokKind::Close(_) => {
                    if let Some(open) = stack.pop() {
                        map[open] = i;
                        map[i] = open;
                    }
                }
                _ => {}
            }
        }
        Self(map)
    }

    /// The matching index for `i` (`usize::MAX` when none).
    pub fn matching(&self, i: usize) -> usize {
        self.0.get(i).copied().unwrap_or(usize::MAX)
    }
}

#[cfg(test)]
mod tests {
    use super::super::lexer::lex;
    use super::*;

    #[test]
    fn parse_then_flatten_is_identity() {
        let src = "fn f(a: Vec<Vec<u8>>) { if x { g([1, 2]); } }";
        let toks = lex(src);
        let trees = parse(&toks).expect("well-formed");
        let back = flatten(&trees);
        assert_eq!(toks, back);
    }

    #[test]
    fn mismatched_delimiters_error() {
        assert!(parse(&lex("fn f( }")).is_err());
        assert!(parse(&lex("fn f() {")).is_err());
        assert!(parse(&lex(") start")).is_err());
    }

    #[test]
    fn bracket_map_pairs_up() {
        let toks = lex("a(b[c]d){e}");
        let map = BracketMap::build(&toks);
        // a ( b [ c ] d ) { e }
        assert_eq!(map.matching(1), 7);
        assert_eq!(map.matching(7), 1);
        assert_eq!(map.matching(3), 5);
        assert_eq!(map.matching(8), 10);
        assert_eq!(map.matching(0), usize::MAX);
    }
}
