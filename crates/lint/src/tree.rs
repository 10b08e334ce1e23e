//! Brace/bracket/paren token trees over the flat token stream.
//!
//! The analyzer works structurally — "the argument group of this
//! `run(...)` call", "the body of this closure" — so the only parsing
//! it needs is delimiter matching. Everything else stays a flat token
//! sequence inside its group.

use crate::lexer::{Delim, LexError, Span, Tok, TokKind};

/// A token or a delimited group.
#[derive(Debug, Clone)]
pub enum Tree {
    Leaf(Tok),
    Group(Group),
}

/// A delimited group: `( ... )`, `[ ... ]` or `{ ... }`.
#[derive(Debug, Clone)]
pub struct Group {
    pub delim: Delim,
    pub open: Span,
    pub close: Span,
    pub kids: Vec<Tree>,
}

impl Tree {
    /// The identifier text, if this tree is an identifier leaf.
    pub fn ident(&self) -> Option<&str> {
        match self {
            Tree::Leaf(t) => t.ident(),
            Tree::Group(_) => None,
        }
    }

    pub fn is_punct(&self, c: char) -> bool {
        matches!(self, Tree::Leaf(t) if t.is_punct(c))
    }

    /// The position of this tree's first character.
    pub fn span(&self) -> Span {
        match self {
            Tree::Leaf(t) => t.span,
            Tree::Group(g) => g.open,
        }
    }
}

/// Build the token forest, consuming the lexer output.
pub fn parse(toks: Vec<Tok>) -> Result<Vec<Tree>, LexError> {
    // Each stack entry is a partially built group; the bottom entry is the
    // top-level forest (delim/open unused there).
    struct Frame {
        delim: Delim,
        open: Span,
        kids: Vec<Tree>,
    }
    let mut stack: Vec<Frame> = vec![Frame {
        delim: Delim::Brace,
        open: Span { line: 0, col: 0 },
        kids: Vec::new(),
    }];
    for tok in toks {
        match tok.kind {
            TokKind::Open(d) => stack.push(Frame {
                delim: d,
                open: tok.span,
                kids: Vec::new(),
            }),
            TokKind::Close(d) => {
                let frame = stack.pop().ok_or(LexError {
                    span: tok.span,
                    msg: "unbalanced closing delimiter".into(),
                })?;
                if stack.is_empty() || frame.delim != d {
                    return Err(LexError {
                        span: tok.span,
                        msg: "mismatched closing delimiter".into(),
                    });
                }
                stack
                    .last_mut()
                    .expect("checked non-empty")
                    .kids
                    .push(Tree::Group(Group {
                        delim: frame.delim,
                        open: frame.open,
                        close: tok.span,
                        kids: frame.kids,
                    }));
            }
            _ => stack
                .last_mut()
                .expect("stack never empties before input ends")
                .kids
                .push(Tree::Leaf(tok)),
        }
    }
    if stack.len() != 1 {
        let open = stack.last().expect("len >= 1").open;
        return Err(LexError {
            span: open,
            msg: "unclosed delimiter".into(),
        });
    }
    Ok(stack.pop().expect("single frame").kids)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn forest(src: &str) -> Vec<Tree> {
        parse(lex(src).unwrap().0).unwrap()
    }

    #[test]
    fn groups_nest() {
        let f = forest("fn main() { a(b[c]); }");
        // fn, main, (), {}
        assert_eq!(f.len(), 4);
        let Tree::Group(body) = &f[3] else {
            panic!("expected body group");
        };
        assert_eq!(body.delim, Delim::Brace);
        // a, (), ;
        assert_eq!(body.kids.len(), 3);
    }

    #[test]
    fn close_spans_recorded() {
        let f = forest("x(\n)");
        let Tree::Group(g) = &f[1] else {
            panic!("expected group");
        };
        assert_eq!(g.open.line, 1);
        assert_eq!(g.close.line, 2);
    }

    #[test]
    fn unbalanced_is_an_error() {
        assert!(parse(lex("a { b").unwrap().0).is_err());
        assert!(parse(lex("a } b").unwrap().0).is_err());
        assert!(parse(lex("a ( ] b").unwrap().0).is_err());
    }
}
