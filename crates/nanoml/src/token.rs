//! Tokens and the hand-written lexer for the NanoML surface syntax.

use std::fmt;

/// A lexical token.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Token {
    /// Integer literal.
    Int(i64),
    /// Lower-case identifier (variables, keywords are separated out).
    Ident(String),
    /// Capitalized identifier (constructors).
    Ctor(String),
    /// Type variable `'a`.
    TyVar(String),
    // Keywords.
    /// `let`
    Let,
    /// `rec`
    Rec,
    /// `in`
    In,
    /// `fun`
    Fun,
    /// `if`
    If,
    /// `then`
    Then,
    /// `else`
    Else,
    /// `match`
    Match,
    /// `with`
    With,
    /// `type`
    Type,
    /// `of`
    Of,
    /// `true`
    True,
    /// `false`
    False,
    /// `and` (mutual recursion separator)
    And,
    /// `as`
    As,
    /// `mod`
    Mod,
    /// `assert`
    Assert,
    /// `not`
    Not,
    // Punctuation / operators.
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `[`
    LBracket,
    /// `]`
    RBracket,
    /// `,`
    Comma,
    /// `;`
    Semi,
    /// `;;`
    SemiSemi,
    /// `|`
    Bar,
    /// `->`
    Arrow,
    /// `=`
    Eq,
    /// `<>`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `+`
    Plus,
    /// `-`
    Minus,
    /// `*`
    Star,
    /// `/`
    Slash,
    /// `::`
    ColonColon,
    /// `:`
    Colon,
    /// `&&`
    AmpAmp,
    /// `||`
    BarBar,
    /// `_`
    Underscore,
    /// End of input.
    Eof,
}

impl fmt::Display for Token {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Token::Int(v) => write!(f, "{v}"),
            Token::Ident(s) | Token::Ctor(s) => write!(f, "{s}"),
            Token::TyVar(s) => write!(f, "'{s}"),
            Token::Let => write!(f, "let"),
            Token::Rec => write!(f, "rec"),
            Token::In => write!(f, "in"),
            Token::Fun => write!(f, "fun"),
            Token::If => write!(f, "if"),
            Token::Then => write!(f, "then"),
            Token::Else => write!(f, "else"),
            Token::Match => write!(f, "match"),
            Token::With => write!(f, "with"),
            Token::Type => write!(f, "type"),
            Token::Of => write!(f, "of"),
            Token::True => write!(f, "true"),
            Token::False => write!(f, "false"),
            Token::And => write!(f, "and"),
            Token::As => write!(f, "as"),
            Token::Mod => write!(f, "mod"),
            Token::Assert => write!(f, "assert"),
            Token::Not => write!(f, "not"),
            Token::LParen => write!(f, "("),
            Token::RParen => write!(f, ")"),
            Token::LBracket => write!(f, "["),
            Token::RBracket => write!(f, "]"),
            Token::Comma => write!(f, ","),
            Token::Semi => write!(f, ";"),
            Token::SemiSemi => write!(f, ";;"),
            Token::Bar => write!(f, "|"),
            Token::Arrow => write!(f, "->"),
            Token::Eq => write!(f, "="),
            Token::Ne => write!(f, "<>"),
            Token::Lt => write!(f, "<"),
            Token::Le => write!(f, "<="),
            Token::Gt => write!(f, ">"),
            Token::Ge => write!(f, ">="),
            Token::Plus => write!(f, "+"),
            Token::Minus => write!(f, "-"),
            Token::Star => write!(f, "*"),
            Token::Slash => write!(f, "/"),
            Token::ColonColon => write!(f, "::"),
            Token::Colon => write!(f, ":"),
            Token::AmpAmp => write!(f, "&&"),
            Token::BarBar => write!(f, "||"),
            Token::Underscore => write!(f, "_"),
            Token::Eof => write!(f, "<eof>"),
        }
    }
}

/// A token together with its line number (1-based), for diagnostics.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Spanned {
    /// The token.
    pub tok: Token,
    /// Source line.
    pub line: u32,
}

/// A lexing error.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LexError {
    /// Explanation.
    pub msg: String,
    /// Source line.
    pub line: u32,
}

impl fmt::Display for LexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "lex error on line {}: {}", self.line, self.msg)
    }
}

impl std::error::Error for LexError {}

/// Lexes NanoML source into tokens. Comments are OCaml style `(* ... *)`
/// and nest.
pub fn lex(src: &str) -> Result<Vec<Spanned>, LexError> {
    let b = src.as_bytes();
    let mut out = Vec::new();
    let mut i = 0usize;
    let mut line = 1u32;
    while i < b.len() {
        let c = b[i];
        match c {
            b'\n' => {
                line += 1;
                i += 1;
            }
            _ if c.is_ascii_whitespace() => i += 1,
            b'(' if i + 1 < b.len() && b[i + 1] == b'*' => {
                // Nested comment.
                let mut depth = 1;
                i += 2;
                while i < b.len() && depth > 0 {
                    if b[i] == b'\n' {
                        line += 1;
                        i += 1;
                    } else if b[i] == b'(' && i + 1 < b.len() && b[i + 1] == b'*' {
                        depth += 1;
                        i += 2;
                    } else if b[i] == b'*' && i + 1 < b.len() && b[i + 1] == b')' {
                        depth -= 1;
                        i += 2;
                    } else {
                        i += 1;
                    }
                }
                if depth > 0 {
                    return Err(LexError {
                        msg: "unterminated comment".into(),
                        line,
                    });
                }
            }
            b'0'..=b'9' => {
                let start = i;
                while i < b.len() && b[i].is_ascii_digit() {
                    i += 1;
                }
                let text = std::str::from_utf8(&b[start..i]).expect("digits");
                let v: i64 = text.parse().map_err(|_| LexError {
                    msg: format!("integer literal `{text}` overflows"),
                    line,
                })?;
                out.push(Spanned {
                    tok: Token::Int(v),
                    line,
                });
            }
            b'\'' => {
                i += 1;
                let start = i;
                while i < b.len() && (b[i].is_ascii_alphanumeric() || b[i] == b'_') {
                    i += 1;
                }
                if start == i {
                    return Err(LexError {
                        msg: "expected type variable after `'`".into(),
                        line,
                    });
                }
                let name = std::str::from_utf8(&b[start..i]).expect("ascii").to_owned();
                out.push(Spanned {
                    tok: Token::TyVar(name),
                    line,
                });
            }
            _ if c.is_ascii_alphabetic() || c == b'_' => {
                let start = i;
                while i < b.len() && (b[i].is_ascii_alphanumeric() || b[i] == b'_' || b[i] == b'\'')
                {
                    i += 1;
                }
                let word = std::str::from_utf8(&b[start..i]).expect("ascii");
                let tok = match word {
                    "let" => Token::Let,
                    "rec" => Token::Rec,
                    "in" => Token::In,
                    "fun" => Token::Fun,
                    "if" => Token::If,
                    "then" => Token::Then,
                    "else" => Token::Else,
                    "match" => Token::Match,
                    "with" => Token::With,
                    "type" => Token::Type,
                    "of" => Token::Of,
                    "true" => Token::True,
                    "false" => Token::False,
                    "and" => Token::And,
                    "as" => Token::As,
                    "mod" => Token::Mod,
                    "assert" => Token::Assert,
                    "not" => Token::Not,
                    "_" => Token::Underscore,
                    _ if word.starts_with(|ch: char| ch.is_ascii_uppercase()) => {
                        Token::Ctor(word.to_owned())
                    }
                    _ => Token::Ident(word.to_owned()),
                };
                out.push(Spanned { tok, line });
            }
            _ => {
                let two = if i + 1 < b.len() {
                    &b[i..i + 2]
                } else {
                    &b[i..]
                };
                let (tok, len) = match two {
                    b"->" => (Token::Arrow, 2),
                    b"::" => (Token::ColonColon, 2),
                    b";;" => (Token::SemiSemi, 2),
                    b"<=" => (Token::Le, 2),
                    b">=" => (Token::Ge, 2),
                    b"<>" => (Token::Ne, 2),
                    b"&&" => (Token::AmpAmp, 2),
                    b"||" => (Token::BarBar, 2),
                    _ => match c {
                        b'(' => (Token::LParen, 1),
                        b')' => (Token::RParen, 1),
                        b'[' => (Token::LBracket, 1),
                        b']' => (Token::RBracket, 1),
                        b',' => (Token::Comma, 1),
                        b';' => (Token::Semi, 1),
                        b'|' => (Token::Bar, 1),
                        b'=' => (Token::Eq, 1),
                        b'<' => (Token::Lt, 1),
                        b'>' => (Token::Gt, 1),
                        b'+' => (Token::Plus, 1),
                        b'-' => (Token::Minus, 1),
                        b'*' => (Token::Star, 1),
                        b'/' => (Token::Slash, 1),
                        b':' => (Token::Colon, 1),
                        other => {
                            return Err(LexError {
                                msg: format!("unexpected character `{}`", other as char),
                                line,
                            })
                        }
                    },
                };
                out.push(Spanned { tok, line });
                i += len;
            }
        }
    }
    out.push(Spanned {
        tok: Token::Eof,
        line,
    });
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(src: &str) -> Vec<Token> {
        lex(src).unwrap().into_iter().map(|s| s.tok).collect()
    }

    #[test]
    fn keywords_and_idents() {
        assert_eq!(
            toks("let rec foo = fun x -> x"),
            vec![
                Token::Let,
                Token::Rec,
                Token::Ident("foo".into()),
                Token::Eq,
                Token::Fun,
                Token::Ident("x".into()),
                Token::Arrow,
                Token::Ident("x".into()),
                Token::Eof
            ]
        );
    }

    #[test]
    fn constructors_and_tyvars() {
        assert_eq!(
            toks("type 'a t = E | N of 'a"),
            vec![
                Token::Type,
                Token::TyVar("a".into()),
                Token::Ident("t".into()),
                Token::Eq,
                Token::Ctor("E".into()),
                Token::Bar,
                Token::Ctor("N".into()),
                Token::Of,
                Token::TyVar("a".into()),
                Token::Eof
            ]
        );
    }

    #[test]
    fn operators() {
        assert_eq!(
            toks("x :: xs <= 1 <> 2 && true || false"),
            vec![
                Token::Ident("x".into()),
                Token::ColonColon,
                Token::Ident("xs".into()),
                Token::Le,
                Token::Int(1),
                Token::Ne,
                Token::Int(2),
                Token::AmpAmp,
                Token::True,
                Token::BarBar,
                Token::False,
                Token::Eof
            ]
        );
    }

    #[test]
    fn nested_comments_and_lines() {
        let ts = lex("let (* outer (* inner *) still *) x = 1\nlet y = 2").unwrap();
        assert_eq!(ts[0].line, 1);
        let last_let = ts.iter().rposition(|s| s.tok == Token::Let).unwrap();
        assert_eq!(ts[last_let].line, 2);
    }

    #[test]
    fn list_sugar_tokens() {
        assert_eq!(
            toks("[1; 2]"),
            vec![
                Token::LBracket,
                Token::Int(1),
                Token::Semi,
                Token::Int(2),
                Token::RBracket,
                Token::Eof
            ]
        );
    }

    #[test]
    fn errors() {
        assert!(lex("let x = #").is_err());
        assert!(lex("(* unterminated").is_err());
    }
}
