//! Hand-written lexer for `zlang`.
//!
//! Comments run from `--` to end of line. Whitespace is insignificant.
//!
//! The lexer walks bytes and allocates nothing per token: an identifier
//! is copied into a [`Name`], keywords are told apart by length and first
//! byte, and the token vector is reserved from the source length up front. A
//! position is computed only where a token starts, from its byte offset
//! and the offset where its line starts; the line count moves only when
//! trivia crosses a newline, the one place a newline can occur.

use crate::error::{Error, Pos};
use crate::token::{keyword_bytes, Name, Token, TokenKind};

struct Lexer<'a> {
    text: &'a str,
    src: &'a [u8],
    i: usize,
    line: u32,
    /// Byte offset of the first character of line `line`.
    line_start: usize,
}

impl<'a> Lexer<'a> {
    fn new(src: &'a str) -> Self {
        Lexer {
            text: src,
            src: src.as_bytes(),
            i: 0,
            line: 1,
            line_start: 0,
        }
    }

    /// The 1-based line and byte column of offset `at` on the current line.
    fn pos_at(&self, at: usize) -> Pos {
        Pos::new(self.line, (at - self.line_start + 1) as u32)
    }

    fn byte(&self, at: usize) -> Option<u8> {
        self.src.get(at).copied()
    }

    fn skip_trivia(&mut self) {
        while let Some(c) = self.byte(self.i) {
            if c == b'\n' {
                self.i += 1;
                self.line += 1;
                self.line_start = self.i;
            } else if c.is_ascii_whitespace() {
                self.i += 1;
            } else if c == b'-' && self.byte(self.i + 1) == Some(b'-') {
                // A comment ends before its newline, which the next turn
                // of the loop counts.
                self.i += self.src[self.i..]
                    .iter()
                    .position(|&c| c == b'\n')
                    .unwrap_or(self.src.len() - self.i);
            } else {
                break;
            }
        }
    }

    fn digits(&mut self) {
        while self.byte(self.i).is_some_and(|c| c.is_ascii_digit()) {
            self.i += 1;
        }
    }

    fn lex_number(&mut self, start: usize, pos: Pos) -> Result<TokenKind, Error> {
        self.digits();
        // A `..` after digits is a range, not a float.
        let mut is_float = false;
        if self.byte(self.i) == Some(b'.')
            && self.byte(self.i + 1).is_some_and(|c| c.is_ascii_digit())
        {
            is_float = true;
            self.i += 1;
            self.digits();
        }
        if matches!(self.byte(self.i), Some(b'e' | b'E')) {
            let mut j = self.i + 1;
            if matches!(self.byte(j), Some(b'+' | b'-')) {
                j += 1;
            }
            if self.byte(j).is_some_and(|c| c.is_ascii_digit()) {
                is_float = true;
                self.i = j;
                self.digits();
            }
        }
        let text = &self.text[start..self.i];
        if is_float {
            let v: f64 = text
                .parse()
                .map_err(|_| Error::lex(pos, format!("invalid float literal `{text}`")))?;
            Ok(TokenKind::Float(v))
        } else {
            let v = text.bytes().try_fold(0i64, |v, d| {
                v.checked_mul(10)?.checked_add(i64::from(d - b'0'))
            });
            v.map(TokenKind::Int)
                .ok_or_else(|| Error::lex(pos, format!("integer literal `{text}` out of range")))
        }
    }

    fn lex_word(&mut self, start: usize) -> TokenKind {
        while self
            .byte(self.i)
            .is_some_and(|c| c.is_ascii_alphanumeric() || c == b'_')
        {
            self.i += 1;
        }
        let word = &self.src[start..self.i];
        // `max<<` and `min<<` are reduction operators.
        if word.len() == 3
            && (word == b"max" || word == b"min")
            && self.byte(self.i) == Some(b'<')
            && self.byte(self.i + 1) == Some(b'<')
        {
            self.i += 2;
            return if word == b"max" {
                TokenKind::MaxReduce
            } else {
                TokenKind::MinReduce
            };
        }
        keyword_bytes(word)
            .unwrap_or_else(|| TokenKind::Ident(Name::new(&self.text[start..self.i])))
    }

    /// The kind of the operator at `start`, `self.i` left past it.
    fn lex_operator(&mut self, c: u8, pos: Pos) -> Result<TokenKind, Error> {
        use TokenKind::*;
        let next = self.byte(self.i + 1);
        let shift = next == Some(b'<') && self.byte(self.i + 2) == Some(b'<');
        let (kind, len) = match c {
            b';' => (Semi, 1),
            b',' => (Comma, 1),
            b'[' => (LBracket, 1),
            b']' => (RBracket, 1),
            b'(' => (LParen, 1),
            b')' => (RParen, 1),
            b'@' => (At, 1),
            b'-' => (Minus, 1),
            b'/' => (Slash, 1),
            b':' if next == Some(b'=') => (Assign, 2),
            b':' => (Colon, 1),
            b'.' if next == Some(b'.') => (DotDot, 2),
            b'.' => return Err(Error::lex(pos, "unexpected `.`")),
            b'+' if shift => (SumReduce, 3),
            b'+' => (Plus, 1),
            b'*' if shift => (ProdReduce, 3),
            b'*' => (Star, 1),
            b'<' if next == Some(b'=') => (Le, 2),
            b'<' => (Lt, 1),
            b'>' if next == Some(b'=') => (Ge, 2),
            b'>' => (Gt, 1),
            b'=' if next == Some(b'=') => (EqEq, 2),
            b'=' => (Eq, 1),
            b'!' if next == Some(b'=') => (Ne, 2),
            b'!' => return Err(Error::lex(pos, "unexpected `!`")),
            _ => {
                // Everything consumed so far is ASCII or a whole comment,
                // so `self.i` is a character boundary.
                let ch = self.text[self.i..].chars().next().expect("a byte is left");
                return Err(Error::lex(pos, format!("unexpected character `{ch}`")));
            }
        };
        self.i += len;
        Ok(kind)
    }

    fn next_token(&mut self) -> Result<Token, Error> {
        self.skip_trivia();
        let start = self.i;
        let pos = self.pos_at(start);
        let kind = match self.byte(start) {
            None => TokenKind::Eof,
            Some(c) if c.is_ascii_digit() => self.lex_number(start, pos)?,
            Some(c) if c.is_ascii_alphabetic() || c == b'_' => self.lex_word(start),
            Some(c) => self.lex_operator(c, pos)?,
        };
        Ok(Token::new(kind, pos))
    }
}

/// Tokenizes `zlang` source text.
///
/// The returned vector always ends with a single [`TokenKind::Eof`] token.
///
/// # Errors
///
/// Returns an error on malformed literals or unknown characters.
///
/// ```
/// # fn main() -> Result<(), zlang::Error> {
/// let toks = zlang::lexer::lex("[R] A := B@north;")?;
/// assert_eq!(toks.len(), 10); // incl. Eof
/// # Ok(())
/// # }
/// ```
pub fn lex(source: &str) -> Result<Vec<Token>, Error> {
    let mut lexer = Lexer::new(source);
    // The benchmarks and generated programs run 2.8 source bytes a token
    // on average and 1.9 at the densest: most never grow this vector, and
    // the densest grow it once.
    let mut out = Vec::with_capacity(source.len() / 2 + 1);
    loop {
        let tok = lexer.next_token()?;
        let done = tok.kind == TokenKind::Eof;
        out.push(tok);
        if done {
            return Ok(out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::token::TokenKind::*;

    fn kinds(src: &str) -> Vec<TokenKind> {
        lex(src).unwrap().into_iter().map(|t| t.kind).collect()
    }

    fn ident(s: &str) -> TokenKind {
        Ident(Name::new(s))
    }

    #[test]
    fn lexes_declarations() {
        assert_eq!(
            kinds("config n : int = 64;"),
            vec![Config, ident("n"), Colon, IntTy, Eq, Int(64), Semi, Eof]
        );
    }

    #[test]
    fn lexes_range_not_float() {
        assert_eq!(kinds("1..n"), vec![Int(1), DotDot, ident("n"), Eof]);
    }

    #[test]
    fn lexes_floats() {
        assert_eq!(
            kinds("2.5 1e3 7"),
            vec![Float(2.5), Float(1000.0), Int(7), Eof]
        );
    }

    #[test]
    fn an_exponent_without_digits_is_not_part_of_the_number() {
        assert_eq!(kinds("2e+"), vec![Int(2), ident("e"), Plus, Eof]);
        assert_eq!(kinds("2.5E-1"), vec![Float(0.25), Eof]);
    }

    #[test]
    fn integers_overflow_at_i64() {
        assert_eq!(kinds("9223372036854775807"), vec![Int(i64::MAX), Eof]);
        assert_eq!(
            lex("x 9223372036854775808").unwrap_err().to_string(),
            "lex error at 1:3: integer literal `9223372036854775808` out of range"
        );
    }

    #[test]
    fn lexes_reductions() {
        assert_eq!(
            kinds("+<< *<< max<< min<<"),
            vec![SumReduce, ProdReduce, MaxReduce, MinReduce, Eof]
        );
    }

    #[test]
    fn max_without_shift_is_ident() {
        assert_eq!(kinds("max(a, b)")[0], ident("max"));
        assert_eq!(kinds("max<")[..2], [ident("max"), Lt]);
    }

    #[test]
    fn comments_are_skipped() {
        assert_eq!(kinds("a -- comment\n b"), vec![ident("a"), ident("b"), Eof]);
        assert_eq!(kinds("a -- comment to the end"), vec![ident("a"), Eof]);
    }

    #[test]
    fn positions_track_lines() {
        let toks = lex("a\n  b").unwrap();
        assert_eq!(toks[0].pos.line, 1);
        assert_eq!(toks[1].pos.line, 2);
        assert_eq!(toks[1].pos.col, 3);
    }

    #[test]
    fn positions_count_bytes_across_comments_and_crlf() {
        let toks = lex("-- é\r\n\tx := 1; -- λ\n  y").unwrap();
        let at: Vec<(u32, u32)> = toks.iter().map(|t| (t.pos.line, t.pos.col)).collect();
        assert_eq!(at, [(2, 2), (2, 4), (2, 7), (2, 8), (3, 3), (3, 4)]);
    }

    #[test]
    fn rejects_unknown_char() {
        assert!(lex("a # b").is_err());
    }

    #[test]
    fn a_non_ascii_character_is_reported_as_itself_at_its_byte_column() {
        let e = lex("begin x é end").unwrap_err();
        assert_eq!(e.to_string(), "lex error at 1:9: unexpected character `é`");
        let e = lex("-- ü\n  ab😀").unwrap_err();
        assert_eq!(e.to_string(), "lex error at 2:5: unexpected character `😀`");
    }

    #[test]
    fn bare_equals_is_its_own_token() {
        assert_eq!(kinds("a = b"), vec![ident("a"), Eq, ident("b"), Eof]);
    }

    #[test]
    fn lexes_comparisons() {
        assert_eq!(
            kinds("< <= > >= == !="),
            vec![Lt, Le, Gt, Ge, EqEq, Ne, Eof]
        );
    }

    #[test]
    fn lone_dot_and_bang_are_errors() {
        assert_eq!(
            lex("a . b").unwrap_err().to_string(),
            "lex error at 1:3: unexpected `.`"
        );
        assert_eq!(
            lex("a !b").unwrap_err().to_string(),
            "lex error at 1:3: unexpected `!`"
        );
    }
}
