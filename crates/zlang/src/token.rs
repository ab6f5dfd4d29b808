//! Tokens produced by the [`lexer`](crate::lexer), and [`Name`], the
//! identifier text tokens and the AST carry.

use crate::error::Pos;
use std::fmt;
use std::sync::Arc;

/// Identifiers of at most this many bytes are held inline.
const INLINE: usize = 14;

/// An identifier's text, held by value in 16 bytes: names of up to 14
/// bytes (every name the benchmarks, examples and generators use) live
/// inline, so lexing, parsing and copying a name allocate nothing. A
/// longer name spills to one shared heap allocation rather than being
/// rejected, so copying it allocates nothing either.
///
/// Identifiers are ASCII (`[A-Za-z_][A-Za-z0-9_]*`), so the text is both
/// bytes and `str`.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Name(Repr);

#[derive(Clone, PartialEq, Eq, Hash)]
enum Repr {
    /// Unused bytes are zero, so the derived equality is text equality.
    Inline { len: u8, bytes: [u8; INLINE] },
    /// A thin pointer, so the variant is no larger than the inline one.
    Heap(Arc<String>),
}

impl Name {
    /// A name holding `text`.
    pub fn new(text: &str) -> Self {
        if text.len() <= INLINE {
            let mut bytes = [0; INLINE];
            bytes[..text.len()].copy_from_slice(text.as_bytes());
            Name(Repr::Inline {
                len: text.len() as u8,
                bytes,
            })
        } else {
            Name(Repr::Heap(Arc::new(text.to_owned())))
        }
    }

    /// The name's bytes.
    pub fn as_bytes(&self) -> &[u8] {
        match &self.0 {
            Repr::Inline { len, bytes } => &bytes[..*len as usize],
            Repr::Heap(s) => s.as_bytes(),
        }
    }

    /// The name's text.
    pub fn as_str(&self) -> &str {
        match &self.0 {
            Repr::Inline { len, bytes } => {
                std::str::from_utf8(&bytes[..*len as usize]).expect("names are built from str")
            }
            Repr::Heap(s) => s,
        }
    }
}

impl PartialEq<str> for Name {
    fn eq(&self, other: &str) -> bool {
        self.as_bytes() == other.as_bytes()
    }
}

impl PartialEq<&str> for Name {
    fn eq(&self, other: &&str) -> bool {
        self.as_bytes() == other.as_bytes()
    }
}

impl fmt::Display for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl fmt::Debug for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_str(), f)
    }
}

/// A lexical token kind.
#[derive(Debug, Clone, PartialEq)]
pub enum TokenKind {
    /// An identifier that is not a keyword (`foo`, `max`, ...).
    Ident(Name),
    /// An integer literal.
    Int(i64),
    /// A floating-point literal.
    Float(f64),

    // Keywords.
    Program,
    Config,
    Region,
    Direction,
    Var,
    Begin,
    End,
    For,
    To,
    Downto,
    Do,
    If,
    Then,
    Else,
    FloatTy,
    IntTy,

    // Punctuation and operators.
    Semi,
    Colon,
    Comma,
    Assign,   // :=
    LBracket, // [
    RBracket, // ]
    LParen,
    RParen,
    DotDot, // ..
    At,     // @
    Plus,
    Minus,
    Star,
    Slash,
    Lt,
    Le,
    Gt,
    Ge,
    Eq,         // =  (declarations only)
    EqEq,       // ==
    Ne,         // !=
    SumReduce,  // +<<
    ProdReduce, // *<<
    MaxReduce,  // max<<
    MinReduce,  // min<<

    /// End of input.
    Eof,
}

impl fmt::Display for TokenKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        use TokenKind::*;
        match self {
            Ident(s) => write!(f, "identifier `{s}`"),
            Int(v) => write!(f, "integer `{v}`"),
            Float(v) => write!(f, "float `{v}`"),
            Program => write!(f, "`program`"),
            Config => write!(f, "`config`"),
            Region => write!(f, "`region`"),
            Direction => write!(f, "`direction`"),
            Var => write!(f, "`var`"),
            Begin => write!(f, "`begin`"),
            End => write!(f, "`end`"),
            For => write!(f, "`for`"),
            To => write!(f, "`to`"),
            Downto => write!(f, "`downto`"),
            Do => write!(f, "`do`"),
            If => write!(f, "`if`"),
            Then => write!(f, "`then`"),
            Else => write!(f, "`else`"),
            FloatTy => write!(f, "`float`"),
            IntTy => write!(f, "`int`"),
            Semi => write!(f, "`;`"),
            Colon => write!(f, "`:`"),
            Comma => write!(f, "`,`"),
            Assign => write!(f, "`:=`"),
            LBracket => write!(f, "`[`"),
            RBracket => write!(f, "`]`"),
            LParen => write!(f, "`(`"),
            RParen => write!(f, "`)`"),
            DotDot => write!(f, "`..`"),
            At => write!(f, "`@`"),
            Plus => write!(f, "`+`"),
            Minus => write!(f, "`-`"),
            Star => write!(f, "`*`"),
            Slash => write!(f, "`/`"),
            Lt => write!(f, "`<`"),
            Le => write!(f, "`<=`"),
            Gt => write!(f, "`>`"),
            Ge => write!(f, "`>=`"),
            Eq => write!(f, "`=`"),
            EqEq => write!(f, "`==`"),
            Ne => write!(f, "`!=`"),
            SumReduce => write!(f, "`+<<`"),
            ProdReduce => write!(f, "`*<<`"),
            MaxReduce => write!(f, "`max<<`"),
            MinReduce => write!(f, "`min<<`"),
            Eof => write!(f, "end of input"),
        }
    }
}

/// A token together with its source position.
#[derive(Debug, Clone, PartialEq)]
pub struct Token {
    /// The token kind (and payload for literals/identifiers).
    pub kind: TokenKind,
    /// Position of the token's first character.
    pub pos: Pos,
}

impl Token {
    /// Creates a token at a position.
    pub fn new(kind: TokenKind, pos: Pos) -> Self {
        Token { kind, pos }
    }
}

/// Maps an identifier to a keyword kind, if it is one.
pub fn keyword(ident: &str) -> Option<TokenKind> {
    keyword_bytes(ident.as_bytes())
}

/// [`keyword`] over bytes. No two keywords share both a length and a
/// first byte, so the pair names the one candidate, and one comparison
/// settles it.
pub(crate) fn keyword_bytes(word: &[u8]) -> Option<TokenKind> {
    use TokenKind::*;
    let (kind, text): (TokenKind, &[u8]) = match (word.len(), *word.first()?) {
        (2, b'd') => (Do, b"do"),
        (2, b'i') => (If, b"if"),
        (2, b't') => (To, b"to"),
        (3, b'e') => (End, b"end"),
        (3, b'f') => (For, b"for"),
        (3, b'i') => (IntTy, b"int"),
        (3, b'v') => (Var, b"var"),
        (4, b'e') => (Else, b"else"),
        (4, b't') => (Then, b"then"),
        (5, b'b') => (Begin, b"begin"),
        (5, b'f') => (FloatTy, b"float"),
        (6, b'c') => (Config, b"config"),
        (6, b'd') => (Downto, b"downto"),
        (6, b'r') => (Region, b"region"),
        (7, b'p') => (Program, b"program"),
        (9, b'd') => (Direction, b"direction"),
        _ => return None,
    };
    (word == text).then_some(kind)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keywords_resolve() {
        assert_eq!(keyword("program"), Some(TokenKind::Program));
        assert_eq!(keyword("downto"), Some(TokenKind::Downto));
        assert_eq!(keyword("frobnicate"), None);
        assert_eq!(keyword("dawnto"), None);
        assert_eq!(keyword(""), None);
        for kw in [
            "program",
            "config",
            "region",
            "direction",
            "var",
            "begin",
            "end",
            "for",
            "to",
            "downto",
            "do",
            "if",
            "then",
            "else",
            "float",
            "int",
        ] {
            let kind = keyword(kw).unwrap_or_else(|| panic!("{kw} is a keyword"));
            assert_eq!(kind.to_string(), format!("`{kw}`"));
        }
    }

    #[test]
    fn display_is_nonempty() {
        for k in [TokenKind::Semi, TokenKind::SumReduce, TokenKind::Eof] {
            assert!(!k.to_string().is_empty());
        }
    }

    #[test]
    fn names_hold_their_text_inline_or_spilled() {
        let short = Name::new("U12");
        assert_eq!(short.as_str(), "U12");
        assert_eq!(short, "U12");
        assert_eq!(format!("{short:?}"), "\"U12\"");
        let edge = "a".repeat(INLINE);
        assert!(matches!(Name::new(&edge).0, Repr::Inline { .. }));
        let long = "a".repeat(INLINE + 1);
        assert!(matches!(Name::new(&long).0, Repr::Heap(_)));
        assert_eq!(Name::new(&long).as_str(), long);
        assert_ne!(Name::new(&edge), Name::new(&long));
    }

    #[test]
    fn a_token_is_three_words() {
        assert_eq!(std::mem::size_of::<Name>(), 16);
        assert_eq!(std::mem::size_of::<TokenKind>(), 16);
        assert_eq!(std::mem::size_of::<Token>(), 24);
    }
}
