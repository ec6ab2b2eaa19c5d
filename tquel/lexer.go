package tquel

import (
	"strings"
	"unicode"
	"unicode/utf8"
)

// lexer turns TQuel source into tokens. Comments run from "--" or "/*" in
// the usual way; identifiers are letters, digits and underscores starting
// with a letter; the punctuation set covers Quel's comparison operators.
// It reads the source in place: a token's text is a slice of it, except a
// string literal's that holds an escape. pos counts bytes, col runes.
type lexer struct {
	src  string
	pos  int
	line int
	col  int
}

func newLexer(src string) *lexer {
	return &lexer{src: src, line: 1, col: 1}
}

// Lex tokenizes the whole input, returning the tokens (ending with TokEOF)
// or a positioned error.
func Lex(src string) ([]Token, error) {
	lx := newLexer(src)
	var out []Token
	for {
		tok, err := lx.next()
		if err != nil {
			return nil, err
		}
		out = append(out, tok)
		if tok.Kind == TokEOF {
			return out, nil
		}
	}
}

// at decodes the rune at byte offset i and its width in bytes: 0, 0 past
// the end, and utf8.RuneError, 1 for a byte that starts no UTF-8 sequence.
func (lx *lexer) at(i int) (rune, int) {
	if i >= len(lx.src) {
		return 0, 0
	}
	if c := lx.src[i]; c < utf8.RuneSelf {
		return rune(c), 1
	}
	return utf8.DecodeRuneInString(lx.src[i:])
}

func (lx *lexer) peek() rune {
	r, _ := lx.at(lx.pos)
	return r
}

func (lx *lexer) peek2() rune {
	_, n := lx.at(lx.pos)
	r, _ := lx.at(lx.pos + n)
	return r
}

func (lx *lexer) advance() rune {
	r, n := lx.at(lx.pos)
	lx.pos += n
	if r == '\n' {
		lx.line++
		lx.col = 1
	} else {
		lx.col++
	}
	return r
}

func (lx *lexer) here() Pos { return Pos{Line: lx.line, Col: lx.col} }

func (lx *lexer) next() (Token, error) {
	for {
		// Skip whitespace.
		for lx.pos < len(lx.src) && unicode.IsSpace(lx.peek()) {
			lx.advance()
		}
		// Skip comments.
		if lx.peek() == '-' && lx.peek2() == '-' {
			for lx.pos < len(lx.src) && lx.peek() != '\n' {
				lx.advance()
			}
			continue
		}
		if lx.peek() == '/' && lx.peek2() == '*' {
			start := lx.here()
			lx.advance()
			lx.advance()
			closed := false
			for lx.pos < len(lx.src) {
				if lx.peek() == '*' && lx.peek2() == '/' {
					lx.advance()
					lx.advance()
					closed = true
					break
				}
				lx.advance()
			}
			if !closed {
				return Token{}, errf(start, "unterminated comment")
			}
			continue
		}
		break
	}
	pos := lx.here()
	if lx.pos >= len(lx.src) {
		return Token{Kind: TokEOF, Pos: pos}, nil
	}
	start, r := lx.pos, lx.peek()
	switch {
	case unicode.IsLetter(r) || r == '_':
		for r := lx.peek(); unicode.IsLetter(r) || unicode.IsDigit(r) || r == '_'; r = lx.peek() {
			lx.advance()
		}
		return Token{Kind: TokIdent, Text: lx.src[start:lx.pos], Pos: pos}, nil
	case unicode.IsDigit(r):
		kind := TokInt
		for r := lx.peek(); unicode.IsDigit(r) || r == '.' && kind == TokInt && unicode.IsDigit(lx.peek2()); r = lx.peek() {
			if r == '.' {
				kind = TokFloat
			}
			lx.advance()
		}
		return Token{Kind: kind, Text: lx.src[start:lx.pos], Pos: pos}, nil
	case r == '"':
		return lx.str(pos)
	case r == '!' || r == '<' || r == '>':
		lx.advance()
		if lx.peek() == '=' {
			lx.advance()
		} else if r == '!' {
			return Token{}, errf(pos, "unexpected '!': did you mean '!='?")
		}
		return Token{Kind: TokPunct, Text: lx.src[start:lx.pos], Pos: pos}, nil
	case strings.ContainsRune("(),.=-+", r):
		lx.advance()
		return Token{Kind: TokPunct, Text: lx.src[start:lx.pos], Pos: pos}, nil
	default:
		return Token{}, errf(pos, "unexpected character %q", string(r))
	}
}

// str lexes the string literal starting at the opening quote under the
// cursor, at pos. Its text is the source between the quotes until an escape,
// or a byte that is not UTF-8 (which reads as U+FFFD, as everywhere else),
// makes it be built instead.
func (lx *lexer) str(pos Pos) (Token, error) {
	lx.advance()
	start, built := lx.pos, false
	var b strings.Builder
	for {
		if lx.pos >= len(lx.src) {
			return Token{}, errf(pos, "unterminated string literal")
		}
		at := lx.pos
		c := lx.advance()
		if c == '"' {
			if !built {
				return Token{Kind: TokString, Text: lx.src[start:at], Pos: pos}, nil
			}
			return Token{Kind: TokString, Text: b.String(), Pos: pos}, nil
		}
		if !built && (c == '\\' || c == utf8.RuneError && lx.pos-at == 1) {
			b.WriteString(lx.src[start:at])
			built = true
		}
		if c == '\\' && lx.pos < len(lx.src) {
			switch e := lx.advance(); e {
			case 'n':
				b.WriteByte('\n')
			case 't':
				b.WriteByte('\t')
			case '"', '\\':
				b.WriteRune(e)
			default:
				return Token{}, errf(pos, "unknown escape \\%c in string", e)
			}
		} else if built {
			b.WriteRune(c)
		}
	}
}
