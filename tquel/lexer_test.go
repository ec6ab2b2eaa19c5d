package tquel

import "testing"

func lexKinds(t *testing.T, src string) []Token {
	t.Helper()
	toks, err := Lex(src)
	if err != nil {
		t.Fatalf("Lex(%q): %v", src, err)
	}
	return toks
}

func TestLexBasics(t *testing.T) {
	toks := lexKinds(t, `range of f is faculty`)
	if len(toks) != 6 { // 5 idents + EOF
		t.Fatalf("tokens = %v", toks)
	}
	for i, want := range []string{"range", "of", "f", "is", "faculty"} {
		if toks[i].Kind != TokIdent || toks[i].Text != want {
			t.Errorf("token %d = %+v, want ident %q", i, toks[i], want)
		}
	}
	if toks[5].Kind != TokEOF {
		t.Error("missing EOF")
	}
}

func TestLexStringsAndEscapes(t *testing.T) {
	toks := lexKinds(t, `"Merrie" "a\"b" "tab\there" "nl\n"`)
	wants := []string{"Merrie", `a"b`, "tab\there", "nl\n"}
	for i, w := range wants {
		if toks[i].Kind != TokString || toks[i].Text != w {
			t.Errorf("string %d = %q, want %q", i, toks[i].Text, w)
		}
	}
	if _, err := Lex(`"unterminated`); err == nil {
		t.Error("unterminated string must fail")
	}
	if _, err := Lex(`"bad \x escape"`); err == nil {
		t.Error("unknown escape must fail")
	}
}

func TestLexNumbers(t *testing.T) {
	toks := lexKinds(t, `42 3.25 7`)
	if toks[0].Kind != TokInt || toks[0].Text != "42" {
		t.Errorf("int: %+v", toks[0])
	}
	if toks[1].Kind != TokFloat || toks[1].Text != "3.25" {
		t.Errorf("float: %+v", toks[1])
	}
	if toks[2].Kind != TokInt {
		t.Errorf("int: %+v", toks[2])
	}
}

func TestLexPunctuation(t *testing.T) {
	toks := lexKinds(t, `( ) , . = != < <= > >=`)
	wants := []string{"(", ")", ",", ".", "=", "!=", "<", "<=", ">", ">="}
	for i, w := range wants {
		if toks[i].Kind != TokPunct || toks[i].Text != w {
			t.Errorf("punct %d = %+v, want %q", i, toks[i], w)
		}
	}
	if _, err := Lex(`a ! b`); err == nil {
		t.Error("lone '!' must fail")
	}
	if _, err := Lex("a # b"); err == nil {
		t.Error("unknown character must fail")
	}
}

func TestLexComments(t *testing.T) {
	toks := lexKinds(t, "a -- line comment\nb /* block\ncomment */ c")
	if len(toks) != 4 {
		t.Fatalf("tokens = %v", toks)
	}
	for i, w := range []string{"a", "b", "c"} {
		if toks[i].Text != w {
			t.Errorf("token %d = %q", i, toks[i].Text)
		}
	}
	if _, err := Lex("/* unterminated"); err == nil {
		t.Error("unterminated comment must fail")
	}
}

func TestLexPositions(t *testing.T) {
	toks := lexKinds(t, "ab\n  cd")
	if toks[0].Pos != (Pos{Line: 1, Col: 1}) {
		t.Errorf("first pos = %v", toks[0].Pos)
	}
	if toks[1].Pos != (Pos{Line: 2, Col: 3}) {
		t.Errorf("second pos = %v", toks[1].Pos)
	}
	if toks[1].Pos.String() != "2:3" {
		t.Errorf("pos string = %q", toks[1].Pos.String())
	}
}

// TestLexPositionsAfterNonASCII: columns count runes, not bytes, so an error
// after a literal or identifier holding multi-byte characters is reported
// where an editor shows it.
func TestLexPositionsAfterNonASCII(t *testing.T) {
	for _, c := range []struct{ src, want string }{
		{`a "héllo" # b`, "1:11"},
		{"x\n  \"日本\" !", "2:8"},
		{"größe = \"\\tñ\" /* open", "1:15"},
	} {
		_, err := Lex(c.src)
		if e, ok := err.(*Error); !ok || e.Pos.String() != c.want {
			t.Errorf("Lex(%q) = %v, want an error at %s", c.src, err, c.want)
		}
	}
	toks := lexKinds(t, "größe = \"ñ\\\"\" b")
	if toks[0].Text != "größe" || toks[2].Text != `ñ"` || toks[3].Pos != (Pos{Line: 1, Col: 15}) {
		t.Errorf("tokens = %+v", toks)
	}
	// A byte that is not UTF-8 reads as U+FFFD inside a literal too.
	if toks := lexKinds(t, "\"a\xffb\""); toks[0].Text != "a\uFFFDb" {
		t.Errorf("literal with a stray byte = %q", toks[0].Text)
	}
}
