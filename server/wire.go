package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"unicode/utf16"
	"unicode/utf8"
)

// The line codec. The encoders append exactly the bytes json.Marshal gives
// for a Request or a Response, and the reader decodes a line in one pass,
// accepting exactly the lines json.Unmarshal accepts for those types and
// yielding the same values: keys select fields exactly, else under Unicode
// case folding; unknown keys are skipped; null leaves a string, number or
// struct alone and empties a slice; a repeated key decodes again into what
// the first left; a number given for an integer must parse as one. Only the
// "cache" value, admin-only and never hot, goes through encoding/json.

// appendRequest appends req's encoding to dst.
func appendRequest(dst []byte, req *Request) []byte {
	dst = appendOmit(append(dst, '{'), "v", req.V)
	dst = appendOmit(appendString(appendKey(dst, "src"), req.Src), "cmd", req.Cmd)
	if len(req.Batch) > 0 {
		dst = appendList(appendKey(dst, "batch"), req.Batch, func(dst []byte, s *string) []byte { return appendString(dst, *s) })
	}
	if req.Epoch != 0 {
		dst = strconv.AppendUint(appendKey(dst, "epoch"), req.Epoch, 10)
	}
	if req.Offset != 0 {
		dst = strconv.AppendInt(appendKey(dst, "offset"), req.Offset, 10)
	}
	return append(dst, '}')
}

// appendResponse appends resp's encoding to dst.
func appendResponse(dst []byte, resp *Response) []byte {
	dst = appendOmit(append(dst, '{'), "v", resp.V)
	if len(resp.Outcomes) > 0 {
		dst = appendList(appendKey(dst, "outcomes"), resp.Outcomes, appendOutcome)
	}
	if len(resp.Batch) > 0 {
		dst = appendList(appendKey(dst, "batch"), resp.Batch, func(dst []byte, item *BatchItem) []byte {
			dst = append(dst, '{')
			if len(item.Outcomes) > 0 {
				dst = appendList(appendKey(dst, "outcomes"), item.Outcomes, appendOutcome)
			}
			return append(appendOmit(appendOmit(dst, "error", item.Error), "code", item.Code), '}')
		})
	}
	if resp.Cache != nil {
		b, _ := json.Marshal(resp.Cache) // qcache.Stats holds only integers, which always encode
		dst = append(appendKey(dst, "cache"), b...)
	}
	dst = appendOmit(appendOmit(dst, "error", resp.Error), "code", resp.Code)
	if resp.Commit != 0 {
		dst = strconv.AppendInt(appendKey(dst, "commit"), resp.Commit, 10)
	}
	return append(dst, '}')
}

func appendOutcome(dst []byte, o *Outcome) []byte {
	dst = appendString(append(dst, `{"stmt":`...), o.Stmt)
	dst = appendOmit(appendOmit(dst, "msg", o.Msg), "table", o.Table)
	return append(strconv.AppendInt(appendKey(dst, "rows"), int64(o.Rows), 10), '}')
}

// appendOmit appends a string field tagged omitempty.
func appendOmit(dst []byte, key, s string) []byte {
	if s == "" {
		return dst
	}
	return appendString(appendKey(dst, key), s)
}

func appendList[T any](dst []byte, items []T, elem func([]byte, *T) []byte) []byte {
	dst = append(dst, '[')
	for i := range items {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = elem(dst, &items[i])
	}
	return append(dst, ']')
}

// appendKey appends `"key":`, after a comma unless it opens its object.
func appendKey(dst []byte, key string) []byte {
	if dst[len(dst)-1] != '{' {
		dst = append(dst, ',')
	}
	return append(append(append(dst, '"'), key...), '"', ':')
}

// plain marks the bytes that stand for themselves in a JSON string; safe
// marks those encoding/json writes as themselves, which leaves out <, > and
// & as well.
var plain, safe = func() (plain, safe [256]bool) {
	for c := ' '; c < utf8.RuneSelf; c++ {
		plain[c] = c != '"' && c != '\\'
		safe[c] = plain[c] && c != '<' && c != '>' && c != '&'
	}
	return plain, safe
}()

// appendString appends s as a JSON string with encoding/json's escaping:
// quote, backslash and control bytes, <, > and &, U+2028 and U+2029, and
// each invalid UTF-8 byte as \ufffd.
func appendString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		b := s[i]
		if safe[b] {
			i++
			continue
		}
		size := 1
		if b >= utf8.RuneSelf {
			r, n := utf8.DecodeRuneInString(s[i:])
			if (r != utf8.RuneError || n > 1) && r != '\u2028' && r != '\u2029' {
				i += n
				continue
			}
			size = n
		}
		dst = append(dst, s[start:i]...)
		switch k := strings.IndexByte("\"\\\b\f\n\r\t", b); {
		case k >= 0:
			dst = append(dst, '\\', `"\bfnrt`[k])
		case b < utf8.RuneSelf:
			dst = append(dst, '\\', 'u', '0', '0', "0123456789abcdef"[b>>4], "0123456789abcdef"[b&0xF])
		case size == 1:
			dst = append(dst, `\ufffd`...)
		default: // U+2028 or U+2029, whose last bytes are 0xA8 and 0xA9
			dst = append(dst, '\\', 'u', '2', '0', '2', '8'+s[i+2]-0xA8)
		}
		i += size
		start = i
	}
	return append(append(dst, s[start:]...), '"')
}

// reader decodes one line. Each method starts at what it reads and leaves
// r.i past it.
type reader struct {
	b     []byte
	i     int
	depth int    // objects and arrays open, bounded as encoding/json bounds them
	buf   []byte // str's unquoting buffer
}

var errEnd = errors.New("unexpected end of JSON input")

// fail reports the byte at r.i as unexpected.
func (r *reader) fail() error {
	if r.i >= len(r.b) {
		return errEnd
	}
	return fmt.Errorf("unexpected %q at offset %d", r.b[r.i], r.i)
}

func (r *reader) ws() {
	for r.i < len(r.b) && (r.b[r.i] == ' ' || r.b[r.i] == '\t' || r.b[r.i] == '\n' || r.b[r.i] == '\r') {
		r.i++
	}
}

func (r *reader) peek() byte {
	if r.i < len(r.b) {
		return r.b[r.i]
	}
	return 0
}

// top reads a whole line as one object or null; only whitespace may
// surround it.
func (r *reader) top(field func(key []byte) error) error {
	r.ws()
	if err := r.object(field); err != nil {
		return err
	}
	if r.ws(); r.i < len(r.b) {
		return r.fail()
	}
	return nil
}

// object reads an object into a struct, calling field with each key and r at
// its value; null leaves the struct alone.
func (r *reader) object(field func(key []byte) error) error {
	if r.peek() != '{' {
		return r.literal("null")
	}
	return r.seq(field)
}

// seq reads the object or array at r.i, calling elem at each member: with
// its key and r at its value in an object, with a nil key in an array.
func (r *reader) seq(elem func(key []byte) error) error {
	obj, end := r.b[r.i] == '{', byte(']')
	if obj {
		end = '}'
	}
	r.i++
	if r.depth++; r.depth > 10000 {
		return errors.New("exceeded max depth")
	}
	r.ws()
	if r.peek() == end {
		r.i++
		r.depth--
		return nil
	}
	for {
		var key []byte
		if obj {
			var err error
			if r.peek() != '"' {
				return r.fail()
			}
			if key, err = r.str(); err != nil {
				return err
			}
			if r.ws(); r.peek() != ':' {
				return r.fail()
			}
			r.i++
			r.ws()
		}
		if err := elem(key); err != nil {
			return err
		}
		r.ws()
		switch r.peek() {
		case ',':
			r.i++
			r.ws()
		case end:
			r.i++
			r.depth--
			return nil
		default:
			return r.fail()
		}
	}
}

// array reads an array into *s as encoding/json reads one into a slice: it
// decodes into the elements already there, grows the slice as needed,
// truncates it to the array's length, and makes [] a non-nil empty slice
// and null a nil one.
func array[T any](r *reader, s *[]T, elem func(*T) error) error {
	if r.peek() != '[' {
		*s = nil
		return r.literal("null")
	}
	v, n := *s, 0
	err := r.seq(func([]byte) error {
		if n == cap(v) {
			v = append(v, *new(T))
		}
		if n == len(v) {
			v = v[:n+1]
		}
		n++
		return elem(&v[n-1])
	})
	if n == 0 {
		v = []T{}
	}
	*s = v[:n]
	return err
}

func (r *reader) literal(word string) error {
	if !bytes.HasPrefix(r.b[r.i:], []byte(word)) {
		return r.fail()
	}
	r.i += len(word)
	return nil
}

// stringValue decodes a string field; null leaves *dst alone.
func (r *reader) stringValue(dst *string) error {
	if r.peek() != '"' {
		return r.literal("null")
	}
	s, err := r.str()
	*dst = string(s)
	return err
}

// integer decodes an integer field; null leaves *dst alone. A number that
// does not parse as a T (1.0, 1e2, out of range) is refused.
func integer[T int | int64 | uint64](r *reader, dst *T) error {
	if c := r.peek(); c != '-' && (c < '0' || c > '9') {
		return r.literal("null")
	}
	start := r.i
	if err := r.number(); err != nil {
		return err
	}
	lit := r.b[start:r.i]
	var n T
	var err error
	if ^T(0) > 0 {
		var u uint64
		u, err = strconv.ParseUint(string(lit), 10, 64)
		n = T(u)
	} else {
		var i int64
		i, err = strconv.ParseInt(string(lit), 10, 64)
		if n = T(i); int64(n) != i {
			err = strconv.ErrRange
		}
	}
	if err != nil {
		return fmt.Errorf("cannot decode number %s at offset %d into %T", lit, start, n)
	}
	*dst = n
	return nil
}

func (r *reader) number() error {
	if r.peek() == '-' {
		r.i++
	}
	if r.peek() == '0' {
		r.i++
	} else if !r.digits() {
		return r.fail()
	}
	if r.peek() == '.' {
		r.i++
		if !r.digits() {
			return r.fail()
		}
	}
	if c := r.peek(); c == 'e' || c == 'E' {
		if r.i++; r.peek() == '+' || r.peek() == '-' {
			r.i++
		}
		if !r.digits() {
			return r.fail()
		}
	}
	return nil
}

// digits consumes a run of digits, reporting whether there was one.
func (r *reader) digits() bool {
	start := r.i
	for r.i < len(r.b) && '0' <= r.b[r.i] && r.b[r.i] <= '9' {
		r.i++
	}
	return r.i > start
}

// skip consumes any one value.
func (r *reader) skip() error {
	switch c := r.peek(); {
	case c == '{' || c == '[':
		return r.seq(func([]byte) error { return r.skip() })
	case c == '"':
		_, err := r.str()
		return err
	case c == 't':
		return r.literal("true")
	case c == 'f':
		return r.literal("false")
	case c == '-' || '0' <= c && c <= '9':
		return r.number()
	}
	return r.literal("null")
}

// str consumes a string and returns its contents unquoted as encoding/json
// unquotes them: an escaped surrogate pair becomes its rune, a lone surrogate
// and each invalid UTF-8 byte become U+FFFD. Without escapes or invalid
// UTF-8 the result aliases the line; otherwise it is r.buf, which the next
// call overwrites.
func (r *reader) str() ([]byte, error) {
	r.i++
	start := r.i
	var out []byte // the contents so far, once they differ from the line's
	for {
		j := r.i
		for j < len(r.b) && plain[r.b[j]] {
			j++
		}
		if out != nil {
			out = append(out, r.b[r.i:j]...)
		}
		if r.i = j; j == len(r.b) || r.b[j] < ' ' {
			return nil, r.fail()
		}
		if r.b[j] == '"' {
			r.i++
			if out == nil {
				return r.b[start:j], nil
			}
			r.buf = out
			return out, nil
		}
		var rr rune
		var size int
		if r.b[j] == '\\' {
			if rr, size = r.escape(); rr < 0 {
				return nil, r.fail()
			}
		} else if rr, size = utf8.DecodeRune(r.b[j:]); rr != utf8.RuneError || size > 1 {
			if out != nil {
				out = append(out, r.b[j:j+size]...)
			}
			r.i += size
			continue
		}
		if out == nil {
			if r.buf == nil {
				r.buf = make([]byte, 0, len(r.b)-start) // one buffer per line serves every string
			}
			out = append(r.buf[:0], r.b[start:j]...)
		}
		out = utf8.AppendRune(out, rr)
		r.i += size
	}
}

// escape decodes the escape at r.i, returning its rune and length, or -1.
func (r *reader) escape() (rune, int) {
	if r.i+1 == len(r.b) {
		return -1, 0
	}
	if k := strings.IndexByte(`"\/bfnrt`, r.b[r.i+1]); k >= 0 {
		return rune("\"\\/\b\f\n\r\t"[k]), 2
	}
	rr := u4(r.b[r.i:])
	if !utf16.IsSurrogate(rr) {
		return rr, 6
	}
	if pair := utf16.DecodeRune(rr, u4(r.b[r.i+6:])); pair != utf8.RuneError {
		return pair, 12
	}
	return utf8.RuneError, 6
}

// u4 returns the rune of the \uXXXX escape s starts with, or -1.
func u4(s []byte) rune {
	if len(s) < 6 || s[0] != '\\' || s[1] != 'u' {
		return -1
	}
	n, err := strconv.ParseUint(string(s[2:6]), 16, 32)
	if err != nil {
		return -1
	}
	return rune(n)
}

// fieldName returns the name in names that key selects, as encoding/json
// selects a struct field: an exact match, else one under Unicode simple
// case folding ("SRC" selects "src", and so does "\u017frc"); "" for none.
func fieldName(key []byte, names ...string) string {
	for _, n := range names {
		if string(key) == n {
			return n
		}
	}
	for _, n := range names {
		if bytes.EqualFold(key, []byte(n)) {
			return n
		}
	}
	return ""
}

// decodeRequest decodes one request line into req.
func decodeRequest(line []byte, req *Request) error {
	r := &reader{b: line}
	return r.top(func(key []byte) error {
		switch fieldName(key, "v", "src", "cmd", "batch", "epoch", "offset") {
		case "v":
			return r.stringValue(&req.V)
		case "src":
			return r.stringValue(&req.Src)
		case "cmd":
			return r.stringValue(&req.Cmd)
		case "batch":
			return array(r, &req.Batch, r.stringValue)
		case "epoch":
			return integer(r, &req.Epoch)
		case "offset":
			return integer(r, &req.Offset)
		}
		return r.skip()
	})
}

// decodeResponse decodes one reply line into resp.
func decodeResponse(line []byte, resp *Response) error {
	r := &reader{b: line}
	return r.top(func(key []byte) error {
		switch fieldName(key, "v", "outcomes", "batch", "cache", "error", "code", "commit") {
		case "v":
			return r.stringValue(&resp.V)
		case "outcomes":
			return array(r, &resp.Outcomes, r.outcome)
		case "batch":
			return array(r, &resp.Batch, func(item *BatchItem) error {
				return r.object(func(key []byte) error {
					switch fieldName(key, "outcomes", "error", "code") {
					case "outcomes":
						return array(r, &item.Outcomes, r.outcome)
					case "error":
						return r.stringValue(&item.Error)
					case "code":
						return r.stringValue(&item.Code)
					}
					return r.skip()
				})
			})
		case "cache":
			start := r.i
			if err := r.skip(); err != nil {
				return err
			}
			return json.Unmarshal(r.b[start:r.i], &resp.Cache)
		case "error":
			return r.stringValue(&resp.Error)
		case "code":
			return r.stringValue(&resp.Code)
		case "commit":
			return integer(r, &resp.Commit)
		}
		return r.skip()
	})
}

func (r *reader) outcome(o *Outcome) error {
	return r.object(func(key []byte) error {
		switch fieldName(key, "stmt", "msg", "table", "rows") {
		case "stmt":
			return r.stringValue(&o.Stmt)
		case "msg":
			return r.stringValue(&o.Msg)
		case "table":
			return r.stringValue(&o.Table)
		case "rows":
			return integer(r, &o.Rows)
		}
		return r.skip()
	})
}
