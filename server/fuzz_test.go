package server

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"tdb/internal/qcache"
)

// trickyLines are lines on which a hand-written JSON codec is easy to get
// wrong: case-folded and duplicate keys, nulls, unknown values of every
// type, escapes and surrogates, invalid UTF-8, numbers an integer field must
// refuse, nesting, and trailing bytes. Both fuzz targets start from them.
var trickyLines = []string{
	`null`, ` null `, `{}`, `[]`, `"src"`, `1`, `true`, ``, ` `, `{`, `{"src":"a"}x`, `{"src":"a"} `,
	`{"SRC":"upper","Src":"mixed"}`, "{\"ſrc\":\"long s\"}", "{\"Key\":1}", `{"\u017frc":"escaped long s"}`, `{"CAChe":null,"Commit":3}`,
	`{"src":"a","src":null}`, `{"src":null}`, `{"v":1}`, `{"v":true}`, `{"v":{}}`, `{"v":[]}`,
	`{"batch":["a","b"],"batch":[null]}`, `{"batch":[]}`, `{"batch":null}`, `{"batch":"a"}`, `{"batch":[1]}`,
	`{"epoch":1e2}`, `{"epoch":1.0}`, `{"epoch":-0}`, `{"epoch":-1}`, `{"offset":-0}`, `{"offset":9223372036854775808}`,
	`{"epoch":18446744073709551615}`, `{"offset":01}`, `{"offset":-}`, `{"offset":1.}`, `{"offset":1e}`,
	`{"x":{"a":[1,2.5e-3,"s",true,false,null,{}]},"src":"after unknown"}`, `{"x":[,]}`, `{"x":{"a"}}`,
	`{"src":"é😀 \ud800 \udc00x \ud800A  "}`, `{"src":"\"\\\/\b\f\n\r\t"}`,
	"{\"src\":\"bad \xff\xfe utf8 \xe2\x82\"}", "{\"src\":\"ctl \x01\"}", "{\"src\":\"\xef\xbf\xbd \xe2\x80\xa8 \xe2\x80\xa9 \x7f\"}", `{"src":"\x"}`, `{"src":"\u12"}`,
	`{"src":"<script>&amp;</script>"}`, "\t{ \"src\" :\r\n\"ws\" }\n",
	`{"outcomes":[{"stmt":"a","msg":"m"}],"outcomes":[{"stmt":"b"}]}`, `{"outcomes":[null,{"rows":null}]}`,
	`{"outcomes":[{"rows":1.5}]}`, `{"outcomes":{}}`, `{"batch":[{"outcomes":[{"stmt":"x"}]},null]}`,
	`{"cache":null}`, `{"cache":{"hits":1,"HITS":2,"other":[]}}`, `{"cache":"x"}`, `{"cache":{"hits":-1}}`,
	`{"commit":-5}`, `{"commit":"5"}`, `{"code":"busy","error":"e"}`,
	`{"x":[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]}`,
	// The object and 9 999 arrays nest to encoding/json's limit; one more
	// array passes it.
	`{"x":` + strings.Repeat("[", 9999) + strings.Repeat("]", 9999) + `}`,
	`{"x":` + strings.Repeat("[", 10000) + strings.Repeat("]", 10000) + `}`,
}

// FuzzDecodeRequest compares the request reader with encoding/json on any
// line: both must accept or both refuse it, and on acceptance decode the same
// Request, which appendRequest encodes to json.Marshal's bytes and which
// decodes back from them. The line as a raw source string must encode to
// json.Marshal's bytes too. Seeds are the lines server_test.go sends, the
// raw non-JSON lines, the version probes and trickyLines.
func FuzzDecodeRequest(f *testing.F) {
	for _, src := range []string{
		`retrieve (f.name, f.rank)`,
		`explain retrieve (f.name, f.rank)`,
		`append to r (x = "hello")`,
		`create temporal relation log (client = string, seq = int) key (client, seq)`,
		`range of c is counter`,
	} {
		f.Add(marshalSeed(f, Request{V: ProtoVersion, Src: src}))
	}
	f.Add(marshalSeed(f, Request{V: ProtoVersion, Cmd: "cache clear"}))
	f.Add(marshalSeed(f, Request{V: ProtoVersion, Cmd: "batch", Batch: []string{`create static relation v (x = int)`, `retrieve (v.x)`}}))
	f.Add(marshalSeed(f, Request{V: "1.1", Cmd: "repl", Epoch: 3, Offset: 4096}))
	for _, line := range append([]string{
		"this is not json",
		"{not json",
		`{"v": "9.0", "src": "retrieve (v.x)"}`,
		`{"src": "create static relation legacy (x = int)"}`,
		`{"v": "1.9", "src": "create static relation minor (x = int)"}`,
	}, trickyLines...) {
		f.Add([]byte(line))
	}
	f.Fuzz(func(t *testing.T, line []byte) {
		raw := Request{Src: string(line), Batch: []string{string(line)}}
		if want := marshalLine(t, &raw); !bytes.Equal(appendRequest(nil, &raw), want) {
			t.Fatalf("%q encodes as %q, json.Marshal as %q", line, appendRequest(nil, &raw), want)
		}
		var got, want Request
		err, wantErr := decodeRequest(line, &got), json.Unmarshal(line, &want)
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("%q: reader says %v, encoding/json %v", line, err, wantErr)
		}
		if err != nil {
			return
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%q decodes to %#v, encoding/json to %#v", line, got, want)
		}
		enc := appendRequest(nil, &got)
		if b := marshalLine(t, &want); !bytes.Equal(enc, b) {
			t.Fatalf("%#v encodes as %q, json.Marshal as %q", got, enc, b)
		}
		var again Request
		if err := decodeRequest(enc, &again); err != nil {
			t.Fatalf("re-encoded %q as %q, which does not decode: %v", line, enc, err)
		}
		if len(got.Batch) == 0 {
			got.Batch = nil // an empty batch is omitted on the wire
		}
		if !reflect.DeepEqual(got, again) {
			t.Fatalf("%q decodes to %+v, its re-encoding %q to %+v", line, got, enc, again)
		}
	})
}

// FuzzDecodeResponse is FuzzDecodeRequest for reply lines: the same
// accept/reject decision and Response as encoding/json, and appendResponse
// equal to json.Marshal on what was decoded. Seeds are the kinds of reply
// server_test.go reads — a retrieve's table, a batch with a failing item, a
// cache report, busy, version and malformed refusals — and trickyLines.
func FuzzDecodeResponse(f *testing.F) {
	table := "+--------+-----------+------------++-------------+-----------+\n" +
		"| name   | rank      | valid from || trans start | trans end |\n" +
		"| Merrie | associate | 09/01/77   || 01/01/85    | ∞         |\n"
	for _, resp := range []Response{
		{V: ProtoVersion, Outcomes: []Outcome{{Stmt: "range", Msg: "f ranges over faculty"}, {Stmt: "retrieve", Table: table, Rows: 1}}, Commit: 473385600},
		{V: ProtoVersion, Batch: []BatchItem{{Outcomes: []Outcome{{Stmt: "append", Msg: "1 tuple appended"}}}, {Error: "tquel: 1:8: no relation \"nope\"", Code: CodeReadOnly}},
			Error: "batch statement 1: tquel: 1:8: no relation \"nope\"", Code: CodeReadOnly},
		{V: ProtoVersion, Cache: &qcache.Stats{Hits: 1, Inserts: 1, Refused: 1, Entries: 1, Bytes: 880, MaxBytes: 64 << 20}},
		{V: ProtoVersion, Code: CodeBusy, Error: "server busy: connection limit reached, retry later"},
		{V: ProtoVersion, Code: CodeVersion, Error: `unsupported protocol version "9.0" (server speaks 1.2)`},
		{V: ProtoVersion, Code: CodeMalformed, Error: "malformed request: invalid character 'h' looking for beginning of value"},
	} {
		b, err := json.Marshal(resp)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	for _, line := range trickyLines {
		f.Add([]byte(line))
	}
	f.Fuzz(func(t *testing.T, line []byte) {
		var got, want Response
		err, wantErr := decodeResponse(line, &got), json.Unmarshal(line, &want)
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("%q: reader says %v, encoding/json %v", line, err, wantErr)
		}
		if err != nil {
			return
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%q decodes to %#v, encoding/json to %#v", line, got, want)
		}
		if enc, b := appendResponse(nil, &got), marshalLine(t, &want); !bytes.Equal(enc, b) {
			t.Fatalf("%#v encodes as %q, json.Marshal as %q", got, enc, b)
		}
	})
}

func marshalSeed(f *testing.F, req Request) []byte {
	b, err := json.Marshal(req)
	if err != nil {
		f.Fatal(err)
	}
	return b
}

func marshalLine(t *testing.T, v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}
