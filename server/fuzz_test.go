package server

import (
	"encoding/json"
	"reflect"
	"testing"
)

// FuzzDecodeRequest drives the decode handle applies to every request line
// before anything runs: JSON into a Request, then the version check. No line
// may panic, and a line that decodes re-encodes to one that decodes to an
// equal Request, which the version check judges the same way. Seeds are the
// lines server_test.go sends: its statements, commands and batches as the
// client encodes them, the raw non-JSON lines, and the version probes.
func FuzzDecodeRequest(f *testing.F) {
	for _, src := range []string{
		`retrieve (f.name, f.rank)`,
		`explain retrieve (f.name, f.rank)`,
		`append to r (x = "hello")`,
		`create temporal relation log (client = string, seq = int) key (client, seq)`,
		`range of c is counter`,
	} {
		f.Add(encodeSeed(f, Request{V: ProtoVersion, Src: src}))
	}
	f.Add(encodeSeed(f, Request{V: ProtoVersion, Cmd: "cache clear"}))
	f.Add(encodeSeed(f, Request{V: ProtoVersion, Cmd: "batch", Batch: []string{`create static relation v (x = int)`, `retrieve (v.x)`}}))
	f.Add(encodeSeed(f, Request{V: "1.1", Cmd: "repl", Epoch: 3, Offset: 4096}))
	for _, line := range []string{
		"this is not json",
		"{not json",
		`{"v": "9.0", "src": "retrieve (v.x)"}`,
		`{"src": "create static relation legacy (x = int)"}`,
		`{"v": "1.9", "src": "create static relation minor (x = int)"}`,
	} {
		f.Add([]byte(line))
	}
	f.Fuzz(func(t *testing.T, line []byte) {
		var req Request
		if err := json.Unmarshal(line, &req); err != nil {
			return
		}
		ok := versionOK(req.V)
		b, err := json.Marshal(req)
		if err != nil {
			t.Fatalf("decoded %q, cannot re-encode: %v", line, err)
		}
		var again Request
		if err := json.Unmarshal(b, &again); err != nil {
			t.Fatalf("re-encoded %q as %q, which does not decode: %v", line, b, err)
		}
		if len(req.Batch) == 0 {
			req.Batch = nil // an empty batch is omitted on the wire
		}
		if !reflect.DeepEqual(req, again) {
			t.Fatalf("%q decodes to %+v, its re-encoding %q to %+v", line, req, b, again)
		}
		if versionOK(again.V) != ok {
			t.Fatalf("version %q accepted %v, re-decoded %v", req.V, ok, !ok)
		}
	})
}

func encodeSeed(f *testing.F, req Request) []byte {
	b, err := json.Marshal(req)
	if err != nil {
		f.Fatal(err)
	}
	return b
}
