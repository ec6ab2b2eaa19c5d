package tdb

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// The cache budget's precedence: a non-zero Options.CacheBytes, then the
// environment parsed as an int64 (zero and negatives included, since
// TDB_CACHE_BYTES=0 is the cache-off ablation), then the default, which a
// malformed value also falls back to.
func TestCacheBytesPrecedence(t *testing.T) {
	for _, c := range []struct {
		env  string
		opt  int64
		want int64
	}{
		{"", 0, DefaultCacheBytes},
		{"-3", 0, -3},
		{"0", 0, 0},
		{"bogus", 0, DefaultCacheBytes},
		{"1234", 99, 99},
		{"1234", -1, -1},
	} {
		t.Setenv(EnvCacheBytes, c.env)
		if got := resolveCacheBytes(c.opt); got != c.want {
			t.Errorf("%s=%q, CacheBytes %d: budget %d, want %d", EnvCacheBytes, c.env, c.opt, got, c.want)
		}
	}
}

// The knob count is a tracked number: every TDB_* name a non-test Go source
// spells out must be the one knob, so a new one must argue its case here.
// Config renders it with its default marked, or the environment's value.
func TestEnvKnobs(t *testing.T) {
	name := regexp.MustCompile(`^TDB_[A-Z0-9_]+$`)
	seen := map[string]bool{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != ".":
			return filepath.SkipDir
		case d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go"):
			return nil
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, 0)
		if err != nil {
			return err
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if lit, ok := n.(*ast.BasicLit); ok && lit.Kind == token.STRING {
				if s, err := strconv.Unquote(lit.Value); err == nil && name.MatchString(s) {
					seen[s] = true
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for n := range seen {
		names = append(names, n)
	}
	sort.Strings(names)
	if fmt.Sprint(names) != fmt.Sprint([]string{EnvCacheBytes}) {
		t.Errorf("non-test sources read the knobs %v, want only %s", names, EnvCacheBytes)
	}

	t.Setenv(EnvCacheBytes, "")
	if got := Config(); len(got) != 1 || got[EnvCacheBytes] != "67108864 (default)" {
		t.Errorf("Config with the knob unset = %v", got)
	}
	t.Setenv(EnvCacheBytes, "1234")
	if got := Config(); got[EnvCacheBytes] != "1234" {
		t.Errorf("Config with the knob set = %v", got)
	}
}

// The knob has a row in the operator-facing table in docs/config.md, with
// its kind and default, so the doc cannot silently fall behind the code.
func TestConfigDocTable(t *testing.T) {
	doc, err := os.ReadFile("docs/config.md")
	if err != nil {
		t.Fatal(err)
	}
	row := fmt.Sprintf("| `%s` | int64 | %d |", EnvCacheBytes, DefaultCacheBytes)
	if !strings.Contains(string(doc), row) {
		t.Errorf("docs/config.md missing or stale row for %s\nwant prefix: %s", EnvCacheBytes, row)
	}
}
