package golden

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// recorder is a testing.TB that keeps Check's report instead of failing.
type recorder struct {
	testing.TB
	msg string
}

func (r *recorder) Helper() {}

func (r *recorder) Errorf(format string, args ...any) { r.msg += fmt.Sprintf(format, args...) }

// check runs Check on a recorder and returns what it reported, "" on a pass.
func check(t *testing.T, path, got string) string {
	r := &recorder{TB: t}
	Check(r, path, []byte(got))
	return r.msg
}

func TestMismatchNamesFileAndFirstLine(t *testing.T) {
	t.Setenv(Env, "")
	path := filepath.Join(t.TempDir(), "x.golden.txt")
	if err := os.WriteFile(path, []byte("a\nb\nc\nd\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		got  string
		want []string // substrings of the report; none for a pass
	}{
		{"a\nb\nc\nd\n", nil},
		{"a\nB\nc\nD\n", []string{path + ":2:", "2 differing lines", `want "b\n"`, `got "B\n"`, Env}},
		{"a\nb\nc\n", []string{path + ":4:", "1 differing lines", `want "d\n"`, "got (end of file)"}},
		{"a\nb\nc\nd", []string{path + ":4:", `want "d\n"`, `got "d"`}},
	} {
		msg := check(t, path, c.got)
		if (msg == "") != (c.want == nil) {
			t.Errorf("got %q: report %q", c.got, msg)
		}
		for _, w := range c.want {
			if !strings.Contains(msg, w) {
				t.Errorf("got %q: report lacks %q:\n%s", c.got, w, msg)
			}
		}
	}
}

func TestMissingFileNamesTheSwitch(t *testing.T) {
	t.Setenv(Env, "")
	path := filepath.Join(t.TempDir(), "absent.golden.txt")
	if msg := check(t, path, "x\n"); !strings.Contains(msg, path) || !strings.Contains(msg, Env+"=1") {
		t.Errorf("missing file: report %q names neither the file nor the switch", msg)
	}
}

func TestSwitchRewritesTheFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "x.golden.txt")
	t.Setenv(Env, "1")
	if msg := check(t, path, "new\n"); msg != "" {
		t.Fatalf("under the switch: %s", msg)
	}
	t.Setenv(Env, "")
	if msg := check(t, path, "new\n"); msg != "" {
		t.Errorf("the rewritten file does not pass: %s", msg)
	}
}

// TestNoPackageUpdateFlag: Env is the one re-record switch, so no test file
// in the module declares a package-level "update" flag of its own.
func TestNoPackageUpdateFlag(t *testing.T) {
	fset := token.NewFileSet()
	err := filepath.WalkDir("../..", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return err
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		for _, decl := range f.Decls {
			if gd, ok := decl.(*ast.GenDecl); ok && gd.Tok == token.VAR {
				ast.Inspect(gd, func(n ast.Node) bool {
					if call, ok := n.(*ast.CallExpr); ok && strings.HasPrefix(types.ExprString(call.Fun), "flag.") &&
						slices.ContainsFunc(call.Args, func(a ast.Expr) bool { return types.ExprString(a) == `"update"` }) {
						t.Errorf("%s: package-level flag \"update\"; compare through golden.Check", fset.Position(n.Pos()))
					}
					return true
				})
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
