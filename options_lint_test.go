package relroute_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
	"unicode"
)

// TestNoTestOnlyOptions keeps protocol parameters constants. An exported
// functional option — a top-level func With… under internal/ — must be
// referenced from a non-test file outside its own package (a scenario, an
// experiment, a CLI, another protocol); one that only tests reach is a
// setting no run can change, and its value belongs in a constant of its
// package.
//
// It works on syntax alone, as TestNoMapRangeOnTheEventPath does: a
// reference is a selector pkg.WithX whose pkg is the file's name for the
// option's import path. bench/ is a module of its own and is not read.
func TestNoTestOnlyOptions(t *testing.T) {
	const module = "github.com/vanetlab/relroute"
	type option struct{ pkg, name string }
	declared := map[option]string{} // → where
	used := map[option]bool{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(file string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if file != "." && (file == "bench" || d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(file, ".go") || strings.HasSuffix(file, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, file, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(file))
		if strings.HasPrefix(dir, "internal/") {
			for _, decl := range f.Decls {
				if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv == nil && isOption(fn.Name.Name) {
					declared[option{module + "/" + dir, fn.Name.Name}] = fset.Position(fn.Pos()).String()
				}
			}
		}
		imports := map[string]string{} // the file's name for a package → its import path
		for _, imp := range f.Imports {
			p, _ := strconv.Unquote(imp.Path.Value)
			name := path.Base(p)
			if imp.Name != nil {
				name = imp.Name.Name
			}
			imports[name] = p
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok && isOption(sel.Sel.Name) {
				if x, ok := sel.X.(*ast.Ident); ok && imports[x.Name] != "" {
					used[option{imports[x.Name], sel.Sel.Name}] = true
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(declared) == 0 {
		t.Fatal("found no option under internal/ — run from the repository root")
	}
	var unused []string
	for o, where := range declared {
		if !used[o] {
			unused = append(unused, where+": "+path.Base(o.pkg)+"."+o.name)
		}
	}
	slices.Sort(unused)
	for _, u := range unused {
		t.Errorf("%s is set only by tests, or by nobody: make its value a constant of its package", u)
	}
}

// isOption matches a functional option's name: With, then a capital.
func isOption(name string) bool {
	return len(name) > 4 && strings.HasPrefix(name, "With") && unicode.IsUpper(rune(name[4]))
}
