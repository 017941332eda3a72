package relroute_test

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
	"unicode"
)

// modulePath is this module's import path.
const modulePath = "github.com/vanetlab/relroute"

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
					declared[option{modulePath + "/" + dir, fn.Name.Name}] = fset.Position(fn.Pos()).String()
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

// TestNoTestOnlySettings is TestNoTestOnlyOptions for the settings below the
// routers. Every exported field of the structs that configure a scenario, a
// link estimator, a world, a campaign, a vehicle scatter or an experiment
// must be written by some non-test file of the module or of bench/, other
// than the type's own setDefaults or withDefaults. A write is a keyed field
// of a composite literal, with its type written or elided, or the target of
// an assignment. A field that only tests write is a setting no run can
// change, and its value belongs in a constant.
//
// It type-checks every package from source with go/types. bench/ is a module
// of its own whose path is this module's plus "/bench", and it replaces this
// module with "..", so every import path below the module is its directory.
func TestNoTestOnlySettings(t *testing.T) {
	settings := map[string][]string{ // package → struct types
		"internal/scenario":  {"Options", "GridTopology", "OpenTraffic"},
		"internal/linkstate": {"Config"},
		"internal/netstack":  {"Config"},
		"internal/runner":    {"Pool", "Spec", "Run"},
		"internal/mobility":  {"PopulateOptions"},
		"internal/harness":   {"Config"},
	}
	root, err := filepath.Abs(".")
	if err != nil {
		t.Fatal(err)
	}
	tree := &sourceTree{root: root, fset: token.NewFileSet(), pkgs: map[string]*checkedPkg{}}
	tree.std = importer.ForCompiler(tree.fset, "source", nil)

	type setting struct{ owner, field string } // "pkg.Type", "Field"
	declared := map[*types.Var]setting{}
	for dir, names := range settings {
		c, err := tree.check(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range names {
			st := c.pkg.Scope().Lookup(name).Type().Underlying().(*types.Struct)
			for i := 0; i < st.NumFields(); i++ {
				if f := st.Field(i); f.Exported() {
					declared[f] = setting{path.Base(dir) + "." + name, f.Name()}
				}
			}
		}
	}
	written := map[*types.Var]bool{}
	err = filepath.WalkDir(root, func(file string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if file != root && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
			return filepath.SkipDir
		}
		rel, _ := filepath.Rel(root, file)
		c, err := tree.check(filepath.ToSlash(rel))
		if c == nil {
			return err
		}
		for _, f := range c.files {
			for _, decl := range f.Decls {
				defaults := "" // the type whose own defaults decl fills in
				if recv := defaultsOf(decl); recv != "" {
					defaults = path.Base(c.pkg.Path()) + "." + recv
				}
				ast.Inspect(decl, func(n ast.Node) bool {
					for _, id := range writtenFields(n) {
						v, _ := c.info.Uses[id].(*types.Var)
						if s, ok := declared[v]; ok && s.owner != defaults {
							written[v] = true
						}
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
	var unset []string
	for v, s := range declared {
		if !written[v] {
			at := tree.fset.Position(v.Pos())
			file, _ := filepath.Rel(root, at.Filename)
			unset = append(unset, fmt.Sprintf("%s:%d: %s.%s", filepath.ToSlash(file), at.Line, s.owner, s.field))
		}
	}
	slices.Sort(unset)
	for _, u := range unset {
		t.Errorf("%s is set only by tests, or by nobody: make its value a constant", u)
	}
}

// writtenFields returns the field names n writes: the keys of a keyed
// composite literal, or the selector an assignment or ++/-- targets.
func writtenFields(n ast.Node) []*ast.Ident {
	var out []*ast.Ident
	switch n := n.(type) {
	case *ast.CompositeLit:
		for _, e := range n.Elts {
			if kv, ok := e.(*ast.KeyValueExpr); ok {
				if id, ok := kv.Key.(*ast.Ident); ok {
					out = append(out, id)
				}
			}
		}
	case *ast.AssignStmt:
		for _, lhs := range n.Lhs {
			if sel, ok := lhs.(*ast.SelectorExpr); ok {
				out = append(out, sel.Sel)
			}
		}
	case *ast.IncDecStmt:
		if sel, ok := n.X.(*ast.SelectorExpr); ok {
			out = append(out, sel.Sel)
		}
	}
	return out
}

// defaultsOf names the receiver type of a setDefaults or withDefaults
// method, and is "" for any other declaration.
func defaultsOf(decl ast.Decl) string {
	fn, ok := decl.(*ast.FuncDecl)
	if !ok || fn.Recv == nil || (fn.Name.Name != "setDefaults" && fn.Name.Name != "withDefaults") {
		return ""
	}
	recv := fn.Recv.List[0].Type
	if star, ok := recv.(*ast.StarExpr); ok {
		recv = star.X
	}
	return recv.(*ast.Ident).Name
}

// sourceTree type-checks the packages of the module and of bench/ from
// source, each once, and serves them as imports; the standard library comes
// from std.
type sourceTree struct {
	root string
	fset *token.FileSet
	std  types.Importer
	pkgs map[string]*checkedPkg // by directory relative to root
}

type checkedPkg struct {
	pkg   *types.Package
	files []*ast.File
	info  *types.Info
}

func (s *sourceTree) Import(p string) (*types.Package, error) {
	rel, ok := strings.CutPrefix(p, modulePath)
	if !ok || (rel != "" && rel[0] != '/') {
		return s.std.Import(p)
	}
	c, err := s.check(strings.TrimPrefix(rel, "/"))
	if err == nil && c == nil {
		err = fmt.Errorf("import %s: no Go files", p)
	}
	if err != nil {
		return nil, err
	}
	return c.pkg, nil
}

// check type-checks the package in dir (relative to root, "" or "." for the
// root). A directory without Go files is nil, nil.
func (s *sourceTree) check(dir string) (*checkedPkg, error) {
	dir = path.Clean(dir)
	if c, ok := s.pkgs[dir]; ok {
		return c, nil
	}
	bp, err := build.Default.ImportDir(filepath.Join(s.root, dir), 0)
	if _, none := err.(*build.NoGoError); none {
		return nil, nil
	} else if err != nil {
		return nil, err
	}
	c := &checkedPkg{info: &types.Info{Uses: map[*ast.Ident]types.Object{}}}
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(s.fset, filepath.Join(bp.Dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		c.files = append(c.files, f)
	}
	conf := types.Config{Importer: s}
	if c.pkg, err = conf.Check(path.Join(modulePath, dir), s.fset, c.files, c.info); err != nil {
		return nil, err
	}
	s.pkgs[dir] = c
	return c, nil
}
