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
	"os"
	"path"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
)

// modulePath is this module's import path.
const modulePath = "github.com/vanetlab/relroute"

// testOnlyReached is the one exception to TestEveryDeclarationIsReached: a
// declaration no run reaches that a test outside its package reads. Each key
// is "package.Name" or "package.Type.Method"; its value is the test file,
// relative to the repository root, that needs it. An entry whose
// declaration is gone, or is now reached, fails the lint.
var testOnlyReached = map[string]string{
	"core.TicketRouter.ActivePath": "internal/core/ticket_test.go",
	"rsu.UnitRouter.Buffered":      "internal/routing/rsu/rsu_test.go",
	"dsr.Router.CacheLen":          "internal/routing/dsr/dsr_test.go",
	"dsdv.Router.Table":            "internal/routing/dsdv/dsdv_test.go",
	"car.DensityMap.Density":       "internal/routing/car/car_test.go",
	"linkstate.Monitor.MemoStats":  "internal/netstack/actives_test.go",
	"linkstate.Monitor.FullSweeps": "internal/netstack/actives_test.go",
	"radio.Cache.SetEagerMode":     "internal/netstack/radiosweep_test.go",
	"radio.EagerAuto":              "internal/netstack/radiosweep_test.go",
	"channel.Shadowing.Receipt":    "internal/mac/rngorder_test.go",
	"netstack.World.Joins":         "internal/scenario/providers_test.go",
	"netstack.World.Leaves":        "internal/scenario/providers_test.go",
}

// TestEveryDeclarationIsReached keeps code that no run calls out of the
// module. Every top-level declaration of a non-test file — func, method,
// type, var or const, exported or not — must be reached by the non-test code
// of the module or of bench/ from its roots: the main and init functions,
// and the exported declarations of package relroute. A reference is a use
// the type checker records; a blank assertion var _ I = T{} is not one. A
// method is also reached when its receiver type is, if its name is a method
// of some interface type in a loaded package (the standard library
// included), since a call through that interface may land on it.
// internal/routing/routetest, a helper package for tests, is exempt.
//
// What only tests reach is either dead or a test's hook: delete it, or let
// the test read the same value another way. The few accessors that tests
// in other packages read are listed in testOnlyReached.
func TestEveryDeclarationIsReached(t *testing.T) {
	tree := loadTree(t)
	type decl struct {
		node ast.Node // the FuncDecl, TypeSpec or ValueSpec
		pkg  *checkedPkg
		dir  string
	}
	decls := map[types.Object]decl{}
	methods := map[*types.TypeName][]*types.Func{} // by receiver type
	ifaceMethods := map[string]bool{}              // names of interface methods
	addInterface := func(typ types.Type) {
		if it, ok := typ.Underlying().(*types.Interface); ok {
			for i := 0; i < it.NumMethods(); i++ {
				ifaceMethods[it.Method(i).Name()] = true
			}
		}
	}
	var roots []types.Object
	for _, dir := range tree.dirs {
		c := tree.pkgs[dir]
		main := c.pkg.Name() == "main"
		for _, f := range c.files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					fn := c.info.Defs[d.Name].(*types.Func)
					decls[fn] = decl{d, c, dir}
					if d.Recv != nil {
						recv := receiverOf(fn)
						methods[recv] = append(methods[recv], fn)
						if dir == "." && fn.Exported() && recv.Exported() {
							roots = append(roots, fn)
						}
					} else if d.Name.Name == "init" || (main && d.Name.Name == "main") || (dir == "." && fn.Exported()) {
						roots = append(roots, fn)
					}
				case *ast.GenDecl:
					for _, s := range d.Specs {
						var names []*ast.Ident
						switch s := s.(type) {
						case *ast.TypeSpec:
							names = []*ast.Ident{s.Name}
						case *ast.ValueSpec:
							names = s.Names
						}
						for _, id := range names {
							if id.Name == "_" {
								continue
							}
							o := c.info.Defs[id]
							decls[o] = decl{s, c, dir}
							if dir == "." && o.Exported() {
								roots = append(roots, o)
							}
						}
					}
				}
			}
			ast.Inspect(f, func(n ast.Node) bool {
				if it, ok := n.(*ast.InterfaceType); ok {
					addInterface(c.info.TypeOf(it))
				}
				return true
			})
		}
	}
	addInterface(types.Universe.Lookup("error").Type())
	seen := map[*types.Package]bool{}
	var visit func(*types.Package)
	visit = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		for _, name := range p.Scope().Names() {
			if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok {
				addInterface(tn.Type())
			}
		}
		for _, imp := range p.Imports() {
			visit(imp)
		}
	}
	for _, c := range tree.pkgs {
		visit(c.pkg)
	}

	reached := map[types.Object]bool{}
	queue := []types.Object{}
	reach := func(o types.Object) {
		switch x := o.(type) {
		case *types.Func:
			o = x.Origin()
		case *types.TypeName:
			if n, ok := x.Type().(*types.Named); ok {
				o = n.Origin().Obj()
			}
		}
		if _, ok := decls[o]; ok && !reached[o] {
			reached[o] = true
			queue = append(queue, o)
		}
	}
	for _, o := range roots {
		reach(o)
	}
	for len(queue) > 0 {
		o := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		d := decls[o]
		ast.Inspect(d.node, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if u := d.pkg.info.Uses[id]; u != nil {
					reach(u)
				}
			}
			return true
		})
		switch o := o.(type) {
		case *types.Const: // a const repeating its group's type and iota
			if n, ok := o.Type().(*types.Named); ok {
				reach(n.Obj())
			}
		case *types.TypeName:
			for _, m := range methods[o] {
				if ifaceMethods[m.Name()] {
					reach(m)
				}
			}
		}
	}
	type site struct{ where, dir string }
	unreached := map[string]site{} // by qualified name
	for o, d := range decls {
		if reached[o] || d.dir == "internal/routing/routetest" {
			continue
		}
		name := o.Pkg().Name() + "." + o.Name()
		if fn, ok := o.(*types.Func); ok && fn.Type().(*types.Signature).Recv() != nil {
			name = o.Pkg().Name() + "." + receiverOf(fn).Name() + "." + o.Name()
		}
		at := tree.fset.Position(o.Pos())
		file, _ := filepath.Rel(tree.root, at.Filename)
		unreached[name] = site{fmt.Sprintf("%s:%d", filepath.ToSlash(file), at.Line), d.dir}
	}
	var report []string
	for name, s := range unreached {
		test, ok := testOnlyReached[name]
		if !ok {
			report = append(report, fmt.Sprintf("%s: %s is reached by no run: delete it, or list it in testOnlyReached with the test outside its package that reads it", s.where, name))
			continue
		}
		if !readsFromOutside(tree.root, test, s.dir, name) {
			report = append(report, fmt.Sprintf("%s: testOnlyReached names %s for %s, which does not read it from outside its package", s.where, test, name))
		}
	}
	for name := range testOnlyReached {
		if _, ok := unreached[name]; !ok {
			report = append(report, fmt.Sprintf("testOnlyReached lists %s, which is gone or now reached: drop the entry", name))
		}
	}
	slices.Sort(report)
	for _, r := range report {
		t.Error(r)
	}
}

// readsFromOutside reports whether the test file names the declaration
// qualified (pkg.Name or pkg.Type.Method) from outside the package in dir:
// from another directory, or from the external test package beside it.
func readsFromOutside(root, test, dir, qualified string) bool {
	if !strings.HasSuffix(test, "_test.go") {
		return false
	}
	src, err := os.ReadFile(filepath.Join(root, test))
	if err != nil {
		return false
	}
	f, err := parser.ParseFile(token.NewFileSet(), test, src, parser.PackageClauseOnly)
	if err != nil {
		return false
	}
	pkg, _, _ := strings.Cut(qualified, ".")
	outside := path.Dir(test) != dir || f.Name.Name == pkg+"_test"
	return outside && strings.Contains(string(src), qualified[strings.LastIndexByte(qualified, '.')+1:])
}

// receiverOf is the named type a method is declared on.
func receiverOf(fn *types.Func) *types.TypeName {
	recv := fn.Type().(*types.Signature).Recv().Type()
	if p, ok := recv.(*types.Pointer); ok {
		recv = p.Elem()
	}
	return recv.(*types.Named).Origin().Obj()
}

// TestNoTestOnlySettings keeps the settings below the routers constants.
// Every exported field of the structs that configure a scenario, a link
// estimator, a world, a campaign, a vehicle scatter or an experiment must be
// written by some non-test file of the module or of bench/, other than the
// type's own setDefaults or withDefaults. A write is a keyed field of a
// composite literal, with its type written or elided, or the target of an
// assignment. A field that only tests write is a setting no run can change,
// and its value belongs in a constant. TestEveryDeclarationIsReached does
// the same for declarations, which covers the routers' functional options.
func TestNoTestOnlySettings(t *testing.T) {
	settings := map[string][]string{ // package → struct types
		"internal/scenario":  {"Options", "GridTopology", "OpenTraffic"},
		"internal/linkstate": {"Config"},
		"internal/netstack":  {"Config"},
		"internal/runner":    {"Pool", "Spec", "Run"},
		"internal/mobility":  {"PopulateOptions"},
		"internal/harness":   {"Config"},
	}
	tree := loadTree(t)
	type setting struct{ owner, field string } // "pkg.Type", "Field"
	declared := map[*types.Var]setting{}
	for dir, names := range settings {
		c := tree.pkgs[dir]
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
	for _, dir := range tree.dirs {
		c := tree.pkgs[dir]
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
	}
	var unset []string
	for v, s := range declared {
		if !written[v] {
			at := tree.fset.Position(v.Pos())
			file, _ := filepath.Rel(tree.root, at.Filename)
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

// loadTree type-checks every package of the module and of bench/ once, for
// all the lints that read it (about 1 s, most of it the standard library).
func loadTree(t *testing.T) *sourceTree {
	tree, err := checkedTree()
	if err != nil {
		t.Fatal(err)
	}
	return tree
}

var checkedTree = sync.OnceValues(func() (*sourceTree, error) {
	root, err := filepath.Abs(".")
	if err != nil {
		return nil, err
	}
	tree := &sourceTree{root: root, fset: token.NewFileSet(), pkgs: map[string]*checkedPkg{}}
	tree.std = importer.ForCompiler(tree.fset, "source", nil)
	err = filepath.WalkDir(root, func(file string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if file != root && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
			return filepath.SkipDir
		}
		rel, _ := filepath.Rel(root, file)
		c, err := tree.check(filepath.ToSlash(rel))
		if c != nil {
			tree.dirs = append(tree.dirs, path.Clean(filepath.ToSlash(rel)))
		}
		return err
	})
	if err == nil && tree.pkgs["internal/scenario"] == nil {
		err = fmt.Errorf("found no internal/scenario under %s — run from the repository root", root)
	}
	return tree, err
})

// sourceTree type-checks the packages of the module and of bench/ from
// source, each once, and serves them as imports; the standard library comes
// from std. bench/ is a module of its own whose path is this module's plus
// "/bench", and it replaces this module with "..", so every import path
// below the module is its directory.
type sourceTree struct {
	root string
	fset *token.FileSet
	std  types.Importer
	pkgs map[string]*checkedPkg // by directory relative to root
	dirs []string               // every package's directory, in walk order
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
	c := &checkedPkg{info: &types.Info{
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
		Types: map[ast.Expr]types.TypeAndValue{},
	}}
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
