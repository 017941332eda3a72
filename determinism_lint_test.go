package relroute_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

// lintedTrees are the packages whose code runs on the event path: a map
// ranged there while sending, scheduling, numbering or drawing would make
// the run follow Go's per-process map seed, which no golden can see.
var lintedTrees = []string{
	"internal/netstack", "internal/faults", "internal/scenario",
	"internal/harness", "internal/routing", "internal/core",
}

// TestNoMapRangeOnTheEventPath parses every non-test file under
// lintedTrees and fails on a range over a map whose body calls Send*,
// After, Every, Ticker, NewUID or a *rand.Rand method, directly or through
// another linted function. The fix is always the same: collect the keys,
// sort them, range the slice.
//
// It works on syntax alone, so "a map" and "a *rand.Rand" mean "a name
// some linted file declares or makes as one", and "through" means "a
// linted function of that bare name does". That can only over-report;
// rename the offender's namesake if it ever does.
func TestNoMapRangeOnTheEventPath(t *testing.T) {
	fset := token.NewFileSet()
	var files []*ast.File
	for _, tree := range lintedTrees {
		err := filepath.WalkDir(tree, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return err
			}
			f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			files = append(files, f)
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if len(files) < 40 {
		t.Fatalf("parsed only %d files — run from the repository root", len(files))
	}

	l := newLint(files)
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			loop, ok := n.(*ast.RangeStmt)
			if !ok || !l.maps[lastName(loop.X)] {
				return true
			}
			ast.Inspect(loop.Body, func(n ast.Node) bool {
				if call, ok := n.(*ast.CallExpr); ok {
					if why := l.orderSensitive(call); why != "" {
						t.Errorf("%s: range over a map calls %s (at %s): iterate sorted keys instead",
							fset.Position(loop.Pos()), why, fset.Position(call.Pos()))
					}
				}
				return true
			})
			return true
		})
	}
}

// TestOneGenerator fails on a call to rand.NewSource in any non-test file
// of the root package, internal/ or cmd/ outside internal/prng: every
// stream is a prng.Source, which emits math/rand's sequence without its
// 13 µs seeding and counts its draws for the checkpoint stream table.
// bench/ is a module of its own and is not linted.
func TestOneGenerator(t *testing.T) {
	fset := token.NewFileSet()
	check := func(path string) error {
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if sel, ok := call.Fun.(*ast.SelectorExpr); ok && lastName(sel.X) == "rand" && sel.Sel.Name == "NewSource" {
				t.Errorf("%s: rand.NewSource: use prng.Rand or prng.New", fset.Position(call.Pos()))
			}
			return true
		})
		return nil
	}
	goFile := func(path string) bool {
		return strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, "_test.go")
	}
	roots, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range roots {
		if goFile(path) {
			if err := check(path); err != nil {
				t.Fatal(err)
			}
		}
	}
	parsed := 0
	for _, tree := range []string{"internal", "cmd"} {
		err := filepath.WalkDir(tree, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() && path == filepath.Join("internal", "prng") {
				return filepath.SkipDir
			}
			if d.IsDir() || !goFile(path) {
				return nil
			}
			parsed++
			return check(path)
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if parsed < 80 {
		t.Fatalf("parsed only %d files — run from the repository root", parsed)
	}
}

// lint is the syntactic type table: which names the linted files declare
// as maps or as *rand.Rand, and which function names reach an
// order-sensitive call (and through what).
type lint struct {
	maps, rands map[string]bool
	reaches     map[string]string
}

func newLint(files []*ast.File) *lint {
	l := &lint{maps: map[string]bool{}, rands: map[string]bool{}, reaches: map[string]string{}}
	declare := func(ids []*ast.Ident, typ ast.Expr) {
		for _, id := range ids {
			if _, ok := typ.(*ast.MapType); ok {
				l.maps[id.Name] = true
			} else if isRandType(typ) {
				l.rands[id.Name] = true
			}
		}
	}
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.Field: // struct fields, parameters, results
				declare(n.Names, n.Type)
			case *ast.ValueSpec:
				declare(n.Names, n.Type)
				for i, v := range n.Values {
					if i < len(n.Names) && makesMap(v) {
						l.maps[n.Names[i].Name] = true
					}
				}
			case *ast.AssignStmt:
				for i, v := range n.Rhs {
					if i < len(n.Lhs) && makesMap(v) {
						l.maps[lastName(n.Lhs[i])] = true
					}
				}
			}
			return true
		})
	}
	delete(l.maps, "") // an assignment target lastName has no name for
	// close over callers, by bare function name, to a fixed point
	for grew := true; grew; {
		grew = false
		for _, f := range files {
			for _, d := range f.Decls {
				fn, ok := d.(*ast.FuncDecl)
				if !ok || fn.Body == nil || l.reaches[fn.Name.Name] != "" {
					continue
				}
				ast.Inspect(fn.Body, func(n ast.Node) bool {
					if call, ok := n.(*ast.CallExpr); ok && l.reaches[fn.Name.Name] == "" {
						if why := l.orderSensitive(call); why != "" {
							l.reaches[fn.Name.Name], grew = why, true
						}
					}
					return true
				})
			}
		}
	}
	return l
}

// isRandType matches *rand.Rand.
func isRandType(typ ast.Expr) bool {
	star, ok := typ.(*ast.StarExpr)
	if !ok {
		return false
	}
	sel, ok := star.X.(*ast.SelectorExpr)
	return ok && lastName(sel.X) == "rand" && sel.Sel.Name == "Rand"
}

// makesMap reports whether e is make(map…) or a map composite literal.
func makesMap(e ast.Expr) bool {
	switch e := e.(type) {
	case *ast.CompositeLit:
		_, ok := e.Type.(*ast.MapType)
		return ok
	case *ast.CallExpr:
		if len(e.Args) > 0 && lastName(e.Fun) == "make" {
			_, ok := e.Args[0].(*ast.MapType)
			return ok
		}
	}
	return false
}

// lastName is x for x and for a.b.x, "" for anything else.
func lastName(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return e.Sel.Name
	}
	return ""
}

// orderSensitive names what makes call's order observable — directly, or
// through a linted function that reaches such a call — or returns "".
func (l *lint) orderSensitive(call *ast.CallExpr) string {
	name := lastName(call.Fun)
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		if strings.HasPrefix(name, "Send") || name == "After" || name == "Every" || name == "Ticker" || name == "NewUID" {
			return name
		}
		// a *rand.Rand method: api.Rand().Intn, n.random().Float64, rng.Perm
		if inner, ok := sel.X.(*ast.CallExpr); ok {
			if recv := lastName(inner.Fun); recv == "Rand" || recv == "random" {
				return recv + "()." + name
			}
		} else if recv := lastName(sel.X); l.rands[recv] {
			return recv + "." + name + " (a *rand.Rand)"
		}
	}
	if l.reaches[name] != "" {
		return name + " → " + l.reaches[name]
	}
	return ""
}
