package swquake

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
)

const surfaceAllowFile = "testdata/surface_allow.txt"

// listedPackage is what the test reads of `go list -json`: a package's
// non-test files as the current platform builds them.
type listedPackage struct {
	ImportPath string
	Dir        string
	GoFiles    []string
}

// surfaceLoader type-checks the module's non-test files, package by package in
// import order; the standard library comes from the source importer.
type surfaceLoader struct {
	fset    *token.FileSet
	listed  map[string]*listedPackage
	checked map[string]*types.Package
	std     types.Importer
	info    *types.Info
	files   map[string][]*ast.File
	errs    []error
}

func (l *surfaceLoader) Import(path string) (*types.Package, error) {
	if pkg, ok := l.checked[path]; ok {
		return pkg, nil
	}
	lp, ok := l.listed[path]
	if !ok {
		return l.std.Import(path)
	}
	var files []*ast.File
	for _, name := range lp.GoFiles {
		f, err := parser.ParseFile(l.fset, filepath.Join(lp.Dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	conf := types.Config{Importer: l, Error: func(err error) { l.errs = append(l.errs, err) }}
	pkg, _ := conf.Check(path, l.fset, files, l.info)
	l.checked[path] = pkg
	l.files[path] = files
	return pkg, nil
}

var (
	surfaceOnce sync.Once
	surfaceL    *surfaceLoader
	surfaceErr  error
)

// loadSurface type-checks the module's non-test files once per test binary;
// both surface tests read the same load.
func loadSurface(t *testing.T) *surfaceLoader {
	t.Helper()
	if testing.Short() {
		t.Skip("type-checks the module and the standard library from source")
	}
	surfaceOnce.Do(func() { surfaceL, surfaceErr = newSurfaceLoader() })
	if surfaceErr != nil {
		t.Fatal(surfaceErr)
	}
	return surfaceL
}

func newSurfaceLoader() (*surfaceLoader, error) {
	out, err := exec.Command("go", "list", "-json=ImportPath,Dir,GoFiles", "./...").Output()
	if err != nil {
		return nil, fmt.Errorf("go list: %v", err)
	}
	l := &surfaceLoader{
		fset:    token.NewFileSet(),
		listed:  map[string]*listedPackage{},
		checked: map[string]*types.Package{},
		files:   map[string][]*ast.File{},
		info: &types.Info{
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Types:      map[ast.Expr]types.TypeAndValue{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
		},
	}
	l.std = importer.ForCompiler(l.fset, "source", nil)
	var paths []string
	for dec := json.NewDecoder(bytes.NewReader(out)); ; {
		var lp listedPackage
		if err := dec.Decode(&lp); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list output: %v", err)
		}
		l.listed[lp.ImportPath] = &lp
		paths = append(paths, lp.ImportPath)
	}
	for _, path := range paths {
		if _, err := l.Import(path); err != nil {
			return nil, fmt.Errorf("load %s: %v", path, err)
		}
	}
	if len(l.errs) > 0 {
		return nil, fmt.Errorf("type errors in non-test files, first of %d: %v", len(l.errs), l.errs[0])
	}
	return l, nil
}

const surfaceModule = "swquake/"

// internalFiles calls fn with each non-test file of each package under
// internal/ and the package's name as the allowlist spells it.
func (l *surfaceLoader) internalFiles(fn func(pkg string, f *ast.File)) {
	for path, files := range l.files {
		if !strings.HasPrefix(path, surfaceModule+"internal/") {
			continue
		}
		for _, f := range files {
			fn(strings.TrimPrefix(path, surfaceModule), f)
		}
	}
}

// TestInternalSurfaceHasProductionCallers holds the rule "what no production
// caller reaches is not there" for the functions and methods internal/
// exports: nothing outside this module can import them, so one that no
// non-test file of the module references — by name, or through an interface
// its receiver implements — is dead unless testdata/surface_allow.txt keeps it
// with a reason. The root package is the module's public API and is not
// scanned, but counts as a caller.
func TestInternalSurfaceHasProductionCallers(t *testing.T) {
	l := loadSurface(t)

	// what production code names, and the interfaces it can call through
	used := map[types.Object]bool{}
	for _, obj := range l.info.Uses {
		if fn, ok := obj.(*types.Func); ok {
			used[fn.Origin()] = true
		}
	}
	var ifaces []*types.Interface
	addIface := func(typ types.Type) {
		if it, ok := typ.Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
			ifaces = append(ifaces, it)
		}
	}
	errType := types.Universe.Lookup("error").Type()
	addIface(errType)
	// what errors.Is and errors.As call on a wrapped error, declared inside
	// their bodies
	unwrap := types.NewInterfaceType([]*types.Func{types.NewFunc(token.NoPos, nil, "Unwrap",
		types.NewSignatureType(nil, nil, nil, nil, types.NewTuple(types.NewVar(token.NoPos, nil, "", errType)), false))}, nil)
	ifaces = append(ifaces, unwrap.Complete())
	seen := map[*types.Package]bool{}
	var scopes func(pkg *types.Package)
	scopes = func(pkg *types.Package) {
		if seen[pkg] {
			return
		}
		seen[pkg] = true
		for _, name := range pkg.Scope().Names() {
			if tn, ok := pkg.Scope().Lookup(name).(*types.TypeName); ok {
				addIface(tn.Type())
			}
		}
		for _, imp := range pkg.Imports() {
			scopes(imp)
		}
	}
	for _, pkg := range l.checked {
		scopes(pkg)
	}
	for _, tv := range l.info.Types {
		if tv.IsType() {
			addIface(tv.Type)
		}
	}
	viaInterface := func(recv types.Type, method string) bool {
		if _, isPtr := recv.(*types.Pointer); !isPtr {
			recv = types.NewPointer(recv)
		}
		for _, it := range ifaces {
			for i := 0; i < it.NumMethods(); i++ {
				if it.Method(i).Name() == method && types.Implements(recv, it) {
					return true
				}
			}
		}
		return false
	}

	unreached := map[string]string{}
	declared := declaredFuncs(l)
	for name, fn := range declared {
		recv := fn.Type().(*types.Signature).Recv()
		if !used[fn] && (recv == nil || !viaInterface(recv.Type(), fn.Name())) {
			unreached[name] = "referenced by no non-test file"
		}
	}
	checkSurfaceAllow(t, "a production caller", keys(declared), unreached, keys(declaredFieldsAndTypes(l)))
}

// declaredFuncs is every exported function and method under internal/ whose
// receiver, if any, is exported, by its allowlist name.
func declaredFuncs(l *surfaceLoader) map[string]*types.Func {
	declared := map[string]*types.Func{}
	l.internalFiles(func(pkg string, f *ast.File) {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || !fd.Name.IsExported() {
				continue
			}
			fn := l.info.Defs[fd.Name].(*types.Func)
			name := pkg + "."
			if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
				named := recvNamed(recv.Type())
				if !named.Obj().Exported() {
					continue
				}
				name += named.Obj().Name() + "."
			}
			declared[name+fn.Name()] = fn
		}
	})
	return declared
}

func recvNamed(typ types.Type) *types.Named {
	if p, ok := typ.(*types.Pointer); ok {
		typ = p.Elem()
	}
	return typ.(*types.Named)
}

func keys[V any](m map[string]V) map[string]bool {
	set := make(map[string]bool, len(m))
	for k := range m {
		set[k] = true
	}
	return set
}

// checkSurfaceAllow fails on a name in unreached that testdata/surface_allow.txt
// does not list, and on a listed name of this test's kind (declared) that is
// reached now; a listed name that neither declared nor the other test's kind
// (others) holds is gone.
func checkSurfaceAllow(t *testing.T, why string, declared map[string]bool, unreached map[string]string, others map[string]bool) {
	t.Helper()
	allowed := map[string]bool{}
	af, err := os.Open(surfaceAllowFile)
	if err != nil {
		t.Fatal(err)
	}
	defer af.Close()
	for sc := bufio.NewScanner(af); sc.Scan(); {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, reason, _ := strings.Cut(line, " ")
		if strings.TrimSpace(reason) == "" {
			t.Errorf("%s: %s is listed without a reason", surfaceAllowFile, name)
		}
		allowed[name] = true
	}

	var bad []string
	for name, what := range unreached {
		if !allowed[name] {
			bad = append(bad, name+": exported under internal/, "+what)
		}
	}
	for name := range allowed {
		switch {
		case others[name]:
		case !declared[name]:
			bad = append(bad, name+": listed in "+surfaceAllowFile+" but no longer declared")
		case unreached[name] == "":
			bad = append(bad, name+": listed in "+surfaceAllowFile+" but has "+why+" now")
		}
	}
	sort.Strings(bad)
	for _, msg := range bad {
		t.Error(msg)
	}
}

// TestInternalFieldsAndTypesHaveProductionUse holds the same rule for the
// data internal/ exports: an exported field of an exported struct type that
// no non-test file writes is a knob nobody sets, one that no non-test file
// reads is an output nobody reads, and an exported type that no non-test file
// names outside its own declaration and methods is not used. A write is an
// assignment, an op-assignment, an inc/dec, a keyed or positional composite
// literal or taking the field's address; anything else that selects the
// field is a read. A field with a json tag counts as both (encoding/json
// reads and writes it), and so does an embedded field that a promoted
// selection passes through. testdata/surface_allow.txt keeps the
// exceptions, one a line, with a reason.
func TestInternalFieldsAndTypesHaveProductionUse(t *testing.T) {
	l := loadSurface(t)
	declared := declaredFieldsAndTypes(l)
	read, written, named := productionUse(l)
	// encoding/json reads a tagged field on Marshal and writes it on Unmarshal
	for _, obj := range declared {
		if tn, ok := obj.(*types.TypeName); ok {
			if st, ok := tn.Type().Underlying().(*types.Struct); ok {
				for i := 0; i < st.NumFields(); i++ {
					if _, ok := reflect.StructTag(st.Tag(i)).Lookup("json"); ok {
						read[st.Field(i)], written[st.Field(i)] = true, true
					}
				}
			}
		}
	}
	unreached := map[string]string{}
	for name, obj := range declared {
		switch obj := obj.(type) {
		case *types.TypeName:
			if !named[obj] {
				unreached[name] = "named by no non-test file"
			}
		case *types.Var:
			var missing []string
			if !written[obj] {
				missing = append(missing, "written")
			}
			if !read[obj] {
				missing = append(missing, "read")
			}
			if len(missing) > 0 {
				unreached[name] = strings.Join(missing, " or ") + " by no non-test file"
			}
		}
	}
	checkSurfaceAllow(t, "a production use", keys(declared), unreached, keys(declaredFuncs(l)))
}

// declaredFieldsAndTypes is every exported type under internal/, and every
// exported field of an exported struct type there, by its allowlist name
// (pkg.Type, pkg.Type.Field).
func declaredFieldsAndTypes(l *surfaceLoader) map[string]types.Object {
	declared := map[string]types.Object{}
	l.internalFiles(func(pkg string, f *ast.File) {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.TYPE {
				continue
			}
			for _, spec := range gd.Specs {
				ts := spec.(*ast.TypeSpec)
				if !ts.Name.IsExported() {
					continue
				}
				tn := l.info.Defs[ts.Name].(*types.TypeName)
				declared[pkg+"."+tn.Name()] = tn
				if tn.IsAlias() {
					continue
				}
				st, ok := tn.Type().Underlying().(*types.Struct)
				if !ok {
					continue
				}
				for i := 0; i < st.NumFields(); i++ {
					if fv := st.Field(i); fv.Exported() {
						declared[pkg+"."+tn.Name()+"."+fv.Name()] = fv
					}
				}
			}
		}
	})
	return declared
}

// productionUse walks every non-test file of the module and returns the
// struct fields it reads and writes and the type names it uses. A use of a
// type inside its own declaration or its own methods does not count.
func productionUse(l *surfaceLoader) (read, written map[*types.Var]bool, named map[*types.TypeName]bool) {
	read, written, named = map[*types.Var]bool{}, map[*types.Var]bool{}, map[*types.TypeName]bool{}
	// lhs marks what an assignment, an inc/dec or & writes: the outermost
	// selected field is written; a field selected on the way to it (x.F in
	// x.F.G = v, x.F[i] = v, *x.F = v) is read and written
	writeOnly := map[*ast.SelectorExpr]bool{}
	readWrite := map[*ast.SelectorExpr]bool{}
	lhs := func(e ast.Expr, addr bool) {
		outer := !addr
		for {
			switch x := e.(type) {
			case *ast.ParenExpr:
				e = x.X
				continue
			case *ast.SelectorExpr:
				if outer {
					writeOnly[x] = true
				} else {
					readWrite[x] = true
				}
				e = x.X
			case *ast.IndexExpr:
				e = x.X
			case *ast.StarExpr:
				e = x.X
			default:
				return
			}
			outer = false
		}
	}
	// an embedded field a promoted selection passes through is read and
	// written: the promoted field or method acts on it
	embedded := func(sel *types.Selection) {
		typ := sel.Recv()
		idx := sel.Index()
		for _, i := range idx[:len(idx)-1] {
			if p, ok := typ.Underlying().(*types.Pointer); ok {
				typ = p.Elem()
			}
			st, ok := typ.Underlying().(*types.Struct)
			if !ok {
				return
			}
			f := st.Field(i).Origin()
			read[f], written[f] = true, true
			typ = f.Type()
		}
	}
	for _, files := range l.files {
		for _, f := range files {
			self := map[*ast.Ident]bool{} // a type's uses in its own declaration and methods
			markSelf := func(owner *types.TypeName, node ast.Node) {
				ast.Inspect(node, func(n ast.Node) bool {
					if id, ok := n.(*ast.Ident); ok && l.info.Uses[id] == types.Object(owner) {
						self[id] = true
					}
					return true
				})
			}
			for _, decl := range f.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					if d.Recv != nil {
						markSelf(recvNamed(l.info.Defs[d.Name].(*types.Func).Type().(*types.Signature).Recv().Type()).Obj(), d)
					}
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						if ts, ok := spec.(*ast.TypeSpec); ok {
							markSelf(l.info.Defs[ts.Name].(*types.TypeName), ts)
						}
					}
				}
			}
			ast.Inspect(f, func(n ast.Node) bool {
				switch x := n.(type) {
				case *ast.AssignStmt:
					for _, e := range x.Lhs {
						lhs(e, false)
					}
				case *ast.RangeStmt:
					if x.Tok == token.ASSIGN {
						for _, e := range []ast.Expr{x.Key, x.Value} {
							if e != nil {
								lhs(e, false)
							}
						}
					}
				case *ast.IncDecStmt:
					lhs(x.X, false)
				case *ast.UnaryExpr:
					if x.Op == token.AND {
						lhs(x.X, true)
					}
				case *ast.CompositeLit:
					typ := l.info.Types[x].Type.Underlying()
					if p, ok := typ.(*types.Pointer); ok {
						typ = p.Elem().Underlying()
					}
					st, ok := typ.(*types.Struct)
					if !ok {
						break
					}
					for i, elt := range x.Elts {
						if kv, ok := elt.(*ast.KeyValueExpr); ok {
							written[l.info.Uses[kv.Key.(*ast.Ident)].(*types.Var).Origin()] = true
						} else {
							written[st.Field(i).Origin()] = true
						}
					}
				case *ast.SelectorExpr:
					sel := l.info.Selections[x]
					if sel == nil {
						break // a qualified identifier
					}
					embedded(sel)
					if sel.Kind() != types.FieldVal {
						break
					}
					v := sel.Obj().(*types.Var).Origin()
					if writeOnly[x] || readWrite[x] {
						written[v] = true
					}
					if !writeOnly[x] {
						read[v] = true
					}
				case *ast.Ident:
					if tn, ok := l.info.Uses[x].(*types.TypeName); ok && !self[x] {
						named[tn] = true
					}
				}
				return true
			})
		}
	}
	return read, written, named
}
