package swquake

import (
	"bufio"
	"bytes"
	"encoding/json"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
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

// TestInternalSurfaceHasProductionCallers holds the rule "what no production
// caller reaches is not there" for the functions and methods internal/
// exports: nothing outside this module can import them, so one that no
// non-test file of the module references — by name, or through an interface
// its receiver implements — is dead unless testdata/surface_allow.txt keeps it
// with a reason. The root package is the module's public API and is not
// scanned, but counts as a caller.
func TestInternalSurfaceHasProductionCallers(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the module and the standard library from source")
	}
	out, err := exec.Command("go", "list", "-json=ImportPath,Dir,GoFiles", "./...").Output()
	if err != nil {
		t.Fatalf("go list: %v", err)
	}
	l := &surfaceLoader{
		fset:    token.NewFileSet(),
		listed:  map[string]*listedPackage{},
		checked: map[string]*types.Package{},
		files:   map[string][]*ast.File{},
		info: &types.Info{
			Defs:  map[*ast.Ident]types.Object{},
			Uses:  map[*ast.Ident]types.Object{},
			Types: map[ast.Expr]types.TypeAndValue{},
		},
	}
	l.std = importer.ForCompiler(l.fset, "source", nil)
	var paths []string
	for dec := json.NewDecoder(bytes.NewReader(out)); ; {
		var lp listedPackage
		if err := dec.Decode(&lp); err == io.EOF {
			break
		} else if err != nil {
			t.Fatalf("go list output: %v", err)
		}
		l.listed[lp.ImportPath] = &lp
		paths = append(paths, lp.ImportPath)
	}
	for _, path := range paths {
		if _, err := l.Import(path); err != nil {
			t.Fatalf("load %s: %v", path, err)
		}
	}
	if len(l.errs) > 0 {
		t.Fatalf("type errors in non-test files, first of %d: %v", len(l.errs), l.errs[0])
	}

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

	const module = "swquake/"
	unreached := map[string]bool{}
	declared := map[string]bool{}
	for path, files := range l.files {
		if !strings.HasPrefix(path, module+"internal/") {
			continue
		}
		for _, f := range files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || !fd.Name.IsExported() {
					continue
				}
				fn := l.info.Defs[fd.Name].(*types.Func)
				recv := fn.Type().(*types.Signature).Recv()
				name := strings.TrimPrefix(path, module) + "."
				if recv != nil {
					typ := recv.Type()
					if p, ok := typ.(*types.Pointer); ok {
						typ = p.Elem()
					}
					named := typ.(*types.Named).Obj()
					if !named.Exported() {
						continue
					}
					name += named.Name() + "."
				}
				name += fn.Name()
				declared[name] = true
				if !used[fn] && (recv == nil || !viaInterface(recv.Type(), fn.Name())) {
					unreached[name] = true
				}
			}
		}
	}

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
	for name := range unreached {
		if !allowed[name] {
			bad = append(bad, name+": exported under internal/, referenced by no non-test file")
		}
	}
	for name := range allowed {
		switch {
		case !declared[name]:
			bad = append(bad, name+": listed in "+surfaceAllowFile+" but no longer declared")
		case !unreached[name]:
			bad = append(bad, name+": listed in "+surfaceAllowFile+" but has a production caller now")
		}
	}
	sort.Strings(bad)
	for _, msg := range bad {
		t.Error(msg)
	}
}
