package main

import (
	"errors"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"slices"
	"strings"
)

// keepDirective marks a function or method that -unused must not report: a
// deliberate seam whose only callers are tests or tooling. The rest of the
// comment line is the reason, and it is required.
const keepDirective = "//zac:keep"

// implicitInterfaces are interfaces the standard library asserts inside
// function bodies, which export data does not show: errors.Is, errors.As
// and errors.Unwrap look for these methods.
const implicitInterfaces = `package implicit

type (
	unwrapper      interface{ Unwrap() error }
	multiUnwrapper interface{ Unwrap() []error }
	iser           interface{ Is(error) bool }
	aser           interface{ As(any) bool }
)
`

// srcPkg is one package type-checked from source.
type srcPkg struct {
	dir   string // absolute
	files []*ast.File
	info  *types.Info
	tp    *types.Package
	ref   bool // from a reference root: its uses count, its code is not linted
}

// loader type-checks the packages of known modules from source, on demand,
// and takes every other import from the compiler's export data.
type loader struct {
	fset  *token.FileSet
	mods  map[string]string  // module path → absolute directory
	pkgs  map[string]*srcPkg // import path → package
	order []*srcPkg          // packages in the order they were checked
	std   types.Importer
}

// lintUnused type-checks every non-test package of the modules holding
// roots, plus every package under refs, and reports each function and
// method declared under roots that no non-test code reaches. Reachability
// starts at main and init functions, package-level initializers, methods
// that implement an interface, functions marked keepDirective, and every
// use inside refs; a function used only by unreachable ones is unused too.
func lintUnused(roots, refs []string) ([]string, error) {
	l := &loader{fset: token.NewFileSet(), mods: map[string]string{}, pkgs: map[string]*srcPkg{}, std: importer.Default()}
	var linted []string // absolute roots whose functions are reported
	for i, root := range slices.Concat(roots, refs) {
		ref := i >= len(roots)
		modPath, modDir, err := findModule(root)
		if err != nil {
			return nil, err
		}
		walk, _ := filepath.Abs(root)
		if !ref {
			linted = append(linted, walk)
			if _, seen := l.mods[modPath]; seen {
				continue
			}
			walk = modDir // all of a linted root's module counts as users
		}
		l.mods[modPath] = modDir
		dirs, err := goDirs(walk)
		if err != nil {
			return nil, err
		}
		for _, dir := range dirs {
			rel, _ := filepath.Rel(modDir, dir)
			path := strings.TrimSuffix(modPath+"/"+filepath.ToSlash(rel), "/.")
			var noGo *build.NoGoError
			if _, err := l.load(path, dir, ref); err != nil && !errors.As(err, &noGo) {
				return nil, err
			}
		}
	}

	ifaces, err := l.interfaces()
	if err != nil {
		return nil, err
	}
	var findings []string
	live := map[*types.Func]bool{}
	var queue []*types.Func
	mark := func(fn *types.Func) {
		if !live[fn] {
			live[fn] = true
			queue = append(queue, fn)
		}
	}
	calls := map[*types.Func][]*types.Func{}
	type decl struct {
		fd *ast.FuncDecl
		fn *types.Func
	}
	var reported []decl
	for _, p := range l.order {
		for _, f := range p.files {
			for _, d := range f.Decls {
				fd, _ := d.(*ast.FuncDecl)
				var owner *types.Func
				if fd != nil && !p.ref && !entryPoint(fd, f) {
					owner, _ = p.info.Defs[fd.Name].(*types.Func)
				}
				// A use inside a function is an edge from it; any other
				// use (an initializer, an entry point, a reference root)
				// is a root.
				ast.Inspect(d, func(n ast.Node) bool {
					if id, ok := n.(*ast.Ident); ok {
						if fn, ok := p.info.Uses[id].(*types.Func); ok {
							if owner == nil {
								mark(fn.Origin())
							} else {
								calls[owner] = append(calls[owner], fn.Origin())
							}
						}
					}
					return true
				})
				if owner == nil {
					continue
				}
				if reason, ok := keepReason(fd); ok {
					if reason == "" {
						findings = append(findings, fmt.Sprintf("%s: %s needs a reason", l.pos(fd.Pos()), keepDirective))
					}
					mark(owner)
				} else if implementsInterface(owner, ifaces) {
					mark(owner)
				}
				if under(p.dir, linted) && fd.Name.Name != "_" {
					reported = append(reported, decl{fd, owner})
				}
			}
		}
	}
	for len(queue) > 0 {
		fn := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		for _, c := range calls[fn] {
			mark(c)
		}
	}
	for _, d := range reported {
		if live[d.fn] {
			continue
		}
		what := "function " + d.fn.Pkg().Name() + "." + d.fn.Name()
		if recv := d.fn.Signature().Recv(); recv != nil {
			what = "method " + types.TypeString(recv.Type(), types.RelativeTo(d.fn.Pkg())) + "." + d.fn.Name()
		}
		findings = append(findings, fmt.Sprintf("%s: unused %s", l.pos(d.fd.Pos()), what))
	}
	return findings, nil
}

// entryPoint reports whether fd is an init function or a command's main:
// code the runtime calls, whose uses are therefore roots.
func entryPoint(fd *ast.FuncDecl, f *ast.File) bool {
	return fd.Recv == nil && (fd.Name.Name == "init" || fd.Name.Name == "main" && f.Name.Name == "main")
}

// keepReason returns the reason of fd's keepDirective, and whether it has
// one at all.
func keepReason(fd *ast.FuncDecl) (string, bool) {
	if fd.Doc != nil {
		for _, c := range fd.Doc.List {
			if c.Text == keepDirective || strings.HasPrefix(c.Text, keepDirective+" ") {
				return strings.TrimSpace(strings.TrimPrefix(c.Text, keepDirective)), true
			}
		}
	}
	return "", false
}

// iface is one interface type a method may implement.
type iface struct {
	t       *types.Interface
	generic bool // declared with type parameters: matched by method names
}

// interfaces indexes, by method name, every interface type the loaded
// packages declare or write, every named interface of the packages they
// import (the standard library's included), and implicitInterfaces.
func (l *loader) interfaces() (map[string][]iface, error) {
	byName := map[string][]iface{}
	seen := map[types.Type]bool{}
	add := func(t types.Type) {
		it, ok := t.Underlying().(*types.Interface)
		if !ok || seen[t] {
			return
		}
		seen[t] = true
		n, _ := t.(*types.Named)
		generic := n != nil && n.TypeParams().Len() > 0
		for i := 0; i < it.NumMethods(); i++ {
			byName[it.Method(i).Name()] = append(byName[it.Method(i).Name()], iface{it, generic})
		}
	}
	add(types.Universe.Lookup("error").Type())
	f, err := parser.ParseFile(l.fset, "implicit.go", implicitInterfaces, 0)
	if err != nil {
		return nil, err
	}
	implicit, err := new(types.Config).Check("implicit", l.fset, []*ast.File{f}, nil)
	if err != nil {
		return nil, err
	}
	visited := map[*types.Package]bool{}
	var visit func(*types.Package)
	visit = func(p *types.Package) {
		if visited[p] {
			return
		}
		visited[p] = true
		for _, name := range p.Scope().Names() {
			if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok {
				add(tn.Type())
			}
		}
		for _, imp := range p.Imports() {
			visit(imp)
		}
	}
	visit(implicit)
	for _, p := range l.order {
		visit(p.tp)
		for _, tv := range p.info.Types {
			add(tv.Type)
		}
		for _, obj := range p.info.Defs {
			if tn, ok := obj.(*types.TypeName); ok {
				add(tn.Type())
			}
		}
	}
	return byName, nil
}

// implementsInterface reports whether fn is a method through which its
// receiver type implements some indexed interface. A generic interface or
// receiver is matched by method names alone, since its type arguments are
// not known here.
func implementsInterface(fn *types.Func, ifaces map[string][]iface) bool {
	recv := fn.Signature().Recv()
	if recv == nil {
		return false
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	ptr := types.NewPointer(named)
	methods := types.NewMethodSet(ptr)
	for _, it := range ifaces[fn.Name()] {
		if !it.generic && named.TypeParams().Len() == 0 {
			if types.Implements(ptr, it.t) {
				return true
			}
			continue
		}
		all := true
		for i := 0; i < it.t.NumMethods() && all; i++ {
			m := it.t.Method(i)
			all = methods.Lookup(m.Pkg(), m.Name()) != nil
		}
		if all {
			return true
		}
	}
	return false
}

// Import implements types.Importer: packages of known modules are
// type-checked from source, everything else comes from export data.
func (l *loader) Import(path string) (*types.Package, error) {
	best := ""
	for mod := range l.mods {
		if (path == mod || strings.HasPrefix(path, mod+"/")) && len(mod) > len(best) {
			best = mod
		}
	}
	if best == "" {
		return l.std.Import(path)
	}
	return l.load(path, filepath.Join(l.mods[best], strings.TrimPrefix(path, best)), false)
}

// load parses and type-checks the non-test files of the package in dir,
// once.
func (l *loader) load(path, dir string, ref bool) (*types.Package, error) {
	if p, ok := l.pkgs[path]; ok {
		return p.tp, nil
	}
	bp, err := build.Default.ImportDir(dir, 0)
	if err != nil {
		return nil, err
	}
	p := &srcPkg{dir: dir, ref: ref, info: &types.Info{
		Types: map[ast.Expr]types.TypeAndValue{},
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
	}}
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		p.files = append(p.files, f)
	}
	if p.tp, err = (&types.Config{Importer: l}).Check(path, l.fset, p.files, p.info); err != nil {
		return nil, fmt.Errorf("type-check %s: %w", dir, err)
	}
	l.pkgs[path] = p
	l.order = append(l.order, p)
	return p.tp, nil
}

// pos renders a position with its file path relative to the working
// directory where it can be.
func (l *loader) pos(p token.Pos) string {
	position := l.fset.Position(p)
	if wd, err := os.Getwd(); err == nil {
		if rel, err := filepath.Rel(wd, position.Filename); err == nil && !strings.HasPrefix(rel, "..") {
			position.Filename = rel
		}
	}
	return fmt.Sprintf("%s:%d", position.Filename, position.Line)
}

// findModule returns the module path and absolute directory of the go.mod
// that governs dir.
func findModule(dir string) (string, string, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", "", err
	}
	if _, err := os.Stat(abs); err != nil {
		return "", "", err
	}
	for d := abs; ; d = filepath.Dir(d) {
		if data, err := os.ReadFile(filepath.Join(d, "go.mod")); err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				if f := strings.Fields(line); len(f) == 2 && f[0] == "module" {
					return strings.Trim(f[1], `"`), d, nil
				}
			}
			return "", "", fmt.Errorf("%s: no module line", filepath.Join(d, "go.mod"))
		}
		if filepath.Dir(d) == d {
			return "", "", fmt.Errorf("%s: not inside a Go module", dir)
		}
	}
}
