// Command zac-doclint enforces the repo's code conventions as a CI gate,
// using only the standard library's go/ast and go/types (no external
// linters):
//
//   - every package under the given roots must carry a `// Package ...` doc
//     comment on at least one of its files;
//   - within the packages named by -exported, every exported top-level
//     identifier (types, funcs, methods on exported receivers, consts,
//     vars) must carry a doc comment;
//   - with -unused, every function and method under the roots, exported or
//     not, must be reachable from non-test code of its module or of a
//     -ref root (see lintUnused). A deliberate seam that only tests or
//     tooling call carries `//zac:keep <reason>` on its declaration.
//
// Findings print one per line as path: message. Exit status 1 means
// findings; 2 means a usage or I/O error, such as a root that does not
// exist.
//
//	zac-doclint ./internal ./cmd ./examples
//	zac-doclint -exported internal/engine,internal/serve ./internal
//	zac-doclint -unused -ref ./perfbench ./internal ./cmd ./examples
package main

import (
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run lints with the given command-line arguments, prints findings to
// stdout, and returns the exit code: 0 clean, 1 findings, 2 usage or I/O
// error.
func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("zac-doclint", flag.ContinueOnError)
	fl.SetOutput(stderr)
	exported := fl.String("exported", "",
		"comma-separated directory prefixes whose exported identifiers must all carry doc comments")
	unused := fl.Bool("unused", false,
		"type-check the module and fail on functions and methods that no non-test code uses")
	ref := fl.String("ref", "",
		"comma-separated reference roots for -unused: their uses count, their code is not linted")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	roots := fl.Args()
	if len(roots) == 0 {
		roots = []string{"."}
	}

	strict := splitList(*exported)
	var findings []string
	for _, root := range roots {
		dirs, err := goDirs(root)
		if err != nil {
			fmt.Fprintf(stderr, "zac-doclint: %v\n", err)
			return 2
		}
		for _, dir := range dirs {
			findings = append(findings, lintDir(dir, under(filepath.Clean(dir), strict))...)
		}
	}
	if *unused {
		found, err := lintUnused(roots, splitList(*ref))
		if err != nil {
			fmt.Fprintf(stderr, "zac-doclint: %v\n", err)
			return 2
		}
		findings = append(findings, found...)
	}

	for _, f := range findings {
		fmt.Fprintln(stdout, f)
	}
	if len(findings) > 0 {
		fmt.Fprintf(stderr, "zac-doclint: %d finding(s)\n", len(findings))
		return 1
	}
	return 0
}

// goDirs lists, in walk order, the directories under root that hold Go
// files, skipping testdata, hidden directories and nested modules.
func goDirs(root string) ([]string, error) {
	var dirs []string
	err := filepath.WalkDir(root, func(path string, de fs.DirEntry, err error) error {
		if err != nil || !de.IsDir() {
			return err
		}
		if path != root {
			if name := de.Name(); name == "testdata" || strings.HasPrefix(name, ".") {
				return fs.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
				return fs.SkipDir
			}
		}
		if files, _ := filepath.Glob(filepath.Join(path, "*.go")); len(files) > 0 {
			dirs = append(dirs, path)
		}
		return nil
	})
	return dirs, err
}

// under reports whether path lies in one of dirs (all clean, and all
// absolute or all relative).
func under(path string, dirs []string) bool {
	for _, d := range dirs {
		if path == d || strings.HasPrefix(path, d+string(filepath.Separator)) {
			return true
		}
	}
	return false
}

// splitList splits a comma-separated flag value into clean paths.
func splitList(v string) []string {
	var out []string
	for _, p := range strings.Split(v, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, filepath.Clean(p))
		}
	}
	return out
}

// lintDir checks one package directory. Test files are skipped entirely.
func lintDir(dir string, strict bool) []string {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.ParseComments)
	if err != nil {
		return []string{fmt.Sprintf("%s: parse: %v", dir, err)}
	}

	var findings []string
	for name, pkg := range pkgs {
		// Library packages need the `// Package name ...` form; main
		// packages follow the `// Command name ...` convention, so any doc
		// comment counts.
		hasDoc := false
		for _, f := range pkg.Files {
			if f.Doc == nil {
				continue
			}
			if name == "main" || strings.HasPrefix(strings.TrimSpace(f.Doc.Text()), "Package ") {
				hasDoc = true
				break
			}
		}
		if !hasDoc {
			findings = append(findings, fmt.Sprintf("%s: package %s has no `// Package %s ...` doc comment", dir, name, name))
		}
		if strict {
			findings = append(findings, lintExported(fset, pkg)...)
		}
	}
	return findings
}

// lintExported flags exported top-level identifiers without doc comments.
func lintExported(fset *token.FileSet, pkg *ast.Package) []string {
	var findings []string
	flag := func(pos token.Pos, what, name string) {
		p := fset.Position(pos)
		findings = append(findings, fmt.Sprintf("%s:%d: exported %s %s has no doc comment", p.Filename, p.Line, what, name))
	}
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if !d.Name.IsExported() || d.Doc != nil {
					continue
				}
				what := "function"
				if d.Recv != nil {
					if !receiverExported(d.Recv) {
						continue // methods on unexported types are not API
					}
					what = "method"
				}
				flag(d.Pos(), what, d.Name.Name)
			case *ast.GenDecl:
				// A doc comment on the grouped declaration covers every
				// spec inside it (the standard const-block convention).
				if d.Doc != nil {
					continue
				}
				for _, spec := range d.Specs {
					switch sp := spec.(type) {
					case *ast.TypeSpec:
						if sp.Name.IsExported() && sp.Doc == nil && sp.Comment == nil {
							flag(sp.Pos(), "type", sp.Name.Name)
						}
					case *ast.ValueSpec:
						if sp.Doc != nil || sp.Comment != nil {
							continue
						}
						for _, n := range sp.Names {
							if n.IsExported() {
								flag(n.Pos(), declWhat(d.Tok), n.Name)
							}
						}
					}
				}
			}
		}
	}
	return findings
}

// declWhat names a GenDecl token for findings.
func declWhat(tok token.Token) string {
	switch tok {
	case token.CONST:
		return "const"
	case token.VAR:
		return "var"
	}
	return tok.String()
}

// receiverExported reports whether a method's receiver type is exported.
func receiverExported(recv *ast.FieldList) bool {
	if recv == nil || len(recv.List) == 0 {
		return true
	}
	t := recv.List[0].Type
	for {
		switch v := t.(type) {
		case *ast.StarExpr:
			t = v.X
		case *ast.IndexExpr: // generic receiver
			t = v.X
		case *ast.IndexListExpr:
			t = v.X
		case *ast.Ident:
			return v.IsExported()
		default:
			return true
		}
	}
}
