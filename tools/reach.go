//go:build ignore

// Reach lists the module's functions that no main package links: the code
// only tests reach. Code outside the module cannot import an internal
// package, so an internal function missing from every binary's symbol
// table is test-only (or dead). `make reach` builds each main package with
// inlining off (-gcflags=all=-l, so a callee keeps its own symbol), dumps
// the symbols with `go tool nm`, and runs
//
//	go run tools/reach.go <pkgdir>=<nmfile> ...
//
// from the module root. Each argument pairs a main package's directory
// with its binary's nm listing, so that binary's `main.` symbols resolve to
// that directory. The program parses every non-test Go file outside bench/
// (a separate module) with go/ast, and prints each declared function no
// listing names as file:line, name and size in lines, then the totals.
// init and main functions are roots and are not listed.
package main

import (
	"bufio"
	"fmt"
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

type decl struct {
	pos   token.Position
	key   string // import path + "." + name
	name  string // Func or Recv.Method
	lines int
}

func main() {
	if len(os.Args) < 2 {
		fmt.Fprintln(os.Stderr, "usage: go run tools/reach.go <pkgdir>=<nmfile> ...")
		os.Exit(2)
	}
	module, err := modulePath()
	if err != nil {
		fatal(err)
	}
	reached := make(map[string]bool) // import path + "." + decl name
	for _, arg := range os.Args[1:] {
		dir, file, ok := strings.Cut(arg, "=")
		if !ok {
			fatal(fmt.Errorf("argument %q is not <pkgdir>=<nmfile>", arg))
		}
		if err := readSymbols(file, module+"/"+filepath.ToSlash(dir), reached); err != nil {
			fatal(err)
		}
	}
	decls, err := declarations(module)
	if err != nil {
		fatal(err)
	}
	var funcs, lines int
	for _, d := range decls {
		if reached[d.key] {
			continue
		}
		funcs++
		lines += d.lines
		fmt.Printf("%s:%d\t%s\t%d\n", d.pos.Filename, d.pos.Line, d.name, d.lines)
	}
	fmt.Printf("unreached: %d functions, %d lines (of %d declared)\n", funcs, lines, len(decls))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "reach:", err)
	os.Exit(1)
}

// modulePath reads the module path from ./go.mod.
func modulePath() (string, error) {
	b, err := os.ReadFile("go.mod")
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("go.mod names no module")
}

// readSymbols adds every text symbol of one nm listing to reached. A
// symbol's name is reduced to the declaration it belongs to: generic
// shapes and pointer receivers are dropped, and a closure (F.func1)
// marks both F.func1's prefixes, so F and Recv.Method both match.
func readSymbols(file, mainPath string, reached map[string]bool) error {
	f, err := os.Open(file)
	if err != nil {
		return err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 3 || (fields[1] != "T" && fields[1] != "t") {
			continue
		}
		sym := stripBrackets(strings.Join(fields[2:], " "))
		// The package path ends at the first dot after its last slash.
		slash := strings.LastIndex(sym, "/")
		dot := strings.Index(sym[slash+1:], ".")
		if dot < 0 {
			continue
		}
		pkg, rest := sym[:slash+1+dot], sym[slash+1+dot+1:]
		if pkg == "main" {
			pkg = mainPath
		}
		rest = strings.NewReplacer("(*", "", ")", "", "-fm", "").Replace(rest)
		parts := strings.Split(rest, ".")
		reached[pkg+"."+parts[0]] = true
		if len(parts) > 1 {
			reached[pkg+"."+parts[0]+"."+parts[1]] = true
		}
	}
	return sc.Err()
}

// stripBrackets removes every [...] group (instantiation shapes, which
// may nest) from a symbol name.
func stripBrackets(s string) string {
	var b strings.Builder
	depth := 0
	for _, r := range s {
		switch {
		case r == '[':
			depth++
		case r == ']':
			depth--
		case depth == 0:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// declarations lists every function and method declared in the module's
// non-test Go files outside bench/, keyed as readSymbols keys symbols.
func declarations(module string) ([]decl, error) {
	var out []decl
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, e fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !e.IsDir() {
			return nil
		}
		name := e.Name()
		if path != "." && (name == "bench" || name == "testdata" || name == "out" ||
			strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		pkg, err := build.ImportDir(path, 0)
		if err != nil {
			if _, ok := err.(*build.NoGoError); ok {
				return nil
			}
			return err
		}
		imp := module
		if path != "." {
			imp += "/" + filepath.ToSlash(path)
		}
		for _, file := range pkg.GoFiles {
			af, err := parser.ParseFile(fset, filepath.Join(path, file), nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			for _, d := range af.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				name := fd.Name.Name
				if fd.Recv == nil && (name == "init" || (name == "main" && pkg.Name == "main")) {
					continue
				}
				if fd.Recv != nil && len(fd.Recv.List) == 1 {
					name = recvName(fd.Recv.List[0].Type) + "." + name
				}
				start, end := fset.Position(fd.Pos()), fset.Position(fd.End())
				out = append(out, decl{pos: start, key: imp + "." + name, name: name, lines: end.Line - start.Line + 1})
			}
		}
		return nil
	})
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].pos, out[j].pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		return a.Line < b.Line
	})
	return out, err
}

// recvName returns a receiver's type name without pointer or type
// parameters: *T[K] -> T.
func recvName(e ast.Expr) string {
	for {
		switch t := e.(type) {
		case *ast.StarExpr:
			e = t.X
		case *ast.IndexExpr:
			e = t.X
		case *ast.IndexListExpr:
			e = t.X
		case *ast.Ident:
			return t.Name
		default:
			return "?"
		}
	}
}
