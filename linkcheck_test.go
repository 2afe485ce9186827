//go:build linkcheck

package soi

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestEveryFunctionLinked fails when a top-level function or method of a
// non-test file is linked into none of the repository's programs and is
// not listed, with a reason, in testdata/linked_allow.txt. It builds every
// main package (cmd/, examples/ and the bench/ driver) with inlining off,
// so a function whose only caller was inlined still shows, and reads
// their text symbols with go tool nm. An allowlist entry that is linked
// after all, or names no declared function, fails too, so the list
// shrinks with the code. It builds fourteen binaries, hence the tag:
//
//	go test -tags linkcheck -run TestEveryFunctionLinked .
func TestEveryFunctionLinked(t *testing.T) {
	decls := declaredFuncs(t)
	linked := linkedSymbols(t, decls)
	allow := readAllowlist(t, filepath.Join("testdata", "linked_allow.txt"))

	declared := map[string]bool{}
	var unlinked []string
	lines := 0
	for _, d := range decls {
		declared[d.name] = true
		switch isLinked, allowed := d.isLinked(linked), allow[d.name] != ""; {
		case isLinked && allowed:
			t.Errorf("%s is linked; remove it from linked_allow.txt", d.name)
		case !isLinked && !allowed:
			unlinked = append(unlinked, fmt.Sprintf("%s (%s, %d lines)", d.name, d.pos, d.lines))
			lines += d.lines
		}
	}
	for sym := range allow {
		if !declared[sym] {
			t.Errorf("linked_allow.txt names %s, which no non-test file declares", sym)
		}
	}
	if len(unlinked) > 0 {
		t.Errorf("%d functions (%d lines) are linked into no program; delete them, move test hooks to an _test.go file, or allowlist them with a reason:\n\t%s",
			len(unlinked), lines, strings.Join(unlinked, "\n\t"))
	}
}

// funcDecl is one top-level function or method of a non-test file. name
// is its symbol as go tool nm spells it, with type parameters dropped
// and every method written on the pointer receiver: pkg.F, pkg.(*T).M.
type funcDecl struct {
	name  string
	pos   string
	lines int
	main  string // for a main package, the directory its binary is built from
}

// isLinked reports whether d's symbol is in the text of the program that
// could link it: its own binary for a main package, any binary otherwise.
// A value-receiver method links as pkg.T.M, its pointer wrapper as
// pkg.(*T).M; either counts.
func (d funcDecl) isLinked(linked map[string]map[string]bool) bool {
	syms := linked[""]
	name := d.name
	if d.main != "" {
		syms = linked[d.main]
		name = "main" + strings.TrimPrefix(name, importPath(d.main))
	}
	if syms[name] {
		return true
	}
	if i := strings.Index(name, ".(*"); i >= 0 {
		return syms[name[:i+1]+strings.Replace(name[i+3:], ")", "", 1)]
	}
	return false
}

// importPath maps a directory of the checkout to its import path; bench/
// is the nested module repro/bench, which the same rule names.
func importPath(dir string) string {
	if dir == "." {
		return "repro"
	}
	return "repro/" + filepath.ToSlash(dir)
}

// declaredFuncs parses every non-test Go file that the host's default
// build includes.
func declaredFuncs(t *testing.T) []funcDecl {
	t.Helper()
	var decls []funcDecl
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(p string, e fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if e.IsDir() {
			if p != "." && (strings.HasPrefix(e.Name(), ".") || e.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		dir := filepath.Dir(p)
		if ok, err := build.Default.MatchFile(dir, e.Name()); err != nil || !ok {
			return err
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Name.Name == "_" || (fn.Recv == nil && fn.Name.Name == "init") {
				continue
			}
			d := funcDecl{
				name:  importPath(dir) + "." + fn.Name.Name,
				pos:   fset.Position(fn.Pos()).String(),
				lines: fset.Position(fn.End()).Line - fset.Position(fn.Pos()).Line + 1,
			}
			if fn.Recv != nil {
				d.name = importPath(dir) + ".(*" + receiverType(fn.Recv.List[0].Type) + ")." + fn.Name.Name
			}
			if f.Name.Name == "main" {
				d.main = dir
			}
			decls = append(decls, d)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return decls
}

// receiverType is the bare type name of a receiver: T from T, *T, T[K]
// or *T[K, V].
func receiverType(x ast.Expr) string {
	for {
		switch e := x.(type) {
		case *ast.StarExpr:
			x = e.X
		case *ast.ParenExpr:
			x = e.X
		case *ast.IndexExpr:
			x = e.X
		case *ast.IndexListExpr:
			x = e.X
		case *ast.Ident:
			return e.Name
		default:
			return fmt.Sprintf("%T", x)
		}
	}
}

// linkedSymbols builds every main package among decls with inlining off
// and returns the text symbols of each, keyed by the package's
// directory, plus their union under "".
func linkedSymbols(t *testing.T, decls []funcDecl) map[string]map[string]bool {
	t.Helper()
	mains := map[string]bool{}
	for _, d := range decls {
		if d.main != "" {
			mains[d.main] = true
		}
	}
	bin := t.TempDir()
	out := map[string]string{} // package directory → binary
	for dir := range mains {
		out[dir] = filepath.Join(bin, strings.ReplaceAll(filepath.ToSlash(dir), "/", "_"))
		pkg, module := "./"+filepath.ToSlash(dir), "."
		if dir == "bench" { // the nested module repro/bench builds from its own root
			pkg, module = ".", "bench"
		}
		cmd := exec.Command("go", "build", "-gcflags=all=-l", "-o", out[dir], pkg)
		cmd.Dir = module
		if msg, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("go build %s: %v\n%s", dir, err, msg)
		}
	}
	linked := map[string]map[string]bool{"": {}}
	for dir, exe := range out {
		msg, err := exec.Command("go", "tool", "nm", exe).Output()
		if err != nil {
			t.Fatalf("go tool nm %s: %v", exe, err)
		}
		syms := map[string]bool{}
		for _, line := range strings.Split(string(msg), "\n") {
			// "  addr T name"; a name with type arguments may hold spaces.
			f := strings.SplitN(strings.TrimSpace(line), " ", 3)
			if len(f) != 3 || (f[1] != "T" && f[1] != "t") {
				continue
			}
			name := strings.TrimSuffix(dropTypeArgs(f[2]), "-fm")
			syms[name] = true
			if !strings.HasPrefix(name, "main.") {
				linked[""][name] = true
			}
		}
		linked[dir] = syms
	}
	return linked
}

// dropTypeArgs removes every bracketed type-argument list from a symbol:
// pkg.(*LRU[go.shape.string,int]).Get becomes pkg.(*LRU).Get.
func dropTypeArgs(s string) string {
	var b strings.Builder
	depth := 0
	for _, r := range s {
		switch {
		case r == '[':
			depth++
		case r == ']' && depth > 0:
			depth--
		case depth == 0:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// readAllowlist reads "symbol reason..." lines; # starts a comment. Every
// entry must give a reason.
func readAllowlist(t *testing.T, file string) map[string]string {
	t.Helper()
	data, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	allow := map[string]string{}
	for i, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sym, reason, _ := strings.Cut(line, " ")
		if reason = strings.TrimSpace(reason); reason == "" {
			t.Errorf("%s:%d: %s has no reason", filepath.Base(file), i+1, sym)
			continue
		}
		if allow[sym] != "" {
			t.Errorf("%s:%d: %s is listed twice", filepath.Base(file), i+1, sym)
		}
		allow[sym] = reason
	}
	return allow
}
