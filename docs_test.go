package soi

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/stats"
)

// docsNamingCode are the documents whose backticks must name live code.
var docsNamingCode = []string{"DESIGN.md", "README.md", "EXPERIMENTS.md", ".claude/skills/verify/SKILL.md"}

// TestDocsNameLiveCode fails when a document names code that is gone.
// The rule is that backticks mean live code: every backticked Go name,
// repository path, /api/stats key, /metrics name, benchmark metric and
// fault site in the documents above must resolve against the tree, and
// every "DESIGN §n" in them or in a Go comment must have a "## n."
// heading in DESIGN.md. A sentence about deleted code names it in plain
// text. What resolves:
//
//   - pkg.Ident, pkg.Type.Member and (*pkg.Type).Method, where pkg is a
//     repository package (soi for the root): a declaration, method or
//     field of that package, test files included;
//   - Type.Member, where Type is a type declared in the repository: a
//     method or field of such a type;
//   - TestX, BenchmarkX, FuzzX (a sub-benchmark suffix /y is ignored): a
//     declared function;
//   - a path under a top-level directory, or a file name with a known
//     extension: a file or directory of the repository; dir.Ident names a
//     declaration in dir;
//   - snake_case and group.key words: the JSON keys of stats.Snapshot and
//     of the repository's other JSON types, the /metrics names of
//     stats.Snapshot.WritePrometheus, BENCHMARK.json's workload and metric
//     names, and the fault-site strings (the Site* constants and the
//     literals passed to faults.Inject*).
//
// Anything else in backticks (commands, flags, expressions, standard
// library names) is left alone, apart from repository paths inside a
// command.
func TestDocsNameLiveCode(t *testing.T) {
	tree := parseTree(t)
	vocab := liveVocabulary(t, tree)
	design, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	headings := map[string]bool{}
	for _, m := range regexp.MustCompile(`(?m)^## (\d+)\.`).FindAllStringSubmatch(string(design), -1) {
		headings[m[1]] = true
	}

	var problems []string
	// checkRefs reports every section reference of text without a
	// heading. Inside DESIGN.md a bare §n is one too; the paper's
	// sections are written "paper §n" or "Section n".
	sectionRef := regexp.MustCompile(`(DESIGN(?:\.md)?,? |paper )?§(\d+)`)
	checkRefs := func(where, text string, line int, bare bool) {
		for _, m := range sectionRef.FindAllStringSubmatchIndex(text, -1) {
			prefix, n := "", text[m[4]:m[5]]
			if m[2] >= 0 {
				prefix = text[m[2]:m[3]]
			}
			if prefix == "paper " || prefix == "" && !bare || headings[n] {
				continue
			}
			l := line + strings.Count(text[:m[0]], "\n")
			problems = append(problems, fmt.Sprintf("%s:%d: %s has no \"## %s.\" heading", where, l, text[m[0]:m[1]], n))
		}
	}
	for _, doc := range docsNamingCode {
		src, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, sp := range codeSpans(string(src)) {
			if why := tree.check(sp.text, vocab); why != "" {
				problems = append(problems, fmt.Sprintf("%s:%d: `%s`: %s", doc, sp.line, sp.text, why))
			}
		}
		checkRefs(doc, string(src), 1, doc == "DESIGN.md")
	}
	for _, c := range tree.comments {
		checkRefs(c.where, c.text, c.line, false)
	}

	if len(problems) > 0 {
		sort.Strings(problems)
		t.Errorf("%d backticked names or section references resolve to nothing; fix the name, or write deleted code in plain text:\n\t%s",
			len(problems), strings.Join(problems, "\n\t"))
	}
}

// span is one inline code span of a Markdown document.
type span struct {
	text string
	line int
}

var inlineCode = regexp.MustCompile("`([^`]+)`")

// codeSpans returns the inline code spans of a Markdown document, fenced
// blocks left out. A span may wrap across lines; its line is the first.
func codeSpans(doc string) []span {
	lines := strings.Split(doc, "\n")
	fenced := false
	for i, l := range lines {
		if strings.HasPrefix(strings.TrimSpace(l), "```") {
			fenced = !fenced
			lines[i] = ""
		} else if fenced {
			lines[i] = ""
		}
	}
	text := strings.Join(lines, "\n")
	var out []span
	for _, m := range inlineCode.FindAllStringSubmatchIndex(text, -1) {
		s := strings.Join(strings.Fields(text[m[2]:m[3]]), " ")
		out = append(out, span{s, 1 + strings.Count(text[:m[0]], "\n")})
	}
	return out
}

// goTree is what the checker knows of the repository's Go code.
type goTree struct {
	files    map[string]bool            // every file and directory, slash-separated
	base     map[string]bool            // every file's base name
	pkgDirs  map[string][]string        // package name → directories
	decls    map[string]map[string]bool // directory → top-level names
	types    map[string][]string        // type name → directories declaring it
	typeSpec map[string]map[string]*ast.TypeSpec
	methods  map[string]map[string]map[string]bool // directory → type → methods
	sites    []string                              // fault-site strings
	words    map[string]bool                       // json tags, package clauses, literal soi_ metric names
	comments []comment
}

type comment struct {
	where, text string
	line        int
}

func parseTree(t *testing.T) *goTree {
	g := &goTree{
		files: map[string]bool{}, base: map[string]bool{},
		pkgDirs: map[string][]string{}, decls: map[string]map[string]bool{},
		types: map[string][]string{}, typeSpec: map[string]map[string]*ast.TypeSpec{},
		methods: map[string]map[string]map[string]bool{}, words: map[string]bool{},
	}
	fset := token.NewFileSet()
	pkgOf := map[string]string{}
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && p != "." && strings.HasPrefix(d.Name(), ".") && d.Name() != ".github" && d.Name() != ".claude" {
			return fs.SkipDir // .git and the benchmark's build directory
		}
		p = filepath.ToSlash(p)
		g.files[p] = true
		g.base[d.Name()] = true
		if d.IsDir() || !strings.HasSuffix(p, ".go") || strings.Contains(p, "/testdata/") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		g.addFile(fset, path.Dir(p), f, pkgOf)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for dir, pkg := range pkgOf {
		g.pkgDirs[pkg] = append(g.pkgDirs[pkg], dir)
	}
	return g
}

func (g *goTree) addFile(fset *token.FileSet, dir string, f *ast.File, pkgOf map[string]string) {
	pkg := strings.TrimSuffix(f.Name.Name, "_test")
	if dir == "." {
		pkg = "soi"
	}
	pkgOf[dir] = pkg
	g.words[f.Name.Name] = true // a package clause, as in poi_test
	decl := func(name string) {
		if g.decls[dir] == nil {
			g.decls[dir] = map[string]bool{}
		}
		g.decls[dir][name] = true
	}
	method := func(typ, name string) {
		if g.methods[dir] == nil {
			g.methods[dir] = map[string]map[string]bool{}
		}
		if g.methods[dir][typ] == nil {
			g.methods[dir][typ] = map[string]bool{}
		}
		g.methods[dir][typ][name] = true
	}
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil {
				decl(d.Name.Name)
			} else {
				_, recv := typeName(d.Recv.List[0].Type)
				method(recv, d.Name.Name)
			}
		case *ast.GenDecl:
			for _, s := range d.Specs {
				switch s := s.(type) {
				case *ast.TypeSpec:
					decl(s.Name.Name)
					g.types[s.Name.Name] = append(g.types[s.Name.Name], dir)
					if g.typeSpec[dir] == nil {
						g.typeSpec[dir] = map[string]*ast.TypeSpec{}
					}
					g.typeSpec[dir][s.Name.Name] = s
				case *ast.ValueSpec:
					for i, n := range s.Names {
						decl(n.Name)
						if d.Tok == token.CONST && strings.HasPrefix(n.Name, "Site") && i < len(s.Values) {
							if lit, ok := s.Values[i].(*ast.BasicLit); ok && lit.Kind == token.STRING {
								v, _ := strconv.Unquote(lit.Value)
								g.sites = append(g.sites, v)
							}
						}
					}
				}
			}
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if sel, ok := n.Fun.(*ast.SelectorExpr); ok && strings.HasPrefix(sel.Sel.Name, "Inject") {
				if x, ok := sel.X.(*ast.Ident); ok && x.Name == "faults" {
					for _, a := range n.Args {
						if lit, ok := a.(*ast.BasicLit); ok && lit.Kind == token.STRING {
							v, _ := strconv.Unquote(lit.Value)
							g.sites = append(g.sites, v)
						}
					}
				}
			}
		case *ast.BasicLit:
			// Metrics written literally, as httperr.Base's runtime gauges.
			if n.Kind == token.STRING && !strings.HasSuffix(fset.Position(n.Pos()).Filename, "_test.go") {
				for _, m := range literalMetric.FindAllString(n.Value, -1) {
					g.words[m] = true
				}
			}
		case *ast.Field:
			if n.Tag != nil {
				tag, _ := strconv.Unquote(n.Tag.Value)
				if k, _, _ := strings.Cut(reflect.StructTag(tag).Get("json"), ","); k != "" && k != "-" {
					g.words[k] = true
				}
			}
		}
		return true
	})
	for _, cg := range f.Comments {
		g.comments = append(g.comments, comment{fset.Position(cg.Pos()).Filename, cg.Text(), fset.Position(cg.Pos()).Line})
	}
}

// typeName is the named type a type expression refers to, and its
// package qualifier if it has one: T, *T, T[P] and pkg.T.
func typeName(e ast.Expr) (pkg, name string) {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.SelectorExpr:
			if id, ok := x.X.(*ast.Ident); ok {
				pkg = id.Name
			}
			return pkg, x.Sel.Name
		case *ast.Ident:
			return "", x.Name
		default:
			return "", ""
		}
	}
}

// hasMember reports whether the type typ of dir has a field, or with
// methods set a method, named name, through embedded fields and, for a
// type defined from another named type, that type's fields.
func (g *goTree) hasMember(dir, typ, name string, depth int, methods bool) bool {
	if depth > 4 {
		return false
	}
	if methods && g.methods[dir][typ][name] {
		return true
	}
	ts := g.typeSpec[dir][typ]
	if ts == nil {
		return false
	}
	var fields []*ast.Field
	switch u := ts.Type.(type) {
	case *ast.StructType:
		fields = u.Fields.List
	case *ast.InterfaceType:
		fields = u.Methods.List
	default:
		// type T U: T has U's fields, not its methods.
		_, under := typeName(u)
		return g.hasMember(dir, under, name, depth+1, false)
	}
	for _, f := range fields {
		for _, n := range f.Names {
			if n.Name == name {
				return true
			}
		}
		if len(f.Names) > 0 {
			continue
		}
		pkg, emb := typeName(f.Type)
		if emb == name {
			return true
		}
		dirs := []string{dir}
		if pkg != "" {
			dirs = g.pkgDirs[pkg]
		}
		for _, d := range dirs {
			if g.hasMember(d, emb, name, depth+1, true) {
				return true
			}
		}
	}
	return false
}

// resolve reports whether names is Ident or Type.Member of one of dirs.
func (g *goTree) resolve(dirs []string, names []string) bool {
	for _, dir := range dirs {
		switch {
		case !g.decls[dir][names[0]]:
		case len(names) == 1:
			return true
		case len(names) == 2 && g.hasMember(dir, names[0], names[1], 0, true):
			return true
		}
	}
	return false
}

var (
	goIdent       = `[A-Za-z_][A-Za-z0-9_]*`
	dotted        = regexp.MustCompile(`^` + goIdent + `(\.` + goIdent + `)+$`)
	methodExpr    = regexp.MustCompile(`^(?:(` + goIdent + `)\.)?\(\*(?:(` + goIdent + `)\.)?(` + goIdent + `)\)\.(` + goIdent + `)$`)
	testName      = regexp.MustCompile(`^(Test|Benchmark|Fuzz|Example)[A-Z_0-9][A-Za-z0-9_]*\*?(/\S*)?$`)
	snake         = regexp.MustCompile(`^[a-z][a-z0-9]*(_[a-z0-9{},*]+)+$`)
	fileExt       = regexp.MustCompile(`\.(go|md|txt|golden|sh|json|yml|mod)$`)
	literalMetric = regexp.MustCompile(`\bsoi_[a-z0-9_]+`)
	labelSuffix   = regexp.MustCompile(`\{[^}]*=[^}]*\}.*$`)
	topDirs       = map[string]bool{"internal": true, "cmd": true, "examples": true, "bench": true, "testdata": true, ".github": true, ".claude": true}
)

// check returns why a code span names nothing live, or "".
func (g *goTree) check(s string, vocab map[string]bool) string {
	s = strings.TrimPrefix(trimCall(s), "*")
	switch {
	case strings.Contains(s, "["):
		return "" // a type or an index expression
	case strings.Contains(s, " "):
		// A command or an expression: only the repository paths in it.
		for _, f := range strings.Fields(s) {
			f = strings.TrimPrefix(f, "./")
			f = strings.TrimSuffix(strings.TrimSuffix(f, "/..."), "...")
			if first, _, ok := strings.Cut(f, "/"); ok && topDirs[first] && !strings.ContainsAny(f, "<>*") {
				if why := g.checkPath(strings.TrimSuffix(f, "/")); why != "" {
					return why
				}
			}
		}
		return ""
	case methodExpr.MatchString(s):
		m := methodExpr.FindStringSubmatch(s)
		pkg, typ, name := m[1]+m[2], m[3], m[4]
		if pkg == "" {
			if !g.resolve(g.types[typ], []string{typ, name}) {
				return "no type " + typ + " with method " + name
			}
			return ""
		}
		dirs, ok := g.pkgDirs[pkg]
		if !ok {
			return ""
		}
		if !g.resolve(dirs, []string{typ, name}) {
			return "no method " + name + " of " + pkg + "." + typ
		}
		return ""
	case testName.MatchString(s):
		name, _, _ := strings.Cut(s, "/")
		if !g.declaredAnywhere(name) {
			return "no function " + name
		}
		return ""
	}
	if first, _, ok := strings.Cut(strings.TrimPrefix(s, "./"), "/"); ok && !strings.HasPrefix(s, "/") {
		if topDirs[first] {
			return g.checkPath(strings.TrimSuffix(strings.TrimPrefix(s, "./"), "/"))
		}
		return ""
	}
	if fileExt.MatchString(s) && !strings.ContainsAny(s, "/*{_") {
		if !g.base[s] {
			return "no file " + s
		}
		return ""
	}
	if strings.HasPrefix(s, "soi_") {
		s = labelSuffix.ReplaceAllString(s, "")
	}
	if strings.ContainsAny(s, "*{") {
		return g.checkPattern(s, vocab)
	}
	if snake.MatchString(s) {
		if !vocab[s] {
			return "not a stats key, metric, benchmark name or fault site"
		}
		return ""
	}
	if !dotted.MatchString(s) {
		return ""
	}
	names := strings.Split(s, ".")
	if dirs, ok := g.pkgDirs[names[0]]; ok {
		if g.resolve(dirs, names[1:]) || vocab[s] {
			return ""
		}
		if names[0] == "stats" && vocab[strings.Join(names[1:], ".")] {
			return ""
		}
		return "not declared in package " + names[0]
	}
	if _, ok := g.types[names[0]]; ok && !g.resolve(g.types[names[0]], names) {
		return "no type " + names[0] + " with member " + strings.Join(names[1:], ".")
	}
	return ""
}

// trimCall drops the argument list of a call, F(x) or (*T).M(), when
// what precedes it is a name.
func trimCall(s string) string {
	if !strings.HasSuffix(s, ")") {
		return s
	}
	depth := 0
	for i := len(s) - 1; i > 0; i-- {
		switch s[i] {
		case ')':
			depth++
		case '(':
			if depth--; depth == 0 {
				if c := s[i-1]; c == '_' || c == ')' || 'a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' || '0' <= c && c <= '9' {
					return s[:i]
				}
				return s
			}
		}
	}
	return s
}

// checkPath resolves a repository path, a brace list of paths, or
// dir.Ident.
func (g *goTree) checkPath(p string) string {
	if i, j := strings.Index(p, "{"), strings.Index(p, "}"); i >= 0 && j > i {
		for _, alt := range strings.Split(p[i+1:j], ",") {
			if why := g.checkPath(p[:i] + alt + p[j+1:]); why != "" {
				return why
			}
		}
		return ""
	}
	if strings.Contains(p, "*") {
		if m, _ := filepath.Glob(p); len(m) == 0 {
			return "no path matches " + p
		}
		return ""
	}
	if g.files[p] {
		return ""
	}
	dir, file := path.Split(p)
	if pkgDir, ident, ok := strings.Cut(file, "."); ok && !fileExt.MatchString(p) && g.files[dir+pkgDir] {
		names := strings.Split(ident, ".")
		if g.resolve([]string{dir + pkgDir}, names) {
			return ""
		}
		return "not declared in " + dir + pkgDir
	}
	return "no such path"
}

// checkPattern resolves a name with a glob or a brace list: each
// expansion must match something in the vocabulary or the tree.
func (g *goTree) checkPattern(s string, vocab map[string]bool) string {
	if i, j := strings.Index(s, "{"), strings.Index(s, "}"); i >= 0 && j > i {
		for _, alt := range strings.Split(s[i+1:j], ",") {
			if why := g.checkPattern(s[:i]+alt+s[j+1:], vocab); why != "" {
				return why
			}
		}
		return ""
	}
	if !strings.Contains(s, "*") {
		return g.check(s, vocab)
	}
	names := strings.Split(s, ".")
	if _, ok := g.pkgDirs[names[0]]; ok && len(names) == 2 && names[1] == "*" {
		return "" // a group's metrics, as a whole
	}
	for w := range vocab {
		if ok, _ := path.Match(s, w); ok {
			return ""
		}
		if ok, _ := path.Match(s, "stats."+w); ok {
			return ""
		}
	}
	if dirs, ok := g.pkgDirs[names[0]]; ok && len(names) <= 3 {
		for _, d := range dirs {
			candidates := g.decls[d]
			if len(names) == 3 {
				candidates = g.methods[d][names[1]]
			}
			for n := range candidates {
				if ok, _ := path.Match(names[len(names)-1], n); ok {
					return ""
				}
			}
		}
	} else if len(names) == 1 {
		for _, d := range g.decls {
			for n := range d {
				if ok, _ := path.Match(s, n); ok {
					return ""
				}
			}
		}
	}
	return "matches nothing"
}

func (g *goTree) declaredAnywhere(name string) bool {
	for _, d := range g.decls {
		for n := range d {
			if ok, _ := path.Match(name, n); ok {
				return true
			}
		}
	}
	return false
}

// liveVocabulary collects the words that are not Go names but name live
// things: /api/stats keys, /metrics names, BENCHMARK.json's names, the
// fault sites and the repository's JSON keys.
func liveVocabulary(t *testing.T, g *goTree) map[string]bool {
	v := map[string]bool{}
	for k := range g.words {
		v[k] = true
	}
	for _, s := range g.sites {
		v[s] = true
	}
	var walk func(typ reflect.Type, prefix string)
	walk = func(typ reflect.Type, prefix string) {
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			key, _, _ := strings.Cut(f.Tag.Get("json"), ",")
			switch {
			case key == "-":
			case f.Anonymous && key == "":
				walk(f.Type, prefix)
			default:
				v[key], v[prefix+key] = true, true
				if f.Type.Kind() == reflect.Struct {
					walk(f.Type, prefix+key+".")
				}
			}
		}
	}
	walk(reflect.TypeOf(stats.Snapshot{}), "")

	// A zero snapshot with every label set, so the info gauges render.
	var snap stats.Snapshot
	var label func(reflect.Value)
	label = func(x reflect.Value) {
		switch x.Kind() {
		case reflect.String:
			x.SetString("x")
		case reflect.Struct:
			for i := 0; i < x.NumField(); i++ {
				label(x.Field(i))
			}
		}
	}
	label(reflect.ValueOf(&snap).Elem())
	var prom bytes.Buffer
	if err := snap.WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(prom.String(), "\n") {
		if f := strings.Fields(strings.TrimPrefix(line, "# TYPE ")); len(f) > 0 {
			name, _, _ := strings.Cut(f[0], "{")
			v[name] = true
		}
	}

	type named []struct{ Name string }
	var bench struct {
		Workloads named `json:"workloads"`
		EndToEnd  named `json:"end_to_end"`
		PerLayer  named `json:"per_layer"`
	}
	src, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(src, &bench); err != nil {
		t.Fatal(err)
	}
	for _, list := range []named{bench.Workloads, bench.EndToEnd, bench.PerLayer} {
		for _, m := range list {
			v[m.Name] = true
		}
	}
	return v
}
