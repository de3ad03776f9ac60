package s3sched_test

// Tree tests: the docs name code that exists, and every exported name
// has a caller. Both read the source with go/parser and go/ast only, so
// they run in tier-1 and need no build of what they read.

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// srcFile is one parsed .go file of the tree.
type srcFile struct {
	pkg  string // import path of its directory
	test bool
	ast  *ast.File
}

// walkTree visits every file of the tree but those under a directory
// whose name starts with a dot (.git, .github, and the .bench_build copies
// of the tree bench/perf/ab.sh leaves) or is testdata.
func walkTree(t *testing.T, visit func(p string)) {
	t.Helper()
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if d.Type().IsRegular() {
			visit(filepath.ToSlash(p))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// parseTree parses every .go file of the tree, bench/perf's module
// included (its import paths keep the s3sched/ prefix).
func parseTree(t *testing.T) []srcFile {
	t.Helper()
	fset := token.NewFileSet()
	var files []srcFile
	walkTree(t, func(p string) {
		if !strings.HasSuffix(p, ".go") {
			return
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		pkg := "s3sched"
		if dir := path.Dir(p); dir != "." {
			pkg += "/" + dir
		}
		files = append(files, srcFile{pkg: pkg, test: strings.HasSuffix(p, "_test.go"), ast: f})
	})
	return files
}

// recvName is the type name of a method's receiver.
func recvName(fd *ast.FuncDecl) string {
	x := fd.Recv.List[0].Type
	if s, ok := x.(*ast.StarExpr); ok {
		x = s.X
	}
	if ix, ok := x.(*ast.IndexExpr); ok { // generic receiver T[K]
		x = ix.X
	}
	if ix, ok := x.(*ast.IndexListExpr); ok {
		x = ix.X
	}
	return x.(*ast.Ident).Name
}

// importNames maps each name a file imports a repository package under
// to that package's import path.
func importNames(f *ast.File) map[string]string {
	m := map[string]string{}
	for _, is := range f.Imports {
		p, _ := strconv.Unquote(is.Path.Value)
		if !strings.HasPrefix(p, "s3sched") {
			continue
		}
		name := path.Base(p)
		if is.Name != nil {
			name = is.Name.Name
		}
		m[name] = p
	}
	return m
}

// exportAllowlist names the exported names that have no identifier use
// in a non-test file and stay, each with its reason.
var exportAllowlist = map[string]string{
	// Methods of a standard library interface, called by the library.
	"remote.allWorkersError.Unwrap":      "errors.Is/As see the transport error under an outage",
	"scheduler.RoundLostError.Unwrap":    "errors.Is/As unwrap it",
	"workload.LineError.Unwrap":          "errors.Is/As unwrap it",
	"remote.TaskDeadlineError.Temporary": "net.Error, which a task deadline implements to fail over",

	// Audited and kept: the segment plan's circular-scan vocabulary
	// (§IV-B), which the plan's property tests state their invariants in.
	"dfs.SegmentPlan.SegmentOf":     "segment-plan API: the partition property test's block → segment map",
	"dfs.SegmentPlan.SegmentBytes":  "segment-plan API: the partition property test's byte sums",
	"dfs.SegmentPlan.CircularOrder": "segment-plan API: §IV-B's circular order, the dfs example and property test",
	"dfs.SegmentPlan.Distance":      "segment-plan API: circular distance, held to CircularOrder by a property test",

	// Audited and kept: the trace log's read side, which tests and the
	// trace goldens read events through.
	"trace.Log.WriteJSON":    "trace log export the trace goldens pin",
	"trace.Log.OfKind":       "trace log read API the package tests assert events through",
	"trace.Log.Dropped":      "trace log accounting of events dropped at capacity",
	"trace.Log.DroppedSpans": "trace log accounting of spans refused when the store is full",

	// Audited and kept: a test seam.
	"dfs.Store.SetReadFault": "test seam: the hook the cache's fault tests break reads through",
}

// exportDecl is one exported top-level name or method of the module.
type exportDecl struct {
	key    string // pkg.Name or pkg.Type.Method, pkg the last path element
	pkg    string // import path
	name   string
	method bool
}

// TestExportsHaveCallers fails on every exported top-level name or
// method of the module that no non-test .go file uses: a top-level name
// is used by a bare identifier in its own package or by pkg.Name
// elsewhere, a method by any selector of its name. bench/perf counts as
// a caller. What has no caller is deleted, or allowlisted with a reason.
func TestExportsHaveCallers(t *testing.T) {
	files := parseTree(t)
	var decls []exportDecl
	declIdents := map[*ast.Ident]bool{}
	for _, f := range files {
		if f.test || strings.HasPrefix(f.pkg, "s3sched/bench/perf") {
			continue
		}
		short := path.Base(f.pkg)
		for _, d := range f.ast.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if !d.Name.IsExported() {
					continue
				}
				e := exportDecl{key: short + "." + d.Name.Name, pkg: f.pkg, name: d.Name.Name}
				if d.Recv != nil {
					e.key = short + "." + recvName(d) + "." + d.Name.Name
					e.method = true
				}
				decls = append(decls, e)
				declIdents[d.Name] = true
			case *ast.GenDecl:
				for _, s := range d.Specs {
					var names []*ast.Ident
					switch s := s.(type) {
					case *ast.TypeSpec:
						names = []*ast.Ident{s.Name}
					case *ast.ValueSpec:
						names = s.Names
					}
					for _, n := range names {
						if n.IsExported() {
							decls = append(decls, exportDecl{key: short + "." + n.Name, pkg: f.pkg, name: n.Name})
							declIdents[n] = true
						}
					}
				}
			}
		}
	}

	// Count uses: bare identifiers per package, pkg.Name per import path,
	// selectors per name.
	bare := map[string]int{}      // pkg + " " + name
	qualified := map[string]int{} // import path + " " + name
	selectors := map[string]int{} // name
	for _, f := range files {
		if f.test {
			continue
		}
		imports := importNames(f.ast)
		sels := map[*ast.Ident]bool{}
		ast.Inspect(f.ast, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				sels[n.Sel] = true
				selectors[n.Sel.Name]++
				if x, ok := n.X.(*ast.Ident); ok {
					if p, ok := imports[x.Name]; ok {
						qualified[p+" "+n.Sel.Name]++
					}
				}
			case *ast.Ident:
				if !sels[n] && !declIdents[n] {
					bare[f.pkg+" "+n.Name]++
				}
			}
			return true
		})
	}

	seen := map[string]bool{}
	for _, e := range decls {
		used := selectors[e.name] > 0
		if !e.method {
			used = bare[e.pkg+" "+e.name]+qualified[e.pkg+" "+e.name] > 0
		}
		if used {
			continue
		}
		seen[e.key] = true
		if _, ok := exportAllowlist[e.key]; !ok {
			t.Errorf("%s has no caller outside tests: delete it, or allowlist it with a reason", e.key)
		}
	}
	for k := range exportAllowlist {
		if !seen[k] {
			t.Errorf("allowlist entry %s names no export without callers: drop the entry", k)
		}
	}
}

// What the doc test reads: inline code spans outside fenced blocks, the
// names, paths and section citations in them, and DESIGN.md's headings.
var (
	fencedBlock = regexp.MustCompile("(?s)```.*?```")
	codeSpan    = regexp.MustCompile("`([^`\n]+)`")
	qualName    = regexp.MustCompile(`(?:^|[^\w./])([a-z][a-z0-9]*)\.([A-Z]\w*)(?:\.([A-Za-z]\w*))?`)
	repoPath    = regexp.MustCompile(`^[\w\-]+(?:/[\w\-.*{}<>,…]*)+$`)
	sectionRef  = regexp.MustCompile(`DESIGN\.md §(\d+)`)
	sectionHead = regexp.MustCompile(`(?m)^## (\d+)\. `)
)

// goTestFlags are the flags of `go test` and `go run` the docs may show.
var goTestFlags = map[string]bool{
	"run": true, "bench": true, "benchmem": true, "benchtime": true, "count": true,
	"cpu": true, "fuzz": true, "fuzztime": true, "race": true, "short": true,
	"timeout": true, "v": true, "cover": true, "coverprofile": true, "tags": true,
}

// typeDecls indexes, per "pkg.Type", the fields and methods a doc's
// pkg.Type.Member may name and the types it embeds.
type typeDecls struct {
	members map[string]map[string]bool
	embeds  map[string][]string
}

// has reports whether typ has member m, directly or through an embedded
// type.
func (d typeDecls) has(typ, m string) bool {
	if d.members[typ][m] {
		return true
	}
	for _, e := range d.embeds[typ] {
		if d.has(e, m) {
			return true
		}
	}
	return false
}

// typeName is the "pkg.Type" key an embedded field's type names, pkg being
// short when the type is unqualified.
func typeName(x ast.Expr, short string) string {
	for {
		switch y := x.(type) {
		case *ast.StarExpr:
			x = y.X
		case *ast.IndexExpr:
			x = y.X
		case *ast.IndexListExpr:
			x = y.X
		case *ast.SelectorExpr:
			if p, ok := y.X.(*ast.Ident); ok {
				return p.Name + "." + y.Sel.Name
			}
			return ""
		case *ast.Ident:
			return short + "." + y.Name
		default:
			return ""
		}
	}
}

// TestDocsNameLiveCode holds DESIGN.md, README.md and EXPERIMENTS.md to
// the tree: every backticked pkg.Name[.Member] of a repository package
// resolves to a declaration, field or method, every backticked path
// exists, every `DESIGN.md §N` in the tree names a `## N.` heading, and
// every backticked -flag in README.md is one a binary defines.
func TestDocsNameLiveCode(t *testing.T) {
	files := parseTree(t)

	// What each repository package declares, by its last path element
	// (the name the docs qualify with).
	topLevel := map[string]bool{} // "pkg.Name"
	types := typeDecls{members: map[string]map[string]bool{}, embeds: map[string][]string{}}
	addMember := func(typ, m string) {
		if types.members[typ] == nil {
			types.members[typ] = map[string]bool{}
		}
		types.members[typ][m] = true
	}
	flags := map[string]bool{}
	for _, f := range files {
		if f.test || strings.HasPrefix(f.pkg, "s3sched/bench/perf") {
			continue
		}
		short := path.Base(f.pkg)
		for _, d := range f.ast.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil {
					topLevel[short+"."+d.Name.Name] = true
				} else {
					addMember(short+"."+recvName(d), d.Name.Name)
				}
			case *ast.GenDecl:
				for _, s := range d.Specs {
					switch s := s.(type) {
					case *ast.TypeSpec:
						typ := short + "." + s.Name.Name
						topLevel[typ] = true
						var fl *ast.FieldList
						switch x := s.Type.(type) {
						case *ast.StructType:
							fl = x.Fields
						case *ast.InterfaceType:
							fl = x.Methods
						}
						if fl == nil {
							continue
						}
						for _, fd := range fl.List {
							for _, n := range fd.Names {
								addMember(typ, n.Name)
							}
							if len(fd.Names) == 0 { // embedded: a member by its type's name
								if e := typeName(fd.Type, short); e != "" {
									addMember(typ, e[strings.IndexByte(e, '.')+1:])
									types.embeds[typ] = append(types.embeds[typ], e)
								}
							}
						}
					case *ast.ValueSpec:
						for _, n := range s.Names {
							topLevel[short+"."+n.Name] = true
						}
					}
				}
			}
		}
		if strings.HasPrefix(f.pkg, "s3sched/cmd/") {
			ast.Inspect(f.ast, func(n ast.Node) bool {
				if c, ok := n.(*ast.CallExpr); ok && len(c.Args) > 0 {
					if name, ok := flagName(c); ok {
						flags[name] = true
					}
				}
				return true
			})
		}
	}
	repoPkgs := map[string]bool{}
	for k := range topLevel {
		repoPkgs[k[:strings.IndexByte(k, '.')]] = true
	}
	delete(repoPkgs, "main")

	design, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	heads := map[string]bool{}
	for _, m := range sectionHead.FindAllStringSubmatch(string(design), -1) {
		heads[m[1]] = true
	}

	for _, doc := range []string{"DESIGN.md", "README.md", "EXPERIMENTS.md"} {
		b, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		text := fencedBlock.ReplaceAllString(string(b), "")
		for _, span := range codeSpan.FindAllStringSubmatch(text, -1) {
			s := span[1]
			for _, m := range qualName.FindAllStringSubmatch(s, -1) {
				pkg, name, member := m[1], m[2], m[3]
				ref := pkg + "." + name
				if !repoPkgs[pkg] {
					continue
				}
				switch {
				case !topLevel[ref]:
					t.Errorf("%s: `%s` names %s, which package %s does not declare", doc, s, ref, pkg)
				case member != "" && !types.has(ref, member):
					t.Errorf("%s: `%s` names %s.%s, which is no field or method of %s", doc, s, ref, member, ref)
				}
			}
			if p, dir, ok := docPath(s); ok && !pathExists(dir, p) {
				t.Errorf("%s: `%s` names a path that does not exist", doc, s)
			}
			if doc != "README.md" {
				continue
			}
			for _, tok := range strings.Fields(s) {
				if !strings.HasPrefix(tok, "-") || strings.HasPrefix(tok, "--") || len(tok) < 2 {
					continue
				}
				name, _, _ := strings.Cut(tok[1:], "=")
				if !flags[name] && !goTestFlags[name] {
					t.Errorf("%s: `%s` shows flag -%s, which no binary under cmd/ defines", doc, s, name)
				}
			}
		}
	}

	walkTree(t, func(p string) {
		b, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range sectionRef.FindAllStringSubmatch(string(b), -1) {
			if !heads[m[1]] {
				t.Errorf("%s cites DESIGN.md §%s, which has no `## %s.` heading", p, m[1], m[1])
			}
		}
	})
}

// flagName returns the name a flag-defining call (flag.Int("blocks", …),
// fs.StringVar(&v, "o", …)) gives its flag.
func flagName(c *ast.CallExpr) (string, bool) {
	sel, ok := c.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	arg := 0
	switch sel.Sel.Name {
	case "String", "Int", "Int64", "Uint", "Uint64", "Bool", "Float64", "Duration", "Func", "BoolFunc":
	case "StringVar", "IntVar", "Int64Var", "UintVar", "Uint64Var", "BoolVar", "Float64Var", "DurationVar", "Var", "TextVar":
		arg = 1
	default:
		return "", false
	}
	if len(c.Args) <= arg {
		return "", false
	}
	lit, ok := c.Args[arg].(*ast.BasicLit)
	if !ok || lit.Kind != token.STRING {
		return "", false
	}
	name, err := strconv.Unquote(lit.Value)
	return name, err == nil
}

// docPath reports whether a code span is a repository path: one token
// with a slash whose first element is an entry of the repository root or
// a package directory under internal/ (docs write internal/remote/stash.go
// as remote/stash.go), and no URL, HTTP route or flag. It returns the
// directory the path is relative to.
func docPath(s string) (string, string, bool) {
	s = strings.TrimPrefix(s, "./")
	first, _, ok := strings.Cut(s, "/")
	if !ok || strings.ContainsAny(s, " :") || !repoPath.MatchString(s) {
		return "", "", false
	}
	for _, dir := range []string{".", "internal"} {
		if _, err := os.Stat(filepath.Join(dir, first)); err == nil && first != "" {
			return s, dir, true
		}
	}
	return "", "", false
}

// placeholder matches the <name> and … a doc path stands for a set with.
var placeholder = regexp.MustCompile(`<[^>]*>|…`)

// pathExists reports whether a doc path names something under dir. A path
// may carry shell braces ({a,b}, {a..f}), <placeholders>, … ranges and *
// globs; every expansion of the braces must match something.
func pathExists(dir, p string) bool {
	for _, q := range expandBraces(p) {
		q = placeholder.ReplaceAllString(q, "*")
		if m, _ := filepath.Glob(filepath.Join(dir, filepath.FromSlash(q))); len(m) == 0 {
			return false
		}
	}
	return true
}

// expandBraces expands the first {a,b,c} or {a..f} group of p, and
// recursively the rest.
func expandBraces(p string) []string {
	i := strings.IndexByte(p, '{')
	j := strings.IndexByte(p, '}')
	if i < 0 || j < i {
		return []string{p}
	}
	var alts []string
	body := p[i+1 : j]
	if lo, hi, ok := strings.Cut(body, ".."); ok && len(lo) == 1 && len(hi) == 1 {
		for c := lo[0]; c <= hi[0]; c++ {
			alts = append(alts, string(c))
		}
	} else {
		alts = strings.Split(body, ",")
	}
	var out []string
	for _, a := range alts {
		out = append(out, expandBraces(p[:i]+a+p[j+1:])...)
	}
	return out
}
