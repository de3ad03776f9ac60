package s3sched_test

// Tree tests: the docs name code that exists, every exported name has a
// caller, and the round loop depends on no cluster transport. The docs
// and import tests read the source with go/parser and go/ast only; the
// export audit type-checks it with go/types, importing the standard
// library from the export data `go list -export` builds.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
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

// exportAllowlist names the exported names nothing resolves to outside
// tests that stay, each with its reason.
var exportAllowlist = map[string]string{
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

	// Audited and kept: test seams.
	"dfs.Store.SetReadFault": "test seam: the hook the cache's fault tests break reads through",
}

// TestExportsHaveCallers fails on every exported top-level name or
// method of the module that nothing outside tests resolves to (see
// uncalledExports). bench/perf counts as a caller. What has no caller is
// deleted, or allowlisted with a reason.
func TestExportsHaveCallers(t *testing.T) {
	fset := token.NewFileSet()
	listed := listModules(t)
	var pkgs []auditPkg
	for _, p := range listed {
		if p.Standard {
			continue
		}
		a := auditPkg{path: p.ImportPath, callerOnly: strings.HasPrefix(p.ImportPath, "s3sched/bench/perf")}
		for _, name := range p.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			a.files = append(a.files, f)
		}
		pkgs = append(pkgs, a)
	}
	uncalled, err := uncalledExports(fset, pkgs, stdImporter(fset, listed))
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, key := range uncalled {
		seen[key] = true
		if _, ok := exportAllowlist[key]; !ok {
			t.Errorf("%s has no caller outside tests: delete it, or allowlist it with a reason", key)
		}
	}
	for k, why := range exportAllowlist {
		if !seen[k] {
			t.Errorf("allowlist entry %s names no export without callers: drop the entry", k)
		}
		if why == "" {
			t.Errorf("allowlist entry %s gives no reason", k)
		}
	}
}

// TestExportAuditResolvesTypes holds the audit to its three rules on a
// package of its own: a method sharing its name with a called method of
// another type is reported, and a method reached only through an
// interface it implements, or only through fmt's %v, is not.
func TestExportAuditResolvesTypes(t *testing.T) {
	const src = `package main

import "fmt"

type A struct{}

func (A) Name() string { return "a" }

type B struct{}

func (B) Name() string { return "b" }

type Shape interface{ Area() int }

type Square struct{ Side int }

func (s Square) Area() int { return s.Side * s.Side }

type Label struct{}

func (Label) String() string { return "label" }

func main() {
	var s Shape = Square{2}
	fmt.Printf("%s %v %d %v\n", A{}.Name(), B{}, s.Area(), Label{})
}
`
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", src, 0)
	if err != nil {
		t.Fatal(err)
	}
	got, err := uncalledExports(fset, []auditPkg{{path: "p", files: []*ast.File{f}}}, stdImporter(fset, listModules(t)))
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"p.B.Name"}; !slices.Equal(got, want) {
		t.Errorf("uncalled exports %v, want %v", got, want)
	}
}

// listPkg is what the audit reads of one `go list -json` package.
type listPkg struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Export     string
	Standard   bool
}

var goList struct {
	once sync.Once
	pkgs []listPkg
	err  error
}

// listModules returns the packages of both modules (the root's and
// bench/perf's) and everything they import, each once and after what it
// imports, as `go list -export -json -deps ./...` prints them; -export
// builds the export data the standard library is imported from.
func listModules(t *testing.T) []listPkg {
	t.Helper()
	goList.once.Do(func() {
		seen := map[string]bool{}
		for _, dir := range []string{".", "bench/perf"} {
			cmd := exec.Command("go", "list", "-export", "-json", "-deps", "./...")
			cmd.Dir = dir
			out, err := cmd.Output()
			if err != nil {
				if ee, ok := err.(*exec.ExitError); ok {
					err = fmt.Errorf("%v: %s", err, ee.Stderr)
				}
				goList.err = fmt.Errorf("go list in %s: %v", dir, err)
				return
			}
			for dec := json.NewDecoder(bytes.NewReader(out)); dec.More(); {
				var p listPkg
				if err := dec.Decode(&p); err != nil {
					goList.err = err
					return
				}
				if !seen[p.ImportPath] {
					seen[p.ImportPath] = true
					goList.pkgs = append(goList.pkgs, p)
				}
			}
		}
	})
	if goList.err != nil {
		t.Fatal(goList.err)
	}
	return goList.pkgs
}

// stdImporter imports the standard library packages of pkgs from their
// export data.
func stdImporter(fset *token.FileSet, pkgs []listPkg) types.Importer {
	export := map[string]string{}
	for _, p := range pkgs {
		if p.Standard {
			export[p.ImportPath] = p.Export
		}
	}
	return importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		f, ok := export[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %s", path)
		}
		return os.Open(f)
	})
}

// auditPkg is one package the audit type-checks from source.
type auditPkg struct {
	path       string
	files      []*ast.File // its non-test files
	callerOnly bool        // its uses count, its own exports are not audited
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// uncalledExports type-checks pkgs in order, each importing those before
// it and the standard library from std, and returns, sorted, the keys
// (pkg.Name or pkg.Type.Method, pkg the last path element) of the audited
// exports nothing resolves to. A top-level name is used by an identifier
// that resolves to it. A method is used by a selection that resolves to
// it, promoted through embedding or not, or when it is what a type's
// method set supplies to an interface the type implements: an interface
// the checked code spells or meets in the signature of a function it
// uses, or one of the standard library's contracts the runtime calls
// without the code naming them (error, fmt.Stringer, net.Error and
// errors.Unwrap's).
func uncalledExports(fset *token.FileSet, pkgs []auditPkg, std types.Importer) ([]string, error) {
	checked := map[string]*types.Package{}
	conf := types.Config{Importer: importerFunc(func(path string) (*types.Package, error) {
		if p, ok := checked[path]; ok {
			return p, nil
		}
		return std.Import(path)
	})}
	used := map[types.Object]bool{}
	ifaces := map[string]*types.Interface{} // by type string
	seen := map[types.Type]bool{}
	var instances []*types.Named // of generic types, as the code uses them
	var collect func(types.Type)
	collect = func(t types.Type) {
		t = types.Unalias(t)
		if t == nil || seen[t] {
			return
		}
		seen[t] = true
		switch u := t.(type) {
		case *types.Named:
			if u.TypeArgs().Len() > 0 {
				instances = append(instances, u)
			}
			if it, ok := u.Underlying().(*types.Interface); ok && (u.TypeParams().Len() == 0 || u.TypeArgs().Len() > 0) {
				ifaces[types.TypeString(u, nil)] = it
			}
		case *types.Interface:
			ifaces[types.TypeString(u, nil)] = u
		case *types.Signature:
			for _, tup := range []*types.Tuple{u.Params(), u.Results()} {
				for i := 0; i < tup.Len(); i++ {
					collect(tup.At(i).Type())
				}
			}
		case *types.Pointer:
			collect(u.Elem())
		case *types.Slice:
			collect(u.Elem())
		case *types.Array:
			collect(u.Elem())
		case *types.Chan:
			collect(u.Elem())
		case *types.Map:
			collect(u.Key())
			collect(u.Elem())
		}
	}
	for _, p := range pkgs {
		info := &types.Info{
			Types: map[ast.Expr]types.TypeAndValue{},
			Uses:  map[*ast.Ident]types.Object{},
		}
		tp, err := conf.Check(p.path, fset, p.files, info)
		if err != nil {
			return nil, err
		}
		checked[p.path] = tp
		for _, obj := range info.Uses {
			switch o := obj.(type) {
			case *types.Func:
				obj = o.Origin()
			case *types.Var:
				obj = o.Origin()
			}
			used[obj] = true
			collect(obj.Type())
		}
		for _, tv := range info.Types {
			collect(tv.Type)
		}
	}

	// The contracts the standard library calls through values the code
	// hands it as any (fmt's verbs, errors.Is and As, net's callers).
	errType := types.Universe.Lookup("error").Type()
	ifaces["error"] = errType.Underlying().(*types.Interface)
	for _, c := range [][2]string{{"fmt", "Stringer"}, {"net", "Error"}} {
		p, err := std.Import(c[0])
		if err != nil {
			return nil, err
		}
		ifaces[c[0]+"."+c[1]] = p.Scope().Lookup(c[1]).Type().Underlying().(*types.Interface)
	}
	unwrap := types.NewSignatureType(nil, nil, nil, nil, types.NewTuple(types.NewVar(token.NoPos, nil, "", errType)), false)
	ifaces["errors.Unwrap"] = types.NewInterfaceType([]*types.Func{types.NewFunc(token.NoPos, nil, "Unwrap", unwrap)}, nil).Complete()

	// Mark what each type's method set supplies to the interfaces it
	// implements: bench/perf's types too (theirs may promote a module
	// type's methods), and a generic type's in each instance the code uses.
	named := instances
	for _, p := range pkgs {
		scope := checked[p.path].Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok && !tn.IsAlias() {
				if n := tn.Type().(*types.Named); n.TypeParams().Len() == 0 {
					named = append(named, n)
				}
			}
		}
	}
	for _, n := range named {
		if types.IsInterface(n) {
			continue
		}
		for _, recv := range []types.Type{n, types.NewPointer(n)} {
			mset := types.NewMethodSet(recv)
			if mset.Len() == 0 {
				continue
			}
			for _, it := range ifaces {
				if it.NumMethods() == 0 || !types.Implements(recv, it) {
					continue
				}
				for i := 0; i < it.NumMethods(); i++ {
					m := it.Method(i)
					if sel := mset.Lookup(m.Pkg(), m.Name()); sel != nil {
						used[sel.Obj().(*types.Func).Origin()] = true
					}
				}
			}
		}
	}

	var uncalled []string
	for _, p := range pkgs {
		if p.callerOnly {
			continue
		}
		short := path.Base(p.path)
		scope := checked[p.path].Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if obj.Exported() && !used[obj] {
				uncalled = append(uncalled, short+"."+name)
			}
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named := tn.Type().(*types.Named)
			for i := 0; i < named.NumMethods(); i++ {
				if m := named.Method(i); m.Exported() && !used[m] {
					uncalled = append(uncalled, short+"."+name+"."+m.Name())
				}
			}
		}
	}
	sort.Strings(uncalled)
	return uncalled, nil
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

// TestRuntimeImportsNoCluster fails when internal/runtime's non-test
// files, or those of any package they import transitively, import the
// cluster's membership vocabulary or its transport: the round loop sees
// no membership, which the master's table records and reports itself.
func TestRuntimeImportsNoCluster(t *testing.T) {
	imports := map[string][]string{} // package → what its non-test files import
	for _, f := range parseTree(t) {
		if !f.test {
			for _, p := range importNames(f.ast) {
				imports[f.pkg] = append(imports[f.pkg], p)
			}
		}
	}
	via := map[string]string{"s3sched/internal/runtime": ""} // package → who imports it
	for queue := []string{"s3sched/internal/runtime"}; len(queue) > 0; queue = queue[1:] {
		for _, p := range imports[queue[0]] {
			if _, seen := via[p]; !seen {
				via[p] = queue[0]
				queue = append(queue, p)
			}
		}
	}
	for _, banned := range []string{"s3sched/internal/comms", "s3sched/internal/remote"} {
		if by, ok := via[banned]; ok {
			t.Errorf("internal/runtime depends on %s, imported by %s", banned, by)
		}
	}
}
