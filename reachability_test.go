package jpegact

// The reachability guard: nothing ships that nothing runs. It type-checks
// the whole tree from source (stdlib only, nothing to download) and fails
// on every package-level func, method, type, var and const of a non-test
// file that none of these reaches:
//
//   - main of every cmd/* program, and every init;
//   - every non-test file of bench/ (its own module, built from this tree);
//   - shared test support: whatever a _test.go file of a *different*
//     directory names. An object's own package's tests do not count — the
//     oracle they hold live code against belongs in a _test.go file, where
//     this guard does not look;
//   - an example, for the facade names its files mention and nothing else:
//     it demonstrates the public API, so what it imports from internal/
//     directly it keeps no more alive than a test of that package would.
//     What an example declares for itself is exempt.
//
// An exported name of this facade package is not a root: it is live when
// one of the above names it. The object pass reports what nothing at all
// reaches; the roots pass reports what only an example's direct import or
// an unnamed facade name reaches, and says which. Every main is itself run
// by a test: cmd/*/main_test.go and examples/examples_test.go.
//
// A method is reached when it is named, or when its receiver type is
// reached and implements an interface that declares it: an interface of
// this module that is itself reached, or any exported interface of a
// package the module imports (so fmt.Stringer and net.Conn count). The
// constants of one iota group are reached together. There is no allowlist.
//
// The field pass applies the same rule to options: nothing is configurable
// that nothing configures. An exported field of a named struct declared in
// a non-test file fails when non-test code reads it and no non-test file of
// the tree writes it. A write is an assignment to or through the field
// (index, slice, dereference, a further selector, &, ++, a method call on
// it), a keyed element of a composite literal, or a positional literal of
// its struct. Two exceptions, both derived from who writes the field: a
// _test.go file of a different directory does (shared test support), or
// the field is func- or interface-typed and some test installs it — a
// seam is behaviour, a knob is a value.
//
// The flag pass closes the clause types cannot: every flag.*("name", …) of
// a cmd/*/main.go must be passed as -name by something that runs or that a
// reader is told to run — a string literal of a _test.go file that is the
// command's own or names the command, or a command line that starts with
// the command's name in README, DESIGN, EXPERIMENTS, the verify skill, the
// Makefile or the workflow. A flag table and the flag's own usage string
// start with no command name, so neither is a caller.
//
// The test-name pass holds the documents to the suite: every Test*/Fuzz*
// name that README, DESIGN, EXPERIMENTS, ROADMAP, bench/README.md or the
// verify skill mentions must be declared by a _test.go file of the tree.

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
)

const reachModule = "jpegact"

// reachDir is one directory of Go source, parsed once. Its non-test files
// are type-checked once, as importers see them; its tests separately.
type reachDir struct {
	rel           string // "" for the module root
	prod, in, ext []*ast.File
	pkg           *types.Package // of prod, once imported
	tests         *types.Info    // of in and ext, nil without tests
}

// reachNode is one package-level declaration of a non-test file, keyed in
// reachGraph.nodes by the position of its name: positions, unlike
// types.Objects, are the same in every type-checking pass.
type reachNode struct {
	pos   token.Position
	kind  string
	name  string
	rel   string
	group string       // the iota const group it belongs to, if any
	obj   types.Object // from the non-test pass
	decl  ast.Node
	uses  []string // keys of the nodes its declaration names
}

type reachGraph struct {
	root   string
	fset   *token.FileSet
	std    types.Importer
	dirs   map[string]*reachDir // by import path
	bench  *reachDir
	info   *types.Info // of the non-test pass over every directory
	errs   []error
	nodes  map[string]*reachNode
	live   map[string]bool
	work   []string
	stage  map[string]int // by node key: which roots it takes to reach it
	fields map[string]*reachField
}

func newReachInfo() *types.Info {
	return &types.Info{
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
		Types: map[ast.Expr]types.TypeAndValue{},
	}
}

// Import implements types.Importer: module packages from the parsed tree,
// everything else from GOROOT source.
func (g *reachGraph) Import(path string) (*types.Package, error) {
	d := g.dirs[path]
	if d == nil {
		return g.std.Import(path)
	}
	if d.pkg == nil {
		d.pkg = g.check(path, d.prod, g.info)
	}
	return d.pkg, nil
}

func (g *reachGraph) check(path string, files []*ast.File, info *types.Info) *types.Package {
	conf := types.Config{Importer: g, Error: func(err error) { g.errs = append(g.errs, err) }}
	pkg, _ := conf.Check(path, g.fset, files, info)
	return pkg
}

// parseTree parses every Go file under root that the host platform builds.
// bench/ is its own module but compiles against this tree, so it loads as
// one more directory of it.
func (g *reachGraph) parseTree(root string) error {
	return filepath.WalkDir(root, func(p string, e fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := e.Name()
		if e.IsDir() {
			if p != root && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		dir := filepath.Dir(p)
		if ok, _ := build.Default.MatchFile(dir, name); !ok || !strings.HasSuffix(name, ".go") {
			return nil
		}
		f, err := parser.ParseFile(g.fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, dir)
		rel = filepath.ToSlash(rel)
		path := reachModule + "/" + rel
		if rel == "." {
			rel, path = "", reachModule
		}
		d := g.dirs[path]
		if d == nil {
			d = &reachDir{rel: rel}
			g.dirs[path] = d
		}
		switch {
		case !strings.HasSuffix(name, "_test.go"):
			d.prod = append(d.prod, f)
		case strings.HasSuffix(f.Name.Name, "_test"):
			d.ext = append(d.ext, f)
		default:
			d.in = append(d.in, f)
		}
		return nil
	})
}

func (g *reachGraph) key(obj types.Object) string {
	if obj == nil || !obj.Pos().IsValid() {
		return ""
	}
	return g.fset.Position(obj.Pos()).String()
}

func (g *reachGraph) mark(k string) {
	if g.nodes[k] != nil && !g.live[k] {
		g.live[k] = true
		g.work = append(g.work, k)
	}
}

// usesIn returns the keys of the nodes named anywhere under n.
func (g *reachGraph) usesIn(info *types.Info, n ast.Node) []string {
	var out []string
	ast.Inspect(n, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if k := g.key(info.Uses[id]); g.nodes[k] != nil {
				out = append(out, k)
			}
		}
		return true
	})
	return out
}

func usesIota(d *ast.GenDecl) bool {
	found := false
	ast.Inspect(d, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && id.Name == "iota" {
			found = true
		}
		return !found
	})
	return found
}

// declare adds the package-level declarations of d's non-test files.
func (g *reachGraph) declare(d *reachDir) {
	add := func(id *ast.Ident, kind, group string, decl ast.Node) *reachNode {
		obj := g.info.Defs[id]
		if obj == nil || id.Name == "_" {
			return nil
		}
		n := &reachNode{pos: g.fset.Position(id.Pos()), kind: kind, name: id.Name, rel: d.rel, group: group, obj: obj, decl: decl}
		g.nodes[n.pos.String()] = n
		return n
	}
	for _, f := range d.prod {
		for _, decl := range f.Decls {
			switch decl := decl.(type) {
			case *ast.FuncDecl:
				if decl.Recv == nil {
					add(decl.Name, "func", "", decl)
				} else if n := add(decl.Name, "method", "", decl); n != nil {
					recv := n.obj.Type().(*types.Signature).Recv().Type()
					if p, ok := recv.(*types.Pointer); ok {
						recv = p.Elem()
					}
					if named, ok := recv.(*types.Named); ok {
						n.name = named.Obj().Name() + "." + n.name
					}
				}
			case *ast.GenDecl:
				group := ""
				if decl.Tok == token.CONST && usesIota(decl) {
					group = g.fset.Position(decl.Pos()).String()
				}
				for _, spec := range decl.Specs {
					switch spec := spec.(type) {
					case *ast.TypeSpec:
						add(spec.Name, "type", "", spec)
					case *ast.ValueSpec:
						for _, id := range spec.Names {
							add(id, strings.ToLower(decl.Tok.String()), group, spec)
						}
					}
				}
			}
		}
	}
}

// interfaces collects the interfaces a method can be called through, each
// with the key of its declaration when it is the module's own (it counts
// only once reached) and "" when it is an imported package's.
func (g *reachGraph) interfaces() map[*types.Interface]string {
	out := map[*types.Interface]string{types.Universe.Lookup("error").Type().Underlying().(*types.Interface): ""}
	seen := map[*types.Package]bool{}
	for _, d := range g.dirs {
		for _, pkg := range append(d.pkg.Imports(), d.pkg) {
			if seen[pkg] {
				continue
			}
			seen[pkg] = true
			own := g.dirs[pkg.Path()] != nil
			for _, name := range pkg.Scope().Names() {
				tn, ok := pkg.Scope().Lookup(name).(*types.TypeName)
				if !ok || !(own || tn.Exported()) {
					continue
				}
				if it, ok := tn.Type().Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
					out[it] = ""
					if own {
						out[it] = g.key(tn)
					}
				}
			}
		}
	}
	return out
}

// propagate marks everything the marked nodes reach, to a fixed point.
func (g *reachGraph) propagate() {
	ifaces := g.interfaces()
	groups := map[string][]string{}
	for k, n := range g.nodes {
		if n.group != "" {
			groups[n.group] = append(groups[n.group], k)
		}
	}
	for len(g.work) > 0 {
		for len(g.work) > 0 {
			n := g.nodes[g.work[len(g.work)-1]]
			g.work = g.work[:len(g.work)-1]
			for _, u := range n.uses {
				g.mark(u)
			}
			for _, u := range groups[n.group] {
				g.mark(u)
			}
		}
		// Methods of reached types that a reached interface can call.
		for k, n := range g.nodes {
			tn, ok := n.obj.(*types.TypeName)
			if !ok || !g.live[k] || tn.IsAlias() {
				continue
			}
			ptr := types.NewPointer(tn.Type())
			ms := types.NewMethodSet(ptr)
			for it, decl := range ifaces {
				if (decl != "" && !g.live[decl]) || !types.Implements(ptr, it) {
					continue
				}
				for i := 0; i < it.NumMethods(); i++ {
					if sel := ms.Lookup(it.Method(i).Pkg(), it.Method(i).Name()); sel != nil {
						g.mark(g.key(sel.Obj()))
					}
				}
			}
		}
	}
}

// loadReachGraph parses the tree under root and type-checks it once: every
// directory's non-test files into g.info, its tests into d.tests. Then it
// computes what reaches what, for the object and roots passes.
func loadReachGraph(root string) (*reachGraph, error) {
	// The source importer shells out to cgo for packages such as net
	// unless told the pure-Go files are the ones to read.
	cgo := build.Default.CgoEnabled
	build.Default.CgoEnabled = false
	defer func() { build.Default.CgoEnabled = cgo }()

	fset := token.NewFileSet()
	g := &reachGraph{
		root: root, fset: fset, std: importer.ForCompiler(fset, "source", nil),
		dirs: map[string]*reachDir{}, info: newReachInfo(),
		nodes: map[string]*reachNode{}, live: map[string]bool{},
		fields: map[string]*reachField{},
	}
	if err := g.parseTree(root); err != nil {
		return nil, err
	}
	g.bench = g.dirs[reachModule+"/bench"]
	for path, d := range g.dirs {
		if _, err := g.Import(path); err != nil {
			return nil, err
		}
		if d != g.bench {
			g.declare(d)
		}
	}
	for path, d := range g.dirs {
		if len(d.in)+len(d.ext) == 0 {
			continue
		}
		d.tests = newReachInfo()
		g.check(path, append(append([]*ast.File{}, d.prod...), d.in...), d.tests)
		// An external test package is checked against the directory as
		// its importers see it, so what export_test.go adds is undefined
		// there; those errors are not the tree's.
		errs := g.errs
		g.check(path+"_test", d.ext, d.tests)
		g.errs = errs
	}
	if len(g.errs) > 0 {
		return nil, fmt.Errorf("type-checking the tree: %v (and %d more)", g.errs[0], len(g.errs)-1)
	}
	g.stage = g.stages()
	return g, nil
}

// testFiles returns d's _test.go files, in-package and external.
func (d *reachDir) testFiles() []*ast.File {
	return append(append([]*ast.File{}, d.in...), d.ext...)
}

// reachFinding is one declaration a pass objects to.
type reachFinding struct {
	pos  token.Position
	what string
}

// report formats findings as "file:line what", sorted by file and line.
func (g *reachGraph) report(fs []reachFinding) []string {
	sort.Slice(fs, func(i, j int) bool {
		a, b := fs[i].pos, fs[j].pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		return a.Line < b.Line
	})
	out := make([]string, len(fs))
	for i, f := range fs {
		file, _ := filepath.Rel(g.root, f.pos.Filename)
		out[i] = fmt.Sprintf("%s:%d %s", filepath.ToSlash(file), f.pos.Line, f.what)
	}
	return out
}

// A node's stage is the first set of roots that reaches it, in the order
// stages adds them.
const (
	reachNothing = iota // nothing reaches it: the object pass's finding
	reachRuns           // a cmd main, an init, bench/ or another directory's test reaches it
	reachExample        // only an example reaches it, around the facade
	reachFacade         // only a facade name no program names reaches it
)

// reachRule is what the roots pass prints after a finding of each stage.
var reachRule = [...]string{
	reachExample: "reached only by an example's direct import",
	reachFacade:  "reached only through a facade name no program names",
}

// facadeName reports whether n is an exported name of the root package.
func (n *reachNode) facadeName() bool {
	return n.kind != "method" && n.rel == "" && ast.IsExported(n.name)
}

func (n *reachNode) inExample() bool { return strings.HasPrefix(n.rel, "examples/") }

// stages computes every node's stage. The roots that reach anything are
// main of every cmd/*, every init, every non-test file of bench/ and a
// directory's tests outside that directory; an example is a root only for
// the facade names its files mention. Then the roots the guard used to
// trust are added back one at a time, so that a finding can say which of
// them alone holds it: an example's main (whatever it imports), and every
// exported name of the facade.
func (g *reachGraph) stages() map[string]int {
	for _, n := range g.nodes {
		n.uses = g.usesIn(g.info, n.decl)
	}
	for k, n := range g.nodes {
		if n.kind == "func" && (n.name == "init" || n.name == "main" && strings.HasPrefix(n.rel, "cmd/")) {
			g.mark(k)
		}
	}
	for _, d := range g.dirs {
		example := strings.HasPrefix(d.rel, "examples/")
		var named []string
		switch {
		case d == g.bench || example:
			for _, f := range d.prod {
				named = append(named, g.usesIn(g.info, f)...)
			}
		case d.tests != nil:
			for _, f := range d.testFiles() {
				named = append(named, g.usesIn(d.tests, f)...)
			}
		}
		// Tests reach only into other directories, an example only into
		// the facade.
		for _, k := range named {
			if n := g.nodes[k]; n.rel != d.rel && (!example || n.rel == "") {
				g.mark(k)
			}
		}
	}
	stage := map[string]int{}
	settle := func(s int) {
		g.propagate()
		for k := range g.live {
			if stage[k] == reachNothing {
				stage[k] = s
			}
		}
	}
	settle(reachRuns)
	for k, n := range g.nodes {
		if n.inExample() {
			g.mark(k)
		}
	}
	settle(reachExample)
	for k, n := range g.nodes {
		if n.facadeName() {
			g.mark(k)
		}
	}
	settle(reachFacade)
	return stage
}

// unreached returns "file:line kind name" for every non-test package-level
// object that no root reaches, trusted or not.
func (g *reachGraph) unreached() []string {
	var dead []reachFinding
	for k, n := range g.nodes {
		if g.stage[k] == reachNothing {
			dead = append(dead, reachFinding{n.pos, n.kind + " " + n.name})
		}
	}
	return g.report(dead)
}

// unrun returns "file:line kind name: rule" for every object that only a
// root which is not itself run keeps, and how many names the facade
// exports. What an example declares for itself is exempt.
func (g *reachGraph) unrun() (findings []string, facade int) {
	var held []reachFinding
	for k, n := range g.nodes {
		rule := reachRule[g.stage[k]]
		if n.facadeName() {
			facade++
			if rule != "" {
				rule = "facade name no program names"
			}
		}
		if rule != "" && !n.inExample() {
			held = append(held, reachFinding{n.pos, n.kind + " " + n.name + ": " + rule})
		}
	}
	return g.report(held), facade
}

// reachField is one exported field of a named struct of a non-test file,
// keyed in reachGraph.fields by the position of its name.
type reachField struct {
	pos           token.Position
	name          string // Type.Field
	rel           string
	seam          bool // func- or interface-typed
	read, written bool // by a non-test file of the tree
	shared        bool // written by a test of another directory
	installed     bool // a seam some test writes
}

// declareFields adds the exported fields of d's named structs. Embedded
// fields are left out: what a struct embeds is its type, not a setting.
func (g *reachGraph) declareFields(d *reachDir) {
	for _, f := range d.prod {
		for _, decl := range f.Decls {
			gen, ok := decl.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, spec := range gen.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok {
					continue
				}
				st, ok := ts.Type.(*ast.StructType)
				if !ok {
					continue
				}
				for _, fl := range st.Fields.List {
					for _, id := range fl.Names {
						obj := g.info.Defs[id]
						if obj == nil || !id.IsExported() {
							continue
						}
						rf := &reachField{pos: g.fset.Position(id.Pos()), name: ts.Name.Name + "." + id.Name, rel: d.rel}
						switch obj.Type().Underlying().(type) {
						case *types.Signature, *types.Interface:
							rf.seam = true
						}
						g.fields[rf.pos.String()] = rf
					}
				}
			}
		}
	}
}

// fieldAccesses calls visit for every mention of a declared field in f,
// saying whether the mention writes it.
func (g *reachGraph) fieldAccesses(info *types.Info, f *ast.File, visit func(fl *reachField, write bool)) {
	writes := map[*ast.Ident]bool{}
	// through marks every field on the way to the storage e denotes.
	var through func(e ast.Expr)
	through = func(e ast.Expr) {
		switch e := e.(type) {
		case *ast.ParenExpr:
			through(e.X)
		case *ast.IndexExpr:
			through(e.X)
		case *ast.SliceExpr:
			through(e.X)
		case *ast.StarExpr:
			through(e.X)
		case *ast.SelectorExpr:
			writes[e.Sel] = true
			through(e.X)
		}
	}
	// ast.Inspect visits a node before what it contains, so a field's
	// identifier is seen after the statement that decides what it is.
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				through(lhs)
			}
		case *ast.IncDecStmt:
			through(n.X)
		case *ast.RangeStmt:
			if n.Tok == token.ASSIGN {
				through(n.Key)
				through(n.Value)
			}
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				through(n.X)
			}
		case *ast.CallExpr:
			if sel, ok := n.Fun.(*ast.SelectorExpr); ok {
				if _, ok := info.Uses[sel.Sel].(*types.Func); ok {
					through(sel.X)
				}
			}
		case *ast.CompositeLit:
			t := info.Types[n].Type
			if t == nil {
				break
			}
			if p, ok := t.Underlying().(*types.Pointer); ok {
				t = p.Elem()
			}
			st, _ := t.Underlying().(*types.Struct)
			for i, el := range n.Elts {
				if kv, ok := el.(*ast.KeyValueExpr); ok {
					if id, ok := kv.Key.(*ast.Ident); ok {
						writes[id] = true
					}
				} else if st != nil && i < st.NumFields() {
					if fl := g.fields[g.key(st.Field(i))]; fl != nil {
						visit(fl, true)
					}
				}
			}
		case *ast.Ident:
			if v, ok := info.Uses[n].(*types.Var); ok && v.IsField() {
				if fl := g.fields[g.key(v)]; fl != nil {
					visit(fl, writes[n])
				}
			}
		}
		return true
	})
}

// unconfigured returns "file:line Type.Field" for every exported field
// that non-test code reads and nothing but its own package's tests sets,
// and how many more fields only one of the two exceptions keeps.
func (g *reachGraph) unconfigured() (findings []string, shared, seams int) {
	for _, d := range g.dirs {
		if d != g.bench {
			g.declareFields(d)
		}
	}
	for _, d := range g.dirs {
		for _, f := range d.prod {
			g.fieldAccesses(g.info, f, func(fl *reachField, write bool) {
				if write {
					fl.written = true
				} else {
					fl.read = true
				}
			})
		}
		if d.tests == nil {
			continue
		}
		for _, f := range d.testFiles() {
			g.fieldAccesses(d.tests, f, func(fl *reachField, write bool) {
				if write {
					fl.shared = fl.shared || fl.rel != d.rel
					fl.installed = fl.installed || fl.seam
				}
			})
		}
	}
	var unset []reachFinding
	for _, fl := range g.fields {
		switch {
		case !fl.read || fl.written:
		case fl.shared:
			shared++
		case fl.installed:
			seams++
		default:
			unset = append(unset, reachFinding{fl.pos, fl.name})
		}
	}
	return g.report(unset), shared, seams
}

// flagDocs are the files whose command lines count as callers of a flag.
var flagDocs = []string{
	"README.md", "DESIGN.md", "EXPERIMENTS.md", ".claude/skills/verify/SKILL.md",
	"Makefile", ".github/workflows/ci.yml",
}

// passesFlag reports whether words include -name, --name or -name=value.
func passesFlag(words []string, name string) bool {
	for _, w := range words {
		if w = strings.TrimPrefix(w, "-"); w == name || strings.HasPrefix(w, name+"=") {
			return true
		}
	}
	return false
}

// docLine is a command line of one of the flagDocs: a line of the Makefile
// or the workflow, a line of a fenced block of a Markdown file, or (not
// fenced) an inline code span of one.
type docLine struct {
	pos    string // file:line where it starts
	text   string
	fenced bool
}

// codeSpan is a Markdown inline code span; it may wrap a line but not
// cross a blank one.
var codeSpan = regexp.MustCompile("`((?:[^`\n]|\n[^`\n])+)`")

// docLines returns the command lines of the flagDocs. A trailing
// backslash continues a line.
func (g *reachGraph) docLines() ([]docLine, error) {
	var lines []docLine
	for _, name := range flagDocs {
		b, err := os.ReadFile(filepath.Join(g.root, name))
		if err != nil {
			return nil, err
		}
		md := strings.HasSuffix(name, ".md")
		fenced, start, cont := !md, 0, ""
		var prose []string // the file with its fenced blocks blanked
		for i, l := range strings.Split(string(b), "\n") {
			if md && strings.HasPrefix(strings.TrimSpace(l), "```") {
				fenced = !fenced
				l = ""
			} else if fenced {
				if cont == "" {
					start = i + 1
				}
				if c, ok := strings.CutSuffix(l, "\\"); ok {
					cont += c + " "
				} else {
					lines = append(lines, docLine{fmt.Sprintf("%s:%d", name, start), cont + l, true})
					cont = ""
				}
				l = ""
			}
			prose = append(prose, l)
		}
		text := strings.Join(prose, "\n")
		for _, m := range codeSpan.FindAllStringSubmatchIndex(text, -1) {
			at := fmt.Sprintf("%s:%d", name, 1+strings.Count(text[:m[0]], "\n"))
			lines = append(lines, docLine{at, strings.ReplaceAll(text[m[2]:m[3]], "\n", " "), false})
		}
	}
	return lines, nil
}

// invocation matches cmd's name where a command line runs it (at its
// start, after a space, a backquote or a path) and captures the words
// that follow, up to the end of the shell command or a comment.
func invocation(cmd string) *regexp.Regexp {
	return regexp.MustCompile("(?:^|[\\s`/])" + regexp.QuoteMeta(cmd) + "\\s([^`|;&#]*)")
}

// cmdFlags calls visit with the name and position of every
// flag.*("name", …) in the non-test files of command directory d.
func cmdFlags(d *reachDir, visit func(name string, pos token.Pos)) {
	for _, f := range d.prod {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) == 0 {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if pkg, ok := sel.X.(*ast.Ident); !ok || pkg.Name != "flag" {
				return true
			}
			if lit, ok := call.Args[0].(*ast.BasicLit); ok && lit.Kind == token.STRING {
				name, _ := strconv.Unquote(lit.Value)
				visit(name, lit.Pos())
			}
			return true
		})
	}
}

// unpassed returns "file:line command -name" for every flag a cmd/*/main.go
// declares that no test and no documented command line passes.
func (g *reachGraph) unpassed() ([]string, error) {
	lines, err := g.docLines()
	if err != nil {
		return nil, err
	}
	// The words of every test file's string literals, split once.
	type testWords struct {
		dir   *reachDir
		words []string
	}
	var tests []testWords
	for _, d := range g.dirs {
		for _, f := range d.testFiles() {
			tw := testWords{dir: d}
			ast.Inspect(f, func(n ast.Node) bool {
				if lit, ok := n.(*ast.BasicLit); ok && lit.Kind == token.STRING {
					if v, err := strconv.Unquote(lit.Value); err == nil {
						tw.words = append(tw.words, strings.Fields(v)...)
					}
				}
				return true
			})
			tests = append(tests, tw)
		}
	}
	var unset []reachFinding
	for _, d := range g.dirs {
		cmd, ok := strings.CutPrefix(d.rel, "cmd/")
		if !ok {
			continue
		}
		// What cmd is passed: the words that follow its name on a command
		// line of a fenced block (prose that mentions a flag beside the
		// command's name runs nothing), and the literals of its own tests
		// and of tests that name it.
		var passed []string
		invoked := invocation(cmd)
		for _, l := range lines {
			if !l.fenced {
				continue
			}
			for _, m := range invoked.FindAllStringSubmatch(l.text, -1) {
				passed = append(passed, strings.Fields(m[1])...)
			}
		}
		for _, tw := range tests {
			if tw.dir == d || strings.Contains(strings.Join(tw.words, " "), cmd) {
				passed = append(passed, tw.words...)
			}
		}
		cmdFlags(d, func(name string, pos token.Pos) {
			if !passesFlag(passed, name) {
				unset = append(unset, reachFinding{g.fset.Position(pos), cmd + " -" + name})
			}
		})
	}
	return g.report(unset), nil
}

// undefined returns "file:line command -name" for every -name a documented
// command line — fenced or an inline code span — passes to a command that
// declares no such flag.
func (g *reachGraph) undefined() ([]string, error) {
	lines, err := g.docLines()
	if err != nil {
		return nil, err
	}
	flagWord := regexp.MustCompile(`^--?([A-Za-z][\w-]*)`)
	var findings []string
	for _, d := range g.dirs {
		cmd, ok := strings.CutPrefix(d.rel, "cmd/")
		if !ok {
			continue
		}
		defined := map[string]bool{"h": true, "help": true}
		cmdFlags(d, func(name string, _ token.Pos) { defined[name] = true })
		invoked := invocation(cmd)
		for _, l := range lines {
			for _, m := range invoked.FindAllStringSubmatch(l.text, -1) {
				for _, w := range strings.Fields(m[1]) {
					if f := flagWord.FindStringSubmatch(w); f != nil && !defined[f[1]] {
						findings = append(findings, fmt.Sprintf("%s %s -%s", l.pos, cmd, f[1]))
					}
				}
			}
		}
	}
	sort.Strings(findings)
	return findings, nil
}

// testDocs are the files whose Test*/Fuzz* names must each name a test.
var testDocs = []string{
	"README.md", "DESIGN.md", "EXPERIMENTS.md", "ROADMAP.md", "bench/README.md",
	".claude/skills/verify/SKILL.md",
}

// unnamed returns "file:line Name" for every Test*/Fuzz* name a line of
// the testDocs mentions and no _test.go file of the tree declares.
func (g *reachGraph) unnamed() ([]string, error) {
	declared := map[string]bool{}
	for _, d := range g.dirs {
		for _, f := range d.testFiles() {
			for _, decl := range f.Decls {
				if fd, ok := decl.(*ast.FuncDecl); ok && fd.Recv == nil {
					declared[fd.Name.Name] = true
				}
			}
		}
	}
	testName := regexp.MustCompile(`\b(?:Test|Fuzz)[A-Z]\w*`)
	var findings []string
	for _, name := range testDocs {
		b, err := os.ReadFile(filepath.Join(g.root, name))
		if err != nil {
			return nil, err
		}
		for i, l := range strings.Split(string(b), "\n") {
			for _, n := range testName.FindAllString(l, -1) {
				if !declared[n] {
					findings = append(findings, fmt.Sprintf("%s:%d %s", name, i+1, n))
				}
			}
		}
	}
	return findings, nil
}

// The tree is loaded, and its reachability computed, once for all passes.
var reachTree struct {
	once sync.Once
	g    *reachGraph
	err  error
}

func loadedReachGraph(t *testing.T) *reachGraph {
	reachTree.once.Do(func() {
		root, err := filepath.Abs(".")
		if err == nil {
			reachTree.g, err = loadReachGraph(root)
		}
		reachTree.err = err
	})
	if reachTree.err != nil {
		t.Fatal(reachTree.err)
	}
	return reachTree.g
}

func TestNothingShipsThatNothingRuns(t *testing.T) {
	findings := loadedReachGraph(t).unreached()
	if len(findings) > 0 {
		t.Errorf("%d package-level objects in non-test files are reached by nothing, not even an example or a facade name:\n%s",
			len(findings), strings.Join(findings, "\n"))
	}
}

func TestARootIsSomethingThatRuns(t *testing.T) {
	findings, facade := loadedReachGraph(t).unrun()
	t.Logf("the facade exports %d names", facade)
	if len(findings) > 0 {
		t.Errorf("%d package-level objects are kept only by a root that no program runs:\n%s",
			len(findings), strings.Join(findings, "\n"))
	}
}

func TestNothingIsConfigurableThatNothingConfigures(t *testing.T) {
	findings, shared, seams := loadedReachGraph(t).unconfigured()
	t.Logf("exported fields that non-test code reads and never writes: %d set by another directory's tests, %d seams a test installs, %d failing",
		shared, seams, len(findings))
	if len(findings) > 0 {
		t.Errorf("%d exported fields are read by non-test code and set by nothing but their own package's tests:\n%s",
			len(findings), strings.Join(findings, "\n"))
	}
}

func TestNoFlagThatNothingPasses(t *testing.T) {
	findings, err := loadedReachGraph(t).unpassed()
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) > 0 {
		t.Errorf("%d flags are passed by no test and by no command line of %s:\n%s",
			len(findings), strings.Join(flagDocs, ", "), strings.Join(findings, "\n"))
	}
}

func TestNoDocumentedFlagThatNoCommandDefines(t *testing.T) {
	findings, err := loadedReachGraph(t).undefined()
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) > 0 {
		t.Errorf("%d command lines of %s pass a flag the command does not define:\n%s",
			len(findings), strings.Join(flagDocs, ", "), strings.Join(findings, "\n"))
	}
}

func TestNoDocumentedTestThatNoFileDeclares(t *testing.T) {
	findings, err := loadedReachGraph(t).unnamed()
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) > 0 {
		t.Errorf("%d test names in %s are declared by no _test.go file:\n%s",
			len(findings), strings.Join(testDocs, ", "), strings.Join(findings, "\n"))
	}
}
