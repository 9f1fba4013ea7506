package jpegact

// The reachability guard: nothing ships that nothing runs. It type-checks
// the whole tree from source (stdlib only, nothing to download) and fails
// on every package-level func, method, type, var and const of a non-test
// file that none of these reaches:
//
//   - main of every cmd/* and examples/* program, and every init;
//   - every exported name of this facade package;
//   - every non-test file of bench/ (its own module, built from this tree);
//   - shared test support: whatever a _test.go file of a *different*
//     directory names. An object's own package's tests do not count — the
//     oracle they hold live code against belongs in a _test.go file, where
//     this guard does not look.
//
// A method is reached when it is named, or when its receiver type is
// reached and implements an interface that declares it: an interface of
// this module that is itself reached, or any exported interface of a
// package the module imports (so fmt.Stringer and net.Conn count). The
// constants of one iota group are reached together. There is no allowlist.

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

const reachModule = "jpegact"

// reachDir is one directory of Go source, parsed once. Its non-test files
// are type-checked once, as importers see them; its tests separately.
type reachDir struct {
	rel           string // "" for the module root
	prod, in, ext []*ast.File
	pkg           *types.Package // of prod, once imported
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
	fset  *token.FileSet
	std   types.Importer
	dirs  map[string]*reachDir // by import path
	info  *types.Info          // of the non-test pass over every directory
	errs  []error
	nodes map[string]*reachNode
	live  map[string]bool
	work  []string
}

func newReachInfo() *types.Info {
	return &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}}
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

// unreached returns "file:line kind name" for every non-test package-level
// object under root that no root reaches.
func unreached(root string) ([]string, error) {
	// The source importer shells out to cgo for packages such as net
	// unless told the pure-Go files are the ones to read.
	cgo := build.Default.CgoEnabled
	build.Default.CgoEnabled = false
	defer func() { build.Default.CgoEnabled = cgo }()

	fset := token.NewFileSet()
	g := &reachGraph{
		fset: fset, std: importer.ForCompiler(fset, "source", nil),
		dirs: map[string]*reachDir{}, info: newReachInfo(),
		nodes: map[string]*reachNode{}, live: map[string]bool{},
	}
	if err := g.parseTree(root); err != nil {
		return nil, err
	}
	bench := g.dirs[reachModule+"/bench"]
	for path, d := range g.dirs {
		if _, err := g.Import(path); err != nil {
			return nil, err
		}
		if d != bench {
			g.declare(d)
		}
	}
	for _, n := range g.nodes {
		n.uses = g.usesIn(g.info, n.decl)
	}

	for k, n := range g.nodes {
		program := strings.HasPrefix(n.rel, "cmd/") || strings.HasPrefix(n.rel, "examples/")
		switch {
		case n.kind == "func" && n.name == "init",
			n.kind == "func" && n.name == "main" && program,
			n.kind != "method" && n.rel == "" && ast.IsExported(n.name):
			g.mark(k)
		}
	}
	for path, d := range g.dirs {
		// bench/ reaches anywhere; a directory's tests reach only into
		// other directories.
		var named []string
		if d == bench {
			for _, f := range d.prod {
				named = append(named, g.usesIn(g.info, f)...)
			}
		} else if len(d.in)+len(d.ext) > 0 {
			info := newReachInfo()
			g.check(path, append(append([]*ast.File{}, d.prod...), d.in...), info)
			// An external test package is checked against the directory
			// as its importers see it, so what export_test.go adds is
			// undefined there; those errors are not the tree's.
			errs := g.errs
			g.check(path+"_test", d.ext, info)
			g.errs = errs
			for _, f := range append(append([]*ast.File{}, d.in...), d.ext...) {
				named = append(named, g.usesIn(info, f)...)
			}
		}
		for _, k := range named {
			if g.nodes[k].rel != d.rel {
				g.mark(k)
			}
		}
	}
	if len(g.errs) > 0 {
		return nil, fmt.Errorf("type-checking the tree: %v (and %d more)", g.errs[0], len(g.errs)-1)
	}
	g.propagate()

	var dead []*reachNode
	for k, n := range g.nodes {
		if !g.live[k] {
			dead = append(dead, n)
		}
	}
	sort.Slice(dead, func(i, j int) bool {
		a, b := dead[i].pos, dead[j].pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		return a.Line < b.Line
	})
	findings := make([]string, len(dead))
	for i, n := range dead {
		file, _ := filepath.Rel(root, n.pos.Filename)
		findings[i] = fmt.Sprintf("%s:%d %s %s", filepath.ToSlash(file), n.pos.Line, n.kind, n.name)
	}
	return findings, nil
}

func TestNothingShipsThatNothingRuns(t *testing.T) {
	root, err := filepath.Abs(".")
	if err != nil {
		t.Fatal(err)
	}
	findings, err := unreached(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) > 0 {
		t.Errorf("%d package-level objects in non-test files are reached by no program, facade name, benchmark file or other package's test:\n%s",
			len(findings), strings.Join(findings, "\n"))
	}
}
