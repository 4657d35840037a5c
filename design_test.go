package clusterts_test

import (
	"bytes"
	"cmp"
	"go/ast"
	"go/format"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"os/exec"
	"path"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// TestDesign holds the rules that keep Fig. 3's cluster-receive rule in one
// place and the store's bytes at what DESIGN.md §10 accounts, one subtest per
// gate, over the parsed tree: mostly data (design below) on which functions
// of which files hold a site, and which sites stay deleted.
//
// A site is code as written, comments aside: an identifier or selector chain
// ("p.core.part"); a call, index or composite literal up to its "(", "[" or
// "{"; a string literal; a map type; a comparison ("v.w == nil", "n > 1"; its
// left chain is no site of its own); "func Name(", "func (Recv) Name(",
// `import "os"`, or "type", "var" (const too) or "field" and the first line
// of the spec ("field m(x int)"). A site belongs to its function, "Name" or
// "Recv.Name" ("" if none).
func TestDesign(t *testing.T) {
	s := loadSource(t)
	for _, g := range design {
		t.Run(g.name, func(t *testing.T) {
			for _, r := range g.rules {
				r.check(t, s)
			}
			for _, dep := range s.poetdDeps {
				if g.unlinked != nil && g.unlinked.MatchString(dep) {
					t.Errorf("poetd links %s", dep)
				}
			}
			if g.shape != nil {
				g.shape(t, s)
			}
			if t.Failed() && g.why != "" {
				t.Log(g.why)
			}
		})
	}
}

type gate struct {
	name     string
	why      string
	rules    []rule
	unlinked *regexp.Regexp // packages cmd/poetd must not link (go list -deps)
	shape    func(t *testing.T, s *source)
}

// rule: the sites of the files in that match site and not except are held by
// the owners in must (each holds one) and may, or with neither there are none.
// An owner is a function, "T.*" (any method of T) or a file, and must exist.
type rule struct {
	in     string   // files: "dir/" (a tree), "." (all) or a glob; "-" drops; "+tests" keeps _test.go files
	site   string   // regexp
	except string   // regexp
	with   string   // regexp: only functions that also hold such a site count
	must   []string // owners that each hold a site
	may    []string // owners that may hold one; with must empty, some site must exist
	max    int      // if > 0, at most this many sites
}

var design = []gate{
	{name: "Format", shape: gofmtClean},
	{name: "One_core", why: "One stamping engine; the plan stage asks for a cluster decision once (DESIGN.md §16).", rules: []rule{
		{in: "internal/", site: `\.OnClusterReceive\($`, must: []string{"clusterer.receive"}, max: 1},
		{in: "internal/hct/", site: `^(import )?"repro/internal/fm"$`},
		{in: "internal/hct/", site: `^map\[model\.EventID\]\*`},
		{in: "internal/hct/pipeline.go internal/hct/planner.go", site: `\.decide\($`, must: []string{"Pipeline.plan"}},
	}},
	{name: "One_admission", why: "hct.Admission checks the delivery contract once (internal/hct/admit.go).", rules: []rule{
		{in: "internal/", site: `takeDeferred|parkDeferred|enqueueAsync|dispatchQueued|sentPartner|planBuf`},
		{in: "internal/ -internal/fm/", site: `^(var|field) pendSend\b`, must: []string{"internal/hct/admit.go"}},
	}},
	{name: "One_store_in_the_daemon", why: "poetd answers QUERY@ from the store its lanes fill (DESIGN.md §12).", rules: []rule{{in: "cmd/poetd/*.go", site: `\b(hct\.NewTimestamper|replay\.Open)\(`}}},
	{name: "One_log_reader", why: "internal/wal/chain.go is the only parser of a WAL directory (DESIGN.md §8).", rules: []rule{{in: "internal/wal/", site: `recordScanner|scanSegment|validateSnapshot|replaySnapshot|replaySegment|readFileHeader`}}},
	{name: "One_owner_of_the_WAL_file_IO", why: "Every disk call of internal/wal goes through the fileSystem seam (DESIGN.md §8).", rules: []rule{
		{in: "internal/wal/*.go -internal/wal/fsys.go -internal/wal/mmap_*.go", site: `^import "os"$|^os\.`},
		{in: "internal/wal/*.go -internal/wal/fsys.go -internal/wal/mmap_*.go", site: `\.ReadDir\($`, must: []string{"scanChain"}, max: 1},
		{in: "internal/ cmd/ +tests", site: `NoSidecar|idxReadWrite|compactErr|^func syncDir`},
	}},
	{name: "One_codec_over_one_executor", why: "poetd speaks frames only, through one executor; text records are parsed in internal/trace alone (DESIGN.md §7).", rules: []rule{
		{in: ".", site: `parseEventRecord|parseServerID|^func (eventLine|parseID|parseEventID)|^func \(Server\) handle`},
		{in: "internal/ cmd/ +tests", site: `\b(serveV1|decodeLine|replyLine|LinesRead)\b|poetd_lines_read_total|^type Session\b`},
		{in: "internal/monitor/ +tests", site: `^func Dial\(`},
		{in: "internal/monitor/server.go", site: `\.IngestBarrier\($`, must: []string{"Server.answer"}},
		{in: "internal/monitor/server.go", site: `\.HistoryAt\($`, must: []string{"Server.answer"}},
		{in: "internal/monitor/*.go", site: `RecordOp\($`, must: []string{"Server.submitInstrumented", "Server.answer"}, max: 3},
		{in: "internal/monitor/server.go internal/monitor/client.go internal/trace/*.go", site: `\bstrconv\.Atoi\b`},
	}},
	{name: "One_shape_per_lane_count", why: "One step body per stage; the lane count picks only who calls the steps (DESIGN.md §11).", rules: []rule{
		{in: ".", site: `PlannerPipelined|poetd_planner_pipelined|DispatchTraced|DeliverBatchTraced|DeliverBatchAsyncTraced|^func \(Monitor\) Deliver\($`},
		{in: "internal/hct/*.go", site: `^((field|var) )?async\b`},
		{in: "internal/hct/*.go", site: `\.PlanQueue\b`, must: []string{"newPipeline"}},
		{in: "internal/hct/*.go", site: `\bnshards ([!=]=|[<>]=?) [12]$`, must: []string{"newPipeline", "Pipeline.start", "Pipeline.Barrier", "Pipeline.handOff", "Pipeline.flushLocked"}, may: []string{"NewPipeline", "Pipeline.Close"}, max: 5},
		{in: "internal/hct/*.go", site: `\.process\($`, must: []string{"lane.step"}},
		{in: "internal/hct/*.go", site: `\.step\($`, must: []string{"lane.drain"}},
		{in: "internal/hct/*.go", site: `\.cond\.Wait\($`, except: `^ln\.cond\.Wait\($`, must: []string{"rendezvous.wait"}},
		{in: "internal/hct/ +tests", site: `\bstamp(Dur|Start)\b`},
	}},
	{name: "One_instrument_per_number", why: "A number is stored once, in an obs instrument (DESIGN.md §9); tel.WALSnapshot is a histogram.", rules: []rule{
		{in: "internal/ cmd/ -internal/obs/telemetry.go", site: `\b(ServerCounters|WALCounters|CounterSnapshot|WALSnapshot|ThroughputRates|ParseSnapshot|ParseTenantCounters)\b`, except: `\btel\.WALSnapshot\b`},
		{in: "internal/metrics/*.go", site: `^import "(sync/atomic|strings|strconv)"$`},
		{in: "cmd/poquery/main.go", site: `\bstrings\.Fields\($`, must: []string{"parseStats"}},
		{in: "internal/wal/*.go", site: `^field Counters\b`},
	}},
	{name: "One_projection_form", why: "A projection is stored as a nibble frame over its anchor, a byte frame over its keyframe or a keyframe; arena.project writes the form, chunkDir.proj reads it, and nothing is carved to be taken back (DESIGN.md §10).", rules: []rule{
		{in: "internal/hct/*.go", site: `ProjectInto\(`},
		{in: "internal/hct/*.go", site: `^projNibbleBit\b`, must: []string{"arena.project", "chunkDir.proj"}, max: 2},
		{in: "internal/hct/*.go", site: `projNibbleBit [!=]= 0$`, must: []string{"chunkDir.proj"}},
		{in: "internal/hct/ +tests", site: `\buncarve\b`},
	}},
	{name: "One_owner_of_the_own_component", why: "No frame holds its own component; the readers that put it back read frames (DESIGN.md §10).", shape: stampZeroesOwn, rules: []rule{
		{in: "internal/hct/*.go -internal/hct/store.go", site: `\.(key|bytes|nibs)\[$`},
		{in: "internal/hct/*.go", site: `\.project\($`, must: []string{"lane.stamp"}},
		{in: "internal/hct/*.go -internal/hct/store.go", site: `\.member\($`, must: []string{"View.Precedes"}},
		{in: "internal/hct/*.go -internal/hct/store.go", site: `\.next\($`, must: []string{"View.Precedes"}},
		{in: "internal/hct/*.go -internal/hct/store.go", site: `\.decode\($`, must: []string{"View.Timestamp"}},
		{in: "internal/hct/store.go", site: `^k&3 == 0$`, must: []string{"projection.next"}},
	}},
	{name: "One_read_path", why: "A store view is the only thing that answers (DESIGN.md §10); bench/ is frozen.", rules: []rule{
		{in: ". -bench/", site: `(PrecedesAt|ConcurrentAt|EventAt|TimestampAt)\(|QueryEngine|frozenEngine`},
		{in: "internal/hct/*.go", site: `\.getAt\($`, must: []string{"View.cell"}, may: []string{"column.get"}},
		{in: "internal/hct/*.go", site: `\bv\.w [!=]= nil$`, may: []string{"View.cell", "View.Capture"}},
	}},
	{name: "One_accounting_snapshot", why: "The clusterer's counters are read once, as hct.Result (DESIGN.md §9).", shape: noFixedProduct, rules: []rule{
		{in: ". -bench/", site: `^type Accounting\b|(TimestampSizeRatio|MergedClusterReceives|storageInts)\(|^func \(Pipeline\) (NumLive|MaxLiveSize|MaxClusterSize)\($`},
		{in: "internal/replay/*.go", site: `^type Counts\b`},
		{in: ". +tests -internal/hct/core.go", site: `\.(crEvents|mergedCRs)\b`},
		{in: "internal/hct/*.go", site: `\bp\.core\.`, except: `\bp\.core\.part\.LiveSizesInto\b`, with: `\bplanMu\.Lock\($`, must: []string{"Pipeline.Result"}},
	}},
	{name: "One_owner_of_the_note_form", why: "arena.frame writes a note's form bits and a nibble frame's anchor header; chunkDir.component and chunkDir.full read them (DESIGN.md §10).", rules: []rule{
		{in: "internal/hct/*.go", site: `^sparseBit\b`, must: []string{"arena.frame", "chunkDir.component", "chunkDir.full"}},
		{in: "internal/hct/*.go", site: `^nibbleBit\b`, must: []string{"arena.frame", "chunkDir.component", "chunkDir.full"}},
		{in: "internal/hct/*.go", site: `^anchorElem\b`, must: []string{"arena.frame", "chunkDir.component", "chunkDir.full"}},
		{in: "internal/hct/*.go", site: `\bcrNote\{$`, must: []string{"arena.frame"}},
		{in: "internal/hct/*.go", site: `\.delta\b`, except: `\.delta [!=]= noDelta$`, may: []string{"chunkDir.component", "chunkDir.full"}},
	}},
	{name: "One_record_of_an_event", why: "The log keeps an event's record; a cell is one word; the epoch is the keyframe's (DESIGN.md §10).", rules: []rule{
		{in: "internal/hct/*.go +tests", site: `^type cell uint32$`, must: []string{"internal/hct/store.go"}, max: 1},
		{in: "internal/hct/*.go +tests", site: `^type cell\b`, except: `^type cell uint32$`},
		{in: "internal/hct/timestamp.go", site: `[Pp]artner`},
		{in: "internal/hct/*.go", site: `^func \(cell\) \w*([Pp]artner|[Ee]poch|ek)\w*\(|(^|\W)ek(\W|$)`},
		{in: "internal/hct/*.go", site: `^epochElem\b`, must: []string{"arena.project", "chunkDir.proj"}},
		{in: ". +tests -bench/", site: `^func \((View|plane)\) Event\($|^func \(Queries\) Lookup\($`},
	}},
	{name: "One_oracle", why: "Ground truth without vector clocks is model.Reachability (DESIGN.md §2).", shape: noPoset, rules: []rule{
		{in: ". +tests", site: `^(import )?"repro/internal/(poset)"$`},
		{in: ". -internal/model/", site: `^func .*HappenedBefore\($`},
		{in: ". -cmd/poquery/", site: `\bNewReachability\($`, except: `^func NewReachability\($`},
	}},
	{name: "One_static_daemon", why: "poetd's sockets are internal/tcp's system calls, so it is a static binary (DESIGN.md §9, §10).", unlinked: regexp.MustCompile(`^(net|runtime/cgo)$`), rules: []rule{{in: "internal/ cmd/ examples/ *.go -internal/tcp/sock_other.go", site: `^import "net"$`}}},
	{name: "One_HTTP_stack", why: "The admin plane is a bounded responder in internal/obs, not net/http (DESIGN.md §9).", unlinked: regexp.MustCompile(`^(text|html)/template$`), rules: []rule{{in: "internal/ cmd/", site: `^(import )?"net/http(/[a-z]+)?"$`}}},
	{name: "No_unsafe_in_the_engine", why: "Cells and notes name vectors by offset (DESIGN.md §10).", rules: []rule{{in: "internal/hct/ +tests", site: `^(import )?"unsafe"$`}}},
}

type source struct {
	files     []*file
	poetdDeps []string
}

type file struct {
	path  string // slash-separated, from the module root
	src   []byte
	ast   *ast.File
	fset  *token.FileSet
	test  bool
	sites []site
}

type site struct {
	text string
	fn   string
	node ast.Node
}

func loadSource(t *testing.T) *source {
	s, fset := &source{}, token.NewFileSet()
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() && p != "." && strings.HasPrefix(d.Name(), ".") {
			return cmp.Or(err, filepath.SkipDir)
		}
		if d.IsDir() || !strings.HasSuffix(p, ".go") {
			return nil
		}
		f := &file{path: filepath.ToSlash(p), fset: fset, test: strings.HasSuffix(p, "_test.go")}
		if f.src, err = os.ReadFile(p); err == nil {
			f.ast, err = parser.ParseFile(fset, p, f.src, parser.ParseComments)
		}
		if err == nil {
			f.addSites()
			s.files = append(s.files, f)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	out, err := exec.Command("go", "list", "-deps", "./cmd/poetd").Output()
	if err != nil {
		t.Fatalf("go list -deps ./cmd/poetd: %v", err)
	}
	s.poetdDeps = strings.Fields(string(out))
	return s
}

// addSites lists f's sites, in the terms of TestDesign's comment.
func (f *file) addSites() {
	fn := ""
	spelled := map[ast.Node]bool{} // identifiers and selectors a listed site spells
	add := func(n ast.Node, text string, parts ...ast.Node) {
		f.sites = append(f.sites, site{text, fn, n})
		for _, p := range parts {
			spelled[p] = true
		}
	}
	var chain func(e ast.Expr) []ast.Node
	chain = func(e ast.Expr) []ast.Node {
		switch x := e.(type) {
		case *ast.SelectorExpr:
			return append(chain(x.X), x, x.Sel)
		case *ast.Ident:
			return []ast.Node{x}
		}
		return nil
	}
	visit := func(n ast.Node) bool {
		if spelled[n] {
			return true
		}
		switch n := n.(type) {
		case *ast.FuncDecl:
			recv := ""
			if r, ok := strings.CutSuffix(fn, "."+n.Name.Name); ok {
				recv = "(" + r + ") "
			}
			add(n, "func "+recv+n.Name.Name+"(", n.Name)
		case *ast.TypeSpec:
			add(n, "type "+f.line(n), n.Name)
		case *ast.ValueSpec:
			add(n, "var "+f.line(n), idents(n.Names)...)
		case *ast.Field:
			add(n, "field "+f.line(n), idents(n.Names)...)
		case *ast.ImportSpec:
			add(n, "import "+n.Path.Value, n.Path)
		case *ast.BinaryExpr:
			if n.Op == token.EQL || n.Op == token.NEQ || n.Op == token.LSS || n.Op == token.GTR || n.Op == token.LEQ || n.Op == token.GEQ {
				add(n, f.text(n), chain(n.X)...)
			}
		case *ast.SelectorExpr:
			add(n, f.text(n), chain(n)...)
		case *ast.Ident:
			add(n, n.Name)
		case *ast.CallExpr:
			if _, lit := n.Fun.(*ast.FuncLit); !lit {
				add(n, f.span(n.Pos(), n.Lparen+1))
			}
		case *ast.IndexExpr:
			add(n, f.span(n.Pos(), n.Lbrack+1))
		case *ast.CompositeLit:
			if n.Type != nil {
				add(n, f.span(n.Pos(), n.Lbrace+1))
			}
		case *ast.BasicLit:
			if n.Kind == token.STRING {
				add(n, n.Value)
			}
		case *ast.MapType:
			add(n, f.text(n))
		}
		return true
	}
	for _, d := range f.ast.Decls {
		fn = ""
		if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv == nil {
			fn = fd.Name.Name
		} else if ok {
			recv, _, _ := strings.Cut(strings.TrimLeft(f.text(fd.Recv.List[0].Type), "*"), "[")
			fn = recv + "." + fd.Name.Name
		}
		ast.Inspect(d, visit)
	}
}

func idents(ids []*ast.Ident) (out []ast.Node) {
	for _, id := range ids {
		out = append(out, id)
	}
	return out
}

func (f *file) span(from, to token.Pos) string {
	return string(f.src[from-f.ast.FileStart : to-f.ast.FileStart])
}

func (f *file) text(n ast.Node) string { return f.span(n.Pos(), n.End()) }

func (f *file) line(n ast.Node) string {
	line, _, _ := strings.Cut(f.text(n), "\n")
	return line
}

// scope returns the files in names (the last pattern a file matches decides
// it); a pattern that names no file fails.
func (s *source) scope(t *testing.T, in string) (out []*file) {
	t.Helper()
	has := func(pat string, f *file) bool {
		ok, _ := path.Match(pat, f.path)
		return ok || pat == "." || strings.HasSuffix(pat, "/") && strings.HasPrefix(f.path, pat)
	}
	for _, pat := range strings.Fields(in) {
		pat = strings.TrimPrefix(pat, "-")
		if pat != "+tests" && !slices.ContainsFunc(s.files, func(f *file) bool { return has(pat, f) }) {
			t.Errorf("%q names no file", pat)
		}
	}
	for _, f := range s.files {
		kept := false
		for _, pat := range strings.Fields(in) {
			if pat, drop := strings.CutPrefix(pat, "-"); has(pat, f) {
				kept = !drop
			}
		}
		if kept && (!f.test || strings.Contains(in, "+tests")) {
			out = append(out, f)
		}
	}
	return out
}

func (r rule) check(t *testing.T, s *source) {
	t.Helper()
	// ^$ matches no site: no site's text is empty.
	siteRE, exceptRE, withRE := regexp.MustCompile(r.site), regexp.MustCompile(cmp.Or(r.except, "^$")), regexp.MustCompile(cmp.Or(r.with, "^$"))
	owners := slices.Concat(r.must, r.may)
	owns := func(o, fn string, f *file) bool {
		pre, any := strings.CutSuffix(o, "*")
		return o == fn || o == f.path || any && fn != "" && strings.HasPrefix(fn, pre)
	}
	files := s.scope(t, r.in)
	for _, o := range owners {
		if !slices.ContainsFunc(files, func(f *file) bool {
			return slices.ContainsFunc(f.sites, func(st site) bool {
				return owns(o, st.fn, f) && (o == f.path || strings.HasPrefix(st.text, "func "))
			})
		}) {
			t.Errorf("owner %s of %s is not in %q", o, r.site, r.in)
		}
	}
	held, n := map[string]bool{}, 0
	for _, f := range files {
		with := map[string]bool{}
		for _, st := range f.sites {
			with[st.fn] = with[st.fn] || withRE.MatchString(st.text)
		}
		for _, st := range f.sites {
			if !siteRE.MatchString(st.text) || exceptRE.MatchString(st.text) || r.with != "" && !with[st.fn] {
				continue
			}
			n++
			if i := slices.IndexFunc(owners, func(o string) bool { return owns(o, st.fn, f) }); i >= 0 {
				held[owners[i]] = true
			} else {
				t.Errorf("%s: %q in %q, outside %q", f.fset.Position(st.node.Pos()), st.text, st.fn, owners)
			}
		}
	}
	for _, o := range r.must {
		if !held[o] {
			t.Errorf("%s holds no %s", o, r.site)
		}
	}
	if n == 0 && len(owners) > 0 || r.max > 0 && n > r.max {
		t.Errorf("%d sites %s in %q", n, r.site, r.in)
	}
}

// gofmtClean: every Go file, tests and bench/ included, is as gofmt prints it.
func gofmtClean(t *testing.T, s *source) {
	for _, f := range s.files {
		if out, err := format.Source(f.src); err != nil || !bytes.Equal(out, f.src) {
			t.Errorf("%s: gofmt needed (%v)", f.path, err)
		}
	}
}

// stampZeroesOwn: lane.stamp hands arena.project the own component as zero,
// in the statement before the call.
func stampZeroesOwn(t *testing.T, s *source) {
	for _, f := range s.scope(t, "internal/hct/pipeline.go") {
		i := slices.IndexFunc(f.sites, func(st site) bool { return st.text == "func (lane) stamp(" })
		if i < 0 {
			t.Fatal("internal/hct/pipeline.go declares no lane.stamp")
		}
		zeroed := false
		ast.Inspect(f.sites[i].node, func(n ast.Node) bool {
			b, ok := n.(*ast.BlockStmt)
			for j := 1; ok && j < len(b.List); j++ {
				zeroed = zeroed || f.text(b.List[j-1]) == "clk[p] = 0" && strings.Contains(f.text(b.List[j]), ".project(")
			}
			return true
		})
		if !zeroed {
			t.Error("lane.stamp does not set clk[p] = 0 right before it calls arena.project")
		}
	}
}

// noFixedProduct: storage is hct.StorageInts; internal/monitor,
// internal/replay and cmd/ multiply by no fixed-vector width.
func noFixedProduct(t *testing.T, s *source) {
	fixed := regexp.MustCompile(`[fF]ixed`)
	for _, f := range s.scope(t, "internal/monitor/ internal/replay/ cmd/") {
		ast.Inspect(f.ast, func(n ast.Node) bool {
			if b, ok := n.(*ast.BinaryExpr); ok && b.Op == token.MUL && fixed.MatchString(f.text(b)) {
				t.Errorf("%s: %s multiplies by a fixed-vector width", f.fset.Position(b.Pos()), f.text(b))
			}
			return true
		})
	}
}

// noPoset: the B-tree store model.Reachability replaced stays deleted.
func noPoset(t *testing.T, s *source) {
	if _, err := os.Stat("internal/poset"); err == nil {
		t.Error("internal/poset is back")
	}
}
