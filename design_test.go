package clusterts_test

import (
	"bytes"
	"cmp"
	"fmt"
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
	{name: "One_core", why: "One stamping engine; the plan stage asks for a cluster decision once (DESIGN.md §11).", rules: []rule{
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
	{name: "One_history_engine", why: "replay.Open keeps one engine, built once and only extended; every view is counted (DESIGN.md §12).", rules: []rule{
		{in: "internal/replay/*.go", site: `\bhct\.(NewTimestamper|NewPipeline)\(`, must: []string{"Open"}},
		{in: "internal/replay/*.go", site: `\.(DispatchAsync|DispatchAdmitted|Ingest)(\(|$)`, must: []string{"Store.extendLocked"}},
	}},
	{name: "One_log_reader", why: "internal/wal/chain.go is the only parser of a WAL directory (DESIGN.md §8).", rules: []rule{{in: "internal/wal/", site: `recordScanner|scanSegment|validateSnapshot|replaySnapshot|replaySegment|readFileHeader`}}},
	{name: "One_owner_of_the_WAL_file_IO", why: "Every disk call of internal/wal goes through the fileSystem seam, and the log is read, never mapped (DESIGN.md §8).", rules: []rule{
		{in: "internal/wal/*.go -internal/wal/fsys.go", site: `^import "os"$|^os\.`},
		{in: "internal/wal/*.go -internal/wal/fsys.go", site: `\.ReadDir\($`, must: []string{"scanChain"}, max: 1},
		{in: ".", site: `^syscall\.(Mmap|Munmap|Madvise)\b`},
		{in: "internal/ cmd/ +tests", site: `NoSidecar|idxReadWrite|compactErr|^func syncDir`},
	}},
	{name: "One_group_commit", why: "A fresh segment becomes durable at the log's next group commit; only the commit and the snapshot path fsync (DESIGN.md §8, §15 segment-durable-at-commit).", rules: []rule{
		{in: "internal/wal/*.go", site: `\.(Sync|SyncDir)\($`, must: []string{"Log.syncLocked", "commitFile", "Log.compact", "osFS.SyncDir"}},
	}},
	{name: "One_codec_over_one_executor", why: "poetd speaks frames only, through one executor; text records are parsed in internal/trace alone (DESIGN.md §7).", rules: []rule{
		{in: ".", site: `parseEventRecord|parseServerID|^func (eventLine|parseID|parseEventID)|^func \(Server\) handle`},
		{in: "internal/ cmd/ +tests", site: `\b(serveV1|serveV2|protocolV2Magic|decodeLine|replyLine|LinesRead)\b|poetd_lines_read_total|^type Session\b`},
		{in: "internal/monitor/ +tests", site: `^func Dial\(`},
		{in: "internal/monitor/server.go", site: `\.IngestBarrier\($`, must: []string{"Server.answer"}},
		{in: "internal/monitor/server.go", site: `\.HistoryAt\($`, must: []string{"Server.answer"}},
		{in: "internal/monitor/*.go", site: `RecordOp\($`, must: []string{"Server.submitInstrumented", "Server.answer"}, max: 3},
		{in: "internal/monitor/server.go internal/monitor/client.go internal/trace/*.go", site: `\bstrconv\.Atoi\b`},
	}},
	{name: "One_shape_per_lane_count", why: "One step body per stage; the lane count picks only who calls the steps, and the plan step times its own decisions (DESIGN.md §11).", rules: []rule{
		{in: ".", site: `PlannerPipelined|poetd_planner_pipelined|DispatchTraced|DeliverBatchTraced|DeliverBatchAsyncTraced|^func \(Monitor\) Deliver\($`},
		{in: "internal/hct/*.go", site: `^((field|var) )?async\b`},
		{in: "internal/hct/*.go", site: `\.PlanQueue\b`, must: []string{"newPipeline"}},
		{in: "internal/hct/*.go", site: `\bnshards ([!=]=|[<>]=?) [12]$`, must: []string{"newPipeline", "Pipeline.start", "Pipeline.Barrier", "Pipeline.handOff", "Pipeline.flushLocked"}, may: []string{"NewPipeline", "Pipeline.Close"}, max: 5},
		{in: "internal/hct/*.go", site: `\.process\($`, must: []string{"lane.step"}},
		{in: "internal/hct/*.go", site: `\.step\($`, must: []string{"lane.drain"}},
		{in: "internal/hct/*.go", site: `\.cond\.Wait\($`, except: `^ln\.cond\.Wait\($`, must: []string{"rendezvous.wait"}},
		{in: "internal/hct/ +tests", site: `\bstamp(Dur|Start)\b`},
		{in: "internal/hct/*.go", site: `\.busy\.Add\($`, must: []string{"Pipeline.planRun", "Pipeline.stageItem"}},
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
	{name: "One_owner_of_the_note_form", why: "arena.frame writes a note's form bits, a nibble frame's anchor header and a 16-bit key's raw-keyframe header; chunkDir.component and chunkDir.full read them (DESIGN.md §10).", rules: []rule{
		{in: "internal/hct/*.go", site: `^sparseBit\b`, must: []string{"arena.frame", "chunkDir.component", "chunkDir.full"}},
		{in: "internal/hct/*.go", site: `^nibbleBit\b`, must: []string{"arena.frame", "chunkDir.component", "chunkDir.full"}},
		{in: "internal/hct/*.go", site: `^anchorElem\b`, must: []string{"arena.frame", "chunkDir.component", "chunkDir.full"}},
		{in: "internal/hct/*.go", site: `^wideBit\b`, must: []string{"arena.frame", "chunkDir.component", "chunkDir.full"}},
		{in: "internal/hct/*.go", site: `^rawElem\b`, must: []string{"arena.frame", "chunkDir.component", "chunkDir.full"}},
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
	{name: "One_way_to_build_a_server", why: "NewTenantServer builds every server, and the factory builds every tenant, the default one too (DESIGN.md §13).", shape: noSingleTenantMode, rules: []rule{
		{in: "internal/ cmd/ +tests", site: `\b(NewServer|NewSharded|serverOwned)\b`},
		{in: "internal/monitor/", site: `^Server\{$`, must: []string{"NewTenantServer"}},
	}},
	{name: "One_reason_to_export", why: "An exported function or method in internal/ has a caller outside its package, or a row in exportAllowed.", shape: oneReasonToExport},
	{name: "One_register_of_invariants", why: "An ordering argument is one row of the invariant register, and code cites it by name (DESIGN.md §15).", shape: oneRegister},
	{name: "Section_references_resolve", why: "A DESIGN.md section that code or a document names exists.", shape: sectionRefsResolve},
	{name: "CI_runs_what_exists", why: "Every test pattern in ci.yml names a test that exists, so a rename cannot empty its step.", shape: ciPatternsMatch},
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

// noSingleTenantMode: no file under internal/ or cmd/, tests included, speaks
// of a server mode without a tenant factory.
func noSingleTenantMode(t *testing.T, s *source) {
	mode := regexp.MustCompile(`(?i)single-?tenant`)
	for _, f := range s.scope(t, "internal/ cmd/ +tests") {
		if loc := mode.FindIndex(f.src); loc != nil {
			t.Errorf("%s: %q", f.fset.Position(f.ast.FileStart+token.Pos(loc[0])), f.src[loc[0]:loc[1]])
		}
	}
}

// exportAllowed lists the exported functions and methods of internal/ that
// keep their export without a non-test caller outside their package,
// "pkg.Func" or "pkg.Recv.Method", each with its reason.
var exportAllowed = map[string]string{
	// Interface seams: the caller names the interface's method.
	"hct.rekeyOnMerge.OnMerge": "implements strategy.Decider; the cluster-receive core calls it",
	"wal.damageError.Unwrap":   "errors.Is and errors.As call it",
	"wal.osFS.Append":          "implements the fileSystem seam the WAL fault tests substitute",
	"wal.osFS.OpenRead":        "implements the fileSystem seam the WAL fault tests substitute",
	"wal.osFS.Remove":          "implements the fileSystem seam the WAL fault tests substitute",
	"wal.osFS.Rename":          "implements the fileSystem seam the WAL fault tests substitute",
	"wal.osFS.SyncDir":         "implements the fileSystem seam the WAL fault tests substitute",
	"wal.osFS.Truncate":        "implements the fileSystem seam the WAL fault tests substitute",
	// Reference implementations other packages' tests compare against.
	"vclock.Clock.Project":     "the projection hct's store tests hold stored frames to",
	"vclock.Clock.ProjectInto": "the projection hct's store tests hold stored frames to",
	// Test seams other packages' tests call.
	"commgraph.Graph.LocalityFraction": "workload's tests check each generator's communication shape",
	"experiment.CorpusSweep":           "the root package's Section 4 benchmarks sweep the corpus through it",
	"fm.Snapshot.Observed":             "related's tests check the cut a snapshot was taken at",
	"hct.BatchTimestamper.Clustered":   "the root integration test checks that the batch closed",
	"hct.Hierarchy.Levels":             "the root package's hierarchy test checks the depth",
	"metrics.Window.Width":             "experiment's claim tests check a window's width",
	"model.Trace.PerProcessCounts":     "monitor's query tests draw events per process",
	"monitor.ClientV2.Report":          "poetd's tests send single events",
	"obs.Histogram.Summary":            "monitor's telemetry tests read a histogram",
	"obs.NewTrace":                     "monitor's span tests build a batch trace by hand",
	"obs.Trace.Finish":                 "monitor's span tests build a batch trace by hand",
	"obs.Registry.WriteOpenMetrics":    "monitor's tests render the registry /metrics serves",
	"obs.Registry.WritePrometheus":     "monitor's tests render the registry /metrics serves",
	"obs.TraceRing.Slowest":            "monitor's tests read the op ring",
	"replay.Store.RunBoundaries":       "TestReplayDifferentialCorpus, in package replay_test, checks the recorded run boundaries",
	"wal.Log.Compact":                  "monitor's and replay's tests compact a log on demand",
	"workload.RandomSparse":            "tests across cmd/ and internal/ draw small sparse computations from it",
}

// oneReasonToExport: every exported function or method in internal/'s
// non-test code is named by a selector in a non-test file of another
// package, or has a row in exportAllowed. It matches by name alone, so a
// name another type also spells counts as called; it never fails a used name.
func oneReasonToExport(t *testing.T, s *source) {
	selectedIn := map[string]map[string]bool{} // name -> directories of the non-test files that select it
	for _, f := range s.files {
		if f.test {
			continue
		}
		ast.Inspect(f.ast, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok {
				if selectedIn[sel.Sel.Name] == nil {
					selectedIn[sel.Sel.Name] = map[string]bool{}
				}
				selectedIn[sel.Sel.Name][path.Dir(f.path)] = true
			}
			return true
		})
	}
	seen := map[string]bool{}
	for _, f := range s.scope(t, "internal/") {
		dir := path.Dir(f.path)
		for _, d := range f.ast.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || !fd.Name.IsExported() {
				continue
			}
			key := path.Base(dir) + "."
			if fd.Recv != nil {
				recv, _, _ := strings.Cut(strings.TrimLeft(f.text(fd.Recv.List[0].Type), "*"), "[")
				key += recv + "."
			}
			key += fd.Name.Name
			seen[key] = true
			called := false
			for in := range selectedIn[fd.Name.Name] {
				called = called || in != dir
			}
			if _, ok := exportAllowed[key]; ok && called {
				t.Errorf("exportAllowed row %s: it has a caller outside %s", key, dir)
			} else if !ok && !called {
				t.Errorf("%s: %s has no caller outside %s; unexport it, or give exportAllowed a row", f.fset.Position(fd.Pos()), key, dir)
			}
		}
	}
	for key := range exportAllowed {
		if !seen[key] {
			t.Errorf("exportAllowed row %s names no exported function or method in internal/", key)
		}
	}
}

// invariant is one row of DESIGN.md's invariant register.
type invariant struct {
	line             int
	owner, checkedBy string
}

var (
	registerRow = regexp.MustCompile("^\\| `([a-z][A-Za-z]*(?:-[A-Za-z]+)+)` \\| .+ \\| (.+) \\| (.+) \\|$") // name, statement, owner, checked by
	citation    = regexp.MustCompile(`\[([a-z][A-Za-z]*(?:-[A-Za-z]+)+)\]`)
	backquoted  = regexp.MustCompile("`([^`]+)`")
)

// register parses the table of the section of DESIGN.md headed "The
// invariant register".
func register(t *testing.T) map[string]invariant {
	src, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	rows, in := map[string]invariant{}, false
	for i, line := range strings.Split(string(src), "\n") {
		if strings.HasPrefix(line, "## ") {
			in = strings.HasSuffix(line, ". The invariant register")
		}
		if m := registerRow.FindStringSubmatch(line); in && m != nil {
			if _, dup := rows[m[1]]; dup {
				t.Errorf("DESIGN.md:%d: a second row %s", i+1, m[1])
			}
			rows[m[1]] = invariant{i + 1, m[2], m[3]}
		}
	}
	if len(rows) == 0 {
		t.Fatal("DESIGN.md has no invariant register")
	}
	return rows
}

// oneRegister: every invariant name a Go comment cites as [name] has a row
// in the register, every row is cited, every test a row's "checked by"
// names is declared in a test file (a row without one says *prose only*),
// and every owner a row names is declared in the file the row names with it.
func oneRegister(t *testing.T, s *source) {
	rows := register(t)
	cited, files := map[string]bool{}, map[string]*file{}
	for _, f := range s.files {
		files[f.path] = f
		for _, cg := range f.ast.Comments {
			for _, m := range citation.FindAllStringSubmatch(cg.Text(), -1) {
				cited[m[1]] = true
				if _, ok := rows[m[1]]; !ok {
					t.Errorf("%s: cites [%s], which has no row in the invariant register", f.fset.Position(cg.Pos()), m[1])
				}
			}
		}
	}
	for name, r := range rows {
		where := fmt.Sprintf("DESIGN.md:%d: %s", r.line, name)
		if !cited[name] {
			t.Errorf("%s: no Go comment cites [%s]", where, name)
		}
		tests := backquoted.FindAllStringSubmatch(r.checkedBy, -1)
		for _, m := range tests {
			test, _, _ := strings.Cut(m[1], "/")
			if !slices.ContainsFunc(s.files, func(f *file) bool { return f.test && f.declares(test) }) {
				t.Errorf("%s: checked by %s, which no test file declares", where, test)
			}
		}
		if len(tests) == 0 && strings.TrimSpace(r.checkedBy) != "*prose only*" {
			t.Errorf("%s: \"checked by\" names no test and does not say *prose only*", where)
		}
		for _, group := range strings.Split(r.owner, ";") {
			names := backquoted.FindAllStringSubmatch(group, -1)
			if len(names) < 2 || files[names[0][1]] == nil {
				t.Errorf("%s: owner %q is not a file and what in it owns the argument", where, strings.TrimSpace(group))
				continue
			}
			for _, n := range names[1:] {
				if !files[names[0][1]].declares(n[1]) {
					t.Errorf("%s: owner %s is not declared in %s", where, n[1], names[0][1])
				}
			}
		}
	}
}

// declares reports whether f declares name: a function, a method
// ("Recv.Name") or a type.
func (f *file) declares(name string) bool {
	return slices.ContainsFunc(f.sites, func(st site) bool {
		return st.fn == name && strings.HasPrefix(st.text, "func ") || strings.HasPrefix(st.text, "type "+name+" ")
	})
}

// sectionRefsResolve: every "DESIGN.md §N" or "DESIGN §N" (and the sections
// listed after it, "§9, §10") in a Go file, README.md, EXPERIMENTS.md or the
// verify notes names a "## N." heading of DESIGN.md.
func sectionRefsResolve(t *testing.T, s *source) {
	design, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	headings := map[string]bool{}
	for _, m := range regexp.MustCompile(`(?m)^## (\d+)\. `).FindAllSubmatch(design, -1) {
		headings[string(m[1])] = true
	}
	ref := regexp.MustCompile("DESIGN(?:\\.md)?`?\\s*(§\\d+(?:\\s*(?:,|/|and|or)\\s*§\\d+)*)")
	number := regexp.MustCompile(`§(\d+)`)
	check := func(name string, src []byte) {
		for _, loc := range ref.FindAllSubmatchIndex(src, -1) {
			line := 1 + bytes.Count(src[:loc[0]], []byte("\n"))
			for _, n := range number.FindAllSubmatch(src[loc[2]:loc[3]], -1) {
				if !headings[string(n[1])] {
					t.Errorf("%s:%d: DESIGN.md has no section §%s", name, line, n[1])
				}
			}
		}
	}
	for _, f := range s.files {
		check(f.path, f.src)
	}
	for _, doc := range []string{"README.md", "EXPERIMENTS.md", ".claude/skills/verify/SKILL.md"} {
		src, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		check(doc, src)
	}
}

// ciPatternsMatch: in .github/workflows/ci.yml, every alternative of a -run,
// -bench or -fuzz pattern of a go test command matches a Test/Fuzz,
// Benchmark or Fuzz function (in that order) of the packages the command
// names; ^$ is exempt. An alternative whose group holds alternatives, like
// "Benchmark(A|B)$", is checked once per alternative of the group.
func ciPatternsMatch(t *testing.T, s *source) {
	ci, err := os.ReadFile(".github/workflows/ci.yml")
	if err != nil {
		t.Fatal(err)
	}
	kinds := map[string]*regexp.Regexp{"-run": regexp.MustCompile(`^(Test|Fuzz|Example)`), "-bench": regexp.MustCompile(`^Benchmark`), "-fuzz": regexp.MustCompile(`^Fuzz`)}
	commands := 0
	for i, line := range strings.Split(string(ci), "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), "#") {
			continue
		}
		for _, cmd := range goTestCommands(line) {
			commands++
			var pkgs []string
			for _, arg := range cmd {
				if arg == "." || strings.HasPrefix(arg, "./") {
					pkgs = append(pkgs, arg)
				}
			}
			names := testFuncs(s, pkgs)
			for j, arg := range cmd {
				flag, pattern, ok := strings.Cut(arg, "=")
				if !ok && j+1 < len(cmd) {
					pattern = cmd[j+1]
				}
				kind := kinds[flag]
				if kind == nil || pattern == "^$" {
					continue
				}
				top, _, _ := strings.Cut(pattern, "/") // the subtest part is the test's own business
				for _, alt := range alternatives(top) {
					re, err := regexp.Compile(alt)
					if err != nil {
						t.Errorf("ci.yml:%d: %s %q: %v", i+1, flag, alt, err)
					} else if !slices.ContainsFunc(names, func(fn string) bool { return kind.MatchString(fn) && re.MatchString(fn) }) {
						t.Errorf("ci.yml:%d: %s alternative %q matches no function of %v", i+1, flag, alt, pkgs)
					}
				}
			}
		}
	}
	if commands == 0 {
		t.Error("ci.yml has no go test command")
	}
}

// goTestCommands returns the arguments after "go test" of each go test
// command on a shell line, split as the shell splits them (quotes removed),
// each ending at a command separator or a closing parenthesis.
func goTestCommands(line string) (cmds [][]string) {
	var words []string
	word, quote, inWord := []byte{}, byte(0), false
	flush := func() {
		if inWord {
			words = append(words, string(word))
		}
		word, inWord = word[:0], false
	}
	for i := 0; i < len(line); i++ {
		switch c := line[i]; {
		case quote != 0 && c == quote:
			quote = 0
		case quote != 0:
			word = append(word, c)
		case c == '\'' || c == '"':
			quote, inWord = c, true
		case c == ' ' || c == '\t':
			flush()
		case c == ')' || c == ';' || c == '|' || c == '&':
			flush()
			words = append(words, string(c))
		default:
			word, inWord = append(word, c), true
		}
	}
	flush()
	for i := 0; i+1 < len(words); i++ {
		if words[i] != "go" || words[i+1] != "test" {
			continue
		}
		j := i + 2
		for j < len(words) && !strings.Contains(")|;&", words[j]) {
			j++
		}
		cmds = append(cmds, words[i+2:j])
		i = j
	}
	return cmds
}

// testFuncs returns the top-level functions declared in the test files of
// the packages pkgs name ("./dir", "./dir/..." or ".").
func testFuncs(s *source, pkgs []string) (names []string) {
	for _, f := range s.files {
		dir := path.Dir(f.path)
		if !f.test || !slices.ContainsFunc(pkgs, func(p string) bool {
			tree, all := strings.CutSuffix(strings.TrimPrefix(p, "./"), "...")
			tree = path.Clean(tree)
			return dir == tree || all && (tree == "." || strings.HasPrefix(dir, tree+"/"))
		}) {
			continue
		}
		for _, st := range f.sites {
			if st.text == "func "+st.fn+"(" {
				names = append(names, st.fn)
			}
		}
	}
	return names
}

// alternatives splits a regular expression at its top-level "|" and expands
// the first parenthesized group of each alternative that holds a "|" of its
// own: "A|B(C|D)$" is "A", "BC$" and "BD$".
func alternatives(re string) []string {
	split := func(s string) (parts []string) {
		depth, from := 0, 0
		for i, c := range s {
			switch {
			case c == '(':
				depth++
			case c == ')':
				depth--
			case c == '|' && depth == 0:
				parts, from = append(parts, s[from:i]), i+1
			}
		}
		return append(parts, s[from:])
	}
	var out []string
	for _, alt := range split(re) {
		open, depth, expanded := -1, 0, false
		for i, c := range alt {
			if c == '(' {
				if depth == 0 {
					open = i
				}
				depth++
			} else if c == ')' {
				if depth--; depth == 0 {
					if inner := split(alt[open+1 : i]); len(inner) > 1 {
						for _, choice := range inner {
							out = append(out, alternatives(alt[:open]+choice+alt[i+1:])...)
						}
						expanded = true
						break
					}
				}
			}
		}
		if !expanded {
			out = append(out, alt)
		}
	}
	return out
}
