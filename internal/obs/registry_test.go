package obs

import (
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// buildTestRegistry assembles one registry exercising every instrument kind.
func buildTestRegistry(t *testing.T) *Registry {
	t.Helper()
	reg := NewRegistry()
	c := reg.NewCounter("test_ops_total", "Operations performed.")
	c.Add(41)
	c.Inc()
	g := reg.NewGauge("test_depth", "Current queue depth.")
	g.Set(3.5)
	reg.CounterFunc("test_bridged_total", "A derived counter.", func() float64 { return 7 })
	reg.GaugeFunc("test_ratio", "A live ratio.", func() float64 { return 0.25 })
	reg.GaugeVecFunc("test_sizes", "Things by size.", "size", func() map[string]float64 {
		return map[string]float64{"1": 2, "3": 1, "10": 4}
	})
	reg.CounterVecFunc("test_lane_events_total", "Events by lane.", "lane", func() map[string]float64 {
		return map[string]float64{"0": 30, "1": 12}
	})
	h := reg.newHistogram("test_latency_seconds", "Op latency.")
	for _, d := range []time.Duration{time.Microsecond, 50 * time.Microsecond, time.Millisecond, 20 * time.Millisecond} {
		h.Observe(d)
	}
	sh := reg.newSizeHistogram("test_batch_events", "Events per batch.")
	sh.ObserveValue(64)
	sh.ObserveValue(1024)
	return reg
}

var (
	sampleRe = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[a-zA-Z_][a-zA-Z0-9_]*="[^"]*"\})? (\+Inf|-Inf|[0-9eE+.-]+)$`)
	helpRe   = regexp.MustCompile(`^# HELP ([a-zA-Z_:][a-zA-Z0-9_:]*) .+$`)
	typeRe   = regexp.MustCompile(`^# TYPE ([a-zA-Z_:][a-zA-Z0-9_:]*) (counter|gauge|histogram)$`)
)

// TestWritePrometheusParses is the golden-format test: every line of the
// rendered exposition must be a well-formed 0.0.4 comment or sample, every
// sample must belong to an announced metric, and announcements must come as
// HELP-then-TYPE pairs.
func TestWritePrometheusParses(t *testing.T) {
	var sb strings.Builder
	if err := buildTestRegistry(t).WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()

	announced := map[string]string{} // metric name -> type
	var lastHelp string
	var names []string
	for _, line := range strings.Split(strings.TrimRight(out, "\n"), "\n") {
		switch {
		case strings.HasPrefix(line, "# HELP "):
			m := helpRe.FindStringSubmatch(line)
			if m == nil {
				t.Fatalf("malformed HELP line %q", line)
			}
			lastHelp = m[1]
			names = append(names, m[1])
		case strings.HasPrefix(line, "# TYPE "):
			m := typeRe.FindStringSubmatch(line)
			if m == nil {
				t.Fatalf("malformed TYPE line %q", line)
			}
			if m[1] != lastHelp {
				t.Fatalf("TYPE %q does not follow its HELP (last HELP %q)", m[1], lastHelp)
			}
			announced[m[1]] = m[2]
		default:
			m := sampleRe.FindStringSubmatch(line)
			if m == nil {
				t.Fatalf("malformed sample line %q", line)
			}
			base := m[1]
			if announced[base] == "" {
				// Histogram series carry suffixes on the announced name.
				base = strings.TrimSuffix(base, "_bucket")
				base = strings.TrimSuffix(base, "_sum")
				base = strings.TrimSuffix(base, "_count")
			}
			if announced[base] == "" {
				t.Fatalf("sample %q has no preceding HELP/TYPE", line)
			}
		}
	}
	if !sort.StringsAreSorted(names) {
		t.Fatalf("metrics not rendered in name order: %v", names)
	}

	for _, want := range []string{
		"test_ops_total 42\n",
		"test_depth 3.5\n",
		"test_bridged_total 7\n",
		"test_ratio 0.25\n",
		`test_sizes{size="1"} 2` + "\n",
		"# TYPE test_lane_events_total counter\n" + `test_lane_events_total{lane="0"} 30` + "\n",
		"test_latency_seconds_count 4\n",
		"test_batch_events_count 2\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	// GaugeVec samples come in sorted label order.
	if strings.Index(out, `test_sizes{size="1"}`) > strings.Index(out, `test_sizes{size="3"}`) {
		t.Error("gauge vector not in sorted label order")
	}
}

// TestHistogramExposition checks the rendered histogram against the format's
// invariants: cumulative buckets are non-decreasing, the +Inf bucket equals
// _count, and le bounds parse and increase.
func TestHistogramExposition(t *testing.T) {
	reg := NewRegistry()
	h := reg.newHistogram("lat_seconds", "Latency.")
	for i := 0; i < 100; i++ {
		h.Observe(time.Duration(i) * 10 * time.Microsecond)
	}
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}

	bucketRe := regexp.MustCompile(`^lat_seconds_bucket\{le="([^"]+)"\} (\d+)$`)
	var prevCum uint64
	var prevLe float64
	var infCum, count uint64
	buckets := 0
	for _, line := range strings.Split(sb.String(), "\n") {
		if m := bucketRe.FindStringSubmatch(line); m != nil {
			buckets++
			cum, err := strconv.ParseUint(m[2], 10, 64)
			if err != nil {
				t.Fatalf("bad bucket count in %q", line)
			}
			if cum < prevCum {
				t.Fatalf("cumulative bucket decreased at %q", line)
			}
			prevCum = cum
			if m[1] == "+Inf" {
				infCum = cum
				continue
			}
			le, err := strconv.ParseFloat(m[1], 64)
			if err != nil {
				t.Fatalf("unparseable le bound in %q", line)
			}
			if le <= prevLe && buckets > 1 {
				t.Fatalf("le bounds not increasing at %q", line)
			}
			prevLe = le
		} else if rest, found := strings.CutPrefix(line, "lat_seconds_count "); found {
			v, err := strconv.ParseUint(rest, 10, 64)
			if err != nil {
				t.Fatalf("bad count line %q", line)
			}
			count = v
		}
	}
	if buckets != histBuckets+1 {
		t.Fatalf("rendered %d buckets, want %d", buckets, histBuckets+1)
	}
	if count != 100 || infCum != count {
		t.Fatalf("count=%d +Inf cumulative=%d, want both 100", count, infCum)
	}
}

func TestRegistryRejectsBadNames(t *testing.T) {
	reg := NewRegistry()
	reg.NewCounter("fine_total", "ok")
	for _, bad := range []string{"", "0starts_with_digit", "has space", "has-dash"} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("registering %q did not panic", bad)
				}
			}()
			reg.NewCounter(bad, "bad")
		}()
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("duplicate registration did not panic")
			}
		}()
		reg.NewGauge("fine_total", "dup")
	}()
}

// TestNilRegistryInstruments pins what an uninstrumented server and a bare
// write-ahead log count on: a nil registry hands out live instruments —
// counted on from several goroutines, read back exactly — that appear on no
// scrape until RegisterCounter / RegisterGauge exposes them, under the name
// and help they were made with; its other registrations do nothing, and a
// bad name is still a programming error.
func TestNilRegistryInstruments(t *testing.T) {
	var none *Registry
	c := none.NewCounter("test_unexposed_total", "Counted before it was exposed.")
	g := none.NewGauge("test_unexposed_depth", "Set before it was exposed.")
	const workers, per = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Add(3)
				c.Inc()
			}
		}()
	}
	wg.Wait()
	g.Set(2.5)
	if c.Value() != 4*workers*per || g.Value() != 2.5 {
		t.Fatalf("counter %d gauge %v, want %d and 2.5", c.Value(), g.Value(), 4*workers*per)
	}
	none.CounterFunc("test_nowhere_total", "Registered on nothing.", func() float64 { return 1 })
	none.GaugeVecFunc("test_nowhere", "Registered on nothing.", "k", func() map[string]float64 { return nil })
	none.RegisterCounter(c)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("a bad name on the nil registry did not panic")
			}
		}()
		none.NewCounter("has space", "bad")
	}()

	reg := NewRegistry()
	scrape := func() string {
		var sb strings.Builder
		if err := reg.WritePrometheus(&sb); err != nil {
			t.Fatal(err)
		}
		return sb.String()
	}
	if out := scrape(); out != "" {
		t.Fatalf("unregistered instruments were scraped:\n%s", out)
	}
	reg.RegisterCounter(c)
	reg.RegisterGauge(g)
	c.Inc()
	want := "# HELP test_unexposed_depth Set before it was exposed.\n# TYPE test_unexposed_depth gauge\ntest_unexposed_depth 2.5\n" +
		"# HELP test_unexposed_total Counted before it was exposed.\n# TYPE test_unexposed_total counter\ntest_unexposed_total 32001\n"
	if out := scrape(); out != want {
		t.Fatalf("scrape after registration:\n%s\nwant:\n%s", out, want)
	}
}

func TestRegistryHandler(t *testing.T) {
	resp, body := adminDo(t, Admin{Registry: buildTestRegistry(t)}, "/metrics", "")
	if resp.StatusCode != 200 {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Fatalf("content type %q is not the text exposition format", ct)
	}
	if !strings.Contains(body, "test_ops_total 42") {
		t.Fatal("handler body missing counter sample")
	}
}

// TestRegistryHandlerNegotiatesOpenMetrics pins the scrape-format contract:
// a plain scrape gets the classic 0.0.4 format with no exemplar syntax; a
// client accepting application/openmetrics-text gets the OpenMetrics
// rendering — # EOF terminated, counters as family + _total sample — which
// is the only dialect that may carry exemplars.
func TestRegistryHandlerNegotiatesOpenMetrics(t *testing.T) {
	reg := buildTestRegistry(t)
	reg.newHistogram("test_exemplared_seconds", "Traced latency.").
		ObserveExemplar(time.Millisecond, 7)

	resp, om := adminDo(t, Admin{Registry: reg}, "/metrics",
		"application/openmetrics-text;version=1.0.0,text/plain;version=0.0.4;q=0.5")
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "application/openmetrics-text") {
		t.Fatalf("negotiated content type %q, want openmetrics", ct)
	}
	if !strings.HasSuffix(om, "# EOF\n") {
		t.Fatal("OpenMetrics body not terminated with # EOF")
	}
	if !strings.Contains(om, `# {trace_id="7"}`) {
		t.Fatal("OpenMetrics body missing the exemplar")
	}
	// Counter family drops the _total suffix, the sample keeps it.
	if !strings.Contains(om, "# TYPE test_ops counter") || !strings.Contains(om, "test_ops_total 42") {
		t.Fatalf("counter not rendered as family+_total sample:\n%s", om)
	}

	// So does a counter vector's.
	if !strings.Contains(om, "# TYPE test_lane_events counter\n"+`test_lane_events_total{lane="0"} 30`) {
		t.Fatalf("counter vector not rendered as family+_total samples:\n%s", om)
	}

	// The classic scrape of the same registry must carry no exemplar and
	// no # EOF, and keeps the counter's registered name in HELP/TYPE.
	_, classic := adminDo(t, Admin{Registry: reg}, "/metrics", "")
	if strings.Contains(classic, "# {") || strings.Contains(classic, "# EOF") {
		t.Fatalf("classic exposition leaked OpenMetrics syntax:\n%s", classic)
	}
	if !strings.Contains(classic, "# TYPE test_ops_total counter") {
		t.Fatal("classic exposition renamed the counter family")
	}
}

// TestGaugeVecFuncReusedMapConcurrentScrapes pins the serialization contract
// added for allocation-free scrapes: a GaugeVecFunc callback may return the
// same map on every call, and concurrent renders — which run outside the
// registry lock — must not race on it. Run under -race this fails loudly if
// the per-entry serialization is ever removed.
func TestGaugeVecFuncReusedMapConcurrentScrapes(t *testing.T) {
	reg := NewRegistry()
	reused := make(map[string]float64)
	n := 0
	reg.GaugeVecFunc("reused_sizes", "Reused-map gauge vector.", "size",
		func() map[string]float64 {
			for k := range reused {
				delete(reused, k)
			}
			n++
			reused[strconv.Itoa(n%5)] = float64(n)
			reused[strconv.Itoa((n+1)%5)] = float64(n + 1)
			return reused
		})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				var sb strings.Builder
				if err := reg.WritePrometheus(&sb); err != nil {
					t.Error(err)
					return
				}
				if !strings.Contains(sb.String(), `reused_sizes{size=`) {
					t.Error("scrape missing gauge vector samples")
					return
				}
			}
		}()
	}
	wg.Wait()
}
