package trace

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/model"
	"repro/internal/workload"
)

func sampleTrace(t *testing.T) *model.Trace {
	t.Helper()
	b := model.NewBuilder("sample", 3)
	b.Unary(0)
	b.Message(0, 1)
	b.Sync(1, 2)
	b.Message(2, 0)
	tr := b.Trace()
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestBinaryRoundTrip(t *testing.T) {
	tr := sampleTrace(t)
	var buf bytes.Buffer
	if err := WriteBinary(&buf, tr); err != nil {
		t.Fatal(err)
	}
	got, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	assertEqualTraces(t, tr, got)
}

func TestTextRoundTrip(t *testing.T) {
	tr := sampleTrace(t)
	var buf bytes.Buffer
	if err := WriteText(&buf, tr); err != nil {
		t.Fatal(err)
	}
	got, err := ReadText(&buf)
	if err != nil {
		t.Fatal(err)
	}
	assertEqualTraces(t, tr, got)
}

func TestRoundTripCorpusComputation(t *testing.T) {
	spec, ok := workload.Find("dce/rpc-72")
	if !ok {
		t.Fatal("corpus spec missing")
	}
	tr := spec.Generate()
	var bin bytes.Buffer
	if err := WriteBinary(&bin, tr); err != nil {
		t.Fatal(err)
	}
	got, err := ReadBinary(&bin)
	if err != nil {
		t.Fatal(err)
	}
	assertEqualTraces(t, tr, got)

	var txt bytes.Buffer
	if err := WriteText(&txt, tr); err != nil {
		t.Fatal(err)
	}
	got2, err := ReadText(&txt)
	if err != nil {
		t.Fatal(err)
	}
	assertEqualTraces(t, tr, got2)
}

func assertEqualTraces(t *testing.T, want, got *model.Trace) {
	t.Helper()
	if got.Name != want.Name || got.NumProcs != want.NumProcs || len(got.Events) != len(want.Events) {
		t.Fatalf("header mismatch: %q/%d/%d vs %q/%d/%d",
			got.Name, got.NumProcs, len(got.Events), want.Name, want.NumProcs, len(want.Events))
	}
	for i := range want.Events {
		if got.Events[i] != want.Events[i] {
			t.Fatalf("event %d: %v != %v", i, got.Events[i], want.Events[i])
		}
	}
}

func TestReadBinaryErrors(t *testing.T) {
	t.Run("bad magic", func(t *testing.T) {
		_, err := ReadBinary(strings.NewReader("NOPE...."))
		if !errors.Is(err, ErrBadMagic) {
			t.Fatalf("err = %v", err)
		}
	})
	t.Run("truncated", func(t *testing.T) {
		tr := sampleTrace(t)
		var buf bytes.Buffer
		if err := WriteBinary(&buf, tr); err != nil {
			t.Fatal(err)
		}
		b := buf.Bytes()
		for _, cut := range []int{2, 6, len(b) / 2, len(b) - 1} {
			if _, err := ReadBinary(bytes.NewReader(b[:cut])); err == nil {
				t.Fatalf("truncation at %d accepted", cut)
			}
		}
	})
	t.Run("bad version", func(t *testing.T) {
		_, err := ReadBinary(strings.NewReader(Magic + "\xff\x01"))
		if !errors.Is(err, ErrBadVersion) && !errors.Is(err, ErrCorrupt) {
			t.Fatalf("err = %v", err)
		}
	})
	t.Run("invalid trace content", func(t *testing.T) {
		// A receive-before-send stream is structurally decodable but
		// semantically invalid.
		bad := &model.Trace{NumProcs: 2, Events: []model.Event{
			{ID: model.EventID{Process: 1, Index: 1}, Kind: model.Receive, Partner: model.EventID{Process: 0, Index: 1}},
			{ID: model.EventID{Process: 0, Index: 1}, Kind: model.Send, Partner: model.EventID{Process: 1, Index: 1}},
		}}
		var buf bytes.Buffer
		if err := WriteBinary(&buf, bad); err != nil {
			t.Fatal(err)
		}
		if _, err := ReadBinary(&buf); err == nil {
			t.Fatal("invalid trace accepted")
		}
	})
}

func TestReadTextErrors(t *testing.T) {
	cases := map[string]string{
		"missing procs":   "u 0:1\n",
		"bad procs":       "procs x\nu 0:1\n",
		"bad record":      "procs 1\nz 0:1\n",
		"bad id":          "procs 1\nu zero:1\n",
		"bad arrow":       "procs 2\ns 0:1 <- 1:1\nr 1:1 <- 0:1\n",
		"unary partner":   "procs 1\nu 0:1 -> 0:2\n",
		"missing partner": "procs 2\ns 0:1\n",
		"field count":     "procs 2\ns 0:1 ->\n",
		"zero index":      "procs 1\nu 0:0\n",
		"invalid order":   "procs 2\nr 1:1 <- 0:1\ns 0:1 -> 1:1\n",
	}
	for name, in := range cases {
		if _, err := ReadText(strings.NewReader(in)); err == nil {
			t.Errorf("%s: accepted %q", name, in)
		}
	}
}

func TestReadTextSkipsCommentsAndBlanks(t *testing.T) {
	in := "# trace named\n\n# a comment\nprocs 2\nu 0:1\n  \ns 0:2 -> 1:1\nr 1:1 <- 0:2\n"
	tr, err := ReadText(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if tr.Name != "named" || tr.NumProcs != 2 || len(tr.Events) != 3 {
		t.Fatalf("parsed %q/%d/%d", tr.Name, tr.NumProcs, len(tr.Events))
	}
}

func TestWriteTextUnknownKind(t *testing.T) {
	bad := &model.Trace{NumProcs: 1, Events: []model.Event{{ID: model.EventID{Process: 0, Index: 1}, Kind: model.Kind(9)}}}
	var buf bytes.Buffer
	if err := WriteText(&buf, bad); err == nil {
		t.Fatal("unknown kind accepted")
	}
}

// TestReadTextRejectsWhatTheRecordParserRejects holds ReadText to the one
// record parser on the inputs the monitoring server's text protocol refuses
// (internal/monitor's v1 error table): each must fail as corrupt input
// rather than yield a trace holding some other event.
func TestReadTextRejectsWhatTheRecordParserRejects(t *testing.T) {
	for _, in := range []string{
		"procs 2\nu 4294967296:1\n", // used to read as 0:1
		"procs 2\nu 0:4294967297\n",
		"procs 2\nu 0:2147483648\n",
		"procs 2\ns 4294967296:4294967298 -> 1:1\nr 1:1 <- 0:2\n",
		"procs 2\ns 0:1 banana 1:1\nr 1:1 <- 0:1\n",
		"procs 2\ns 0:1 -> 1:1\nr 1:1 -> 0:1\n",
		"procs 2\ns 0:1 -> 1:1 extra\nr 1:1 <- 0:1\n",
		"procs 2\nu\n",
		"procs 4294967298\nu 0:1\n",
	} {
		if tr, err := ReadText(strings.NewReader(in)); !errors.Is(err, ErrCorrupt) {
			t.Errorf("ReadText(%q) = %v, %v; want ErrCorrupt", in, tr, err)
		}
	}
}

func TestParseEventID(t *testing.T) {
	for in, want := range map[string]model.EventID{
		"0:1":                   {Process: 0, Index: 1},
		"2147483647:2147483647": {Process: 2147483647, Index: 2147483647},
		"007:010":               {Process: 7, Index: 10}, // leading zeros are digits
	} {
		if got, err := ParseEventID(in); err != nil || got != want {
			t.Errorf("ParseEventID(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	for _, in := range []string{
		"-1:1", "0:0", ":1", "1:", "1", "", ":", "1:2:3", "a:1", "1:b", " 1:1", "1 :1",
		"2147483648:1", "1:2147483648", "4294967296:1", "1:4294967297",
		"+1:1", "1:+1", "-0:1", // a sign is not a digit
	} {
		got, err := ParseEventID(in)
		if err == nil {
			t.Errorf("ParseEventID(%q) = %v, want an error", in, got)
		} else if want := fmt.Sprintf("bad event id %q", in); err.Error() != want {
			t.Errorf("ParseEventID(%q): error %q, want %q", in, err, want)
		}
	}
}

// TestRecordRoundTrip pins parseRecord as appendRecord's inverse on each
// record shape, and the error texts a text trace's reader reports.
func TestRecordRoundTrip(t *testing.T) {
	a, b := model.EventID{Process: 3, Index: 17}, model.EventID{Process: 0, Index: 2147483647}
	for want, e := range map[string]model.Event{
		"u 3:17":                 {ID: a, Kind: model.Unary},
		"s 3:17 -> 0:2147483647": {ID: a, Kind: model.Send, Partner: b},
		"r 3:17 <- 0:2147483647": {ID: a, Kind: model.Receive, Partner: b},
		"y 3:17 <> 0:2147483647": {ID: a, Kind: model.Sync, Partner: b},
	} {
		line, err := appendRecord(nil, e)
		if err != nil || string(line) != want {
			t.Errorf("appendRecord(%v) = %q, %v; want %q", e, line, err, want)
		}
		if got, err := parseRecord(strings.Fields(want)); err != nil || got != e {
			t.Errorf("parseRecord(%q) = %v, %v; want %v", want, got, err, e)
		}
	}
	for in, want := range map[string]string{
		"z 0:1":          `unknown event kind "z"`,
		"u zero:1":       `bad event id "zero:1"`,
		"u 0:1 -> 1:1":   "unary takes no partner",
		"s 0:1":          "missing partner",
		"s 0:1 ->":       "missing partner",
		"s 0:1 -> bad":   `bad event id "bad"`,
		"s 0:1 <- 1:1":   `expected "->", not "<-"`,
		"y 0:1 -> 1:1":   `expected "<>", not "->"`,
		"s 0:1 -> 1:1 x": `unexpected field "x" after partner`,
		"u":              "missing event id",
		"":               "missing event id",
	} {
		if got, err := parseRecord(strings.Fields(in)); err == nil || err.Error() != want {
			t.Errorf("parseRecord(%q) = %v, %v; want error %q", in, got, err, want)
		}
	}
}
