package main

import (
	"math"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
	"time"
)

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func mean(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// quantile is the q-quantile of xs by linear interpolation between order
// statistics; xs is not modified.
func quantile(xs []float64, q float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(s)-1)
	return s[lo] + (pos-float64(lo))*(s[hi]-s[lo])
}

// summary is how a metric is stored: the median over passes (or runs), the
// quartiles, and every value, so a later reader can recompute anything.
type summary struct {
	Unit   string    `json:"unit"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	N      int       `json:"n"`
	Values []float64 `json:"values"`
}

// summarize uses the quartile definition of Python's statistics.quantiles
// (n=4, exclusive), the one the acceptance driver applies to run medians.
func summarize(unit string, xs []float64) summary {
	s := summary{Unit: unit, N: len(xs), Values: xs}
	if len(xs) == 0 {
		return s
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	at := func(k int) float64 { // k-th quartile, exclusive method
		n := len(sorted)
		if n == 1 {
			return sorted[0]
		}
		pos := float64(k*(n+1)) / 4
		j := int(pos)
		j = max(1, min(j, n-1))
		frac := pos - float64(j)
		return sorted[j-1] + frac*(sorted[j]-sorted[j-1])
	}
	s.Q1, s.Median, s.Q3 = at(1), quantile(xs, 0.5), at(3)
	return s
}

// spread is the interquartile distance as a share of the median.
func (s summary) spread() float64 {
	if s.Median == 0 {
		return 0
	}
	return (s.Q3 - s.Q1) / math.Abs(s.Median)
}

// environment is recorded with every result file; compare refuses to set two
// files side by side when the fields that decide speed differ.
type environment struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	Kernel     string `json:"kernel"`
	Commit     string `json:"git_commit"`
	LoadAvg    string `json:"loadavg_at_start"`
}

func readEnvironment() environment {
	env := environment{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPUModel:   "unknown",
		Kernel:     "unknown",
		Commit:     "unknown",
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				env.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		env.Kernel = strings.TrimSpace(string(b))
	}
	if b, err := os.ReadFile("/proc/loadavg"); err == nil {
		env.LoadAvg = strings.TrimSpace(string(b))
	}
	// The acceptance driver runs in an exported tree, not a git checkout.
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		env.Commit = strings.TrimSpace(string(out))
	}
	return env
}

// comparable reports whether numbers taken in a and b may be compared.
func (a environment) comparable(b environment) bool {
	return a.NumCPU == b.NumCPU && a.GOMAXPROCS == b.GOMAXPROCS && a.GoVersion == b.GoVersion &&
		a.CPUModel == b.CPUModel && a.Kernel == b.Kernel
}
