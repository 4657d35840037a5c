package obs

import (
	"runtime/metrics"
	"strings"
)

// This file gives the Go runtime's memory an owner on the scrape surface: the
// part of the daemon's resident set that is not the timestamp store — the
// collector's metadata, stacks, garbage not yet swept — and the pressure that
// garbage puts on the collector (bytes allocated, cycles run, the heap goal),
// read from runtime/metrics when a surface is asked and at no other time.

// runtimeSeries are the runtime/metrics samples bridged into a registry, each
// under the gauge it is served as.
var runtimeSeries = [...]struct{ name, help, sample string }{
	{"poetd_runtime_heap_live_bytes", "Heap bytes the last garbage collection found live.", "/gc/heap/live:bytes"},
	{"poetd_runtime_heap_objects_bytes", "Heap bytes in objects: live ones and dead ones not yet swept.", "/memory/classes/heap/objects:bytes"},
	{"poetd_runtime_heap_released_bytes", "Heap bytes returned to the operating system.", "/memory/classes/heap/released:bytes"},
	{"poetd_runtime_gc_metadata_bytes", "Bytes of runtime metadata, the garbage collector's bitmaps and span tables above all.", "/memory/classes/metadata/other:bytes"},
	{"poetd_runtime_stack_bytes", "Bytes of goroutine stacks.", "/memory/classes/heap/stacks:bytes"},
	{"poetd_runtime_goroutines", "Live goroutines.", "/sched/goroutines:goroutines"},
	{"poetd_runtime_heap_allocs_bytes", "Heap bytes allocated since the process started, freed or not: over events ingested, the garbage each event costs.", "/gc/heap/allocs:bytes"},
	{"poetd_runtime_gc_cycles", "Garbage collections completed since the process started.", "/gc/cycles/total:gc-cycles"},
	{"poetd_runtime_heap_goal_bytes", "Heap size the garbage collector aims to finish the current cycle under.", "/gc/heap/goal:bytes"},
}

// runtimeValue reads one runtime/metrics sample now; one this runtime does not
// have reads as zero.
func runtimeValue(sample string) uint64 {
	s := []metrics.Sample{{Name: sample}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}

// RegisterRuntime exposes the runtime's memory classes, goroutine count and GC
// pressure on r as gauges derived at scrape time.
func RegisterRuntime(r *Registry) {
	for _, s := range runtimeSeries {
		r.GaugeFunc(s.name, s.help, func() float64 { return float64(runtimeValue(s.sample)) })
	}
}

// RuntimeMemory reads the same samples for a status document, keyed by the
// gauge's name less its poetd_runtime_ prefix.
func RuntimeMemory() map[string]uint64 {
	m := make(map[string]uint64, len(runtimeSeries))
	for _, s := range runtimeSeries {
		m[strings.TrimPrefix(s.name, "poetd_runtime_")] = runtimeValue(s.sample)
	}
	return m
}
