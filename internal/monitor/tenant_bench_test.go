package monitor

import (
	"fmt"
	"testing"

	"repro/internal/hct"
	"repro/internal/strategy"
	"repro/internal/workload"
)

// BenchmarkIngestMultiTenant measures the routing tax of the namespace
// layer: the identical reference stream is pushed through the server's
// tenant-scoped submit path while the registry holds 1 vs 8 live
// namespaces. Every batch pays the full routing cost — a registry lookup by
// name, the quota check, and the per-tenant accounting — before landing in
// the hot tenant's collector; the extra namespaces in the tenants=8 series
// are live (monitor, collector, registry entry) but idle, so the series
// differ only in what multi-tenancy adds around an unchanged ingest. The
// acceptance bar for the PR was ≤5% overhead, read off the events/sec
// metric of the two series.
func BenchmarkIngestMultiTenant(b *testing.B) {
	spec, ok := workload.Find("pvm/ring-300")
	if !ok {
		b.Fatal("spec missing")
	}
	tr := spec.Generate()
	factory := func(name string) (TenantResources, error) {
		m, err := NewWithOptions(tr.NumProcs, hct.Config{MaxClusterSize: 13, Decider: strategy.NewMergeOnFirst()}, hct.PipelineOptions{Shards: 2})
		if err != nil {
			return TenantResources{}, err
		}
		return TenantResources{Monitor: m, Close: func() error { m.Close(); return nil }}, nil
	}

	const batch = 2048
	for _, nt := range []int{1, 8} {
		b.Run(fmt.Sprintf("tenants=%d", nt), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				// Construction and teardown of the per-tenant monitors are
				// not the routing path; keep them off the clock.
				b.StopTimer()
				srv, err := NewTenantServer(ServerConfig{
					FixedVector: 300,
					Tenants:     &TenantsConfig{New: factory, MaxTenants: nt + 1},
				})
				if err != nil {
					b.Fatal(err)
				}
				hot := fmt.Sprintf("t%d", nt/2)
				for j := 0; j < nt; j++ {
					if _, err := srv.Tenant(fmt.Sprintf("t%d", j)); err != nil {
						b.Fatal(err)
					}
				}
				b.StartTimer()
				for lo := 0; lo < len(tr.Events); lo += batch {
					hi := lo + batch
					if hi > len(tr.Events) {
						hi = len(tr.Events)
					}
					// Route by name per batch: the lookup is part of what
					// this benchmark prices.
					tn, err := srv.Tenant(hot)
					if err != nil {
						b.Fatal(err)
					}
					if _, err := srv.submitInstrumented(tn, tr.Events[lo:hi], nil); err != nil {
						b.Fatal(err)
					}
				}
				for _, tn := range srv.Tenants() {
					tn.Monitor().IngestBarrier()
				}
				b.StopTimer()
				if err := srv.Close(); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
			}
			b.ReportMetric(float64(len(tr.Events))*float64(b.N)/b.Elapsed().Seconds(), "events/sec")
		})
	}
}
