package workload

import (
	"repro/internal/model"
)

// This file holds the DCE-style generators: business applications built on
// synchronous RPC. DCE RPC is synchronous — the client blocks until the
// server returns — which the event model renders as synchronous event pairs.
// A synchronous communication counts as two communication occurrences for
// clustering purposes (Section 3.1).

// RPCBusiness builds a DCE-style three-tier business application: clients
// make synchronous RPCs to an application server chosen by account affinity;
// the server performs nested synchronous RPCs to its designated data server,
// then returns. A small fraction of calls go to a randomly chosen
// application server (load spill), injecting non-local traffic.
// Layout: clients, then appServers, then dataServers.
func RPCBusiness(clients, appServers, dataServers, calls int, spill float64, seed int64) *model.Trace {
	r := rng(seed)
	n := clients + appServers + dataServers
	b := model.NewBuilder("", n)
	client := func(i int) model.ProcessID { return model.ProcessID(i) }
	app := func(i int) model.ProcessID { return model.ProcessID(clients + i) }
	data := func(i int) model.ProcessID { return model.ProcessID(clients + appServers + i) }

	for call := 0; call < calls; call++ {
		c := r.Intn(clients)
		a := assignVaried(c, clients, appServers) // uneven account affinity
		if r.Float64() < spill {
			a = r.Intn(appServers)
		}
		// Synchronous client -> app RPC (call), nested app -> data RPC,
		// then the returns, also synchronous.
		b.Sync(client(c), app(a))
		b.Unary(app(a))
		d := a % dataServers
		b.Sync(app(a), data(d))
		b.Unary(data(d))
		b.Sync(data(d), app(a))
		b.Sync(app(a), client(c))
		b.Unary(client(c))
	}
	return b.Trace()
}

// replicatedDirectory builds a DCE-style replicated directory service: a set
// of replicas kept consistent by synchronous update propagation among
// themselves (ring order), with clients reading from their nearest replica
// via synchronous RPC. writeFrac is the fraction of operations that are
// writes requiring propagation; directory services are read-dominated.
func replicatedDirectory(replicas, clients, ops int, writeFrac float64, seed int64) *model.Trace {
	r := rng(seed)
	n := replicas + clients
	b := model.NewBuilder("", n)
	replica := func(i int) model.ProcessID { return model.ProcessID(i) }
	client := func(i int) model.ProcessID { return model.ProcessID(replicas + i) }

	for op := 0; op < ops; op++ {
		c := r.Intn(clients)
		rep := assignVaried(c, clients, replicas) // uneven nearest replica
		b.Sync(client(c), replica(rep))
		b.Unary(replica(rep))
		if replicas > 1 && r.Float64() < writeFrac {
			// A write: the serving replica propagates the update
			// directly to every peer (star fan-out, as in DCE CDS
			// master-update propagation).
			for i := 0; i < replicas; i++ {
				if i != rep {
					b.Sync(replica(rep), replica(i))
				}
			}
		}
		b.Sync(replica(rep), client(c))
	}
	return b.Trace()
}
