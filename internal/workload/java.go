package workload

import (
	"repro/internal/model"
)

// This file holds the Java-style generators: web-like applications — web
// server executions, tiered services, thread pools — where "processes" are
// threads and concurrent objects, as monitored by tools like Object-Level
// Trace.

// WebTier builds a tiered web application: clients issue requests to a
// front-end chosen by session affinity; the front-end calls a back-end (also
// affine), which may consult one of a few shared database threads before the
// response flows back. Process layout: clients, then frontends, then
// backends, then dbs.
//
// Session affinity gives each client a stable front-end/back-end pair, so
// communication is strongly localized into vertical slices — except for the
// shared database threads, which every slice touches.
func WebTier(clients, frontends, backends, dbs, requests int, seed int64) *model.Trace {
	r := rng(seed)
	n := clients + frontends + backends + dbs
	b := model.NewBuilder("", n)
	client := func(i int) model.ProcessID { return model.ProcessID(i) }
	frontend := func(i int) model.ProcessID { return model.ProcessID(clients + i) }
	backend := func(i int) model.ProcessID { return model.ProcessID(clients + frontends + i) }
	db := func(i int) model.ProcessID { return model.ProcessID(clients + frontends + backends + i) }

	for req := 0; req < requests; req++ {
		c := r.Intn(clients)
		fe := assignVaried(c, clients, frontends) // uneven session affinity
		be := fe % backends
		b.Message(client(c), frontend(fe))
		b.Unary(frontend(fe))
		b.Message(frontend(fe), backend(be))
		b.Unary(backend(be))
		if dbs > 0 && r.Float64() < 0.4 {
			d := r.Intn(dbs)
			b.Message(backend(be), db(d))
			b.Unary(db(d))
			b.Message(db(d), backend(be))
		}
		b.Message(backend(be), frontend(fe))
		b.Message(frontend(fe), client(c))
		b.Unary(client(c))
	}
	return b.Trace()
}

// sessionServer builds a web server with per-session worker threads: each
// client opens a connection once through the dispatcher, which pins the
// session to a worker; all subsequent requests flow directly between the
// client and its worker. Layout: dispatcher, workers, clients.
func sessionServer(workers, clients, requests int, seed int64) *model.Trace {
	r := rng(seed)
	n := 1 + workers + clients
	b := model.NewBuilder("", n)
	const dispatcher = model.ProcessID(0)
	worker := func(i int) model.ProcessID { return model.ProcessID(1 + i) }
	client := func(i int) model.ProcessID { return model.ProcessID(1 + workers + i) }

	// Connection setup: one dispatcher round-trip per client. Session
	// pinning is deliberately uneven (assignVaried).
	for c := 0; c < clients; c++ {
		w := assignVaried(c, clients, workers)
		b.Message(client(c), dispatcher)
		b.Message(dispatcher, worker(w))
		b.Message(worker(w), client(c))
	}
	// Steady state: requests go directly to the pinned worker.
	for req := 0; req < requests; req++ {
		c := r.Intn(clients)
		w := assignVaried(c, clients, workers)
		b.Message(client(c), worker(w))
		b.Unary(worker(w))
		b.Message(worker(w), client(c))
		b.Unary(client(c))
	}
	return b.Trace()
}

// warmupSessionServer is sessionServer with a warm-up phase: the first
// warmup requests are dispatched round-robin across all workers (cold
// caches, no sessions yet) before session pinning takes over. The transient
// phase misleads eager dynamic clustering; the steady state is as local as
// sessionServer.
func warmupSessionServer(workers, clients, warmup, requests int, seed int64) *model.Trace {
	r := rng(seed)
	n := 1 + workers + clients
	b := model.NewBuilder("", n)
	const dispatcher = model.ProcessID(0)
	worker := func(i int) model.ProcessID { return model.ProcessID(1 + i) }
	client := func(i int) model.ProcessID { return model.ProcessID(1 + workers + i) }

	for req := 0; req < warmup; req++ {
		c := req % clients
		w := req % workers // round-robin, ignores sessions
		b.Message(client(c), dispatcher)
		b.Message(dispatcher, worker(w))
		b.Message(worker(w), client(c))
	}
	for req := 0; req < requests; req++ {
		c := r.Intn(clients)
		w := assignVaried(c, clients, workers)
		b.Message(client(c), worker(w))
		b.Unary(worker(w))
		b.Message(worker(w), client(c))
		b.Unary(client(c))
	}
	return b.Trace()
}

// rotatingSessionServer is a session server whose pinning changes between
// phases: after every requestsPerPhase requests the worker assignment
// rotates by one (deployments do this on worker recycling or rebalancing).
// The union communication graph still has strong pairwise structure — each
// client talks to a handful of workers — so a static clustering spanning the
// phases does well, while eager dynamic clustering locks in the first
// phase's pairing and pays for every later phase.
func rotatingSessionServer(workers, clients, requestsPerPhase, phases int, seed int64) *model.Trace {
	r := rng(seed)
	n := workers + clients
	b := model.NewBuilder("", n)
	worker := func(i int) model.ProcessID { return model.ProcessID(i) }
	client := func(i int) model.ProcessID { return model.ProcessID(workers + i) }

	for phase := 0; phase < phases; phase++ {
		for req := 0; req < requestsPerPhase; req++ {
			c := r.Intn(clients)
			w := (assignVaried(c, clients, workers) + phase) % workers
			b.Message(client(c), worker(w))
			b.Unary(worker(w))
			b.Message(worker(w), client(c))
			b.Unary(client(c))
		}
	}
	return b.Trace()
}

// threadPool builds a shared thread pool with no affinity: each request goes
// from a random client through a queue process to a random pool worker and
// back. Locality is deliberately poor — every client eventually talks to
// every worker — providing a low-locality web-style control.
func threadPool(workers, clients, requests int, seed int64) *model.Trace {
	r := rng(seed)
	n := 1 + workers + clients
	b := model.NewBuilder("", n)
	const queue = model.ProcessID(0)
	worker := func(i int) model.ProcessID { return model.ProcessID(1 + i) }
	client := func(i int) model.ProcessID { return model.ProcessID(1 + workers + i) }

	for req := 0; req < requests; req++ {
		c := r.Intn(clients)
		w := r.Intn(workers)
		b.Message(client(c), queue)
		b.Message(queue, worker(w))
		b.Unary(worker(w))
		b.Message(worker(w), client(c))
	}
	return b.Trace()
}
